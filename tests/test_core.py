"""Time functions, scenario validation, document parsing and round-trips."""

import io
import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from bckosc import (InvalidIC, OutOfDomain, ParseError, Scenario,
                    TimeFunction, ValidationError, parse_scenario,
                    twice_integral)
from bckosc.core import (_SECTIONS, _TF_SECTIONS, KIND_POLY, MAX_COUNT,
                         tf_document)

from conftest import SCENARIO_DIR

TS = np.array([-2.0, -0.3, 0.0, 0.7, 1.5, 3.2, 6.0])


# ---------- evaluation against the defining formulas ----------

def test_constant_evaluates():
    f = TimeFunction.constant(2.5)
    assert_allclose(f(TS), np.full_like(TS, 2.5), rtol=0, atol=0)
    assert f(0.3) == 2.5
    # zero is +0.0 at every time, negative ones included
    zero = TimeFunction.constant(0.0)
    assert math.copysign(1.0, zero(-2.0)) == 1.0
    assert not np.signbit(zero(TS)).any()


def test_linear_evaluates():
    f = TimeFunction.linear(1.0, 0.05)
    assert_allclose(f(TS), 1.0 + 0.05 * TS, rtol=1e-15)


def test_sinusoid_evaluates():
    f = TimeFunction.sinusoid(0.5, 0.9, 0.2)
    assert_allclose(f(TS), 0.5 * np.sin(0.9 * TS + 0.2), rtol=1e-15)
    g = TimeFunction.sinusoid(0.5, 0.9)
    assert g(0.0) == 0.0


def test_exponential_evaluates():
    f = TimeFunction.exponential(2.0, -0.3)
    assert_allclose(f(TS), 2.0 * np.exp(-0.3 * TS), rtol=1e-15)


def test_tabulated_reproduces_linear_data():
    # a natural cubic spline through linear samples is the line itself
    ts = np.linspace(-1.0, 4.0, 11)
    f = TimeFunction.tabulated(ts, 0.7 - 0.2 * ts)
    tq = np.linspace(-1.0, 4.0, 57)
    assert_allclose(f(tq), 0.7 - 0.2 * tq, rtol=0, atol=1e-9)


def test_tabulated_matches_scipy_spline_on_any_shape():
    from scipy.interpolate import CubicSpline
    ts = np.array([0.0, 0.5, 1.7, 2.0, 3.1, 4.0])
    vs = np.array([1.0, -0.3, 0.8, 0.2, 1.5, -1.0])
    f = TimeFunction.tabulated(ts, vs)
    tq = np.concatenate([ts, np.linspace(0.0, 4.0, 43)]).reshape(7, 7)
    assert f(tq).shape == (7, 7)
    ref = CubicSpline(ts, vs, bc_type="natural")(tq)
    assert_allclose(f(tq), ref, rtol=0, atol=1e-14)
    assert f(1.7) == f(np.array([1.7]))[0]
    rng = np.random.default_rng(1)
    for n in (4, 5, 9, 17):
        ts = np.cumsum(np.concatenate(([0.0], rng.uniform(0.2, 1.0, n - 1))))
        vs = rng.uniform(-1.0, 1.0, n)
        tq = np.concatenate([ts, np.linspace(ts[0], ts[-1], 43)])
        ref = CubicSpline(ts, vs, bc_type="natural")(tq)
        assert_allclose(TimeFunction.tabulated(ts, vs)(tq), ref,
                        rtol=0, atol=1e-14)
    # 2000 knots whose spacing spans three decades: 2.1e-13 from scipy's
    # spline (2.2e-13 with the cyclic-reduction solve this one replaced)
    rng = np.random.default_rng(2000)
    ts = np.cumsum(np.concatenate(([0.0], 10.0 ** rng.uniform(-3.0, 0.0,
                                                               1999))))
    vs = rng.uniform(-1.0, 1.0, 2000)
    tq = np.concatenate([ts, np.linspace(ts[0], ts[-1], 4001)])
    ref = CubicSpline(ts, vs, bc_type="natural")(tq)
    assert_allclose(TimeFunction.tabulated(ts, vs)(tq), ref,
                    rtol=0, atol=4e-13)


def test_tabulated_domain_is_enforced():
    f = TimeFunction.tabulated([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 1.0, 0.0])
    assert f.domain == (0.0, 3.0)
    # a nan lies in no interval: it is refused like the infinities
    for t in (3.5, np.array([1.0, -0.1]), np.nan, np.array([1.0, np.nan]),
              np.inf, -np.inf):
        with pytest.raises(OutOfDomain):
            f(t)


def _six_term_horner(c, u):
    """c[0] + c[1] u + ... + c[5] u^5 from the sixth coefficient down, the
    form a polynomial of lower degree is evaluated as if padded to."""
    out = c[5]
    for k in (4, 3, 2, 1, 0):
        out = out * u + c[k]
    return out


_COEF = st.floats(-1e3, 1e3)
_TIMES = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from([0, 1, 2, 5]).flatmap(
           lambda deg: st.lists(_COEF, min_size=deg + 1, max_size=deg + 1)),
       _TIMES)
def test_polynomial_evaluates_at_its_true_degree(coefs, times):
    # zeros at the top, leading included, are drawn as often as any value;
    # a sixth coefficient of -0.0 is the one case _horner leaves apart
    if len(coefs) == 6 and coefs[5] == 0.0:
        coefs[5] = 0.0
    f = TimeFunction(KIND_POLY, coefs)
    t = np.array(times)
    ref = _six_term_horner(f.params, t)
    assert np.array_equal(np.signbit(f(t)), np.signbit(ref))
    assert np.array_equal(f(t), ref)
    assert [f(x) for x in times] == [float(r) for r in ref]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.lists(_COEF, min_size=4, max_size=4), min_size=3,
                max_size=3),
       st.lists(st.booleans(), min_size=3, max_size=3),
       st.lists(st.floats(0.0, 3.0), min_size=1, max_size=20))
def test_spline_evaluates_at_its_true_degree(rows, cubic, times):
    # splines whose leading coefficients are zero on some segments or on all
    rows = [r if keep else r[:3] + [0.0] for r, keep in zip(rows, cubic)]
    f = TimeFunction(KIND_POLY, rows, breaks=[0.0, 1.0, 2.0, 3.0])
    t = np.array(times)
    seg = np.clip(np.searchsorted(f.breaks, t, side="right") - 1, 0, 2)
    ref = _six_term_horner(f.params[seg].T, t - f.breaks[seg])
    got = f(t)
    assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert np.array_equal(got, ref)


def test_tabulated_rejects_bad_samples():
    with pytest.raises(ValidationError):
        TimeFunction.tabulated([0.0, 1.0, 2.0], [1.0, 2.0, 1.0])  # too few
    with pytest.raises(ValidationError):
        TimeFunction.tabulated([0.0, 1.0, 1.0, 2.0], [1.0, 2.0, 1.0, 0.0])
    with pytest.raises(ValidationError):
        TimeFunction.tabulated([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="finite"):
            TimeFunction.tabulated([0.0, 1.0, bad, 3.0], [1.0, 2.0, 1.0, 0.0])
        with pytest.raises(ValidationError, match="finite"):
            TimeFunction.tabulated([0.0, 1.0, 2.0, 3.0], [1.0, bad, 1.0, 0.0])


def test_tabulated_rejects_a_spline_that_is_not_finite():
    # knots one subnormal apart overflow the slopes: an error, not a NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="finite spline"):
            TimeFunction.tabulated([0.0, 5e-324, 1.0, 2.0], [0.0, 1e3, 0.0, 1.0])


# ---------- derivatives ----------

def test_derivatives_match_closed_forms():
    tq = TS
    d = TimeFunction.linear(1.0, 0.05).derivative()
    assert_allclose(d(tq), np.full_like(tq, 0.05), rtol=1e-15)
    d = TimeFunction.sinusoid(0.5, 0.9, 0.2).derivative()
    assert_allclose(d(tq), 0.45 * np.cos(0.9 * tq + 0.2), rtol=0, atol=1e-15)
    d = TimeFunction.exponential(2.0, -0.3).derivative()
    assert_allclose(d(tq), -0.6 * np.exp(-0.3 * tq), rtol=1e-15)


def test_tabulated_derivative_matches_difference_quotient():
    ts = np.linspace(0.0, 6.0, 25)
    f = TimeFunction.tabulated(ts, np.sin(ts))
    d = f.derivative()
    h = 1e-6
    for t in (0.5, 2.3, 4.1):
        assert_allclose(d(t), (f(t + h) - f(t - h)) / (2 * h),
                        rtol=0, atol=1e-8)


# ---------- antiderivatives against quadrature ----------

@pytest.mark.parametrize("f", [
    TimeFunction.constant(0.1),
    TimeFunction.linear(1.0, 0.05),
    TimeFunction.sinusoid(0.5, 0.9, 0.2),
    TimeFunction.exponential(2.0, -0.3),
], ids=["constant", "linear", "sinusoid", "exponential"])
def test_antiderivative_matches_quadrature(f):
    A = f.antiderivative()
    for a, b in ((0.0, 1.7), (-2.0, 3.0), (1.0, 1.0)):
        ref, _ = quad(f, a, b)
        assert_allclose(A(b) - A(a), ref, rtol=0, atol=1e-12)


def test_zero_frequency_sinusoid_integrates_as_line():
    # amplitude*sin(phase) is constant in t; its integral is a line
    f = TimeFunction.sinusoid(2.0, 0.0, 0.5)
    A = f.antiderivative()
    assert_allclose(A(3.0) - A(1.0), 2.0 * math.sin(0.5) * 2.0, rtol=1e-15)


def test_zero_rate_exponential_integrates_as_line():
    f = TimeFunction.exponential(1.5, 0.0)
    A = f.antiderivative()
    assert_allclose(A(2.0) - A(-1.0), 4.5, rtol=1e-15)


def test_tabulated_antiderivative_is_continuous_and_correct():
    ts = np.linspace(0.0, 6.0, 25)
    f = TimeFunction.tabulated(ts, np.exp(-0.2 * ts))
    A = f.antiderivative()
    ref, _ = quad(f, 0.0, 5.3, points=list(ts), limit=200)
    assert_allclose(A(5.3) - A(0.0), ref, rtol=0, atol=1e-10)
    # continuity across an interior breakpoint
    tb = ts[7]
    assert_allclose(A(tb - 1e-12), A(tb + 1e-12), rtol=0, atol=1e-10)


def test_degree_limits_on_integration():
    full = TimeFunction(KIND_POLY, [1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        full.antiderivative()


def test_twice_integral_constant_damping():
    G = twice_integral(TimeFunction.constant(0.1), 0.0)
    assert_allclose(G(7.0), 1.4, rtol=1e-15)
    assert G(0.0) == 0.0


@pytest.mark.parametrize("damping", [
    TimeFunction.constant(0.1),
    TimeFunction.linear(0.05, 0.004),
    TimeFunction.sinusoid(0.05, 0.7, 0.3),
    TimeFunction.exponential(0.05, 0.03),
    TimeFunction.tabulated(np.linspace(0.0, 10.0, 21),
                           0.1 + 0.02 * np.sin(np.linspace(0.0, 10.0, 21))),
], ids=["constant", "linear", "sinusoid", "exponential", "tabulated"])
def test_twice_integral_matches_quadrature_away_from_zero(damping):
    t0 = 1.3
    G = twice_integral(damping, t0)
    assert G(t0) == 0.0
    ts = np.array([0.4, 2.9, 7.6, 10.0])
    # the spline's knots split the quadrature where its third derivative jumps
    knots = list(damping.breaks) or None
    ref = [2.0 * quad(damping, t0, t, points=knots, epsabs=1e-14,
                      epsrel=1e-14, limit=200)[0] for t in ts]
    assert_allclose(G(ts), ref, rtol=0, atol=1e-12)
    assert_allclose([G(t) for t in ts], ref, rtol=0, atol=1e-12)


def test_twice_integral_tabulated_damping():
    ts = np.linspace(0.0, 10.0, 41)
    damping = TimeFunction.tabulated(ts, 0.1 + 0.02 * np.sin(ts))
    G = twice_integral(damping, 0.0)
    ref, _ = quad(lambda u: 2.0 * damping(u), 0.0, 8.1, limit=200)
    assert_allclose(G(8.1), ref, rtol=0, atol=1e-9)
    assert G(0.0) == 0.0


@pytest.mark.parametrize("make", [
    lambda: TimeFunction.constant(math.nan),
    lambda: TimeFunction.linear(1.0, math.inf),
    lambda: TimeFunction.sinusoid(1.0, -math.inf),
    lambda: TimeFunction.exponential(1.0, math.nan),
], ids=["constant", "linear", "sinusoid", "exponential"])
def test_time_function_rejects_non_finite_params(make):
    with pytest.raises(ValidationError, match="finite"):
        make()


# ---------- scenario construction ----------

def _minimal(**kw):
    base = dict(omega=TimeFunction.constant(1.0), t0=0.0, t1=10.0)
    base.update(kw)
    return Scenario(**base)


def test_scenario_defaults():
    s = _minimal()
    assert (s.m, s.hbar) == (1.0, 1.0)
    assert s.damping(3.0) == 0.0 and s.force(3.0) == 0.0
    assert s.npoints == 1024
    g = s.grid()
    assert g[0] == s.qmin and g[-1] == s.qmax and g.shape == (1024,)
    assert s.G is s.G   # built once per scenario


@pytest.mark.parametrize("kw", [
    dict(m=0.0), dict(hbar=-1.0), dict(t1=-1.0), dict(npoints=8),
    dict(npoints=MAX_COUNT + 1), dict(qmin=2.0, qmax=-2.0), dict(rtol=0.0),
    dict(atol=-1e-9), dict(max_step=0.0), dict(beta0=(0.0, 0.0)),
], ids=["m", "hbar", "window", "npoints", "npoints-above-max-count", "grid",
        "rtol", "atol", "max_step", "beta0"])
def test_scenario_rejects_invalid_fields(kw):
    with pytest.raises(ValidationError):
        _minimal(**kw)


@pytest.mark.parametrize("kw", [
    dict(t0=-math.inf), dict(t1=math.inf), dict(m=math.nan),
    dict(hbar=math.inf), dict(qmin=-math.inf), dict(qmax=math.inf),
    dict(rtol=math.inf), dict(atol=math.nan), dict(max_step=math.inf),
    dict(beta0=(1.0, complex(0.0, math.nan))),
], ids=["t0", "t1", "m", "hbar", "qmin", "qmax", "rtol", "atol", "max_step",
        "beta0"])
def test_scenario_rejects_non_finite_fields(kw):
    with pytest.raises(ValidationError, match="finite"):
        _minimal(**kw)


def test_tabulated_must_cover_window():
    f = TimeFunction.tabulated([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        _minimal(omega=f)  # window [0, 10] exceeds samples


def test_default_beta_ics_are_underdamped():
    s = _minimal(damping=TimeFunction.constant(0.1))
    b0, db0 = s.resolved_beta0()
    assert b0 == 1.0 + 0.0j
    assert_allclose([db0.real, db0.imag], [-0.1, math.sqrt(0.99)], rtol=1e-15)


def test_default_beta_ics_require_underdamping():
    s = _minimal(damping=TimeFunction.constant(2.0))
    with pytest.raises(InvalidIC):
        s.resolved_beta0()


def test_explicit_beta_ics_pass_through():
    s = _minimal(beta0=(1.0 + 2.0j, 0.5))
    assert s.resolved_beta0() == (1.0 + 2.0j, 0.5 + 0.0j)


# ---------- document parsing ----------

GOOD_DOC = """
[scenario]
m = 1.0
hbar = 1.0
t0 = 0.0
t1 = 6.0

[omega]
type = constant
value = 1.0

[damping]
type = constant
value = 0.1

[force]
type = sinusoid
amplitude = 0.5
frequency = 0.9

[beta0]
re = 1.0
im = 0.0
dre = -0.1
dim = 0.99498743710661997

[grid]
qmin = -10.0
qmax = 10.0
npoints = 256

[integrator]
rtol = 1e-11
atol = 1e-13
"""


def test_parse_good_document():
    s = parse_scenario(GOOD_DOC)
    assert (s.t0, s.t1, s.m, s.hbar) == (0.0, 6.0, 1.0, 1.0)
    assert s.omega(2.0) == 1.0 and s.damping(2.0) == 0.1
    assert_allclose(s.force(2.0), 0.5 * math.sin(1.8), rtol=1e-15)
    assert s.beta0[0] == 1.0 + 0.0j
    assert (s.qmin, s.qmax, s.npoints) == (-10.0, 10.0, 256)
    assert (s.rtol, s.atol) == (1e-11, 1e-13)


def test_parse_defaults_omitted_sections():
    s = parse_scenario("[scenario]\nt0 = 0\nt1 = 5\n"
                       "[omega]\ntype = constant\nvalue = 2.0\n")
    assert s.damping(1.0) == 0.0 and s.force(1.0) == 0.0
    assert s.beta0 is None


@pytest.mark.parametrize("doc", [
    "[omega]\ntype = constant\nvalue = 1\n",                     # no scenario
    "[scenario]\nt0 = 0\nt1 = 5\n",                              # no omega
    "[scenario]\nt0 = 0\nt1 = 5\n[omega]\ntype = fractal\n",     # bad type
    "[scenario]\nt0 = 0\nt1 = 5\n[omega]\ntype = constant\n",    # missing key
    "[scenario]\nt0 = zero\nt1 = 5\n[omega]\ntype = constant\nvalue = 1\n",
    "[scenario]\nt0 = 0\nt1 = 5\n[omega]\ntype = constant\nvalue = 1\n"
    "[extras]\nx = 1\n",                                         # bad section
    "[scenario]\nt0 = 0\nt1 = 5\ncolor = blue\n"
    "[omega]\ntype = constant\nvalue = 1\n",                     # bad key
    "[scenario]\nt0 = 0\nt1 = 5\n[omega]\ntype = tabulated\n"
    "file = x.csv\nsamples = 0:1\n",                             # both sources
    "not an ini file at all [",
    "[scenario]\nt0 = 0\nt1 = 5\n[omega]\ntype = constant\nvalue = 1\n"
    "frequency = 7\nrate = 3\n",                                  # keys of others
    "[scenario]\nt0 = 0\nt1 = 5\n[omega]\ntype = constant\nvalue = 1\n"
    "[force]\ntype = sinusoid\namplitude = 1\nfrequency = 2\n"
    "value = 9\nsamples = 0:1\n",                                # ditto
    "[scenario]\nt0 = 0\nt1 = 3\n[omega]\ntype = tabulated\n"
    "samples = 0:1, 1:1, 2 1, 3:1\n",                           # no colon
], ids=["no-scenario", "no-omega", "bad-type", "missing-key", "bad-float",
        "bad-section", "bad-key", "two-sources", "bad-syntax",
        "stray-constant-keys", "stray-sinusoid-keys", "sample-no-colon"])
def test_parse_rejects_malformed_documents(doc):
    with pytest.raises(ParseError):
        parse_scenario(doc)


def test_parse_inline_tabulated_samples():
    s = parse_scenario("[scenario]\nt0 = 0\nt1 = 3\n[omega]\ntype = tabulated\n"
                       "samples = 0:1.0, 1:1.1, 2:1.2, 3:1.3\n")
    assert_allclose(s.omega(1.0), 1.1, rtol=1e-15)
    assert_allclose(s.omega(1.5), 1.15, rtol=0, atol=1e-9)


def test_parse_inline_samples_take_a_trailing_comma():
    s = parse_scenario("[scenario]\nt0 = 0\nt1 = 3\n[omega]\ntype = tabulated\n"
                       "samples = 0:1.0, 1:1.1, 2:1.2, 3:1.3,\n")
    assert s.omega.samples == ((0.0, 1.0, 2.0, 3.0), (1.0, 1.1, 1.2, 1.3))


def test_parse_readme_inline_samples_example():
    readme = (SCENARIO_DIR.parent / "README.md").read_text()
    line = re.search(r"`(samples = [^`]*)`", readme).group(1)
    s = parse_scenario("[scenario]\nt0 = 0\nt1 = 3\n[omega]\n"
                       f"type = tabulated\n{line}\n")
    assert_allclose(s.omega(1.0), 1.1, rtol=1e-15)


def test_parse_tabulated_file(tmp_path):
    p = tmp_path / "om.csv"
    p.write_text("t,value\n0,1.0\n1,1.1\n2,1.2\n3,1.3\n")
    s = parse_scenario("[scenario]\nt0 = 0\nt1 = 3\n[omega]\ntype = tabulated\n"
                       f"file = {p.name}\n", base_dir=str(tmp_path))
    assert_allclose(s.omega(2.0), 1.2, rtol=1e-15)


def test_parse_tabulated_file_takes_one_header_row(tmp_path):
    p = tmp_path / "om.csv"
    p.write_text("\n\nt,value\n0,1.0\n1,1.1\n2,1.2\n3,1.3\n")
    doc = ("[scenario]\nt0 = 0\nt1 = 3\n[omega]\ntype = tabulated\n"
           f"file = {p.name}\n")
    assert_allclose(parse_scenario(doc, base_dir=str(tmp_path)).omega(2.0),
                    1.2, rtol=1e-15)
    p.write_text("# omega\nt,value\nunit,none\n0,1.0\n1,1.1\n2,1.2\n3,1.3\n")
    with pytest.raises(ParseError, match="bad sample row"):
        parse_scenario(doc, base_dir=str(tmp_path))


def test_parse_tabulated_file_rows_have_two_fields(tmp_path):
    p = tmp_path / "om.csv"
    doc = ("[scenario]\nt0 = 0\nt1 = 3\n[omega]\ntype = tabulated\n"
           f"file = {p.name}\n")
    for text in ("0,1.0,junk\n1,1.1,junk\n2,1.2,junk\n3,1.3,junk\n",
                 "0,1.0,junk\n1,1.1\n2,1.2\n3,1.3\n",
                 "t,value\n0,1.0\n1,1.1\n2,1.2,\n3,1.3\n"):
        p.write_text(text)
        with pytest.raises(ParseError, match="bad sample row"):
            parse_scenario(doc, base_dir=str(tmp_path))


def test_parse_tabulated_file_missing(tmp_path):
    with pytest.raises(ParseError):
        parse_scenario("[scenario]\nt0 = 0\nt1 = 3\n[omega]\ntype = tabulated\n"
                       "file = nope.csv\n", base_dir=str(tmp_path))


# ---------- serialization round-trip ----------

def serialize_scenario(s):
    """A scenario document that parses back to ``s``: each time function
    as ``tf_document`` writes it, each other number at 17 digits."""
    out = io.StringIO()

    def section(sect, values):
        out.write(f"[{sect}]\n")
        for key, v in values.items():
            if v is not None:
                out.write(f"{key} = {v}\n" if isinstance(v, str)
                          else f"{key} = {v:.17g}\n")
        out.write("\n")

    for sect in _TF_SECTIONS:
        name, values = tf_document(getattr(s, sect))
        section(sect, {"type": name, **values})
    for sect, (_, keys) in _SECTIONS.items():
        if sect != "beta0":
            section(sect, {key: getattr(s, key) for key in keys})
        elif s.beta0 is not None:
            b0, db0 = s.beta0
            section(sect, dict(zip(keys, (b0.real, b0.imag, db0.real,
                                          db0.imag))))
    return out.getvalue()


def encoded(s):
    """The scenario's fields, each time function as its kind, params and
    breaks: what a round trip keeps.  Scenarios and time functions compare
    by identity."""
    out = {}
    for f in fields(s):
        v = getattr(s, f.name)
        if isinstance(v, TimeFunction):
            v = (v.kind, v.params.tolist(), v.breaks.tolist())
        out[f.name] = v
    return out


def test_serialize_round_trip_driven():
    s = parse_scenario(GOOD_DOC)
    assert encoded(parse_scenario(serialize_scenario(s))) == encoded(s)


def test_serialize_round_trip_all_variants():
    for omega in (TimeFunction.constant(1.0),
                  TimeFunction.linear(1.0, 0.05),
                  TimeFunction.sinusoid(1.0, 0.3, 0.1),
                  TimeFunction.exponential(1.0, 0.01),
                  TimeFunction.tabulated([0.0, 4.0, 8.0, 12.0],
                                         [1.0, 1.2, 1.1, 0.9])):
        s = Scenario(omega=omega, t0=0.0, t1=10.0, qmin=-8.0, qmax=8.0,
                     npoints=128, rtol=1e-9, atol=1e-11, max_step=0.25)
        assert encoded(parse_scenario(serialize_scenario(s))) == encoded(s)


def test_serialize_omits_an_unset_max_step():
    s = parse_scenario(GOOD_DOC)
    assert s.max_step is None
    text = serialize_scenario(s)
    assert "max_step" not in text
    back = parse_scenario(text)
    assert encoded(back) == encoded(s) and back.max_step is None


def test_default_step_max_follows_the_window():
    wider = replace(_minimal(), t1=20.0)
    assert wider.max_step is None
    assert wider.step_max == (20.0 - 0.0) / 100.0
    assert replace(_minimal(max_step=0.25), t1=20.0).step_max == 0.25


def test_serialize_rejects_derived_functions():
    spline = TimeFunction.tabulated([0.0, 4.0, 8.0, 12.0], [1.0, 1.2, 1.1, 0.9])
    for omega in (TimeFunction.linear(1.0, 0.5).antiderivative(),
                  spline.derivative()):
        s = _minimal(omega=omega)
        with pytest.raises(ValidationError):
            serialize_scenario(s)


def test_serialize_writes_a_derived_function_as_its_type():
    # a function is written as the first type that holds all of it
    built = TimeFunction.exponential(0.5, 0.2).derivative()
    direct = TimeFunction.exponential(0.1, 0.2)
    assert (serialize_scenario(_minimal(omega=built))
            == serialize_scenario(_minimal(omega=direct)))
    s = _minimal(force=TimeFunction.sinusoid(1.0, 0.3).derivative())
    assert encoded(parse_scenario(serialize_scenario(s))) == encoded(s)
    text = serialize_scenario(_minimal(omega=TimeFunction.linear(2.0, 0.0)))
    assert "type = constant\nvalue = 2\n" in text


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _time_functions(draw, t0, t1):
    kind = draw(st.sampled_from(
        ("constant", "linear", "sinusoid", "exponential", "tabulated")))
    x = _finite(-1e3, 1e3)
    if kind == "constant":
        return TimeFunction.constant(draw(x))
    if kind == "linear":
        return TimeFunction.linear(draw(x), draw(st.just(0.0) | x))
    if kind == "sinusoid":
        args = draw(st.lists(x, min_size=2, max_size=3))
        return TimeFunction.sinusoid(*args)
    if kind == "exponential":
        return TimeFunction.exponential(draw(x), draw(_finite(-1.0, 1.0)))
    inner = draw(st.lists(_finite(t0, t1).filter(lambda t: t0 < t < t1),
                          min_size=2, max_size=8, unique=True))
    times = [t0 - draw(_finite(0.0, 5.0)), *sorted(inner),
             t1 + draw(_finite(0.0, 5.0))]
    values = draw(st.lists(x, min_size=len(times), max_size=len(times)))
    try:
        return TimeFunction.tabulated(times, values)
    except ValidationError:  # knots too close for a finite spline
        reject()


@st.composite
def _scenarios(draw):
    t0 = draw(_finite(-100.0, 100.0))
    t1 = t0 + draw(_finite(0.01, 100.0))
    qmin = draw(_finite(-50.0, 0.0))
    kw = dict(t0=t0, t1=t1, m=draw(_finite(0.1, 10.0)),
              hbar=draw(_finite(0.1, 10.0)),
              qmin=qmin, qmax=qmin + draw(_finite(0.1, 50.0)),
              npoints=draw(st.integers(16, 4096)),
              rtol=draw(_finite(1e-14, 1e-3)), atol=draw(_finite(1e-16, 1e-3)),
              max_step=draw(st.none() | _finite(1e-3, 10.0)))
    for name in ("omega", "damping", "force"):
        kw[name] = draw(_time_functions(t0, t1))
    if draw(st.booleans()):
        x = _finite(-10.0, 10.0)
        kw["beta0"] = (complex(draw(_finite(0.1, 10.0)), draw(x)),
                       complex(draw(x), draw(x)))
    return Scenario(**kw)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_scenarios())
def test_serialize_round_trip_property(s):
    text = serialize_scenario(s)
    back = parse_scenario(text)
    assert encoded(back) == encoded(s)
    assert serialize_scenario(back) == text
