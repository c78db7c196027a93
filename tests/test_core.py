"""Time functions, scenario validation, document parsing and round-trips."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from bckosc import (InvalidIC, OutOfDomain, ParseError, Scenario,
                    TimeFunction, ValidationError, eval_G, parse_scenario,
                    serialize_scenario, twice_integral)
from bckosc.core import KIND_POLY

from conftest import SCENARIO_DIR

TS = np.array([-2.0, -0.3, 0.0, 0.7, 1.5, 3.2, 6.0])


# ---------- evaluation against the defining formulas ----------

def test_constant_evaluates():
    f = TimeFunction.constant(2.5)
    assert_allclose(f(TS), np.full_like(TS, 2.5), rtol=0, atol=0)
    assert f(0.3) == 2.5


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
    # 2, 3, 7 and 15 interior unknowns: odd and even sizes at every level
    # of the reduction
    rng = np.random.default_rng(1)
    for n in (4, 5, 9, 17):
        ts = np.cumsum(np.concatenate(([0.0], rng.uniform(0.2, 1.0, n - 1))))
        vs = rng.uniform(-1.0, 1.0, n)
        tq = np.concatenate([ts, np.linspace(ts[0], ts[-1], 43)])
        ref = CubicSpline(ts, vs, bc_type="natural")(tq)
        assert_allclose(TimeFunction.tabulated(ts, vs)(tq), ref,
                        rtol=0, atol=1e-14)


def test_tabulated_domain_is_enforced():
    f = TimeFunction.tabulated([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 1.0, 0.0])
    assert f.domain == (0.0, 3.0)
    with pytest.raises(OutOfDomain):
        f(3.5)
    with pytest.raises(OutOfDomain):
        f(np.array([1.0, -0.1]))


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


def test_affine_rescaling():
    f = TimeFunction.sinusoid(0.5, 0.9, 0.2)
    g = f.affine(3.0, -1.0)
    assert_allclose(g(TS), 3.0 * f(TS) - 1.0, rtol=0, atol=1e-15)


def test_equality_compares_the_encoded_function():
    one = TimeFunction(KIND_POLY, [1.0])
    two = TimeFunction(KIND_POLY, [2.0])
    assert one != two
    assert _minimal(omega=one) != _minimal(omega=two)
    # the same function built two ways compares and hashes equal
    built = TimeFunction.sinusoid(0.5, 0.9, 0.2).affine(2.0, 0.0)
    direct = TimeFunction.sinusoid(1.0, 0.9, 0.2)
    assert built == direct and hash(built) == hash(direct)
    spline = TimeFunction.tabulated([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 0.0, 1.0])
    assert spline != spline.affine(1.0, 1.0)


def test_twice_integral_constant_damping():
    G = twice_integral(TimeFunction.constant(0.1), 0.0)
    assert_allclose(G(7.0), 1.4, rtol=1e-15)
    assert G(0.0) == 0.0


def test_twice_integral_tabulated_damping():
    ts = np.linspace(0.0, 10.0, 41)
    damping = TimeFunction.tabulated(ts, 0.1 + 0.02 * np.sin(ts))
    G = twice_integral(damping, 0.0)
    ref, _ = quad(lambda u: 2.0 * damping(u), 0.0, 8.1, limit=200)
    assert_allclose(G(8.1), ref, rtol=0, atol=1e-9)
    assert G(0.0) == 0.0


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


@pytest.mark.parametrize("kw", [
    dict(m=0.0), dict(hbar=-1.0), dict(t1=-1.0), dict(npoints=8),
    dict(qmin=2.0, qmax=-2.0), dict(rtol=0.0), dict(atol=-1e-9),
    dict(max_step=0.0), dict(beta0=(0.0, 0.0)),
], ids=["m", "hbar", "window", "npoints", "grid", "rtol", "atol",
        "max_step", "beta0"])
def test_scenario_rejects_invalid_fields(kw):
    with pytest.raises(ValidationError):
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


def test_eval_G_checks_window():
    s = _minimal(damping=TimeFunction.constant(0.1))
    assert_allclose(eval_G(s, 5.0), 1.0, rtol=1e-15)
    with pytest.raises(OutOfDomain):
        eval_G(s, 10.5)


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
], ids=["no-scenario", "no-omega", "bad-type", "missing-key", "bad-float",
        "bad-section", "bad-key", "two-sources", "bad-syntax"])
def test_parse_rejects_malformed_documents(doc):
    with pytest.raises(ParseError):
        parse_scenario(doc)


def test_parse_inline_tabulated_samples():
    s = parse_scenario("[scenario]\nt0 = 0\nt1 = 3\n[omega]\ntype = tabulated\n"
                       "samples = 0:1.0, 1:1.1, 2:1.2, 3:1.3\n")
    assert_allclose(s.omega(1.0), 1.1, rtol=1e-15)
    assert_allclose(s.omega(1.5), 1.15, rtol=0, atol=1e-9)


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


def test_parse_tabulated_file_missing(tmp_path):
    with pytest.raises(ParseError):
        parse_scenario("[scenario]\nt0 = 0\nt1 = 3\n[omega]\ntype = tabulated\n"
                       "file = nope.csv\n", base_dir=str(tmp_path))


# ---------- serialization round-trip ----------

def test_serialize_round_trip_driven():
    s = parse_scenario(GOOD_DOC)
    assert parse_scenario(serialize_scenario(s)) == s


def test_serialize_round_trip_all_variants():
    for omega in (TimeFunction.constant(1.0),
                  TimeFunction.linear(1.0, 0.05),
                  TimeFunction.sinusoid(1.0, 0.3, 0.1),
                  TimeFunction.exponential(1.0, 0.01),
                  TimeFunction.tabulated([0.0, 4.0, 8.0, 12.0],
                                         [1.0, 1.2, 1.1, 0.9])):
        s = Scenario(omega=omega, t0=0.0, t1=10.0, qmin=-8.0, qmax=8.0,
                     npoints=128, rtol=1e-9, atol=1e-11, max_step=0.25)
        assert parse_scenario(serialize_scenario(s)) == s


def test_serialize_rejects_derived_functions():
    s = _minimal(omega=TimeFunction.sinusoid(1.0, 0.3).derivative())
    with pytest.raises(ValidationError):
        serialize_scenario(s)
