"""Integrator checks: closed-form anchors, a scipy cross-check of the full
augmented amplitude system, quadrature oracles for the ride-along integrals
and the documented failure modes."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad, solve_ivp

from bckosc import ode
from bckosc import (OutOfDomain, Scenario, StepSizeUnderflow, TimeFunction,
                    integrate_beta, integrate_classical, integrate_gamma,
                    integrate_sigma, parse_scenario, parse_scenario_file)
from bckosc.invariants import envelope_ics, frame_from_beta

from conftest import SCENARIO_DIR, coefficient_reduction

OMEGA_BAR = math.sqrt(0.99)


def scipy_reference(s, t_eval):
    """The same augmented amplitude system integrated by scipy's DOP853:
    (beta, beta', force functional, Gaussian phase integral, unwrapped
    phase) as a 9-component real state.  Its right-hand side is written
    out here on purpose, sharing no code with the path it checks."""

    def rhs(t, y):
        w = s.omega(t)
        g = s.damping(t)
        F = s.force(t)
        G = s.G(t)
        b = y[0] + 1j * y[1]
        db = y[2] + 1j * y[3]
        ddb = -2.0 * g * db - w * w * b
        dF = math.exp(G) * b * F
        ratio = (y[4] + 1j * y[5]) / b
        dP = math.exp(-G) * ratio * ratio
        dphase = (db / b).imag
        return [db.real, db.imag, ddb.real, ddb.imag,
                dF.real, dF.imag, dP.real, dP.imag, dphase]

    b0, db0 = s.resolved_beta0()
    y0 = [b0.real, b0.imag, db0.real, db0.imag, 0.0, 0.0, 0.0, 0.0,
          float(np.angle(b0))]
    out = solve_ivp(rhs, (s.t0, s.t1), y0, method="DOP853", t_eval=t_eval,
                    rtol=1e-12, atol=1e-14)
    assert out.success
    return out.y.T


# ---------- closed-form anchors ----------

def test_sho_amplitude_is_unit_circle(sho, sho_beta):
    ts = np.linspace(sho.t0, sho.t1, 64)
    fr = frame_from_beta(sho, sho_beta, ts)
    assert_allclose(fr.beta, np.exp(1j * ts), rtol=0, atol=1e-9)
    assert_allclose(fr.dbeta, 1j * np.exp(1j * ts), rtol=0, atol=1e-9)
    assert_allclose(fr.F, 0.0, rtol=0, atol=1e-15)
    assert_allclose(fr.phase, ts, rtol=0, atol=1e-9)


def test_free_damped_amplitude_closed_form():
    s = Scenario(omega=TimeFunction.constant(1.0), t0=0.0, t1=30.0,
                 damping=TimeFunction.constant(0.1), rtol=1e-12, atol=1e-14)
    sol = integrate_beta(s)
    ts = np.linspace(0.0, 30.0, 64)
    fr = frame_from_beta(s, sol, ts)
    ref = np.exp((-0.1 + 1j * OMEGA_BAR) * ts)
    assert_allclose(fr.beta, ref, rtol=0, atol=1e-9)
    assert_allclose(fr.dbeta, (-0.1 + 1j * OMEGA_BAR) * ref, rtol=0,
                    atol=1e-9)


def test_phase_is_unwrapped(driven, driven_beta):
    # beta = e^{-gt} e^{i omega_bar t}: the argument grows far past pi
    for t in (10.0 * math.pi, driven.t1):
        assert_allclose(frame_from_beta(driven, driven_beta, t).phase,
                        OMEGA_BAR * t, rtol=0, atol=1e-8)


# ---------- cross-integrator comparison ----------

@pytest.mark.parametrize("name", ["driven", "ramp"])
def test_amplitude_system_matches_scipy(name, request):
    s = request.getfixturevalue(name)
    sol = request.getfixturevalue(name + "_beta")
    ts = np.linspace(s.t0, s.t1, 61)
    ref = scipy_reference(s, ts)
    # the force functional grows like e^{G/2}, so bound relative + absolute
    assert_allclose(sol(ts), ref, rtol=5e-9, atol=5e-9)


def test_dense_output_between_steps(driven, driven_beta):
    # interpolated values must hold near solution accuracy, not just the
    # accepted-step states; the 7th-order interpolant sits one order below
    # the step error, hence the slightly wider bound
    rng = np.random.default_rng(20260823)
    ts = np.sort(rng.uniform(driven.t0, driven.t1, 101))
    ref = scipy_reference(driven, ts)
    assert_allclose(driven_beta(ts), ref, rtol=2e-7, atol=2e-7)


# ---------- the DOP853 tableau ----------

def test_tableau_matches_scipy_coefficients():
    # the inlined constants, digit for digit the same as scipy's copy of
    # Hairer's DOP853
    from scipy.integrate._ivp import dop853_coefficients as ref
    assert np.array_equal(ode._A, ref.A)
    assert np.array_equal(ode._C, ref.C)
    assert np.array_equal(ode._rows(ode._D_ROWS, 16), ref.D)
    b, e5, e3 = ode._W[0], ode._W[-2], ode._W[-1]
    assert np.array_equal(b[:12], ref.B)
    assert np.array_equal(e5[:13], ref.E5)
    assert np.array_equal(e3[:13], ref.E3)
    assert not np.any(b[12:]) and not np.any(e5[13:]) and not np.any(e3[13:])


def test_tableau_order_conditions():
    b = ode._W[0]
    assert_allclose(ode._A.sum(axis=1), ode._C, rtol=0, atol=1e-14)
    assert_allclose(b.sum(), 1.0, rtol=0, atol=1e-15)
    for k in range(1, 8):
        assert_allclose(b @ ode._C ** k, 1.0 / (k + 1), rtol=0, atol=1e-15)


def _oscillator_sweeps():
    # y'' = -y on [0, 10], y(0) = 1, y'(0) = 0, over fixed uniform grids
    def coef(t):
        out = np.zeros(t.shape + (2, 2))
        out[..., 0, 1], out[..., 1, 0] = 1.0, -1.0
        return out

    for n in (20, 40, 80):
        ts = np.linspace(0.0, 10.0, n + 1)
        ys, qs, _, bad = ode._sweep(ts, coef, np.array([[1.0], [0.0]]), 2,
                                    1e-12, 1e-14)
        assert bad is None
        yield ts, ys, qs


def test_sweep_converges_at_eighth_order():
    errs = [np.max(np.abs(ys[-1] - [math.cos(10.0), -math.sin(10.0)]))
            for _, ys, _ in _oscillator_sweeps()]
    # each halving of the step must shrink the end error by at least 2^7
    assert errs[0] > 2 ** 7 * errs[1]
    assert errs[1] > 2 ** 7 * errs[2]


def test_interpolant_ends_at_the_next_state():
    for _, ys, qs in _oscillator_sweeps():
        # at theta = 1 the extension is y_n + F0
        assert_allclose(ys[:-1] + qs[0], ys[1:], rtol=0, atol=1e-13)


@pytest.mark.parametrize("system", ["amplitude", "trajectory"])
def test_interpolant_ends_at_the_next_state_on_driven(system):
    # the bundled driven scenario at its own tolerances, where p grows to
    # ~1e5: the extension's end meets the chained next state to rounding,
    # and at a grid time the stored state is returned
    s = parse_scenario_file(str(SCENARIO_DIR / "underdamped_driven.cfg"))
    sol = (integrate_beta(s) if system == "amplitude"
           else integrate_classical(s, 1.0, 0.0))
    ys, qs = sol.ys, sol.qs
    miss = np.abs(ys[:-1] + qs[0] - ys[1:]) / (1.0 + np.abs(ys[1:]))
    assert np.max(miss) <= 1e-12
    assert np.array_equal(sol(sol.ts[:-1]), ys[:-1])


# ---------- ride-along integrals against quadrature ----------

def test_force_functional_matches_quadrature(driven, driven_beta):
    t = 5.0

    def integrand(tau, part):
        val = (math.exp(0.2 * tau) * np.exp((-0.1 + 1j * OMEGA_BAR) * tau)
               * 0.5 * math.sin(0.9 * tau))
        return val.real if part == 0 else val.imag

    re, _ = quad(integrand, 0.0, t, args=(0,), limit=200)
    im, _ = quad(integrand, 0.0, t, args=(1,), limit=200)
    assert_allclose(frame_from_beta(driven, driven_beta, t).F, re + 1j * im,
                    rtol=0, atol=1e-9)


# ---------- classical trajectories ----------

def test_classical_sho_trajectory(sho):
    traj = integrate_classical(sho, 1.0, 0.0)
    ts = np.linspace(sho.t0, sho.t1, 64)
    q, p = traj(ts).T
    assert_allclose(q, np.cos(ts), rtol=0, atol=1e-9)
    assert_allclose(p, -np.sin(ts), rtol=0, atol=1e-9)


def test_classical_driven_matches_scipy(driven):
    # written out here on purpose, sharing no code with bckosc.ode
    def rhs(t, y):
        G = driven.G(t)
        F = driven.force(t)
        return [math.exp(-G) * y[1],
                math.exp(G) * (F - y[0])]

    ts = np.linspace(driven.t0, driven.t1, 41)
    ref = solve_ivp(rhs, (driven.t0, driven.t1), [0.4, -1.1], method="DOP853",
                    t_eval=ts, rtol=1e-12, atol=1e-14)
    assert ref.success
    traj = integrate_classical(driven, 0.4, -1.1)
    # p grows like e^G ~ 3e5 over the window, so a relative bound is needed
    assert_allclose(traj(ts), ref.y.T, rtol=5e-9, atol=5e-9)


# ---------- envelope, companion and coefficient systems ----------

def test_envelope_tracks_amplitude(driven, driven_beta):
    gamma_sol = integrate_gamma(driven, *envelope_ics(driven)[0])
    ts = np.linspace(driven.t0, driven.t1, 256)
    ref = 2.0 * np.abs(frame_from_beta(driven, driven_beta, ts).beta) ** 2
    assert_allclose(gamma_sol(ts)[:, 0], ref, rtol=0, atol=1e-8)


def test_companion_tracks_amplitude(driven, driven_beta):
    gamma_sol = integrate_gamma(driven, *envelope_ics(driven)[0])
    sigma_sol = integrate_sigma(driven, gamma_sol, 0.0, 0.0)
    ts = np.linspace(driven.t0, driven.t1, 256)
    fr = frame_from_beta(driven, driven_beta, ts)
    ref = -2.0 * (np.conjugate(fr.beta) * fr.F).real
    assert_allclose(sigma_sol(ts)[:, 0], ref, rtol=0, atol=1e-7)


def test_energy_ics_freeze_the_coefficients(sho):
    # gamma = 2, sigma = 0 is a fixed point of the coefficient system when
    # omega is constant: every c_i of the oracle's solution must stay put to
    # solver accuracy
    c0, c_sol, _ = coefficient_reduction(sho)
    assert_allclose(c0, [2.0, 0.0, 2.0, 0.0, 0.0], rtol=0, atol=0)
    ts = np.linspace(sho.t0, sho.t1, 64)
    assert_allclose(c_sol(ts).T, np.tile(c0, (64, 1)), rtol=0, atol=1e-10)


# ---------- solution object behavior ----------

def test_out_of_domain_evaluation(sho_beta):
    # a nan lies in no interval: it is refused like the infinities
    for t in (sho_beta.t1 + 1.0, np.array([0.0, -5.0]), np.nan,
              np.array([0.0, np.nan]), np.inf, np.array([-np.inf])):
        with pytest.raises(OutOfDomain):
            sho_beta(t)


def test_dense_output_is_the_nested_extension(driven_beta):
    # y_n + th (F0 + (1 - th) (F1 + th (F2 + ... (1 - th) (F5 + th F6)))),
    # written out here from the stored rows, bit for bit
    sol = driven_beta
    t = np.random.default_rng(7).uniform(sol.t0, sol.t1, 500)
    idx = np.searchsorted(sol.ts, t, side="right") - 1
    th = ((t - sol.ts[idx]) / (sol.ts[idx + 1] - sol.ts[idx]))[:, None]
    q = sol.qs[:, idx]
    acc = q[6]
    for j in (5, 4, 3, 2, 1, 0):
        acc = q[j] + (th if j % 2 else 1.0 - th) * acc
    assert np.array_equal(sol(t), sol.ys[idx] + th * acc)


def test_dense_output_memory_is_a_small_multiple_of_the_result(driven_beta):
    # one row of every point at a time: gathering all seven rows at once
    # peaked at about ten times the result's bytes
    t = np.random.default_rng(11).uniform(driven_beta.t0, driven_beta.t1,
                                          20000)
    driven_beta(t[:10])
    tracemalloc.start()
    try:
        out = driven_beta(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * out.nbytes


def test_accepted_steps_cover_window(driven, driven_beta):
    assert driven_beta.ts[0] == driven.t0
    assert driven_beta.ts[-1] == driven.t1
    assert np.all(np.diff(driven_beta.ts) > 0)


def test_stats_recorded(driven_beta):
    st = driven_beta.stats
    assert st["naccept"] > 0 and st["nfev"] > st["naccept"]
    assert st["nreject"] >= 0


def test_step_size_underflow():
    # strong negative damping grows the amplitude like e^{40t}; it overflows
    # float range near t = 17.7 and no step size can cross that point
    s = Scenario(omega=TimeFunction.constant(1.0), t0=0.0, t1=20.0,
                 damping=TimeFunction.constant(-20.0), beta0=(1.0, 0.0))
    with pytest.raises(StepSizeUnderflow):
        integrate_beta(s)


def test_step_size_underflow_names_system_and_time_quietly():
    # the same blow-up, reported without any floating-point warning
    s = Scenario(omega=TimeFunction.constant(1.0), t0=0.0, t1=20.0,
                 damping=TimeFunction.constant(-20.0), beta0=(1.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeUnderflow, match=r"amplitude.*t=17\.7"):
            integrate_beta(s)


def test_step_count_guard_names_the_system(monkeypatch):
    # the first grid of a hundred steps already exceeds a cap of ten
    monkeypatch.setattr(ode, "MAX_COUNT", 10)
    s = Scenario(omega=TimeFunction.constant(1.0), t0=0.0, t1=1.0)
    with pytest.raises(StepSizeUnderflow,
                       match=r"^amplitude system needs more than 10 steps"):
        integrate_beta(s)


@pytest.mark.parametrize("doc, edit", [
    ("underdamped_driven.cfg", ("amplitude = 0.5\n", "amplitude = 1e308\n")),
    ("sho.cfg", ("t1 = 6.2831853071795862\n", "t1 = 1e308\n"))],
    ids=["force", "t1"])
def test_step_count_guard_comes_before_the_grid(monkeypatch, doc, edit):
    # the state overflows where the coefficients stay finite, so the grids
    # refine toward MAX_COUNT: the grid past it is refused by its step count,
    # before np.linspace is asked for its points (10^8 + 1 of them, 1.6 GB
    # with their concatenation)
    text = (SCENARIO_DIR / doc).read_text()
    assert text.count(edit[0]) == 1
    s = parse_scenario(text.replace(*edit))
    linspace = np.linspace

    def sized(start, stop, num=50, **kwargs):
        assert num <= ode.MAX_COUNT + 1, f"np.linspace asked for {num} points"
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", sized)
    with pytest.raises(StepSizeUnderflow,
                       match=r"^amplitude system needs more than 1048576 "):
        integrate_beta(s)


@pytest.mark.parametrize("edit", [("value = 1\n", "value = 1e308\n"),
                                  ("t1 = 62.831853071795865",
                                   "t1 = 1e308")],
                         ids=["omega", "t1"])
def test_coefficients_not_finite_fail_on_the_first_grid(monkeypatch, edit):
    # omega^2 overflows, or e^G overflows far out in the window: no step
    # size makes A(t) finite, so no finer grid is tried
    text = (SCENARIO_DIR / "underdamped_driven.cfg").read_text()
    assert text.count(edit[0]) == 1
    s = parse_scenario(text.replace(*edit))
    sweeps = []

    def counted(*args, **kwargs):
        sweeps.append(1)
        return sweep(*args, **kwargs)

    sweep = ode._sweep
    monkeypatch.setattr(ode, "_sweep", counted)
    with pytest.raises(StepSizeUnderflow,
                       match=r"^amplitude system: coefficients not finite "
                             r"on \[0, "):
        integrate_beta(s)
    assert len(sweeps) == 1


def test_grid_contains_spline_knots():
    # a tabulated omega is only C^2 at its knots, so steps must end there;
    # the solution is checked against scipy's DOP853 through the knots
    knots = np.linspace(0.0, 10.0, 9)
    omega = TimeFunction.tabulated(knots, 1.0 + 0.1 * np.sin(knots))
    s = Scenario(omega=omega, t0=0.0, t1=10.0, rtol=1e-12, atol=1e-14)
    sol = integrate_beta(s)
    assert np.all(np.isin(knots, sol.ts))
    ts = np.linspace(s.t0, s.t1, 41)
    assert_allclose(sol(ts), scipy_reference(s, ts), rtol=5e-9, atol=5e-9)


def test_force_at_t0_integrates_quietly():
    # beta(t0) F(t0) != 0 is a valid scenario: the force functional starts
    # at zero and no warning reaches the caller
    s = Scenario(omega=TimeFunction.constant(1.0), t0=0.0, t1=5.0,
                 force=TimeFunction.constant(0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = integrate_beta(s)
    assert_allclose(sol(s.t0)[4:6], 0.0, rtol=0, atol=0)


def test_negated_frequency_is_equivalent(sho, sho_beta):
    from dataclasses import replace
    flipped = replace(sho, omega=TimeFunction.constant(-1.0))
    sol = integrate_beta(flipped)
    ts = np.linspace(sho.t0, sho.t1, 33)
    assert_allclose(sol(ts), sho_beta(ts), rtol=0, atol=1e-12)
