"""Integrator checks: closed-form anchors, a scipy cross-check of the full
augmented amplitude system, quadrature oracles for the ride-along integrals
and the documented failure modes."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad, solve_ivp

from bckosc import ode
from bckosc import (OutOfDomain, Scenario, StepSizeUnderflow, TimeFunction,
                    accumulate_F, c_ics_from_gamma_sigma, gamma_ics_from_beta,
                    integrate_beta, integrate_c_system, integrate_classical,
                    integrate_gamma, integrate_sigma)

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
    assert_allclose(sho_beta.beta(ts), np.exp(1j * ts), rtol=0, atol=1e-9)
    assert_allclose(sho_beta.dbeta(ts), 1j * np.exp(1j * ts), rtol=0,
                    atol=1e-9)
    assert_allclose(sho_beta.force_functional(ts), 0.0, rtol=0, atol=1e-15)
    assert_allclose(sho_beta.phase(ts), ts, rtol=0, atol=1e-9)


def test_free_damped_amplitude_closed_form():
    s = Scenario(omega=TimeFunction.constant(1.0), t0=0.0, t1=30.0,
                 damping=TimeFunction.constant(0.1), rtol=1e-12, atol=1e-14)
    sol = integrate_beta(s)
    ts = np.linspace(0.0, 30.0, 64)
    ref = np.exp((-0.1 + 1j * OMEGA_BAR) * ts)
    assert_allclose(sol.beta(ts), ref, rtol=0, atol=1e-9)
    assert_allclose(sol.dbeta(ts), (-0.1 + 1j * OMEGA_BAR) * ref, rtol=0,
                    atol=1e-9)


def test_phase_is_unwrapped(driven, driven_beta):
    # beta = e^{-gt} e^{i omega_bar t}: the argument grows far past pi
    for t in (10.0 * math.pi, driven.t1):
        assert_allclose(driven_beta.phase(t), OMEGA_BAR * t, rtol=0,
                        atol=1e-8)


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
        return ode._assemble(t, 2, {(0, 1): 1.0, (1, 0): -1.0})

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
        # qs[..., j] multiplies theta^(j + 1), so theta = 1 sums them
        assert_allclose(ys[:-1] + qs.sum(axis=-1), ys[1:], rtol=0,
                        atol=1e-13)


# ---------- ride-along integrals against quadrature ----------

def test_force_functional_matches_quadrature(driven, driven_beta):
    t = 5.0

    def integrand(tau, part):
        val = (math.exp(0.2 * tau) * np.exp((-0.1 + 1j * OMEGA_BAR) * tau)
               * 0.5 * math.sin(0.9 * tau))
        return val.real if part == 0 else val.imag

    re, _ = quad(integrand, 0.0, t, args=(0,), limit=200)
    im, _ = quad(integrand, 0.0, t, args=(1,), limit=200)
    assert_allclose(driven_beta.force_functional(t), re + 1j * im, rtol=0,
                    atol=1e-9)


def test_accumulate_F_is_a_view(driven, driven_beta):
    view = accumulate_F(driven, driven_beta)
    ts = np.linspace(driven.t0, driven.t1, 33)
    vals = view(ts)
    assert vals.shape == (33, 2)
    assert_allclose(vals[:, 0] + 1j * vals[:, 1],
                    driven_beta.force_functional(ts), rtol=0, atol=0)
    assert view.names == ("re_F", "im_F")


# ---------- classical trajectories ----------

def test_classical_sho_trajectory(sho):
    traj = integrate_classical(sho, 1.0, 0.0)
    ts = np.linspace(sho.t0, sho.t1, 64)
    assert_allclose(traj.q(ts), np.cos(ts), rtol=0, atol=1e-9)
    assert_allclose(traj.p(ts), -np.sin(ts), rtol=0, atol=1e-9)


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
    assert_allclose(traj.q(ts), ref.y[0], rtol=5e-9, atol=5e-9)
    assert_allclose(traj.p(ts), ref.y[1], rtol=5e-9, atol=5e-9)


# ---------- envelope, companion and coefficient systems ----------

def test_envelope_tracks_amplitude(driven, driven_beta):
    gamma_sol = integrate_gamma(driven, *gamma_ics_from_beta(driven))
    ts = np.linspace(driven.t0, driven.t1, 256)
    ref = 2.0 * np.abs(driven_beta.beta(ts)) ** 2
    assert_allclose(gamma_sol.component("gamma", ts), ref, rtol=0, atol=1e-8)


def test_companion_tracks_amplitude(driven, driven_beta):
    gamma_sol = integrate_gamma(driven, *gamma_ics_from_beta(driven))
    sigma_sol = integrate_sigma(driven, gamma_sol)
    ts = np.linspace(driven.t0, driven.t1, 256)
    ref = -2.0 * (np.conjugate(driven_beta.beta(ts))
                  * driven_beta.force_functional(ts)).real
    assert_allclose(sigma_sol.component("sigma", ts), ref, rtol=0, atol=1e-7)


def test_energy_ics_freeze_the_coefficients(sho):
    # gamma = 2, sigma = 0 is a fixed point of the coefficient system when
    # omega is constant: every c_i must stay put to solver accuracy
    c0 = c_ics_from_gamma_sigma(sho, (2.0, 0.0, 0.0), (0.0, 0.0))
    assert_allclose(c0, [2.0, 0.0, 2.0, 0.0, 0.0], rtol=0, atol=0)
    c_sol = integrate_c_system(sho, c0)
    ts = np.linspace(sho.t0, sho.t1, 64)
    assert_allclose(c_sol(ts), np.tile(c0, (64, 1)), rtol=0, atol=1e-10)


def test_c0_shape_is_checked(sho):
    with pytest.raises(ValueError):
        integrate_c_system(sho, [1.0, 2.0, 3.0])


# ---------- solution object behavior ----------

def test_solution_derivative_consistency(driven, driven_beta):
    ts = np.linspace(driven.t0 + 0.1, driven.t1 - 0.1, 40)
    d = driven_beta.derivative(ts, order=1)
    vals = driven_beta(ts)
    # d(beta)/dt from the interpolant against the carried derivative state
    assert_allclose(d[:, 0] + 1j * d[:, 1], driven_beta.dbeta(ts), rtol=0,
                    atol=1e-7)
    # second derivative against the equation of motion
    d2 = driven_beta.derivative(ts, order=2)
    b = vals[:, 0] + 1j * vals[:, 1]
    db = vals[:, 2] + 1j * vals[:, 3]
    assert_allclose(d2[:, 0] + 1j * d2[:, 1], -0.2 * db - b, rtol=0,
                    atol=1e-5)
    with pytest.raises(ValueError):
        driven_beta.derivative(1.0, order=3)


def test_out_of_domain_evaluation(sho_beta):
    with pytest.raises(OutOfDomain):
        sho_beta(sho_beta.t1 + 1.0)
    with pytest.raises(OutOfDomain):
        sho_beta(np.array([0.0, -5.0]))


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
