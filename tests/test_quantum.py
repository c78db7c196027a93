"""Eigenfunctions, ladder algebra, spectra and expectations, and the
oracles of tests/oracles.py: the textbook Hermite polynomial, the ladder
and I_Q operators, the Schrodinger residual and the constant-parameter
closed forms."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bckosc import (DegreeTooLarge, GridTooNarrow, OmegaNotPositive,
                    Scenario, TimeFunction, ValidationError, build_spectrum,
                    eval_psin, frame_from_beta, moments, omega_of_frame,
                    write_spectrum_csv)
from bckosc.quantum import MAX_DEGREE, WaveFunction, check_packet, l2_norm

from oracles import (InsufficientSlices, NotUnderdamped,
                     UnsupportedForceShape, apply_IQ, apply_ladder,
                     beta_moments, hermite, inner, schrodinger_residual,
                     underdamped_closed_forms, underdamped_params,
                     underdamped_uncertainty_factors)

PI_QUARTER = math.pi ** -0.25          # 0.7511255444649425
OMEGA_BAR = math.sqrt(0.99)


def diff4(vals, dq):
    """Fourth-order central difference; wrap-around edges are harmless for
    wavefunctions that vanish at the boundary."""
    return (8.0 * (np.roll(vals, -1) - np.roll(vals, 1))
            - (np.roll(vals, -2) - np.roll(vals, 2))) / (12.0 * dq)


# ---------- Hermite polynomials ----------

def test_hermite_values():
    assert hermite(0, 0.3) == 1.0
    assert hermite(1, 0.5) == 1.0
    assert_allclose(hermite(2, 1.3), 4 * 1.3 ** 2 - 2, rtol=1e-15)
    assert_allclose(hermite(3, 2.0), 40.0, rtol=1e-15)  # 8x^3 - 12x at x=2


def test_hermite_vectorized():
    x = np.linspace(-2, 2, 7)
    assert_allclose(hermite(2, x), 4 * x ** 2 - 2, rtol=1e-14)
    assert hermite(2, x).shape == x.shape


def test_hermite_guards():
    with pytest.raises(ValidationError):
        hermite(-1, 0.0)
    with pytest.raises(ValidationError):
        hermite(1.5, 0.0)
    with pytest.raises(DegreeTooLarge):
        hermite(MAX_DEGREE + 1, 0.0)


# ---------- textbook anchor states ----------

def test_sho_ground_state_is_textbook(sho, sho_beta):
    fr = frame_from_beta(sho, sho_beta, 0.0)
    psi = eval_psin(0, sho, fr)
    ref = PI_QUARTER * np.exp(-0.5 * psi.qs ** 2)
    assert_allclose(psi.values, ref, rtol=0, atol=1e-10)
    assert psi.n == 0 and psi.t == 0.0


def test_sho_ground_state_rotates_at_half_frequency(sho, sho_beta):
    t = 2.0
    fr = frame_from_beta(sho, sho_beta, t)
    psi = eval_psin(0, sho, fr)
    ref = PI_QUARTER * np.exp(-0.5 * psi.qs ** 2) * np.exp(-0.5j * t)
    assert_allclose(psi.values, ref, rtol=0, atol=1e-9)


def test_sho_first_excited_is_textbook_up_to_phase(sho, sho_beta):
    fr = frame_from_beta(sho, sho_beta, 0.0)
    psi = eval_psin(1, sho, fr)
    ref = math.sqrt(2.0) * psi.qs * PI_QUARTER * np.exp(-0.5 * psi.qs ** 2)
    # the ladder convention contributes a global factor i at t = 0
    assert_allclose(psi.values, 1j * ref, rtol=0, atol=1e-10)
    ov = inner(psi.values, ref, psi.dq)
    assert_allclose(abs(ov), 1.0, rtol=0, atol=1e-10)


# ---------- norms and orthonormality ----------

def test_norms_stay_unit_over_time(driven, driven_beta):
    for t in (0.0, 1.5, 4.0, 6.2831853071795862):
        fr = frame_from_beta(driven, driven_beta, t)
        for n in (0, 2):
            psi = eval_psin(n, driven, fr)
            assert abs(psi.norm - 1.0) < 1e-8, (n, t)


def test_orthonormality(driven, driven_beta):
    s = replace(driven, qmin=-20.0, qmax=20.0, npoints=2048)
    t = 2.0
    fr = frame_from_beta(s, driven_beta, t)
    states = [eval_psin(n, s, fr) for n in range(6)]
    gram = np.array([[inner(a.values, b.values, a.dq) for b in states]
                     for a in states])
    assert np.max(np.abs(gram - np.eye(6))) < 1e-9


# ---------- grid adequacy and guards ----------

def test_grid_too_narrow(driven, driven_beta):
    narrow = replace(driven, qmin=-4.0, qmax=4.0, npoints=256)
    t = 3.0
    fr = frame_from_beta(narrow, driven_beta, t)
    with pytest.raises(GridTooNarrow) as exc:
        eval_psin(4, narrow, fr)
    suggested = exc.value.suggested_qmax
    assert suggested > 4.0
    wide = replace(narrow, qmin=-suggested, qmax=suggested)
    fr = frame_from_beta(wide, driven_beta, t)
    check_packet(wide, fr.packet, 4)  # no raise
    eval_psin(4, wide, fr)


def test_degree_limit(driven, driven_beta):
    fr = frame_from_beta(driven, driven_beta, 1.0)
    with pytest.raises(DegreeTooLarge):
        eval_psin(MAX_DEGREE + 1, driven, fr)
    with pytest.raises(ValidationError):
        eval_psin(-1, driven, fr)


def test_omega_must_be_positive(driven, driven_beta):
    fr = frame_from_beta(driven, driven_beta, 1.0)
    bad = replace(fr, beta=1.0 + 0.0j, dbeta=0.5 + 0.0j)
    with pytest.raises(OmegaNotPositive):
        eval_psin(0, driven, bad)


# ---------- ladder algebra ----------

def test_lowering_annihilates_ground_state(driven, driven_beta):
    t = 2.0
    fr = frame_from_beta(driven, driven_beta, t)
    psi0 = eval_psin(0, driven, fr)
    down = apply_ladder("down", psi0.values, psi0.qs, fr)
    assert l2_norm(down[2:-2], psi0.dq) < 1e-6


def test_ladder_maps_between_neighbors(driven, driven_beta):
    t = 2.0
    fr = frame_from_beta(driven, driven_beta, t)
    psis = [eval_psin(n, driven, fr).values for n in range(4)]
    qs = driven.grid()
    dq = float(qs[1] - qs[0])
    sl = slice(2, -2)
    # the 1024-point grid has dq^4 ~ 1e-6; the finer-grid bound lives in
    # the acceptance suite
    for n in (1, 2, 3):
        down = apply_ladder("down", psis[n], qs, fr)
        err = l2_norm((down - math.sqrt(n) * psis[n - 1])[sl], dq)
        assert err < 5e-6 * math.sqrt(n)
    for n in (0, 1, 2):
        up = apply_ladder("up", psis[n], qs, fr)
        err = l2_norm((up - math.sqrt(n + 1.0) * psis[n + 1])[sl], dq)
        assert err < 1e-5


def test_number_operator(driven, driven_beta):
    t = 2.0
    fr = frame_from_beta(driven, driven_beta, t)
    psi2 = eval_psin(2, driven, fr)
    down = apply_ladder("down", psi2.values, psi2.qs, fr)
    num = apply_ladder("up", down, psi2.qs, fr)
    err = l2_norm((num - 2.0 * psi2.values)[4:-4], psi2.dq)
    assert err < 1e-5


def test_quadratic_operator_consistent_with_ladder(driven, driven_beta):
    # I_Q psi = Omega (a'a + 1/2) psi, evaluated both ways on the grid
    t = 1.0
    fr = frame_from_beta(driven, driven_beta, t)
    om = float(omega_of_frame(fr))
    psi = eval_psin(1, driven, fr)
    via_iq = apply_IQ(psi.values, psi.qs, fr)
    lowered = apply_ladder("down", psi.values, psi.qs, fr)
    via_ladder = apply_ladder("up", lowered, psi.qs, fr)
    ref = om * (via_ladder + 0.5 * psi.values)
    err = l2_norm((via_iq - ref)[4:-4], psi.dq)
    assert err < 1e-5


def test_eigenvalue_equation(driven, driven_beta):
    t = 1.0
    fr = frame_from_beta(driven, driven_beta, t)
    om = float(omega_of_frame(fr))
    for n in (0, 1, 2):
        psi = eval_psin(n, driven, fr)
        out = apply_IQ(psi.values, psi.qs, fr)
        res = l2_norm((out - om * (n + 0.5) * psi.values)[2:-2], psi.dq)
        assert res < 1e-5, n


# ---------- dynamics ----------

def _state_series(s, sol, n, tc, dt, count):
    ts = tc + dt * (np.arange(count) - (count - 1) / 2)
    out = []
    for t in ts:
        fr = frame_from_beta(s, sol, t)
        out.append(eval_psin(n, s, fr))
    return out


def test_eigenfunctions_solve_the_schrodinger_equation(driven, driven_beta):
    for n, bound in ((0, 1e-4), (1, 1e-4)):
        series = _state_series(driven, driven_beta, n, 1.0, 1e-3, 5)
        assert schrodinger_residual(series, driven) < bound


def test_conjugated_states_do_not_solve_it(driven, driven_beta):
    series = _state_series(driven, driven_beta, 0, 1.0, 1e-3, 5)
    flipped = [WaveFunction(qs=w.qs, values=np.conjugate(w.values), t=w.t)
               for w in series]
    assert schrodinger_residual(flipped, driven) > 0.1


def test_residual_needs_three_uniform_slices(driven, driven_beta):
    series = _state_series(driven, driven_beta, 0, 1.0, 1e-3, 5)
    with pytest.raises(InsufficientSlices):
        schrodinger_residual(series[:2], driven)
    warped = series[:4] + [series[4]]
    warped[4] = WaveFunction(qs=series[4].qs, values=series[4].values,
                             t=series[4].t + 5e-4)
    with pytest.raises(ValidationError):
        schrodinger_residual(warped, driven)


# ---------- expectations and uncertainties ----------

def test_expectations_are_n_independent(driven, driven_beta):
    fr = frame_from_beta(driven, driven_beta, 2.0)
    q0, p0, var_q0, _ = moments(0, fr, driven)
    q3, p3, var_q3, _ = moments(3, fr, driven)
    assert (q0, p0) == (q3, p3) and var_q3 != var_q0


def test_sho_expectations_vanish(sho, sho_beta):
    fr = frame_from_beta(sho, sho_beta, 1.0)
    eq, ep, _, _ = moments(0, fr, sho)
    assert abs(eq) < 1e-10 and abs(ep) < 1e-10


def test_expectations_match_quadrature(driven, driven_beta):
    # psi_0's quadrature and moments, which reads psi_n's packet, each
    # against the amplitude route's closed forms (oracles.beta_moments)
    s = replace(driven, qmin=-16.0, qmax=16.0, npoints=8192)
    fr = frame_from_beta(s, driven_beta, 1.0)
    psi = eval_psin(0, s, fr)
    dq = psi.dq
    dens = np.abs(psi.values) ** 2
    nrm = np.trapezoid(dens, dx=dq)
    q_ref = np.trapezoid(psi.qs * dens, dx=dq) / nrm
    pv = -1j * s.hbar * diff4(psi.values, dq)
    p_ref = np.trapezoid((np.conjugate(psi.values) * pv).real, dx=dq) / nrm
    eq, ep, _, _ = beta_moments(0, fr)
    assert_allclose([q_ref, p_ref], [eq, ep], rtol=0, atol=1e-8)
    assert_allclose(moments(0, fr, s)[:2], [eq, ep], rtol=1e-14)


def test_sho_uncertainty_is_exact(sho, sho_beta):
    fr = frame_from_beta(sho, sho_beta, 1.3)
    for n in (0, 1, 3):
        _, _, var_q, var_p = moments(n, fr, sho)
        assert_allclose(var_q * var_p, (n + 0.5) ** 2, rtol=0, atol=1e-10)


def test_uncertainty_report_parts(driven, driven_beta):
    fr = frame_from_beta(driven, driven_beta, 1.0)
    # both variances are positive and grow as 2n + 1
    _, _, var_q0, var_p0 = moments(0, fr, driven)
    _, _, var_q, var_p = moments(1, fr, driven)
    assert var_q0 > 0 and var_p0 > 0
    assert_allclose([var_q, var_p], [3.0 * var_q0, 3.0 * var_p0], rtol=1e-15)


def test_uncertainty_product_time_independent(driven, driven_beta):
    vals = []
    for t in (0.0, 1.0, 2.5, 4.0, 6.0):
        fr = frame_from_beta(driven, driven_beta, t)
        _, _, var_q, var_p = moments(0, fr, driven)
        vals.append(var_q * var_p)
    vals = np.asarray(vals)
    assert np.max(np.abs(vals - vals[0])) / vals[0] < 1e-9


def test_variances_match_quadrature(driven, driven_beta):
    # psi_1's quadrature and moments against oracles.beta_moments
    s = replace(driven, qmin=-16.0, qmax=16.0, npoints=8192)
    fr = frame_from_beta(s, driven_beta, 1.0)
    psi = eval_psin(1, s, fr)
    dq = psi.dq
    dens = np.abs(psi.values) ** 2
    nrm = np.trapezoid(dens, dx=dq)
    eq = np.trapezoid(psi.qs * dens, dx=dq) / nrm
    vq = np.trapezoid((psi.qs - eq) ** 2 * dens, dx=dq) / nrm
    pv = -1j * s.hbar * diff4(psi.values, dq)
    ep = np.trapezoid((np.conjugate(psi.values) * pv).real, dx=dq) / nrm
    vp = np.trapezoid(np.abs(pv) ** 2, dx=dq) / nrm - ep ** 2
    _, _, var_q, var_p = beta_moments(1, fr)
    assert_allclose(vq, var_q, rtol=1e-8)
    assert_allclose(vp, var_p, rtol=1e-7)
    assert_allclose(moments(1, fr, s)[2:], [var_q, var_p], rtol=1e-14)


# ---------- constant-parameter closed forms ----------

def test_underdamped_params_fields(driven):
    p = underdamped_params(driven)
    assert (p.m, p.hbar) == (1.0, 1.0)
    assert_allclose([p.omega, p.g, p.F0, p.alpha], [1.0, 0.1, 0.5, 0.9],
                    rtol=1e-15)
    assert_allclose(p.omega_bar, OMEGA_BAR, rtol=1e-15)
    assert_allclose(p.Omega, 2.0 * OMEGA_BAR, rtol=1e-15)


def _const_scenario(**kw):
    base = dict(omega=TimeFunction.constant(1.0), t0=0.0, t1=10.0,
                damping=TimeFunction.constant(0.1))
    base.update(kw)
    return Scenario(**base)


def test_underdamped_params_guards():
    with pytest.raises(NotUnderdamped):
        underdamped_params(_const_scenario(
            damping=TimeFunction.constant(1.5)))
    with pytest.raises(UnsupportedForceShape):
        underdamped_params(_const_scenario(
            force=TimeFunction.linear(0.0, 0.1)))
    with pytest.raises(UnsupportedForceShape):
        underdamped_params(_const_scenario(
            omega=TimeFunction.linear(1.0, 0.05)))
    with pytest.raises(UnsupportedForceShape):
        underdamped_params(_const_scenario(t0=1.0, t1=10.0))
    # resonant undamped drive has a secular, non-oscillatory functional
    with pytest.raises(UnsupportedForceShape):
        underdamped_params(_const_scenario(
            damping=TimeFunction.constant(0.0),
            force=TimeFunction.sinusoid(0.5, 1.0)))


def test_closed_forms_match_pipeline(driven, driven_beta):
    for t in (0.5, 3.0, 10.0, 20.0):
        fr_ode = frame_from_beta(driven, driven_beta, t)
        fr = underdamped_closed_forms(driven, t)
        assert_allclose(fr.beta, fr_ode.beta, rtol=0, atol=1e-9)
        assert_allclose(fr.dbeta, fr_ode.dbeta, rtol=0, atol=1e-9)
        assert_allclose(fr.F, fr_ode.F, rtol=1e-8, atol=1e-9)
        assert_allclose(fr.gamma, fr_ode.gamma, rtol=1e-9)
        assert_allclose(fr.sigma, fr_ode.sigma, rtol=1e-8, atol=1e-9)
        assert_allclose(fr.phase, fr_ode.phase, rtol=0, atol=1e-9)
        assert_allclose(fr.phase_integral, fr_ode.phase_integral, rtol=0,
                        atol=1e-8)


def test_closed_forms_accept_time_arrays(driven):
    ts = np.linspace(0.0, 5.0, 11)
    fr = underdamped_closed_forms(driven, ts)
    assert fr.beta.shape == (11,)
    assert_allclose(fr.beta, np.exp((-0.1 + 1j * OMEGA_BAR) * ts),
                    rtol=1e-12)


def test_undriven_closed_forms_are_free_damped():
    s = _const_scenario(force=TimeFunction.sinusoid(0.0, 0.9))
    for t in (0.0, 2.0, 7.5):
        fr = underdamped_closed_forms(s, t)
        assert fr.F == 0.0 and fr.sigma == 0.0 and fr.F_sigma == 0.0
        assert_allclose(fr.beta,
                        np.exp((-0.1 + 1j * OMEGA_BAR) * t), rtol=1e-14)
        assert_allclose(fr.phase, OMEGA_BAR * t, rtol=1e-14)


def test_uncertainty_factor_candidates(driven):
    cmp = underdamped_uncertainty_factors(driven)
    # (omega_bar^2 + g^2)/omega_bar^2 = omega^2/omega_bar^2 = 100/99
    assert_allclose(cmp.generic_factor, 100.0 / 99.0, rtol=1e-14)
    assert_allclose(cmp.alternative_factor, 98.0 / 99.0, rtol=1e-14)
    assert cmp.adopted == "generic"


# ---------- spectra ----------

def test_spectrum_values():
    eigenvalues = build_spectrum(2.0 * OMEGA_BAR, 3)
    assert eigenvalues.shape == (4,)
    ref = [2.0 * OMEGA_BAR * (n + 0.5) for n in range(4)]
    assert_allclose(eigenvalues, ref, rtol=1e-15)


def test_spectrum_rejects_bad_omega():
    with pytest.raises(OmegaNotPositive):
        build_spectrum(-1.0, 3)


def test_spectrum_csv(tmp_path):
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, build_spectrum(2.0, 2))
    assert path.read_text() == ("n,eigenvalue\n0,1\n1,3\n2,5\n")


# ---------- wavefunction container ----------

def test_wavefunction_csv(tmp_path, sho, sho_beta):
    fr = frame_from_beta(sho, sho_beta, 0.0)
    psi = eval_psin(0, sho, fr)
    path = tmp_path / "wf.csv"
    psi.to_csv(path, footer={"norm": 1})
    lines = path.read_text().splitlines()
    assert lines[0] == "q,re_psi,im_psi,abs2"
    assert len(lines) == sho.npoints + 2
    assert lines[-1] == "# norm=1"
