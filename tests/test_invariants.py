"""Linear and quadratic invariants, the conserved normalization, the
envelope first integral and the coefficient-system reduction."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bckosc import (DegenerateSolutions, GammaVanishes, Scenario,
                    TimeFunction, compute_omega, ermakov_residual,
                    eval_linear_invariant, eval_psin,
                    eval_quadratic_invariant, first_integral_C,
                    frame_from_beta, integrate_beta, integrate_classical,
                    integrate_gamma, omega_of_frame, verification_series,
                    write_verification_report)
from bckosc.invariants import drift, envelope_ics

from conftest import coefficient_reduction

TWO_SQRT99 = 2.0 * math.sqrt(0.99)


# ---------- frames ----------

def test_sho_frame_fields(sho, sho_beta):
    t = 2.3
    fr = frame_from_beta(sho, sho_beta, t)
    assert_allclose(fr.beta, np.exp(1j * t), rtol=0, atol=1e-9)
    assert_allclose(fr.gamma, 2.0, rtol=0, atol=1e-9)
    assert_allclose([fr.dgamma, fr.ddgamma, fr.sigma, fr.dsigma,
                     fr.F_sigma, fr.G], 0.0, rtol=0, atol=1e-8)
    assert fr.expG == 1.0 and fr.m == 1.0 and fr.hbar == 1.0
    assert fr.omega == 1.0 and fr.damping == 0.0 and fr.force == 0.0


def test_frame_accepts_time_arrays(driven, driven_beta):
    ts = np.linspace(driven.t0, driven.t1, 17)
    fr = frame_from_beta(driven, driven_beta, ts)
    assert fr.beta.shape == (17,)
    assert_allclose(fr.gamma, 2.0 * np.abs(fr.beta) ** 2, rtol=1e-12)
    assert_allclose(fr.sigma,
                    -2.0 * (np.conjugate(fr.beta) * fr.F).real, rtol=0,
                    atol=1e-12)
    assert_allclose(fr.F_sigma, -np.abs(fr.F) ** 2, rtol=1e-12, atol=1e-12)


def test_array_records_compare_and_hash_by_identity(driven, driven_beta):
    # a generated __eq__ compares the fields' arrays and raises on their
    # ambiguous truth value, and a generated frozen __hash__ raises on them
    ts = np.linspace(driven.t0, driven.t1, 17)
    frames = [frame_from_beta(driven, driven_beta, ts) for _ in range(2)]
    omegas = [compute_omega(driven, driven_beta, 64) for _ in range(2)]
    fr = frame_from_beta(driven, driven_beta, 1.0)
    psis = [eval_psin(0, driven, fr) for _ in range(2)]
    for a, b in (frames, omegas, psis):
        assert a != b and a == a and len({a, b}) == 2


# ---------- linear invariant ----------

def test_sho_invariant_is_minus_i(sho, sho_beta):
    # on q = cos t, p = -sin t the invariant collapses to the constant -i
    ts = np.linspace(sho.t0, sho.t1, 97)
    fr = frame_from_beta(sho, sho_beta, ts)
    I = eval_linear_invariant(fr, np.cos(ts), -np.sin(ts))
    assert_allclose(I, -1j * np.ones_like(ts), rtol=0, atol=1e-9)


def test_linear_invariant_constant_along_trajectories(driven, driven_beta):
    rng = np.random.default_rng(20260823)
    for q0, p0 in rng.uniform(-2.0, 2.0, size=(3, 2)):
        traj = integrate_classical(driven, q0, p0)
        series = verification_series(driven, driven_beta, traj, samples=256)
        assert series["drift_I"] < 1e-8


# ---------- quadratic invariant ----------

def test_quadratic_equals_squared_linear(driven, driven_beta):
    ts = np.linspace(driven.t0, driven.t1, 64)
    fr = frame_from_beta(driven, driven_beta, ts)
    rng = np.random.default_rng(11)
    for q0, p0 in rng.uniform(-2.0, 2.0, size=(4, 2)):
        lin = eval_linear_invariant(fr, q0, p0)
        quad = eval_quadratic_invariant(fr, q0, p0)
        assert_allclose(np.abs(lin) ** 2, quad, rtol=1e-9)


def test_quadratic_invariant_constant(driven, driven_beta):
    traj = integrate_classical(driven, 1.0, 0.0)
    series = verification_series(driven, driven_beta, traj)
    assert series["drift_IQ"] < 1e-7


# ---------- conserved normalization ----------

def test_omega_sho(sho, sho_beta):
    rep = compute_omega(sho, sho_beta)
    assert_allclose(rep.mean, 2.0, rtol=0, atol=1e-10)
    assert rep.max_rel_drift < 1e-9
    assert_allclose(rep.wronskian, -2.0j * np.ones_like(rep.ts), rtol=0,
                    atol=1e-9)


def test_omega_underdamped_value(driven, driven_beta):
    rep = compute_omega(driven, driven_beta)
    assert_allclose(rep.mean, TWO_SQRT99, rtol=0, atol=1e-10)
    assert rep.max_rel_drift < 1e-9


def test_omega_matches_frame_evaluation(driven, driven_beta):
    fr = frame_from_beta(driven, driven_beta, 3.7)
    rep = compute_omega(driven, driven_beta)
    assert_allclose(omega_of_frame(fr), rep.mean, rtol=1e-9)


def test_real_amplitude_pair_is_degenerate():
    s = Scenario(omega=TimeFunction.constant(1.0), t0=0.0, t1=5.0,
                 beta0=(1.0, 0.5))
    sol = integrate_beta(s)
    with pytest.raises(DegenerateSolutions):
        compute_omega(s, sol)


# ---------- envelope first integral and Ermakov form ----------

def test_first_integral_value(sho, sho_beta, driven, driven_beta, ramp,
                              ramp_beta):
    # for amplitude-derived envelopes, C = 2 Omega^2 / (m hbar)^2: the
    # envelope route and the Wronskian route agree up to rounding, in
    # verify's scale (3.0e-16 to 5.0e-16 on these frames)
    for s, sol in ((sho, sho_beta), (driven, driven_beta), (ramp, ramp_beta)):
        fr = frame_from_beta(s, sol, np.linspace(s.t0, s.t1, 512))
        C = first_integral_C(fr)
        om = omega_of_frame(fr)
        gap = np.max(np.abs(C - 2.0 * om ** 2 / (s.m * s.hbar) ** 2))
        assert gap / (1.0 + np.max(np.abs(C))) <= 6e-16, s


def test_first_integral_constant_from_envelope_ode(driven, driven_beta):
    gamma_sol = integrate_gamma(driven, *envelope_ics(driven)[0])
    ts = np.linspace(driven.t0, driven.t1, 256)
    fr = frame_from_beta(driven, driven_beta, ts)
    ga = gamma_sol(ts)
    fr = replace(fr, gamma=ga[:, 0], dgamma=ga[:, 1], ddgamma=ga[:, 2])
    C = first_integral_C(fr)
    assert drift(C, float(np.mean(C))) < 1e-8


def test_gamma_vanishes_guard(driven, driven_beta):
    fr = frame_from_beta(driven, driven_beta, 1.0)
    bad = replace(fr, gamma=0.0)
    with pytest.raises(GammaVanishes):
        first_integral_C(bad)
    with pytest.raises(GammaVanishes):
        ermakov_residual(bad, 7.92)


def test_ermakov_residual_small(driven, driven_beta):
    ts = np.linspace(driven.t0, driven.t1, 256)
    fr = frame_from_beta(driven, driven_beta, ts)
    C = float(np.mean(first_integral_C(fr)))
    assert np.max(np.abs(ermakov_residual(fr, C))) < 1e-8


def test_perturbed_envelope_fails_ermakov(driven, driven_beta):
    # scaling the whole gamma group by 1.01 keeps it smooth but breaks the
    # balance against the unscaled first integral
    ts = np.linspace(driven.t0, driven.t1, 64)
    fr = frame_from_beta(driven, driven_beta, ts)
    C = float(np.mean(first_integral_C(fr)))
    bad = replace(fr, gamma=1.01 * fr.gamma, dgamma=1.01 * fr.dgamma,
                  ddgamma=1.01 * fr.ddgamma)
    assert np.max(np.abs(ermakov_residual(bad, C))) > 1e-3


def ermakov_gap(fr, C_bar):
    """How far ermakov_residual(fr, C_bar) is from e^{-2G}(C - C_bar)/(2 r^3),
    C = first_integral_C(fr) and r = sqrt(gamma), at each sample, in units
    of the rounding unit times the size of the terms both are formed from."""
    C = first_integral_C(fr)
    r3 = 2.0 * fr.gamma ** 1.5
    gap = (ermakov_residual(fr, C_bar)
           - np.exp(-2.0 * fr.G) * (C - C_bar) / r3)
    terms = (np.abs(fr.gamma * fr.ddgamma)
             + np.abs(2.0 * fr.damping * fr.gamma * fr.dgamma)
             + 2.0 * fr.omega ** 2 * fr.gamma ** 2 + 0.5 * fr.dgamma ** 2
             + np.exp(-2.0 * fr.G) * abs(C_bar)) / r3
    return np.abs(gap) / (np.finfo(float).eps * terms)


@pytest.mark.parametrize("name", ["sho", "driven", "ramp"])
def test_ermakov_residual_is_the_first_integral_gap(request, name):
    # r'' + 2g r' + omega^2 r = e^{-2G} C/(2 r^3) for r = sqrt(gamma) on any
    # frame, so the Ermakov residual is C's drift from its mean; with C =
    # 2 (Omega/m hbar)^2 on the amplitude's frame (test_first_integral_value)
    # the Ermakov residual, C drift and omega drift that verify prints
    # measure one thing.  On these frames the gap is 1.1 to 1.8 units
    # (6.3e-16 to 1.2e-15)
    s = request.getfixturevalue(name)
    sol = request.getfixturevalue(f"{name}_beta")
    fr = frame_from_beta(s, sol, np.linspace(s.t0, s.t1, 512))
    C_bar = float(np.mean(first_integral_C(fr)))
    assert np.max(ermakov_gap(fr, C_bar)) <= 8.0


def test_ermakov_residual_is_the_first_integral_gap_on_any_frame():
    # the identity is algebra: it holds on frames no amplitude made
    rng = np.random.default_rng(20261020)
    G = rng.uniform(-3.0, 3.0, 4096)
    fr = SimpleNamespace(
        gamma=rng.uniform(0.1, 10.0, G.shape),
        dgamma=rng.uniform(-10.0, 10.0, G.shape),
        ddgamma=rng.uniform(-10.0, 10.0, G.shape),
        omega=rng.uniform(0.1, 3.0, G.shape),
        damping=rng.uniform(-1.0, 1.0, G.shape), G=G, expG=np.exp(G))
    for C_bar in (0.0, 1.0, -7.5):
        assert np.max(ermakov_gap(fr, C_bar)) <= 8.0


def test_scaling_covariance(driven, driven_beta):
    # beta -> lam beta rescales I linearly and Omega, I_Q by |lam|^2
    fr = frame_from_beta(driven, driven_beta, 2.6)
    rng = np.random.default_rng(5)
    q, p = 0.7, -0.3
    for _ in range(5):
        lam = complex(*rng.uniform(0.5, 2.0, 2))
        a2 = abs(lam) ** 2
        scaled = replace(fr, beta=lam * fr.beta, dbeta=lam * fr.dbeta,
                         F=lam * fr.F, gamma=a2 * fr.gamma,
                         dgamma=a2 * fr.dgamma, ddgamma=a2 * fr.ddgamma,
                         sigma=a2 * fr.sigma, dsigma=a2 * fr.dsigma,
                         F_sigma=a2 * fr.F_sigma)
        assert_allclose(eval_linear_invariant(scaled, q, p),
                        lam * eval_linear_invariant(fr, q, p), rtol=1e-12)
        assert_allclose(omega_of_frame(scaled), a2 * omega_of_frame(fr),
                        rtol=1e-12)
        assert_allclose(eval_quadratic_invariant(scaled, q, p),
                        a2 * eval_quadratic_invariant(fr, q, p), rtol=1e-12)


# ---------- coefficient-system reduction ----------

def test_c_reduction_two_scenarios(driven, ramp):
    # the oracle's coefficient ODEs against iq_coefficients of the
    # package's envelope solutions
    for s in (driven, ramp):
        assert coefficient_reduction(s)[2] < 1e-8


def test_c_reduction_detects_mismatch(driven):
    assert coefficient_reduction(driven, c3_shift=0.01)[2] > 1e-4


# ---------- bundled verification series ----------

def test_verification_series_contents(driven, driven_beta):
    traj = integrate_classical(driven, 1.0, 0.0)
    series = verification_series(driven, driven_beta, traj, samples=128)
    assert series["ts"].shape == (128,)
    for key in ("I", "IQ", "C", "ermakov"):
        assert series[key].shape == (128,)
    assert series["omega_report"].omega.shape == (128,)
    assert series["drift_I"] < 1e-8
    assert series["drift_IQ"] < 1e-7
    assert series["omega_report"].max_rel_drift < 1e-9
    assert series["drift_C"] < 1e-8
    assert series["C_vs_omega"] < 1e-14
    assert series["max_ermakov"] < 1e-8


def test_report_file_layout(tmp_path, driven, driven_beta):
    traj = integrate_classical(driven, 1.0, 0.0)
    series = verification_series(driven, driven_beta, traj, samples=32)
    path = tmp_path / "report.csv"
    write_verification_report(path, series)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,re_I,im_I,IQ,Omega,C,ermakov_residual"
    assert len(lines) == 34  # header + 32 samples + footer
    assert lines[-1].startswith("# max_drift_I=")
    assert len(lines[1].split(",")) == 7
    # the footer's omega_drift is the drift verify prints, on the same samples
    om = compute_omega(driven, driven_beta, samples=32)
    assert float(lines[-1].rsplit("omega_drift=", 1)[1]) == om.max_rel_drift
