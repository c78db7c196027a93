"""Acceptance gate: the eleven end-to-end claims the package stands on.

Each test prints exactly one PASS/FAIL line (past the capture) with the
measured figure next to its bound, then asserts.  Tolerances are the
contract values; the integrator runs at rtol 1e-12 (see conftest) so that
measured drifts sit well under the bars rather than at them.
"""

import math
import time
from dataclasses import replace

import numpy as np

from bckosc import (TimeFunction, build_spectrum, compute_omega,
                    ermakov_residual, eval_psin,
                    first_integral_C, frame_from_beta, integrate_beta,
                    integrate_classical, integrate_gamma, omega_of_frame,
                    moments, propagate_and_compare, verification_series)
from bckosc.invariants import drift, envelope_ics
from bckosc.quantum import l2_norm

from conftest import coefficient_reduction
from oracles import (apply_IQ, apply_ladder, schrodinger_residual,
                     underdamped_closed_forms,
                     underdamped_uncertainty_factors)

SEED = 20260823
OMEGA_BAR = math.sqrt(0.99)
PI_QUARTER = math.pi ** -0.25


def announce(capsys, num, ok, label, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} "
              f"{label}: {detail}", end="")
    assert ok, f"criterion {num}: {label}: {detail}"


def diff4(vals, dq):
    return (8.0 * (np.roll(vals, -1) - np.roll(vals, 1))
            - (np.roll(vals, -2) - np.roll(vals, 2))) / (12.0 * dq)


def test_criterion_01_linear_invariant_conservation(driven, capsys):
    # warm the kernels outside the timed section
    integrate_classical(driven, 0.1, 0.0)
    t_start = time.perf_counter()
    beta_sol = integrate_beta(driven)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for q0, p0 in rng.uniform(-2.0, 2.0, size=(5, 2)):
        traj = integrate_classical(driven, q0, p0)
        series = verification_series(driven, beta_sol, traj)
        worst = max(worst, series["drift_I"])
    elapsed = time.perf_counter() - t_start
    ok = worst < 1e-8 and elapsed < 2.0
    announce(capsys, 1, ok, "linear invariant conserved",
             f"max drift {worst:.2e} (< 1e-8) over 5 random trajectories "
             f"of the driven scenario, 0..20pi, in {elapsed:.2f} s (< 2 s)")


def test_criterion_02_conserved_normalization(driven, sho, ramp,
                                              driven_beta, sho_beta,
                                              ramp_beta, capsys):
    worst = 0.0
    for s, sol in ((sho, sho_beta), (ramp, ramp_beta),
                   (driven, driven_beta)):
        rep = compute_omega(s, sol)
        worst = max(worst, rep.max_rel_drift)
    value_err = abs(compute_omega(driven, driven_beta).mean
                    - 2.0 * OMEGA_BAR)
    ok = worst < 1e-9 and value_err < 1e-10
    announce(capsys, 2, ok, "e^G W constant",
             f"max relative drift {worst:.2e} (< 1e-9) on 3 scenarios; "
             f"constant-parameter value off 2 sqrt(0.99) by "
             f"{value_err:.2e} (< 1e-10)")


def test_criterion_03_quadratic_invariant(driven, driven_beta, capsys):
    rng = np.random.default_rng(SEED + 3)
    worst_drift, worst_rel = 0.0, 0.0
    for q0, p0 in rng.uniform(-2.0, 2.0, size=(3, 2)):
        traj = integrate_classical(driven, q0, p0)
        series = verification_series(driven, driven_beta, traj)
        worst_drift = max(worst_drift, series["drift_IQ"])
        rel = np.max(np.abs(np.abs(series["I"]) ** 2 - series["IQ"])
                     / (np.abs(series["IQ"]) + 1e-12))
        worst_rel = max(worst_rel, float(rel))
    ok = worst_drift < 1e-7 and worst_rel < 1e-9
    announce(capsys, 3, ok, "quadratic invariant",
             f"drift {worst_drift:.2e} (< 1e-7) along 3 trajectories; "
             f"|I|^2 vs I_Q relative {worst_rel:.2e} (< 1e-9)")


def test_criterion_04_envelope_reduction(driven, driven_beta, capsys):
    gamma_sol = integrate_gamma(driven, *envelope_ics(driven)[0])
    ts = np.linspace(driven.t0, driven.t1, 256)
    fr = frame_from_beta(driven, driven_beta, ts)
    ga = gamma_sol(ts)
    gamma_dev = float(np.max(np.abs(ga[:, 0] - fr.gamma)))
    fr_ode = replace(fr, gamma=ga[:, 0], dgamma=ga[:, 1], ddgamma=ga[:, 2])
    C = first_integral_C(fr_ode)
    c_drift = drift(C, float(np.mean(C)))
    erm = float(np.max(np.abs(ermakov_residual(fr_ode,
                                               float(np.mean(C))))))
    bad = replace(fr, gamma=1.01 * fr.gamma, dgamma=1.01 * fr.dgamma,
                  ddgamma=1.01 * fr.ddgamma)
    control = float(np.max(np.abs(ermakov_residual(
        bad, float(np.mean(first_integral_C(fr)))))))
    ok = gamma_dev < 1e-8 and c_drift < 1e-8 and erm < 1e-8 \
        and control > 1e-3
    announce(capsys, 4, ok, "envelope route",
             f"|gamma_ODE - 2 beta* beta| {gamma_dev:.2e} (< 1e-8); "
             f"C drift {c_drift:.2e} (< 1e-8); Ermakov residual "
             f"{erm:.2e} (< 1e-8); perturbed control {control:.2e} (> 1e-3)")


def test_criterion_05_coefficient_reduction(driven, ramp, sho, capsys):
    # the coefficient ODEs are the oracle's, solved by scipy's DOP853
    worst = max(coefficient_reduction(s)[2] for s in (driven, ramp))
    # energy initial data freeze every coefficient for the plain oscillator
    c0, c_sol, _ = coefficient_reduction(sho)
    ts = np.linspace(sho.t0, sho.t1, 64)
    frozen = float(np.max(np.abs(c_sol(ts).T - c0)))
    ok = worst < 1e-8 and frozen < 1e-10
    announce(capsys, 5, ok, "coefficient system reduction",
             f"max relation deviation {worst:.2e} (< 1e-8) on 2 scenarios; "
             f"energy-data coefficients move {frozen:.2e} (< 1e-10)")


def test_criterion_06_spectrum(driven, driven_beta, capsys):
    s = replace(driven, qmin=-16.0, qmax=16.0, npoints=2048)
    t = 3.0
    fr = frame_from_beta(s, driven_beta, t)
    om = float(omega_of_frame(fr))
    worst_res, worst_ev = 0.0, 0.0
    for n in range(5):
        psi = eval_psin(n, s, fr)
        out = apply_IQ(psi.values, psi.qs, fr)
        ev = om * (n + 0.5)
        res = l2_norm((out - ev * psi.values)[2:-2], psi.dq)
        worst_res = max(worst_res, res)
        rayleigh = float(np.trapezoid(
            (np.conjugate(psi.values) * out).real, dx=psi.dq))
        worst_ev = max(worst_ev, abs(rayleigh - ev) / ev)
    mean = compute_omega(driven, driven_beta).mean
    value_err = max(abs(ev - 2.0 * OMEGA_BAR * (n + 0.5))
                    for n, ev in enumerate(build_spectrum(mean, 4)))
    ok = worst_res < 1e-5 and worst_ev < 1e-6 and value_err < 1e-8
    announce(capsys, 6, ok, "spectrum",
             f"eigen-residual {worst_res:.2e} (< 1e-5) and eigenvalue "
             f"error {worst_ev:.2e} (< 1e-6) for n <= 4 on 2048 points; "
             f"eigenvalues off 2 sqrt(0.99)(n+1/2) by {value_err:.2e} "
             f"(< 1e-8)")


def test_criterion_07_ladder_algebra(driven, driven_beta, capsys):
    s = replace(driven, qmin=-16.0, qmax=16.0, npoints=2048)
    t = 3.0
    fr = frame_from_beta(s, driven_beta, t)
    psis = [eval_psin(n, s, fr).values for n in range(5)]
    qs = s.grid()
    dq = float(qs[1] - qs[0])
    sl = slice(2, -2)
    worst_down = 0.0
    for n in (1, 2, 3, 4):
        down = apply_ladder("down", psis[n], qs, fr)
        err = l2_norm((down - math.sqrt(n) * psis[n - 1])[sl],
                      dq) / math.sqrt(n)
        worst_down = max(worst_down, err)
    psi = psis[2]
    c1 = apply_ladder("up", apply_ladder("down", psi, qs, fr), qs, fr)
    c2 = apply_ladder("down", apply_ladder("up", psi, qs, fr), qs, fr)
    comm = l2_norm((c2 - c1 - psi)[4:-4], dq)
    acc = psis[0]
    for _ in range(4):
        acc = apply_ladder("up", acc, qs, fr)
    rebuilt = l2_norm((acc / math.sqrt(24.0) - psis[4])[8:-8], dq)
    ok = worst_down < 1e-6 and comm < 1e-5 and rebuilt < 1e-5
    announce(capsys, 7, ok, "ladder algebra",
             f"lowering error {worst_down:.2e} (< 1e-6); commutator defect "
             f"{comm:.2e} (< 1e-5); psi_4 rebuilt from psi_0 with error "
             f"{rebuilt:.2e} (< 1e-5)")


def test_criterion_08_dynamics(driven, driven_beta, capsys):
    # warm the propagation kernel outside the timed section
    propagate_and_compare(replace(driven, npoints=64), 0, 0.0, 0.01, 5e-3,
                          beta_sol=driven_beta)
    t_start = time.perf_counter()
    # analytic states against the equation of motion
    worst_res = 0.0
    for n in (0, 1):
        series = []
        for k in range(5):
            t = 1.0 + 1e-3 * (k - 2)
            fr = frame_from_beta(driven, driven_beta, t)
            series.append(eval_psin(n, driven, fr))
        worst_res = max(worst_res, schrodinger_residual(series, driven))
    # one full period of numeric propagation
    s = replace(driven, qmin=-13.0, qmax=13.0, npoints=1024)
    t1 = 2.0 * math.pi / OMEGA_BAR
    worst_defect = 0.0
    for n in (0, 1):
        run = propagate_and_compare(s, n, 0.0, t1, 1e-3,
                                    beta_sol=driven_beta)
        worst_defect = max(worst_defect, 1.0 - run.min_overlap)
    # second-order convergence of the defect amplitude on a grid fine
    # enough that the spatial error does not mask the time error
    fine = replace(driven, qmin=-13.0, qmax=13.0, npoints=8192)
    defects = []
    for dt in (0.04, 0.02, 0.01):
        run = propagate_and_compare(fine, 0, 0.0, t1, dt,
                                    beta_sol=driven_beta)
        defects.append(1.0 - run.min_overlap)
    ratios = [math.sqrt(defects[0] / defects[1]),
              math.sqrt(defects[1] / defects[2])]
    elapsed = time.perf_counter() - t_start
    ok = (worst_res < 1e-4 and worst_defect < 1e-4
          and all(3.5 < r < 4.5 for r in ratios) and elapsed < 30.0)
    announce(capsys, 8, ok, "states solve the dynamics",
             f"residual {worst_res:.2e} (< 1e-4); period fidelity defect "
             f"{worst_defect:.2e} (< 1e-4) at dt=1e-3, 1024 points; "
             f"halving-dt amplitude ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
             f"(in 3.5..4.5); {elapsed:.1f} s (< 30 s)")


def uncertainty(n, frame, s):
    """The uncertainty product var_q var_p of psi_n."""
    _, _, var_q, var_p = moments(n, frame, s)
    return var_q * var_p


def test_criterion_09_uncertainty(driven, sho, driven_beta, sho_beta,
                                  capsys):
    vals = []
    for t in (0.0, 1.0, 2.5, 4.0, 6.0):
        fr = frame_from_beta(driven, driven_beta, t)
        vals.append(uncertainty(0, fr, driven))
    vals = np.asarray(vals)
    time_dev = float(np.max(np.abs(vals - vals[0])) / vals[0])
    fr = frame_from_beta(sho, sho_beta, 1.3)
    sho_err = max(abs(uncertainty(n, fr, sho) - (n + 0.5) ** 2)
                  for n in (0, 1, 2))
    # grid-quadrature oracle against the two closed-form candidates
    s = replace(driven, qmin=-16.0, qmax=16.0, npoints=8192)
    cmp = underdamped_uncertainty_factors(driven)
    t = 1.0
    frd = frame_from_beta(s, driven_beta, t)
    oracle_gap, alt_gap, adopted_gap = 0.0, math.inf, 0.0
    for n in (0, 1):
        psi = eval_psin(n, s, frd)
        dq = psi.dq
        dens = np.abs(psi.values) ** 2
        nrm = np.trapezoid(dens, dx=dq)
        eq = np.trapezoid(psi.qs * dens, dx=dq) / nrm
        vq = np.trapezoid((psi.qs - eq) ** 2 * dens, dx=dq) / nrm
        pv = -1j * s.hbar * diff4(psi.values, dq)
        ep = np.trapezoid((np.conjugate(psi.values) * pv).real, dx=dq) / nrm
        vp = np.trapezoid(np.abs(pv) ** 2, dx=dq) / nrm - ep ** 2
        oracle = vq * vp
        base = s.hbar ** 2 * (n + 0.5) ** 2
        oracle_gap = max(oracle_gap,
                         abs(oracle - base * cmp.generic_factor)
                         / (base * cmp.generic_factor))
        alt_gap = min(alt_gap, abs(oracle - base * cmp.alternative_factor)
                      / (base * cmp.alternative_factor))
        adopted_gap = max(adopted_gap,
                          abs(uncertainty(n, frd, s)
                              - base * cmp.generic_factor)
                          / (base * cmp.generic_factor))
    ok = (time_dev < 1e-9 and sho_err < 1e-10 and oracle_gap < 1e-6
          and alt_gap > 1e-3 and cmp.adopted == "generic"
          and adopted_gap < 1e-12)
    announce(capsys, 9, ok, "uncertainty relations",
             f"time dependence {time_dev:.2e} (< 1e-9); plain-oscillator "
             f"error {sho_err:.2e} (< 1e-10); quadrature oracle matches "
             f"the adopted (omega^2/omega_bar^2) factor to "
             f"{oracle_gap:.2e} (< 1e-6) and rejects the alternative by "
             f"{alt_gap:.2e} (> 1e-3)")


def test_criterion_10_closed_forms(driven, driven_beta, capsys):
    short = replace(driven, t1=20.0)
    sol = integrate_beta(short)
    ts = np.linspace(0.0, 20.0, 161)
    fr_ode = frame_from_beta(short, sol, ts)
    fr = underdamped_closed_forms(short, ts)
    worst = 0.0
    for field in ("beta", "dbeta", "F", "gamma", "dgamma", "sigma",
                  "dsigma", "F_sigma", "phase", "phase_integral"):
        ref = np.asarray(getattr(fr, field))
        dev = np.max(np.abs(ref - getattr(fr_ode, field)))
        # F_sigma grows to ~1e3 by t=20, so judge each field against
        # its own scale the way the drift helper does
        worst = max(worst, float(dev) / (1.0 + float(np.max(np.abs(ref)))))
    # without the drive, the closed forms collapse to the free damped case
    free = replace(short, force=TimeFunction.sinusoid(0.0, 0.9))
    frf = underdamped_closed_forms(free, ts)
    free_dev = float(max(
        np.max(np.abs(frf.beta - np.exp((-0.1 + 1j * OMEGA_BAR) * ts))),
        np.max(np.abs(frf.F)), np.max(np.abs(frf.sigma)),
        np.max(np.abs(frf.F_sigma))))
    ok = worst < 1e-7 and free_dev < 1e-13
    announce(capsys, 10, ok, "constant-parameter closed forms",
             f"max deviation from the ODE pipeline {worst:.2e} (< 1e-7) "
             f"over 0..20; undriven degeneration off by {free_dev:.2e} "
             f"(exact)")


def test_criterion_11_plain_oscillator_recovery(sho, sho_beta, capsys):
    ts = np.linspace(sho.t0, sho.t1, 64)
    fr = frame_from_beta(sho, sho_beta, ts)
    beta_err = float(np.max(np.abs(fr.beta - np.exp(1j * ts))))
    f_err = float(np.max(np.abs(fr.F)))
    sigma_err = float(np.max(np.abs(fr.sigma)))
    t = 1.5
    fr1 = frame_from_beta(sho, sho_beta, t)
    psi0 = eval_psin(0, sho, fr1)
    ref0 = PI_QUARTER * np.exp(-0.5 * psi0.qs ** 2) * np.exp(-0.5j * t)
    psi1 = eval_psin(1, sho, fr1)
    ref1 = (1j * math.sqrt(2.0) * psi1.qs * PI_QUARTER
            * np.exp(-0.5 * psi1.qs ** 2) * np.exp(-1.5j * t))
    state_err = float(max(np.max(np.abs(psi0.values - ref0)),
                          np.max(np.abs(psi1.values - ref1))))
    mean = compute_omega(sho, sho_beta).mean
    ev_err = max(abs(ev - 2.0 * (n + 0.5))
                 for n, ev in enumerate(build_spectrum(mean, 3)))
    ok = (beta_err < 1e-8 and f_err < 1e-12 and sigma_err < 1e-12
          and state_err < 1e-8 and ev_err < 1e-8)
    announce(capsys, 11, ok, "plain oscillator recovery",
             f"|beta - e^it| {beta_err:.2e}; force functional {f_err:.2e}; "
             f"sigma {sigma_err:.2e}; textbook psi_0, psi_1 error "
             f"{state_err:.2e}; eigenvalue error {ev_err:.2e} (all < 1e-8)")
