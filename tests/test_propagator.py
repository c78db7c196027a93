"""Discrete Hamiltonian assembly and Crank-Nicolson propagation: exact
small-system anchors, unitarity, fidelity against the analytic states and
the documented failure modes."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal

from bckosc import (GridTooNarrow, OutOfDomain, Scenario, SolverBreakdown,
                    TimeFunction, build_hamiltonian, crank_nicolson_step,
                    eval_psi0, eval_psin, frame_from_beta, inner,
                    integrate_beta, propagate_and_compare)
from bckosc.propagator import BLOCK, REDUCED
from bckosc.quantum import WaveFunction


def apply_h(diag, off, values):
    out = diag * values
    out[1:] += off * values[:-1]
    out[:-1] += off * values[1:]
    return out


# ---------- Hamiltonian assembly ----------

def test_hamiltonian_entries(driven):
    t = 1.0
    diag, off = build_hamiltonian(driven, t)
    qs = driven.grid()
    dq = qs[1] - qs[0]
    eg = math.exp(0.2)           # e^{G(1)} with G = 0.2 t
    kin = 1.0 / (2.0 * eg)
    assert_allclose(off, -kin / dq ** 2, rtol=1e-14)
    ref = (2.0 * kin / dq ** 2 + 0.5 * eg * qs ** 2
           - eg * 0.5 * math.sin(0.9) * qs)
    assert_allclose(diag, ref, rtol=0, atol=1e-12)


def test_hamiltonian_rows_match_scalar_calls(driven, ramp):
    ts = np.array([0.0, 0.37, 1.0, 2.5, 7.25])
    for s in (driven, ramp):
        diag, off = build_hamiltonian(s, ts)
        assert diag.shape == (ts.size, s.npoints) and off.shape == ts.shape
        for k, t in enumerate(ts):
            d, o = build_hamiltonian(s, t)
            assert_allclose(diag[k], d, rtol=1e-15, atol=0)
            assert_allclose(off[k], o, rtol=1e-15, atol=0)


def test_free_particle_discrete_dispersion():
    # on the grid the kinetic operator has the exact eigenvalue
    # kin (2 - 2 cos k dq)/dq^2 for plane waves
    s = Scenario(omega=TimeFunction.constant(0.0), t0=0.0, t1=1.0,
                 beta0=(1.0, 1.0j), qmin=-10.0, qmax=10.0, npoints=256)
    diag, off = build_hamiltonian(s, 0.3)
    qs = s.grid()
    dq = qs[1] - qs[0]
    k = 2.0
    wave = np.exp(1j * k * qs)
    ev = 0.5 * (2.0 - 2.0 * math.cos(k * dq)) / dq ** 2
    out = apply_h(diag, off, wave)
    assert_allclose(out[1:-1], ev * wave[1:-1], rtol=0, atol=1e-12)


# ---------- single-step anchors ----------

def test_stationary_state_gets_the_cayley_phase(sho):
    # a discrete eigenstate picks up exactly the Cayley-form phase factor
    # (1 - i E dt/2)/(1 + i E dt/2) per step of the time-independent H
    diag, off = build_hamiltonian(sho, 0.0)
    E, v = eigh_tridiagonal(diag, np.full(sho.npoints - 1, off),
                            select="i", select_range=(0, 0))
    e0 = E[0]
    psi = WaveFunction(qs=sho.grid(), values=v[:, 0].astype(complex), t=0.0)
    dt = 1e-3
    stepped = crank_nicolson_step(psi, sho, 0.0, dt)
    phase = (1.0 - 0.5j * e0 * dt) / (1.0 + 0.5j * e0 * dt)
    assert_allclose(stepped.values, phase * psi.values, rtol=0, atol=1e-12)
    assert stepped.t == dt


def test_cn_step_is_unitary(driven, driven_beta):
    rng = np.random.default_rng(20260823)
    qs = driven.grid()
    raw = rng.normal(size=qs.shape) + 1j * rng.normal(size=qs.shape)
    raw *= np.exp(-0.1 * qs ** 2)
    psi = WaveFunction(qs=qs, values=raw, t=0.0)
    n0 = psi.norm
    t = 0.0
    for _ in range(20):
        psi = crank_nicolson_step(psi, driven, t, 1e-3)
        t += 1e-3
        assert abs(psi.norm - n0) / n0 < 1e-12


def test_cn_step_matches_a_dense_solve(driven):
    # the cyclic-reduction solve against a dense solve of the Cayley system,
    # for grids the elimination leaves whole, stops at REDUCED unknowns,
    # or leaves just above or far above it
    rng = np.random.default_rng(20260823)
    dt = 0.05
    for npoints in (3, REDUCED - 1, REDUCED, REDUCED + 1, 2 * REDUCED + 1,
                    37, 513):
        s = replace(driven, npoints=37)
        # sizes below the scenario minimum of 16 points test the solve alone
        object.__setattr__(s, "npoints", npoints)
        values = rng.normal(size=npoints) + 1j * rng.normal(size=npoints)
        psi = WaveFunction(qs=s.grid(), values=values, t=0.5)
        diag, off = build_hamiltonian(s, 0.5 + 0.5 * dt)
        h = np.diag(diag) + off * (np.eye(npoints, k=1)
                                   + np.eye(npoints, k=-1))
        a = 0.5j * dt / s.hbar
        ref = np.linalg.solve(np.eye(npoints) + a * h,
                              values - a * (h @ values))
        out = crank_nicolson_step(psi, s, 0.5, dt)
        assert_allclose(out.values, ref, rtol=0, atol=1e-13,
                        err_msg=f"npoints={npoints}")


def test_non_finite_hamiltonian_is_a_breakdown():
    # e^G overflows at t = 2 for g = 400: the pivots are not finite
    s = Scenario(omega=TimeFunction.constant(1.0), t0=0.0, t1=5.0,
                 damping=TimeFunction.constant(400.0), beta0=(1.0, 1.0j),
                 npoints=64)
    psi = WaveFunction(qs=s.grid(), values=np.ones(64, dtype=complex), t=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverBreakdown):
            crank_nicolson_step(psi, s, 2.0, 1e-3)


def test_breakdown_in_the_reduced_system_is_quiet():
    # e^G = 3.7e306: 0.5 omega^2 e^G q^2 overflows at q = +-10 and nowhere
    # else.  Unknowns 0 and 64 of 65 are even at every level, so both ends
    # reach the reduced system and every pivot above it is finite
    s = Scenario(omega=TimeFunction.constant(1.0), t0=0.0, t1=710.0,
                 damping=TimeFunction.constant(0.5), beta0=(1.0, 1.0j),
                 qmin=-10.0, qmax=10.0, npoints=65)
    dt = 1e-3
    t = math.log(3.7e306) - 0.5 * dt
    with np.errstate(over="ignore"):
        diag, _ = build_hamiltonian(s, t + 0.5 * dt)
    assert list(np.flatnonzero(~np.isfinite(diag))) == [0, 64]
    assert s.npoints > REDUCED
    psi = WaveFunction(qs=s.grid(), values=np.ones(65, dtype=complex), t=t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverBreakdown):
            crank_nicolson_step(psi, s, t, dt)


def test_breakdown_in_a_later_block_is_quiet():
    # G = 800 t: 0.5 omega^2 e^G q^2 overflows at the grid ends once
    # t > 0.8815, so only the midpoint of the last step, in a block after
    # the first, sees a non-finite Hamiltonian
    s = Scenario(omega=TimeFunction.constant(1.0), t0=0.0, t1=0.885,
                 damping=TimeFunction.constant(400.0), beta0=(1.0, 1.0j),
                 npoints=64)
    nsteps, dt = 177, 0.005
    with np.errstate(over="ignore"):
        diag, _ = build_hamiltonian(s, (np.arange(nsteps) + 0.5) * dt)
    finite = np.isfinite(diag).all(axis=1)
    assert finite[:-1].all() and not finite[-1] and nsteps > BLOCK
    beta_sol = integrate_beta(s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverBreakdown):
            propagate_and_compare(s, 0, 0.0, s.t1, dt, max_slices=2,
                                  beta_sol=beta_sol)


# ---------- propagation against the analytic states ----------

def test_propagate_sho_ground_state(sho):
    run = propagate_and_compare(sho, 0, 0.0, 2.0 * math.pi, 1e-3)
    assert run.min_overlap > 1.0 - 1e-8
    assert run.max_step_norm_drift < 1e-11
    assert run.slice_ts[0] == 0.0
    assert_allclose(run.slice_ts[-1], 2.0 * math.pi, rtol=1e-15)


def test_propagate_driven_ground_state(driven, driven_beta):
    s = replace(driven, qmin=-13.0, qmax=13.0, npoints=1024)
    t1 = 2.0 * math.pi / math.sqrt(0.99)
    run = propagate_and_compare(s, 0, 0.0, t1, 1e-3, beta_sol=driven_beta)
    assert run.min_overlap > 1.0 - 1e-4
    assert np.max(run.fidelity_defects) < 1e-4
    assert_allclose(run.slice_norms, 1.0, rtol=0, atol=1e-6)


def test_blocks_match_single_steps(driven, driven_beta):
    # two full blocks and a partial one, their slices compared a block at
    # a time, against one step and one eval_psin/inner comparison at a time
    s = replace(driven, npoints=256)
    nsteps = 2 * BLOCK + 3
    t0, dt = 0.5, 0.01
    for n in (0, 1, 3):
        run = propagate_and_compare(s, n, t0, t0 + nsteps * dt, dt,
                                    beta_sol=driven_beta)
        assert run.step_norms.shape == (nsteps,)
        assert_allclose(run.slice_ts, t0 + run.dt * np.arange(nsteps + 1),
                        rtol=0, atol=0)
        psi = eval_psin(n, s, frame_from_beta(s, driven_beta, t0), t0)
        assert_allclose(run.initial.values, psi.values, rtol=0, atol=1e-15)
        norms, overlaps = [psi.norm], [1.0]
        for k in range(nsteps):
            psi = crank_nicolson_step(psi, s, t0 + k * run.dt, run.dt)
            t = float(run.slice_ts[k + 1])
            ana = eval_psin(n, s, frame_from_beta(s, driven_beta, t), t)
            norms.append(psi.norm)
            overlaps.append(abs(inner(ana, psi)) / (ana.norm * psi.norm))
        assert_allclose(run.step_norms, norms[1:], rtol=0, atol=1e-13)
        assert_allclose(run.slice_norms, norms, rtol=0, atol=1e-13)
        assert_allclose(run.overlaps, overlaps, rtol=0, atol=1e-13)


def test_grid_clipped_in_mid_run_is_grid_too_narrow(driven):
    # undamped, the packet keeps its width while its center drifts: the
    # grid holds it at t0 and clips it from about t = 2.2 on.  The error
    # names the first slice that fails, as eval_psin at that slice does
    s = replace(driven, damping=TimeFunction.constant(0.0), qmin=-8.5,
                qmax=8.5, npoints=256)
    beta_sol = integrate_beta(s)
    for k in range(151):
        t = 0.02 * k
        try:
            eval_psin(0, s, frame_from_beta(s, beta_sol, t), t)
        except GridTooNarrow as exc:
            first = str(exc)
            break
    assert 1.0 < t < 3.0
    with pytest.raises(GridTooNarrow) as err:
        propagate_and_compare(s, 0, 0.0, 3.0, 0.02, beta_sol=beta_sol)
    assert str(err.value) == first


def test_propagation_memory_does_not_grow_with_steps(driven, driven_beta):
    # compared slices are not kept, so 4x the steps (65 against 202
    # slices) must not raise the peak allocation
    peaks = []
    for nsteps in (64, 256):
        tracemalloc.start()
        try:
            propagate_and_compare(driven, 0, 0.0, nsteps * 2e-3, 2e-3,
                                  beta_sol=driven_beta)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_unitarity_over_many_steps(driven):
    s = replace(driven, npoints=512)
    run = propagate_and_compare(s, 0, 0.0, 10.0, 1e-3)
    assert run.max_step_norm_drift < 1e-9  # 1e4 steps


def test_run_record_is_consistent(sho):
    run = propagate_and_compare(sho, 1, 0.0, 1.0, 1e-3, max_slices=11)
    assert len(run.slice_ts) <= 11
    assert len(run.slice_norms) == len(run.slice_ts)
    assert_allclose(run.fidelity_defects, 1.0 - run.overlaps, rtol=0,
                    atol=0)
    assert run.dt == 1e-3
    assert run.initial.n == 1


def test_max_slices_bounds_an_uneven_step_count(sho):
    # 789 steps do not divide into 200 strides: the slice stride rounds up,
    # so the run still compares at most max_slices states and ends at t1
    run = propagate_and_compare(sho, 0, 0.0, 0.789, 1e-3)
    assert len(run.slice_ts) <= 201
    assert run.slice_ts[-1] == pytest.approx(0.789, abs=1e-15)
    assert run.step_norms.shape == (789,)


def test_propagation_distinguishes_states(driven, driven_beta):
    # the propagated ground state must stay orthogonal to psi_1 and aligned
    # with psi_0
    fr = frame_from_beta(driven, driven_beta, 0.0)
    psi = eval_psi0(driven, fr, 0.0)
    t, dt = 0.0, 0.01
    for _ in range(300):
        psi = crank_nicolson_step(psi, driven, t, dt)
        t += dt
    fr = frame_from_beta(driven, driven_beta, t)
    ref0 = eval_psin(0, driven, fr, t)
    ref1 = eval_psin(1, driven, fr, t)
    assert abs(inner(ref0, psi)) > 0.99
    assert abs(inner(ref1, psi)) < 0.1


def test_defect_shrinks_with_grid(driven, driven_beta):
    # at this dt the spatial dq^2 error dominates: quadrupling the
    # resolution must collapse the defect
    defects = []
    for npoints in (513, 2049):
        s = replace(driven, qmin=-13.0, qmax=13.0, npoints=npoints)
        run = propagate_and_compare(s, 0, 0.0, 1.0, 2e-3,
                                    beta_sol=driven_beta)
        defects.append(np.max(run.fidelity_defects))
    assert defects[0] > 10.0 * defects[1]


def test_propagation_window_is_validated(sho):
    with pytest.raises(OutOfDomain):
        propagate_and_compare(sho, 0, -1.0, 1.0, 1e-3)
    with pytest.raises(OutOfDomain):
        propagate_and_compare(sho, 0, 0.0, sho.t1 + 1.0, 1e-3)
    with pytest.raises(OutOfDomain):
        propagate_and_compare(sho, 0, 2.0, 1.0, 1e-3)


def test_run_csv(tmp_path, sho):
    run = propagate_and_compare(sho, 0, 0.0, 0.5, 1e-3, max_slices=6)
    path = tmp_path / "prop.csv"
    run.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,norm,overlap,fidelity_defect"
    assert len(lines) == 1 + len(run.slice_ts)
