"""Discrete Hamiltonian assembly and Crank-Nicolson propagation: exact
small-system anchors, unitarity, fidelity against the analytic states and
the documented failure modes."""

import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal, solve_banded

from bckosc import (GridTooNarrow, OutOfDomain, Scenario, SolverBreakdown,
                    TimeFunction, ValidationError, build_hamiltonian,
                    eval_psin, frame_from_beta, integrate_beta,
                    parse_scenario_file, propagate_and_compare)
from bckosc import propagator
from bckosc.cli import main
from bckosc.propagator import BLOCK, _cn_step, _factor, _Plan
from bckosc.quantum import WaveFunction, psin_values

from conftest import SCENARIO_DIR
from oracles import inner


def crank_nicolson_step(psi, s, t, dt):
    """One step of psi from t to t + dt with H at t + dt/2, factored on a
    plan of one row: the single-step reference of the tests.  A run
    factors BLOCK steps at a time on one plan instead."""
    plan = _Plan(s.npoints, 1)
    with np.errstate(all="ignore"):
        depth = _factor(s, np.array([t + 0.5 * dt]), dt, plan)
        out = _cn_step(plan.steps(depth)[0],
                       np.asarray(psi.values, dtype=np.complex128))
    return WaveFunction(qs=psi.qs, values=out, t=t + dt, n=psi.n)


def one_sample_frame(frames, k):
    """Sample k of a vector frame, its fields one-sample arrays and its
    time a scalar: the frame whose packet propagate_and_compare reads at
    slice k.  numpy's scalar arithmetic rounds complex products otherwise
    than its array loops, so a scalar frame's packet can differ in the
    last bit."""
    one = {f.name: getattr(frames, f.name)[k:k + 1] for f in fields(frames)
           if np.ndim(getattr(frames, f.name))}
    return replace(frames, **{**one, "t": frames.t[k]})


def apply_h(diag, off, values):
    out = diag * values
    out[1:] += off * values[:-1]
    out[:-1] += off * values[1:]
    return out


@pytest.fixture
def depths(monkeypatch):
    """The number of levels each elimination takes, in order."""
    taken = []
    eliminate = propagator._eliminate

    def record(*args):
        depth, b = eliminate(*args)
        taken.append(depth)
        return depth, b

    monkeypatch.setattr(propagator, "_eliminate", record)
    return taken


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


def test_cn_step_matches_a_dense_solve(driven, depths):
    # the cyclic-reduction solve against a direct solve of the Cayley system
    # by LAPACK's banded gbsv, first for grids the elimination leaves whole
    # or reduces with odd and even sizes at every level
    rng = np.random.default_rng(20260823)

    def check(s, t, dt):
        values = rng.normal(size=s.npoints) + 1j * rng.normal(size=s.npoints)
        psi = WaveFunction(qs=s.grid(), values=values, t=t)
        diag, off = build_hamiltonian(s, t + 0.5 * dt)
        a = 0.5j * dt / s.hbar
        bands = np.zeros((3, s.npoints), dtype=complex)
        bands[0, 1:] = bands[2, :-1] = a * off
        bands[1] = 1.0 + a * diag
        ref = solve_banded((1, 1), bands,
                           values - a * apply_h(diag, off, values))
        out = crank_nicolson_step(psi, s, t, dt)
        assert_allclose(out.values, ref, rtol=0, atol=1e-13,
                        err_msg=f"npoints={s.npoints}, t={t}, dt={dt}")

    for npoints in (*range(3, 70), 513):
        s = replace(driven, npoints=37)
        # sizes below the scenario minimum of 16 points test the solve alone
        object.__setattr__(s, "npoints", npoints)
        check(s, 0.5, 0.05)
    # then sweeps over dt and t that stop the reduction at every depth, from
    # no level (a |off| tiny) to one unknown: the narrow grids keep V q^2
    # small next to the kinetic term, so the couplings fall slowly
    for npoints, qmax in ((65, 2.0), (513, 4.0)):
        s = replace(driven, qmin=-qmax, qmax=qmax, npoints=npoints)
        depths.clear()
        for dt in 10.0 ** np.arange(-20.0, 0.1, 0.25):
            for t in (0.0, 60.0):
                check(s, t, dt)
        assert set(depths) == set(range(math.ceil(math.log2(npoints)) + 1))


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


def test_breakdown_in_the_reduced_system_is_quiet(depths):
    # 0.5 V q^2 overflows at q = +-10 and nowhere else.  Unknowns 0 and 64
    # of 65 are even at every level, so both ends reach the reduced system,
    # which is diagonal and holds an infinite pivot.  With V = e^G =
    # 3.7e306 the couplings, K = e^{-G}, are negligible from the start, so
    # no level is taken; with m = 0.025 and omega^2 = 1.48e308 (K = 40, the
    # same V) one level, whose pivots are finite, is taken first
    dt = 1e-3
    t = math.log(3.7e306) - 0.5 * dt
    cases = [(dict(omega=TimeFunction.constant(1.0),
                   damping=TimeFunction.constant(0.5)), t, 0),
             (dict(omega=TimeFunction.constant(math.sqrt(1.48e308)),
                   m=0.025), 0.0, 1)]
    for params, t, depth in cases:
        s = Scenario(t0=0.0, t1=710.0, beta0=(1.0, 1.0j), qmin=-10.0,
                     qmax=10.0, npoints=65, **params)
        with np.errstate(over="ignore"):
            diag, _ = build_hamiltonian(s, t + 0.5 * dt)
        assert list(np.flatnonzero(~np.isfinite(diag))) == [0, 64]
        psi = WaveFunction(qs=s.grid(), values=np.ones(65, dtype=complex),
                           t=t)
        depths.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverBreakdown):
                crank_nicolson_step(psi, s, t, dt)
        assert depths == [depth]


def test_breakdown_first_pivoting_at_an_inner_level_is_quiet(depths):
    # on 67 points from q = -31 to 35, 0.5 V q^2 with V = m omega^2 = 3e305
    # overflows at the last point and nowhere else.  Unknown 66 is even at
    # the first level and odd, a pivot, at the second.  K = 1/m = 100 keeps
    # the couplings above NEGLIGIBLE through the first level's pivot at
    # q = 0, unknown 31, so the second level is taken
    s = Scenario(omega=TimeFunction.constant(math.sqrt(3e307)), m=0.01,
                 t0=0.0, t1=1.0, beta0=(1.0, 1.0j), qmin=-31.0, qmax=35.0,
                 npoints=67)
    dt = 1e-3
    with np.errstate(over="ignore"):
        diag, _ = build_hamiltonian(s, 0.5 * dt)
    assert list(np.flatnonzero(~np.isfinite(diag))) == [66]
    assert 66 % 2 == 0 and (66 // 2) % 2 == 1 and s.grid()[31] == 0.0
    psi = WaveFunction(qs=s.grid(), values=np.ones(67, dtype=complex),
                       t=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverBreakdown):
            crank_nicolson_step(psi, s, 0.0, dt)
    assert depths == [2]


def test_non_finite_reduced_coupling_alone_is_a_breakdown(sho, monkeypatch,
                                                           depths):
    # no scenario makes the off-diagonal overflow while the diagonal, twice
    # its kinetic part, stays finite, so the builder is wrapped to return
    # an infinite or a NaN one.  Neither is negligible, so the elimination
    # goes on to one unknown, 3 levels for 8 points, and the coupling
    # reaches the diagonal of the next level
    s = replace(sho, npoints=37)
    object.__setattr__(s, "npoints", 8)
    psi = WaveFunction(qs=s.grid(), values=np.ones(8, dtype=complex), t=0.0)
    for bad in (np.inf, np.nan):
        def non_finite_coupling(s, t, out=None):
            h, c = build_hamiltonian(s, t, out)
            assert np.isfinite(h).all()
            return h, np.full_like(c, bad)

        monkeypatch.setattr(propagator, "build_hamiltonian",
                            non_finite_coupling)
        depths.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverBreakdown):
                crank_nicolson_step(psi, s, 0.0, 1e-3)
        assert depths == [3]


def test_overflowing_elimination_of_a_finite_hamiltonian_is_a_breakdown():
    # m = 1e-300 makes the kinetic term 1e300 on a unit grid spacing, and
    # F = 1e300 cancels it exactly at q = 1, unknown 33, an odd one: H is
    # finite (up to 3.3e301), but that pivot is 1/2 and its Schur update of
    # unknowns 32 and 34, (a kin/2)^2 / (1/2) = 3e592, overflows
    m = 1e-300
    s = Scenario(omega=TimeFunction.constant(0.0), t0=0.0, t1=1.0, m=m,
                 force=TimeFunction.constant(2.0 / (2.0 * m)),
                 beta0=(1.0, 1.0j), qmin=-32.0, qmax=32.0, npoints=65)
    diag, off = build_hamiltonian(s, 0.5)
    assert np.isfinite(diag).all() and np.isfinite(off)
    assert diag[33] == 0.0 and abs(off) > 4.9e299
    psi = WaveFunction(qs=s.grid(), values=np.ones(65, dtype=complex), t=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverBreakdown):
            crank_nicolson_step(psi, s, 0.5, 1e-3)


@pytest.mark.parametrize("eg", [1e100, 1e200, 1e300, 1e305])
def test_huge_finite_hamiltonian_steps_quietly(eg):
    # the scenario of the test above with e^G below overflow: the diagonal
    # reaches 0.5 e^G q^2 = 50 e^G, so the squared modulus of a pivot
    # overflows from e^G of about 1e154 on; the step must stay finite and
    # unitary, and no pivot check may fire
    s = Scenario(omega=TimeFunction.constant(1.0), t0=0.0, t1=710.0,
                 damping=TimeFunction.constant(0.5), beta0=(1.0, 1.0j),
                 qmin=-10.0, qmax=10.0, npoints=65)
    dt = 1e-3
    t = math.log(eg) - 0.5 * dt
    rng = np.random.default_rng(20261018)
    values = rng.normal(size=65) + 1j * rng.normal(size=65)
    psi = WaveFunction(qs=s.grid(), values=values, t=t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = crank_nicolson_step(psi, s, t, dt)
    assert np.isfinite(out.values).all()
    assert_allclose(np.linalg.norm(out.values), np.linalg.norm(values),
                    rtol=1e-14, atol=0)


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


def test_breakdown_at_a_first_level_pivot_is_quiet(depths):
    # on 66 points from q = -30 to 35, 0.5 V q^2 with V = m omega^2 = 3e305
    # overflows at the last point, unknown 65, and nowhere else: an odd
    # one, the first level's pivot, whose reciprocal overwrites it.  K =
    # 1/m = 100 keeps the coupling above NEGLIGIBLE, so that level is taken
    dt = 1e-3
    s = Scenario(omega=TimeFunction.constant(math.sqrt(3e307)), m=0.01,
                 t0=0.0, t1=1.0, beta0=(1.0, 1.0j), qmin=-30.0, qmax=35.0,
                 npoints=66)
    with np.errstate(over="ignore"):
        diag, off = build_hamiltonian(s, 0.5 * dt)
    assert list(np.flatnonzero(~np.isfinite(diag))) == [65]
    assert 0.25 * dt * abs(off) / s.hbar > propagator.NEGLIGIBLE
    psi = WaveFunction(qs=s.grid(), values=np.ones(66, dtype=complex),
                       t=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverBreakdown):
            crank_nicolson_step(psi, s, 0.0, dt)
    assert depths[0] >= 1
    # the same pivot overflowing first in the second block: damping g = 1
    # raises V = m omega^2 e^{2t} from 2.8e305 past 0.5 V 35^2 = 1.8e308 at
    # the 25th step.  The frames come from a tame amplitude, whose packet
    # fits the grid: an omega of 1.7e153 is beyond the amplitude
    # integrator, and only the Hamiltonian reaches the solve
    s = replace(s, omega=TimeFunction.constant(math.sqrt(2.8e307)),
                damping=TimeFunction.constant(1.0), t1=40 * dt)
    with np.errstate(over="ignore"):
        diag, _ = build_hamiltonian(s, (np.arange(40) + 0.5) * dt)
    rows, cols = np.nonzero(~np.isfinite(diag))
    assert set(cols) == {65} and rows.min() == 24 > BLOCK
    beta_sol = integrate_beta(replace(s, omega=TimeFunction.constant(100.0),
                                      beta0=(1.0, 100.0j)))
    depths.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverBreakdown):
            propagate_and_compare(s, 0, 0.0, s.t1, dt, max_slices=2,
                                  beta_sol=beta_sol)
    assert len(depths) == 2 and depths[1] >= 1


def test_block_factors_hold_three_values_per_point(driven):
    # one block's factors: the buffer, one complex value per point and
    # step, holds the first level's reciprocals over its odd pivots and the
    # reduced diagonal's reciprocals over that diagonal; the levels' other
    # arrays, each counted once through the array that owns its memory,
    # hold at most 2.05 more (2.005 at 1024 points)
    plan = _Plan(driven.npoints, BLOCK)
    assert np.shares_memory(plan.levels[0][0], plan.h)
    owners = {}
    for level in plan.levels:
        for a in level:
            owner = a if a.base is None else a.base
            if owner is not plan.h:
                owners[id(owner)] = owner.nbytes
    per_point = sum(owners.values()) / (16 * BLOCK * driven.npoints)
    assert per_point <= 2.05, per_point


def test_truncated_and_full_reduction_agree(driven, monkeypatch):
    # the bench's propagate, 1024 points at dt = 0.004 on the driven
    # scenario, stops its reduction after 6 levels; reduced on to one
    # unknown, 10 levels, the first block's steps agree to 1e-15 of their
    # largest value
    dt = 0.004
    ts = (np.arange(BLOCK) + 0.5) * dt
    rng = np.random.default_rng(20261020)
    values = (rng.normal(size=driven.npoints)
              + 1j * rng.normal(size=driven.npoints))
    taken, steps = [], []
    for full in (False, True):
        if full:    # no coupling is within a NaN bound
            monkeypatch.setattr(propagator, "NEGLIGIBLE", math.nan)
        plan = _Plan(driven.npoints, BLOCK)
        depth = _factor(driven, ts, dt, plan)
        taken.append(depth)
        steps.append([_cn_step(step, values) for step in plan.steps(depth)])
    assert taken == [6, 10]
    for short, full in zip(*steps):
        assert_allclose(short, full, rtol=0,
                        atol=1e-15 * np.max(np.abs(full)))


def test_runs_record_the_levels_of_each_block(driven, driven_beta):
    # the couplings fall as e^G grows, so over the driven window at
    # dt = 1e-3 the blocks take 5 levels at first and 2 at the end; every
    # 16th block is factored, and a run over the first two records them
    dt = 1e-3
    nsteps = round(driven.t1 / dt)
    dt_eff = driven.t1 / nsteps
    plan = _Plan(driven.npoints, BLOCK)
    taken = []
    for start in range(0, nsteps, 16 * BLOCK):
        ks = np.arange(start, min(start + BLOCK, nsteps))
        taken.append(_factor(driven, (ks + 0.5) * dt_eff, dt_eff, plan))
    assert set(taken) == {2, 3, 4, 5} and taken[0] == 5 and taken[-1] == 2
    run = propagate_and_compare(driven, 0, 0.0, 2 * BLOCK * dt, dt,
                                beta_sol=driven_beta)
    assert run.block_levels.tolist() == [5, 5]


def test_step_rejects_a_non_finite_dt(sho):
    for dt in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValidationError):
            propagate_and_compare(sho, 0, 0.0, 1.0, dt)


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
            overlaps.append(abs(inner(ana.values, psi.values, psi.dq))
                            / (ana.norm * psi.norm))
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


@pytest.mark.parametrize("name", ["driven", "ramp"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_each_compared_state_is_eval_psin_on_its_slice(request, monkeypatch,
                                                        name, n):
    # 787 steps of 0.003 are compared every 4th step, so the last slice,
    # at step 787, lies off the stride, 3 steps past the one before it.
    # psi_2 needs qmax 13.9, past ramp_omega.cfg's 12; driven's grid is 16
    s = replace(request.getfixturevalue(name), qmin=-16.0, qmax=16.0)
    beta_sol = request.getfixturevalue(f"{name}_beta")
    compared = []

    def record(*args):
        values = psin_values(*args)
        compared.append(values.copy())
        return values

    monkeypatch.setattr(propagator, "psin_values", record)
    dt = 0.003
    run = propagate_and_compare(s, n, s.t0, s.t0 + 787 * dt, dt,
                                beta_sol=beta_sol)
    steps = np.rint((run.slice_ts - s.t0) / run.dt)
    assert list(steps[-3:]) == [780, 784, 787]
    assert len(compared) == steps.shape[0] == 198
    frames = frame_from_beta(s, beta_sol, run.slice_ts)
    for k, values in enumerate(compared):
        wf = eval_psin(n, s, one_sample_frame(frames, k), run.slice_ts[k])
        assert np.array_equal(wf.values[None], values), k


def test_a_packet_leaving_the_grid_fails_at_its_slice(tmp_path, capsys,
                                                      monkeypatch, depths):
    # g = -0.05 widens the driven packet until, partway through, 8 widths
    # no longer fit in +-8.5: the run exits 4 with eval_psin's error at the
    # first slice that clips, once the blocks up to that slice are stepped
    # and no later one
    doc = tmp_path / "widening.cfg"
    text = (SCENARIO_DIR / "underdamped_driven.cfg").read_text()
    for old, new in (("value = 0.1", "value = -0.05"),
                     ("qmin = -16", "qmin = -8.5"),
                     ("qmax = 16", "qmax = 8.5"),
                     ("npoints = 1024", "npoints = 256")):
        assert old in text
        text = text.replace(old, new)
    doc.write_text(text)
    slice_ts = []
    build = propagator.frame_from_beta

    def record(s, beta_sol, t):
        if np.ndim(t):
            slice_ts.append(t)
        return build(s, beta_sol, t)

    monkeypatch.setattr(propagator, "frame_from_beta", record)
    rc = main(["propagate", "--scenario", str(doc), "--out", str(tmp_path),
               "--periods", "2", "--dt", "0.01"])
    err = capsys.readouterr().err
    assert rc == 4
    [ts] = slice_ts
    s = parse_scenario_file(str(doc))
    frames = frame_from_beta(s, integrate_beta(s), ts)
    for k, t in enumerate(ts):
        try:
            eval_psin(0, s, one_sample_frame(frames, k), t)
        except GridTooNarrow as exc:
            expected = exc
            break
    assert err == (f"error: {expected}\n"
                   f"suggested qmax: {expected.suggested_qmax:g}\n")
    assert err.startswith("error: grid [-8.5, 8.5] clips the envelope "
                          "centered at q = 0.0806 (width 1.055, need "
                          "+-8.437); suggested qmax = 8.6\n")
    nsteps = round((ts[-1] - ts[0]) / 0.01)
    step = round((t - ts[0]) / ((ts[-1] - ts[0]) / nsteps))
    assert 1 < len(depths) == (step - 1) // BLOCK + 1 < -(-nsteps // BLOCK)


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


# numpy's iterator buffers (up to about 200 KB for one broadcasting
# operation in numpy 2.4, whatever the grid), the initial state and the
# run's records: a float (BLOCK, 4096) temporary alone is 512 KiB
ALLOWANCE = 320 * 1024


@pytest.mark.parametrize("npoints", [1024, 4096])
def test_blocks_allocate_nothing_past_the_plan(driven, driven_beta, npoints):
    # a slice every step, so each block compares all its BLOCK states; the
    # first run fills the cached grid powers
    s = replace(driven, qmin=-13.0, qmax=13.0, npoints=npoints)
    nsteps, dt = 3 * BLOCK, 2e-3

    def run():
        propagate_and_compare(s, 0, 0.0, nsteps * dt, dt,
                              beta_sol=driven_beta)

    run()
    tracemalloc.start()
    try:
        plan = _Plan(npoints, BLOCK)
        plan_bytes = tracemalloc.get_traced_memory()[0]
        del plan
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= plan_bytes + ALLOWANCE, (peak - plan_bytes, plan_bytes)


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
    psi = eval_psin(0, driven, fr, 0.0)
    t, dt = 0.0, 0.01
    for _ in range(300):
        psi = crank_nicolson_step(psi, driven, t, dt)
        t += dt
    fr = frame_from_beta(driven, driven_beta, t)
    ref0 = eval_psin(0, driven, fr, t)
    ref1 = eval_psin(1, driven, fr, t)
    assert abs(inner(ref0.values, psi.values, psi.dq)) > 0.99
    assert abs(inner(ref1.values, psi.values, psi.dq)) < 0.1


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
