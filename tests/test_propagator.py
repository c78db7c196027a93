"""Split-operator propagation: exact small-system anchors, unitarity,
fidelity against the analytic states and the documented failure modes."""

import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bckosc import (GridTooNarrow, OutOfDomain, Scenario, SolverBreakdown,
                    TimeFunction, ValidationError, eval_psin,
                    frame_from_beta, integrate_beta, parse_scenario_file,
                    propagate_and_compare)
from bckosc import propagator
from bckosc.cli import main
from bckosc.propagator import BLOCK
from bckosc.quantum import WaveFunction, psin_values

from conftest import SCENARIO_DIR
from oracles import inner


def split_step(psi, s, t, dt):
    """One step of psi from t to t + dt with (K, V, D) at t + dt/2, by the
    step function a run calls: the single-step reference of the tests.  A
    run evaluates the phases of BLOCK midpoints per call instead."""
    step = propagator._SplitStep(s, psi.qs, dt)
    with np.errstate(all="ignore"):
        phases = step.phases(t + 0.5 * dt)
    values = np.array(psi.values, dtype=np.complex128)
    step(values, *phases)
    return WaveFunction(qs=psi.qs, values=values, t=t + dt, n=psi.n)


def one_sample_frame(frames, k):
    """Sample k of a vector frame, its fields one-sample arrays and its
    time a scalar: the frame whose packet propagate_and_compare reads at
    slice k.  numpy's scalar arithmetic rounds complex products otherwise
    than its array loops, so a scalar frame's packet can differ in the
    last bit."""
    one = {f.name: getattr(frames, f.name)[k:k + 1] for f in fields(frames)
           if np.ndim(getattr(frames, f.name))}
    return replace(frames, **{**one, "t": frames.t[k]})


@pytest.fixture
def steps_taken(monkeypatch):
    """One entry per split-operator step taken."""
    taken = []
    step = propagator._SplitStep.__call__

    def record(self, *args):
        taken.append(None)
        return step(self, *args)

    monkeypatch.setattr(propagator._SplitStep, "__call__", record)
    return taken


def wavenumbers(npoints, dq):
    """The wavenumbers 2 pi j/(N dq) of a transform's outputs, in their
    order: j = 0, 1, ... below N/2, then the negative j from -N/2, N/2
    rounded down, to -1."""
    j = np.arange(npoints)
    return 2.0 * np.pi * np.where(2 * j < npoints, j, j - npoints) / (
        npoints * dq)


# ---------- single-step anchors ----------

def test_split_step_matches_a_dense_product(driven):
    # the step against P F^-1 T F P, with the DFT matrix F formed by
    # np.exp, the half potential phase P = exp(-i dt (V q^2/2 - D q)/(2
    # hbar)) and the kinetic phase T = exp(-i dt K hbar k^2/2), for grids
    # of every size from 3 to 70 points and 513
    rng = np.random.default_rng(20261022)
    t, dt = 0.5, 0.05
    K, V, D = driven.hamiltonian_coefficients(t + 0.5 * dt)
    for npoints in (*range(3, 71), 513):
        s = replace(driven, npoints=37)
        # sizes below the scenario minimum of 16 points test the step alone
        object.__setattr__(s, "npoints", npoints)
        qs = s.grid()
        k = wavenumbers(npoints, qs[1] - qs[0])
        half = np.exp(-0.5j * dt * (0.5 * V * qs ** 2 - D * qs) / s.hbar)
        kinetic = np.exp(-0.5j * dt * K * s.hbar * k ** 2)
        j = np.arange(npoints)
        dft = np.exp(-2j * np.pi * (np.outer(j, j) % npoints) / npoints)
        values = rng.normal(size=npoints) + 1j * rng.normal(size=npoints)
        ref = half * (np.conjugate(dft) @ (kinetic * (dft @ (half * values)))
                      ) / npoints
        out = split_step(WaveFunction(qs=qs, values=values, t=t), s, t, dt)
        assert_allclose(out.values, ref, rtol=0, atol=1e-13,
                        err_msg=f"npoints={npoints}")
        assert out.t == t + dt


def test_free_plane_wave_gets_the_kinetic_phase():
    # with V = D = 0 the potential phases are 1, and the plane wave
    # exp(i k (q - qmin)) of each of the grid's modes, k = 2 pi j/(N dq),
    # picks up exactly exp(-i dt K hbar k^2/2) per step, K = e^{-G}/m at
    # the step's midpoint (G = 2 g t), up to the Nyquist mode.  The wave's
    # phases are reduced modulo 2 pi before np.exp, so they are exact
    s = Scenario(omega=TimeFunction.constant(0.0), t0=0.0, t1=1.0, m=2.0,
                 hbar=0.5, damping=TimeFunction.constant(0.3),
                 beta0=(1.0, 1.0j), qmin=-10.0, qmax=10.0, npoints=256)
    qs = s.grid()
    k = wavenumbers(256, qs[1] - qs[0])
    dt = 0.01
    for j in (0, 1, 5, 127, 128, 200):
        wave = np.exp(2j * np.pi * (j * np.arange(256) % 256) / 256)
        psi = WaveFunction(qs=qs, values=wave, t=0.0)
        for step in range(10):
            t = step * dt
            K = math.exp(-0.6 * (t + 0.5 * dt)) / 2.0
            phase = np.exp(-0.5j * dt * K * s.hbar * k[j] ** 2)
            ref = phase * psi.values
            psi = split_step(psi, s, t, dt)
            assert_allclose(psi.values, ref, rtol=0, atol=1e-13,
                            err_msg=f"mode {j}, step {step}")


def test_split_step_keeps_the_norm(driven):
    # the step is unitary in the grid's norm sqrt(dq sum |psi_j|^2), and
    # the norm it returns, l2_norm, is that norm: both hold over 20 steps
    # of white noise, whose highest modes turn by up to 5 rad a step
    rng = np.random.default_rng(20260823)
    qs = driven.grid()
    psi = rng.normal(size=qs.shape) + 1j * rng.normal(size=qs.shape)
    psi *= np.exp(-0.1 * qs ** 2)
    n0 = np.linalg.norm(psi)
    norm0 = math.sqrt(qs[1] - qs[0]) * n0
    dt = 1e-3
    step = propagator._SplitStep(driven, qs, dt)
    for j in range(20):
        norm = step(psi, *step.phases((j + 0.5) * dt))
        assert abs(np.linalg.norm(psi) - n0) / n0 < 1e-12
        assert abs(norm - norm0) / norm0 < 1e-13


def test_non_finite_hamiltonian_is_a_breakdown():
    # e^G overflows at t = 2 for g = 400: V, and so the phase exponent, is
    # not finite
    s = Scenario(omega=TimeFunction.constant(1.0), t0=0.0, t1=5.0,
                 damping=TimeFunction.constant(400.0), beta0=(1.0, 1.0j),
                 npoints=64)
    psi = WaveFunction(qs=s.grid(), values=np.ones(64, dtype=complex), t=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverBreakdown):
            split_step(psi, s, 2.0, 1e-3)


@pytest.mark.parametrize("eg", [1e100, 1e200, 1e300, 1e305])
def test_huge_finite_hamiltonian_steps_quietly(eg):
    # V = e^G up to 1e305 on q in [-10, 10]: the phase exponent dt V q^2 /
    # (4 hbar) reaches 0.025 e^G, huge but finite, so its cos and sin are;
    # the step must stay finite and unitary, and no check may fire
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
        out = split_step(psi, s, t, dt)
    assert np.isfinite(out.values).all()
    assert_allclose(np.linalg.norm(out.values), np.linalg.norm(values),
                    rtol=1e-14, atol=0)


def test_breakdown_in_a_later_block_is_quiet(steps_taken):
    # G = 800 t: V = omega^2 e^G overflows once t > 0.8872, so only the
    # midpoint of the last step, in a block after the first, has a phase
    # exponent that is not finite.  The amplitude integrator cannot reach
    # t1, so the frames come from the undamped amplitude, whose packet at
    # t0 is the same; the last slice's packet, past the breakdown, is never
    # checked
    s = Scenario(omega=TimeFunction.constant(1.0), t0=0.0, t1=0.89,
                 damping=TimeFunction.constant(400.0), beta0=(1.0, 1.0j),
                 npoints=64)
    nsteps, dt = 178, 0.005
    with np.errstate(over="ignore", invalid="ignore"):
        _, V, _ = s.hamiltonian_coefficients((np.arange(nsteps) + 0.5) * dt)
    finite = np.isfinite(V)
    assert finite[:-1].all() and not finite[-1] and nsteps > BLOCK
    beta_sol = integrate_beta(replace(s, damping=TimeFunction.constant(0.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverBreakdown):
            propagate_and_compare(s, 0, 0.0, s.t1, dt, max_slices=2,
                                  beta_sol=beta_sol)
    assert len(steps_taken) == nsteps


def test_breakdown_at_a_first_level_pivot_is_quiet(steps_taken):
    # on 66 points from q = -30 to 35, the phase exponent dt V q^2/(4 hbar)
    # with dt = 1 and V = omega^2 = 6e305 overflows at the last point and
    # nowhere else, though V is finite
    dt = 1.0
    s = Scenario(omega=TimeFunction.constant(math.sqrt(6e305)), t0=0.0,
                 t1=1.0, beta0=(1.0, 1.0j), qmin=-30.0, qmax=35.0,
                 npoints=66)
    qs = s.grid()
    _, V, _ = s.hamiltonian_coefficients(0.5 * dt)
    with np.errstate(over="ignore"):
        exponent = 0.25 * dt / s.hbar * V * qs ** 2
    assert list(np.flatnonzero(~np.isfinite(exponent))) == [65]
    psi = WaveFunction(qs=qs, values=np.ones(66, dtype=complex), t=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverBreakdown):
            split_step(psi, s, 0.0, dt)
    # the same point overflowing first in the second block: at dt = 0.04,
    # damping g = 1 raises V = omega^2 e^{2t} from 2.13e306 past 4 hbar
    # max_float/(dt 35^2) at the 25th step.  The frames come from a tame
    # amplitude, whose packet fits the grid: an omega of 1.5e153 is beyond
    # the amplitude integrator, and only the Hamiltonian reaches the step
    dt = 0.04
    s = replace(s, omega=TimeFunction.constant(math.sqrt(2.13e306)),
                damping=TimeFunction.constant(1.0), t1=40 * dt)
    _, V, _ = s.hamiltonian_coefficients((np.arange(40) + 0.5) * dt)
    with np.errstate(over="ignore"):
        exponent = 0.25 * dt / s.hbar * V[:, None] * qs ** 2
    rows, cols = np.nonzero(~np.isfinite(exponent))
    assert rows.min() == 24 > BLOCK and list(cols[rows == 24]) == [65]
    beta_sol = integrate_beta(replace(s, omega=TimeFunction.constant(100.0),
                                      beta0=(1.0, 100.0j)))
    steps_taken.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverBreakdown):
            propagate_and_compare(s, 0, 0.0, s.t1, dt, max_slices=2,
                                  beta_sol=beta_sol)
    assert len(steps_taken) == 25


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
    # two full blocks of midpoints and a partial one, a slice every step,
    # against one step and one eval_psin/inner comparison at a time
    s = replace(driven, npoints=256)
    nsteps = 2 * BLOCK + 3
    t0, dt = 0.5, 0.01
    for n in (0, 1, 3):
        run = propagate_and_compare(s, n, t0, t0 + nsteps * dt, dt,
                                    beta_sol=driven_beta)
        assert run.step_norms.shape == (nsteps,)
        assert_allclose(run.slice_ts, t0 + run.dt * np.arange(nsteps + 1),
                        rtol=0, atol=0)
        psi = eval_psin(n, s, frame_from_beta(s, driven_beta, t0))
        assert_allclose(run.initial.values, psi.values, rtol=0, atol=1e-15)
        norms, overlaps = [psi.norm], [1.0]
        for k in range(nsteps):
            psi = split_step(psi, s, t0 + k * run.dt, run.dt)
            t = float(run.slice_ts[k + 1])
            ana = eval_psin(n, s, frame_from_beta(s, driven_beta, t))
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
            eval_psin(0, s, frame_from_beta(s, beta_sol, t))
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
        wf = eval_psin(n, s, one_sample_frame(frames, k))
        assert np.array_equal(wf.values[None], values), k


def test_a_packet_leaving_the_grid_fails_at_its_slice(tmp_path, capsys,
                                                      monkeypatch,
                                                      steps_taken):
    # g = -0.05 widens the driven packet until, partway through, 8 widths
    # no longer fit in +-8.5: the run exits 4 with eval_psin's error at the
    # first slice that clips, once the steps up to that slice are taken
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
            eval_psin(0, s, one_sample_frame(frames, k))
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
    assert BLOCK < len(steps_taken) == step < nsteps


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


# Rows of the grid, 16 bytes a point, that a run holds: the initial and
# the stepped state (2), the grid, its squared wavenumbers and the step's
# exponent (3 float halves), the step's two phases (2) and the analytic
# states' float scratch (1).  A complex (BLOCK, npoints) array alone is
# BLOCK rows
ROWS = 6.5
# the packet at the slice times, the run's records and numpy's scalars:
# 16 KB over the rows at 1024, 4096 and 16384 points
ALLOWANCE = 64 * 1024


@pytest.mark.parametrize("npoints", [1024, 4096])
def test_blocks_allocate_nothing_past_the_plan(driven, driven_beta, npoints):
    # a slice every step, so each block of midpoints compares all its
    # states; the first run fills numpy's own caches
    s = replace(driven, qmin=-13.0, qmax=13.0, npoints=npoints)
    nsteps, dt = 3 * BLOCK, 2e-3

    def run():
        propagate_and_compare(s, 0, 0.0, nsteps * dt, dt,
                              beta_sol=driven_beta)

    run()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    rows = ROWS * 16 * npoints
    assert peak <= rows + ALLOWANCE, (peak - rows, rows)


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
    psi = eval_psin(0, driven, fr)
    t, dt = 0.0, 0.01
    for _ in range(300):
        psi = split_step(psi, driven, t, dt)
        t += dt
    fr = frame_from_beta(driven, driven_beta, t)
    ref0 = eval_psin(0, driven, fr)
    ref1 = eval_psin(1, driven, fr)
    assert abs(inner(ref0.values, psi.values, psi.dq)) > 0.99
    assert abs(inner(ref1.values, psi.values, psi.dq)) < 0.1


def test_resolved_grids_give_the_same_defect(driven, driven_beta):
    # the kinetic phase is exact on the grid's modes, so once the packet is
    # resolved the defect is the time step's alone: 513 and 2049 points
    # read the same, 5.9e-14 at this dt
    defects = []
    for npoints in (513, 2049):
        s = replace(driven, qmin=-13.0, qmax=13.0, npoints=npoints)
        run = propagate_and_compare(s, 0, 0.0, 1.0, 2e-3,
                                    beta_sol=driven_beta)
        defects.append(np.max(run.fidelity_defects))
    assert defects[0] < 1e-12
    assert abs(defects[0] - defects[1]) < 1e-15, defects


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
