"""Independent Crank-Nicolson solver for the scaled-mass Schrodinger
equation, used as an end-to-end check: analytically constructed
eigenfunctions propagated numerically must stay on themselves.  It ends
the Hamiltonian route (see ``ode``): H takes its (K, V, D) from
``Scenario.hamiltonian_coefficients``, the analytic states come from beta.

Second-order spatial stencil (the tridiagonal solve requires it) with
Dirichlet ends, midpoint-evaluated Hamiltonian for time dependence, and a
Cayley step psi' = (1 + i a H)^{-1} (1 - i a H) psi, a = dt/(2 hbar), that
is unitary up to round-off.  It is taken in the form
psi' = 2 (1 + i a H)^{-1} psi - psi (Goldberg, Schey & Schwartz, Am. J.
Phys. 35, 177 (1967)), which needs no product with 1 - i a H.  It doubles
the solve's rounding, so the norm drifts about twice as fast as in the
product form (-9e-14 against -4.5e-14 over 6283 steps on sho.cfg), far
inside the unitarity checks.  The tridiagonal system (1 + i a H)/2,
exactly half of 1 + i a H, is solved by the odd-even cyclic reduction of
``tridiag``, down to a reduced system of at most ``REDUCED`` unknowns that
is solved by its inverse.  Its off-diagonal is one number per step, so the
first level of the elimination keeps one coupling array instead of two.

H(t) does not depend on psi, so steps run in blocks of ``BLOCK`` on one
``_Plan`` per run: ``build_hamiltonian`` writes H's diagonal at a block's
midpoints into the imaginary part of its buffer, ``_factor`` turns the
buffer into (1 + i a H)/2, one elimination fills its factors, and one
``np.linalg.inv`` inverts the reduced systems.  For a finite H every pivot
has real part >= 1/2 (the Hermitian part is I/2, and Schur complements
keep that), so only non-finite values can break the factorisation, and one
check of the eliminated buffer, the reduced coupling and the inverses
replaces pivot bookkeeping.  Each step's views are bound once per run, so
``_cn_step``, which every caller steps with, indexes nothing.  The slices
a block reaches are compared with the analytic states in one evaluation
per block, by direct trapezoid sums.
"""

from dataclasses import dataclass

import numpy as np

from . import tridiag
from .core import write_rows
from .errors import OutOfDomain, SolverBreakdown, ValidationError
from .invariants import frame_from_beta
from .ode import integrate_beta
from .quantum import WaveFunction, eval_psin, l2_norm, psin_values, trapezoid

# Steps factored together.  A run's plan holds one block's buffer, factors
# (about 2.5 * BLOCK * npoints complex values, 1 MB at 1024 points) and
# states.  Fresh 1024-point `bckosc propagate` processes (2-vCPU VM,
# medians of 24 interleaved runs) ran about 2% faster with blocks of 24
# and the elimination's scratch in the states than with blocks of 20 and a
# scratch of their own, and peaked at 34.1 against 33.7 MB RSS.
BLOCK = 24

# Unknowns at or below which the elimination stops and the stored inverse
# of the reduced system takes over.  At 1024 points (a 2-vCPU Xeon VM), 8
# and 16 ran level and 4 and 32 about 5% slower per propagation with
# inverses from cyclic reduction; at 8 the inverse's product costs about
# the arithmetic of the levels it replaces.  np.linalg.inv of 24 stacked
# 8 x 8 matrices takes 52 µs there, of 24 16 x 16 ones 207 µs.
REDUCED = 8


def build_hamiltonian(s, t, out=None):
    """Tridiagonal Hamiltonian on the scenario grid at time t, or at each
    time of an array t.

    H = K p^2/2 + V q^2/2 - D q with (K, V, D) from
    ``Scenario.hamiltonian_coefficients`` and p^2 the second-difference
    stencil times -hbar^2.  Returns (diag, off): the diagonal entries
    (V q/2 - D) q - 2 off, of shape t.shape + (npoints,), and the
    off-diagonal -hbar^2 K / (2 dq^2), constant along the grid, of shape
    t.shape (a float for a scalar t).  The diagonal is written into
    ``out`` when it is given, with no temporary of its shape.
    """
    qs = s.grid()
    dq = float(qs[1] - qs[0])
    tc = np.asarray(t, dtype=float)[..., None]
    K, V, D = s.hamiltonian_coefficients(tc)
    off = -0.5 * s.hbar ** 2 * K / (dq * dq)
    diag = np.empty(np.shape(t) + qs.shape) if out is None else out
    np.multiply(0.5 * V, qs, out=diag)
    diag -= D
    diag *= qs
    diag -= 2.0 * off
    return diag, (float(off[0]) if np.ndim(t) == 0 else off[..., 0])


class _Plan:
    """One propagation's arrays for blocks of up to ``rows`` steps: the
    buffer ``h``, eliminated in place, its ``levels`` and ``scratch``, the
    reduced matrices and their inverses, and the ``states``.
    ``steps[j]`` binds slot j's state, factor views and inverse once."""

    def __init__(self, npoints, rows):
        dtype = np.complex128
        self.h = np.empty((rows, npoints), dtype)
        self.levels = tridiag.allocate(rows, npoints, REDUCED, dtype, True)
        self.states = np.empty((rows, npoints), dtype)
        # The elimination's scratch is the head of the states: a block is
        # factored before its steps write them, and in a run of several
        # blocks the state the next one starts from is the last of BLOCK
        # rows, past the scratch's BLOCK * ceil(npoints / 2) values
        q = npoints - npoints // 2
        self.scratch = self.states.reshape(-1)[:rows * q].reshape(rows, q)
        step_scratch = np.empty(npoints // 2, dtype)
        slots = [tridiag.bind(self.levels, j, row, step_scratch)
                 for j, row in enumerate(self.states)]
        r = slots[0][1].shape[0]
        self.reduced = np.zeros((rows, r, r), dtype)
        self.inv = np.empty_like(self.reduced)
        self.steps = [(row, bound, x_r, inv)
                      for row, (bound, x_r), inv
                      in zip(self.states, slots, self.inv)]


def _factor(s, ts, dt, plan):
    """Factor (1 + i a H(t))/2, a = dt/(2 hbar), at every time of the 1-d
    array ts into the first rows of ``plan``, down to ``REDUCED`` unknowns
    whose inverses come from one ``np.linalg.inv``.  The buffer's imaginary
    part takes H's diagonal from ``build_hamiltonian``, scaled by a/2, its
    real part 1/2, and the coupling is i a off/2.
    Returns (levels, reduced inverses), indexed by time first.  Raises
    SolverBreakdown unless the eliminated buffer, the reduced coupling and
    the inverses are all finite.
    """
    k = ts.shape[0]
    a = 0.5 * dt / s.hbar
    h = plan.h[:k]
    diag, off = build_hamiltonian(s, ts, out=h.imag)
    diag *= 0.5 * a
    h.real = 0.5
    levels, b, c = tridiag.eliminate(h, 0.5j * a * off[:, None], REDUCED,
                                     plan.levels, plan.scratch)
    r = b.shape[1]
    flat = plan.reduced[:k].reshape(k, r * r)
    flat[:, ::r + 1] = b
    flat[:, 1::r + 1] = c
    flat[:, r::r + 1] = c
    try:
        inv = np.linalg.inv(plan.reduced[:k])
    except np.linalg.LinAlgError:   # only non-finite entries make one
        inv = None
    if not (inv is not None and np.isfinite(h.view(np.float64)).all()
            and np.isfinite(c).all() and np.isfinite(inv).all()):
        raise SolverBreakdown("tridiagonal elimination of (1 + i a H)/2 "
                              "is not finite")
    plan.inv[:k] = inv
    return levels, plan.inv[:k]


def _cn_step(step, values):
    """Step of a plan slot (``_Plan.steps``): 2 (1 + i a H_j)^{-1} values -
    values, returned as the slot's state, which values must not overlap."""
    x, bound, reduced, inv = step
    np.copyto(x, values)
    tridiag.reduce(bound)
    reduced[...] = inv @ reduced
    tridiag.back(bound)
    x -= values
    return x


def crank_nicolson_step(psi, s, t, dt):
    """One unitary step from t to t + dt with H evaluated at t + dt/2."""
    if not 0 < dt < np.inf:
        raise ValidationError("dt must be positive and finite")
    values = np.asarray(psi.values, dtype=np.complex128)
    plan = _Plan(s.npoints, 1)
    with np.errstate(all="ignore"):
        _factor(s, np.array([t + 0.5 * dt]), dt, plan)
        out = _cn_step(plan.steps[0], values)
    return WaveFunction(qs=psi.qs, values=out, t=t + dt, n=psi.n)


@dataclass(frozen=True, eq=False)
class PropagationRun:
    """Numeric propagation compared against the analytic eigenfunction."""

    initial: WaveFunction
    dt: float
    slice_ts: np.ndarray
    slice_norms: np.ndarray
    overlaps: np.ndarray
    fidelity_defects: np.ndarray
    step_norms: np.ndarray      # post-step trapezoid norms, every step

    @property
    def min_overlap(self):
        return float(np.min(self.overlaps))

    @property
    def max_step_norm_drift(self):
        """Largest norm change across one step (unitarity check)."""
        prev = np.concatenate(([self.slice_norms[0]], self.step_norms[:-1]))
        return float(np.max(np.abs(self.step_norms - prev)))

    def to_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("t,norm,overlap,fidelity_defect\n")
            write_rows(fh, self.slice_ts, self.slice_norms, self.overlaps,
                       self.fidelity_defects)


def propagate_and_compare(s, n, t0, t1, dt, max_slices=201, beta_sol=None):
    """Propagate the analytic psi_n numerically from t0 to t1 and record
    per-slice norms and overlaps with the analytic reference.

    dt is adjusted to divide the window exactly.  ``max_slices`` bounds how
    many intermediate comparisons are made; every step's norm is kept
    regardless.  The slices a block of steps reaches are compared together
    once the block is done, so at most ``BLOCK`` propagated states and as
    many analytic ones are held at a time.
    """
    if not (s.t0 <= t0 < t1 <= s.t1):
        raise OutOfDomain("propagation window must lie inside the scenario "
                          "window")
    if not 0 < dt < np.inf:
        raise ValidationError("dt must be positive and finite")
    if beta_sol is None:
        beta_sol = integrate_beta(s)
    nsteps = max(1, int(round((t1 - t0) / dt)))
    dt_eff = (t1 - t0) / nsteps
    stride = max(1, -(-nsteps // max(1, max_slices - 1)))  # ceiling
    steps = np.arange(0, nsteps + 1, stride)
    if steps[-1] != nsteps:
        steps = np.append(steps, nsteps)
    slice_ts = t0 + dt_eff * steps
    # frames at slice times past a breakdown are never used: the pivot
    # check of the block that reaches them raises first
    with np.errstate(all="ignore"):
        frames = frame_from_beta(s, beta_sol, slice_ts)
    psi0 = eval_psin(n, s, frames.at(0), t0)
    qs, dq = psi0.qs, psi0.dq
    overlaps = np.empty(steps.shape[0])
    norms = np.empty(steps.shape[0])

    def compare(ks, values, values_norms, work=None):
        ana = psin_values(n, s, frames.at(ks), qs)
        ana_norms = l2_norm(ana, dq, work)
        # in place: the conjugate analytic states times the propagated ones
        np.multiply(np.conjugate(ana, out=ana), values, out=ana)
        overlaps[ks] = np.abs(trapezoid(ana, dq)) / (ana_norms * values_norms)
        norms[ks] = values_norms

    compare(np.arange(1), psi0.values[None], psi0.norm)
    step_norms = np.empty(nsteps)
    plan = _Plan(qs.shape[0], min(BLOCK, nsteps))
    psi = psi0.values
    # a block's last state, in its last row, is read by the next block's
    # first step, which writes row 0
    for start in range(0, nsteps, BLOCK):
        ks = np.arange(start, min(start + BLOCK, nsteps))
        block = plan.states[:ks.shape[0]]
        with np.errstate(all="ignore"):
            _factor(s, t0 + ks * dt_eff + 0.5 * dt_eff, dt_eff, plan)
            for step in plan.steps[:ks.shape[0]]:
                psi = _cn_step(step, psi)
            # the buffer is free once the block is factored
            step_norms[ks] = l2_norm(block, dq, plan.h[:ks.shape[0]])
        # the slices at steps ks[0] + 1 .. ks[-1] + 1, compared outside
        # errstate: the analytic states' warnings are not muted
        reached = np.arange(*np.searchsorted(steps, (ks[0] + 1, ks[-1] + 2)))
        if reached.size:
            compare(reached, block[steps[reached] - 1 - start],
                    step_norms[steps[reached] - 1], plan.h[:reached.size])
    return PropagationRun(initial=psi0, dt=dt_eff, slice_ts=slice_ts,
                          slice_norms=norms, overlaps=overlaps,
                          fidelity_defects=1.0 - overlaps,
                          step_norms=step_norms)
