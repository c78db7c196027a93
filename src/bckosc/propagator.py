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
exactly half of 1 + i a H, is solved by odd-even cyclic reduction (Buzbee,
Golub & Nielson, SIAM J. Numer. Anal. 7, 627 (1970)): each level
eliminates the odd-numbered unknowns from the equations of the
even-numbered ones, which leaves a symmetric tridiagonal system of half
the size, so every level works on whole arrays of a block's steps.  Each
level roughly squares the couplings (Heller, SIAM J. Numer. Anal. 13, 484
(1976)), so the levels stop once every coupling is ``NEGLIGIBLE`` or one
unknown is left, at a diagonal system.  The first level's coupling is one
number per step, so it keeps one coupling array instead of two, and its
reciprocals overwrite its pivots in the buffer.

H(t) does not depend on psi, so steps run in blocks of ``BLOCK`` on one
``_Plan`` per run: ``build_hamiltonian`` writes H's diagonal at a block's
midpoints into the imaginary part of its buffer, ``_factor`` turns the
buffer into (1 + i a H)/2, one elimination fills its factors, and the
reduced diagonal turns into its reciprocals.  For a finite H every pivot
has real part >= 1/2 (the Hermitian part is I/2, and Schur complements
keep that), so only non-finite values can break the factorisation; a
coupling that is not negligible, a non-finite one included, reaches the
next level's diagonal, so checks of the first level's pivots and of the
eliminated buffer replace pivot bookkeeping.  Each step's views are bound
once per run and depth, so ``_cn_step``, which every caller steps with,
indexes nothing.  Once a block's steps are taken its buffer is free, so
the analytic states at the slices the block reaches are written into it,
one evaluation per block, and compared with the propagated ones, views of
the block's states, by trapezoid inner products (one ``np.vecdot``
each).  So after the plan a run allocates nothing of a block's size.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import write_rows
from .errors import OutOfDomain, SolverBreakdown, ValidationError
from .invariants import frame_from_beta
from .ode import integrate_beta
from .quantum import (WaveFunction, eval_psin, l2_norm, psin_values,
                      trapezoid_inner)

# Steps factored together.  A run's plan, its memory peak, holds one
# block's buffer, the factors past it (about 2 * BLOCK * npoints complex
# values, 0.53 MB at 1024 points), states and the analytic states'
# scratch.  Fresh 1024-point `bckosc propagate` processes of 789 steps
# (2-vCPU Xeon VM, numpy 2.4, 30 interleaved runs each) peaked at 32.30 MB
# RSS with blocks of 16, 32.80 MB with 24 and 32.13 MB with 12, in median
# walls of 198, 193 and 202 ms.
BLOCK = 16

# Largest modulus of a coupling that the elimination drops: u/4 for the
# unit roundoff u = 2^-53.  A pivot has modulus at least 1/2, so the two
# terms a row drops are together below u times its pivot and its largest
# unknown.
NEGLIGIBLE = np.finfo(float).eps / 8


@lru_cache(maxsize=1)
def _grid_powers(qmin, qmax, npoints):
    """The spacing of ``Scenario.grid`` and its (q^2, q, 1), read-only."""
    qs = np.linspace(qmin, qmax, npoints)
    powers = np.stack((qs * qs, qs, np.ones_like(qs)))
    powers.flags.writeable = False
    return float(qs[1] - qs[0]), powers


def build_hamiltonian(s, t, out=None):
    """Tridiagonal Hamiltonian on the scenario grid at time t, or at each
    time of an array t.

    H = K p^2/2 + V q^2/2 - D q with (K, V, D) from
    ``Scenario.hamiltonian_coefficients`` and p^2 the second-difference
    stencil times -hbar^2.  Returns (diag, off): the diagonal entries
    V q^2/2 - D q - 2 off, of shape t.shape + (npoints,), formed as one
    product of (V/2, -D, -2 off) with (q^2, q, 1), and the off-diagonal
    -hbar^2 K / (2 dq^2), constant along the grid, of shape t.shape (a
    float for a scalar t).  The diagonal is written into ``out`` when it
    is given, with no temporary of its shape.
    """
    dq, powers = _grid_powers(s.qmin, s.qmax, s.npoints)
    t = np.asarray(t, dtype=float)
    K, V, D = s.hamiltonian_coefficients(t)
    off = -0.5 * s.hbar ** 2 * K / (dq * dq)
    coefs = np.empty(t.shape + (3,))
    coefs[..., 0] = 0.5 * V
    coefs[..., 1] = -D
    coefs[..., 2] = -2.0 * off
    diag = np.matmul(coefs, powers, out=out)
    return diag, (float(off) if t.ndim == 0 else off)


def _lies_flat(a):
    return a.shape[0] == 1 or a.strides[0] == a.shape[1] * a.strides[1]


def _shifted(op, b, u):
    """op(b[:, 1:], u[:, :n - 1]) into b[:, 1:]; if u's n-th column is zero
    and the rows lie flat, as one loop along them, not numpy's one per row."""
    n = b.shape[1]
    if u.shape[1] == n and _lies_flat(b) and _lies_flat(u):
        b, u = b.reshape(-1), u.reshape(-1)
        op(b[1:], u[:-1], out=b[1:])
    else:
        op(b[:, 1:], u[:, :n - 1], out=b[:, 1:])


def _eliminate(b, c, levels, scratch):
    """Eliminate the K systems (b, c), in place in b, over the plan's
    ``levels`` until no coupling exceeds ``NEGLIGIBLE`` or one unknown is
    left: system k has diagonal ``b[k]``, and ``c[k, 0]`` couples all its
    neighbours.

    A level keeps w, the inverse odd pivots, and lw, rw, the odd unknowns'
    couplings to their left and right even neighbours times w, in its first
    K rows.  The first level forms its update of b, then the next
    coupling with a zero past the last unknown, in ``scratch``
    (K, ceil(m/2)), so even sizes take whole rows; later levels update that
    coupling in place.  Returns the number of levels and the reduced b.
    Nothing is checked: a non-finite value stays in the b it updates, and
    a coupling that is not finite is not negligible.
    """
    k = b.shape[0]
    scratch = scratch[:k]
    depth = 0
    for w, lw, rw in levels:
        # each row's sum of squared moduli, one BLAS dot product with no
        # copy of c, bounds its couplings; a NaN sum reduces on
        if np.vecdot(c, c).real.max() <= NEGLIGIBLE * NEGLIGIBLE:
            break
        w, lw, rw = w[:k], lw[:k], rw[:k]
        p = w.shape[1]
        np.divide(1.0, b[:, 1::2], out=w)
        b = b[:, 0::2]
        if not depth:
            # the constant coupling: rw is the head of lw
            np.multiply(c, w, out=lw)
            np.multiply(-c, lw, out=scratch[:, :p])
            b[:, :p] += scratch[:, :p]
            # the zero past the last unknown: on an even size it replaces
            # the last odd unknown's update, which has no right neighbour
            c = scratch[:, :b.shape[1]]
            c[:, -1] = 0
            _shifted(np.add, b, c)
        else:
            # in place in c: its right entries become the b update, its
            # left entries the other update, then the next coupling
            left, right = c[:, 0:2 * p:2], c[:, 1::2]
            np.multiply(left, w, out=lw)
            np.multiply(right, w, out=rw)
            right *= rw
            _shifted(np.subtract, b, right)
            np.multiply(left, lw, out=right)
            b[:, :p] -= right
            left *= rw
            # not np.negative(left, out=left): numpy 2.4.6 reads a float64
            # view of 64-byte stride as if it were contiguous there
            left *= -1.0
            c = c[:, 0::2]
        depth += 1
    return depth, b


def _bind(levels, j, x, scratch):
    """Bind each level's factors of system j to the views of the vector x
    they update, and to ``scratch`` (half x's unknowns), once for every
    solve into x."""
    bound, evens = [], x
    for w, lw, rw in levels:
        odd, evens = evens[1::2], evens[0::2]
        p, q = odd.shape[0], evens.shape[0]
        bound.append((w[j], lw[j], rw[j][:q - 1], odd,
                      evens if p == q else evens[:p],
                      odd if p == q - 1 else odd[:q - 1], evens[1:],
                      scratch[:p], scratch[:q - 1],
                      np.may_share_memory(lw, rw)))
    return bound


def _reduce(bound):
    """Reduce the right-hand side of ``bound``, in place; the first level's
    rw is the head of its lw, so one product serves both updates.
    Outputs are positional: numpy parses them faster than ``out=``."""
    for w, lw, rw, odd, left, odd_r, right, s, s_r, shared in bound:
        np.multiply(lw, odd, s)
        left -= s
        if not shared:
            np.multiply(rw, odd_r, s_r)
        right -= s_r


def _back(bound):
    """Back-substitute every level's odd unknowns, innermost first."""
    for w, lw, rw, odd, left, odd_r, right, s, s_r, _ in reversed(bound):
        odd *= w
        np.multiply(lw, left, s)
        odd -= s
        np.multiply(rw, right, s_r)
        odd_r -= s_r


class _Plan:
    """One propagation's arrays for blocks of up to ``rows`` steps: the
    buffer ``h``, eliminated in place, whose odd columns take the first
    level's reciprocals, its ``levels`` and ``scratch``, the ``states``,
    and ``work``, the float scratch of up to ``slices`` analytic states.
    ``steps(depth)`` binds each slot's state, factor views and reduced
    reciprocals once per depth."""

    def __init__(self, npoints, rows, slices=0):
        dtype = np.complex128
        self.h = np.empty((rows, npoints), dtype)
        # (w, lw, rw) of each level down to one unknown, p odd and q even
        # ones; the first level's w is h's odd columns, its rw the head of lw
        self.levels, n = [], npoints
        while n > 1:
            p, q = n // 2, n - n // 2
            lw = np.empty((rows, p), dtype)
            if self.levels:
                w, rw = np.empty((rows, p), dtype), np.empty((rows, p), dtype)
            else:
                w, rw = self.h[:, 1::2], lw[:, :q - 1]
            self.levels.append((w, lw, rw))
            n = q
        self.states = np.empty((rows, npoints), dtype)
        self.work = np.empty((2, slices, npoints))
        # The elimination's scratch is the head of the states: a block is
        # factored before its steps write them, and in a run of several
        # blocks the state the next one starts from is the last of BLOCK
        # rows, past the scratch's BLOCK * ceil(npoints / 2) values
        q = npoints - npoints // 2
        self.scratch = self.states.reshape(-1)[:rows * q].reshape(rows, q)
        step_scratch = np.empty(npoints // 2, dtype)
        self.bound = [_bind(self.levels, j, row, step_scratch)
                      for j, row in enumerate(self.states)]
        self._steps = {}

    def steps(self, depth):
        """Each slot's state, bindings of ``depth`` levels, and reduced
        state and reciprocals: views of its state and buffer rows."""
        if depth not in self._steps:
            self._steps[depth] = [
                (row, bound[:depth], row[::1 << depth], h[::1 << depth])
                for row, bound, h in zip(self.states, self.bound, self.h)]
        return self._steps[depth]


def _factor(s, ts, dt, plan):
    """Factor (1 + i a H(t))/2, a = dt/(2 hbar), at every time of the 1-d
    array ts into the first rows of ``plan``, down to a diagonal system
    whose reciprocals replace it in the buffer, as the first level's
    replace its pivots.  The buffer's imaginary part takes H's diagonal
    from ``build_hamiltonian``, scaled by a/2, its real part 1/2, and the
    coupling is i a off/2.  Returns the number of levels.  Raises
    SolverBreakdown unless the first level's pivots, before they are
    overwritten, and then the eliminated buffer are finite: the reciprocal
    of an infinite pivot is a quiet 0, which flags nothing.
    """
    k = ts.shape[0]
    a = 0.5 * dt / s.hbar
    h = plan.h[:k]
    diag, off = build_hamiltonian(s, ts, out=h.imag)
    diag *= 0.5 * a
    # the first level's pivots, which its reciprocals overwrite
    pivots_finite = np.isfinite(diag[:, 1::2]).all()
    h.real = 0.5
    depth, b = _eliminate(h, 0.5j * a * off[:, None], plan.levels,
                          plan.scratch)
    # the buffer's extremes are finite only if all of it is, and finding
    # them allocates nothing of its size
    parts = h.view(np.float64)
    if not (pivots_finite and np.isfinite((parts.min(), parts.max())).all()):
        raise SolverBreakdown("tridiagonal elimination of (1 + i a H)/2 "
                              "is not finite")
    np.divide(1.0, b, out=b)
    return depth


def _cn_step(step, values):
    """Step of a plan slot (``_Plan.steps``): 2 (1 + i a H_j)^{-1} values -
    values, returned as the slot's state, which values must not overlap."""
    x, bound, reduced, dinv = step
    np.copyto(x, values)
    _reduce(bound)
    reduced *= dinv
    _back(bound)
    x -= values
    return x


def crank_nicolson_step(psi, s, t, dt):
    """One unitary step from t to t + dt with H evaluated at t + dt/2."""
    if not 0 < dt < np.inf:
        raise ValidationError("dt must be positive and finite")
    values = np.asarray(psi.values, dtype=np.complex128)
    plan = _Plan(s.npoints, 1)
    with np.errstate(all="ignore"):
        depth = _factor(s, np.array([t + 0.5 * dt]), dt, plan)
        out = _cn_step(plan.steps(depth)[0], values)
    return WaveFunction(qs=psi.qs, values=out, t=t + dt, n=psi.n)


@dataclass(frozen=True, eq=False)
class PropagationRun:
    """Numeric propagation compared against the analytic eigenfunction."""

    initial: WaveFunction
    dt: float
    slice_ts: np.ndarray
    slice_norms: np.ndarray
    overlaps: np.ndarray
    step_norms: np.ndarray      # post-step trapezoid norms, every step
    block_levels: np.ndarray    # cyclic-reduction levels of each block

    @property
    def fidelity_defects(self):
        return 1.0 - self.overlaps

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
    # steps[:regular] are every stride-th step, and the last step follows
    # them when the stride does not divide it
    regular = steps.shape[0]
    if steps[-1] != nsteps:
        steps = np.append(steps, nsteps)
    slice_ts = t0 + dt_eff * steps
    # frames at slice times past a breakdown are never used: the pivot
    # check of the block that reaches them raises first
    with np.errstate(all="ignore"):
        frames = frame_from_beta(s, beta_sol, slice_ts)
    psi0 = eval_psin(n, s, frames.at(0), t0)
    qs, dq = psi0.qs, psi0.dq
    rows = min(BLOCK, nsteps)
    plan = _Plan(qs.shape[0], rows, -(-rows // stride))
    overlaps = np.empty(steps.shape[0])
    norms = np.empty(steps.shape[0])

    def compare(lo, hi, values, values_norms):
        # the analytic states at slices lo .. hi - 1 go to the buffer, free
        # once a block is factored
        k = hi - lo
        ana = psin_values(n, s, frames.at(slice(lo, hi)), qs, plan.h[:k],
                          plan.work[:, :k])
        overlaps[lo:hi] = (np.abs(trapezoid_inner(ana, values, dq))
                           / (l2_norm(ana, dq) * values_norms))
        norms[lo:hi] = values_norms

    compare(0, 1, psi0.values[None], psi0.norm)
    step_norms = np.empty(nsteps)
    block_levels = np.empty(-(-nsteps // BLOCK), dtype=int)
    psi = psi0.values
    # a block's last state, in its last row, is read by the next block's
    # first step, which writes row 0
    for start in range(0, nsteps, BLOCK):
        ks = np.arange(start, min(start + BLOCK, nsteps))
        block = plan.states[:ks.shape[0]]
        with np.errstate(all="ignore"):
            depth = _factor(s, t0 + ks * dt_eff + 0.5 * dt_eff, dt_eff, plan)
            for step in plan.steps(depth)[:ks.shape[0]]:
                psi = _cn_step(step, psi)
            step_norms[ks] = l2_norm(block, dq)
        block_levels[start // BLOCK] = depth
        # the slices at steps ks[0] + 1 .. ks[-1] + 1, as views of the
        # block a stride apart, compared outside errstate: the analytic
        # states' warnings are not muted
        lo, hi = np.searchsorted(steps, (ks[0] + 1, ks[-1] + 2))
        for a, b in ((lo, min(hi, regular)), (max(lo, regular), hi)):
            if a < b:
                first, last = steps[a] - 1, steps[b - 1]
                compare(a, b, block[first - start:last - start:stride],
                        step_norms[first:last:stride])
    return PropagationRun(initial=psi0, dt=dt_eff, slice_ts=slice_ts,
                          slice_norms=norms, overlaps=overlaps,
                          step_norms=step_norms, block_levels=block_levels)
