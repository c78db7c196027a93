"""Independent Crank-Nicolson solver for the scaled-mass Schrodinger
equation, used as an end-to-end check: analytically constructed
eigenfunctions propagated numerically must stay on themselves.

Second-order spatial stencil (the tridiagonal solve requires it) with
Dirichlet ends, midpoint-evaluated Hamiltonian for time dependence, and a
Cayley step psi' = (1 + i a H)^{-1} (1 - i a H) psi, a = dt/(2 hbar), that
is unitary up to round-off.  It is taken in the form
psi' = 2 (1 + i a H)^{-1} psi - psi (Goldberg, Schey & Schwartz, Am. J.
Phys. 35, 177 (1967)), which needs no product with 1 - i a H.  It doubles
the solve's rounding, so the norm drifts about twice as fast as in the
product form (-9e-14 against -4.5e-14 over 6283 steps on sho.cfg), far
inside the unitarity checks.  The tridiagonal system (1 + i a H)/2, exactly half of 1 + i a H, is solved
by the odd-even cyclic reduction of ``tridiag``, down to a reduced system
of at most ``REDUCED`` unknowns that is solved by its inverse.  Its
off-diagonal is one number per step, so the first level of the
elimination keeps one coupling array instead of two.

H(t) does not depend on psi, so steps run in blocks of ``BLOCK``: one
``build_hamiltonian`` call evaluates the Hamiltonians at the block's
midpoints, and one elimination of (1 + i a H)/2 over the whole block
keeps each level's factors, builds each step's reduced inverse from the
reduced tridiagonal system and checks every pivot before the block's
first step.  A step then only copies psi, reduces it, multiplies the
reduced part by the stored inverse, back-substitutes and subtracts psi,
in ``_cn_step``, which every caller steps with.  The slices a block
reaches are compared with the analytic states in one evaluation per
block, by direct trapezoid sums.
"""

from dataclasses import dataclass

import numpy as np

from . import tridiag
from .errors import OutOfDomain, SolverBreakdown, ValidationError
from .invariants import frame_from_beta
from .ode import integrate_beta
from .quantum import WaveFunction, eval_psin, l2_norm, psin_values, trapezoid

# Steps factored together.  The factors take about 2.5 * BLOCK * npoints
# complex values (1 MB at 1024 points).  A block's factors are dropped only
# once the next block's are built, so that the allocator reuses their
# memory: freeing them first tripled the page faults of a run (about 6,000
# to 19,000-24,000) and cost 15-30 ms.  Fresh 1024-point `bckosc
# propagate` processes (2-vCPU VM) peaked at 33.8, 34.0 and 34.7 MB RSS
# with blocks of 20, 24 and 28, against 34.3 MB with the earlier
# 16-step blocks of 4 * BLOCK * npoints values; 24 is the largest block
# that stays below that, and ran about 10% faster than 16.
BLOCK = 24

# Unknowns at or below which the elimination stops and the stored inverse
# of the reduced system takes over.  At 1024 points (a 2-vCPU Xeon VM), 8
# and 16 ran level and 4 and 32 about 5% slower per propagation; at 8 the
# inverse's product costs about the arithmetic of the levels it replaces.
# With blocks of 24, 8 and 16 still ran level and 32 about 25% slower.
REDUCED = 8


def build_hamiltonian(s, t):
    """Tridiagonal Hamiltonian on the scenario grid at time t, or at each
    time of an array t.

    Returns (diag, off): the diagonal entries, of shape t.shape +
    (npoints,), and the off-diagonal, constant along the grid, of shape
    t.shape (a float for a scalar t).  Kinetic term is the
    second-difference stencil scaled by e^{-G}; the potential is
    (1/2) m omega^2 e^G q^2 - e^G F q.
    """
    qs = s.grid()
    dq = float(qs[1] - qs[0])
    tc = np.asarray(t, dtype=float)[..., None]
    G = s.G(tc)
    eG = np.exp(G)
    kin = s.hbar ** 2 * np.exp(-G) / (2.0 * s.m)
    off = -kin / (dq * dq)
    diag = (2.0 * kin / (dq * dq)
            + 0.5 * s.m * s.omega(tc) ** 2 * eG * qs ** 2
            - eG * s.force(tc) * qs)
    return diag, (float(off[0]) if np.ndim(t) == 0 else off[..., 0])


def _factor(s, ts, dt):
    """Factor (1 + i a H(t))/2, a = dt/(2 hbar), for every time of the 1-d
    array ts at once.

    The elimination stops at ``REDUCED`` unknowns or fewer.  The reduced
    system is solved for the identity's columns, which gives its inverse
    at O(REDUCED^2) per step.  Returns (levels, transposed inverses of the
    reduced systems), each indexed by time first.  Raises SolverBreakdown
    if any pivot of either elimination vanishes or is not finite.
    """
    diag, off = build_hamiltonian(s, ts)
    a = 0.5 * dt / s.hbar
    # built in place, and diag dropped before the elimination: less memory
    # at the peak of a block
    b = np.empty(diag.shape, dtype=np.complex128)
    b.real = 0.5
    np.multiply(0.5 * a, diag, out=b.imag)
    del diag
    levels, moduli, b, c = tridiag.eliminate(b, 0.5j * a * off[:, None],
                                             REDUCED)
    # row k of cols[i] solves the reduced system i for unit vector k
    cols = np.repeat(np.eye(b.shape[1], dtype=np.complex128)[None],
                     b.shape[0], axis=0)
    piv = np.array(moduli + tridiag.solve(b, c, cols))
    if not (piv.min() >= 1e-300 and piv.max() < np.inf):
        raise SolverBreakdown("tridiagonal elimination pivot vanished or "
                              "is not finite")
    return levels, cols


def _cn_step(factors, j, values, out):
    """Crank-Nicolson step j of a factored block:
    2 (1 + i a H_j)^{-1} values - values, written to x of
    ``out = tridiag.split(x, REDUCED)``; x must not overlap ``values``."""
    levels, inv = factors
    x, views, reduced = out
    np.copyto(x, values)
    tridiag.reduce(levels, j, views)
    reduced[...] = reduced @ inv[j]
    tridiag.back(levels, j, views)
    x -= values
    return x


def crank_nicolson_step(psi, s, t, dt):
    """One unitary step from t to t + dt with H evaluated at t + dt/2."""
    if not 0 < dt < np.inf:
        raise ValidationError("dt must be positive and finite")
    values = np.asarray(psi.values, dtype=np.complex128)
    with np.errstate(all="ignore"):
        factors = _factor(s, np.array([t + 0.5 * dt]), dt)
        out = _cn_step(factors, 0, values,
                       tridiag.split(np.empty_like(values), REDUCED))
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
            for k in range(self.slice_ts.shape[0]):
                fh.write(f"{self.slice_ts[k]:.17g},"
                         f"{self.slice_norms[k]:.17g},"
                         f"{self.overlaps[k]:.17g},"
                         f"{self.fidelity_defects[k]:.17g}\n")


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

    def compare(ks, values, values_norms):
        ana = psin_values(n, s, frames.at(ks), qs)
        overlap = trapezoid(ana.conj() * values, dq)
        overlaps[ks] = np.abs(overlap) / (l2_norm(ana, dq) * values_norms)
        norms[ks] = values_norms

    compare(np.arange(1), psi0.values[None], psi0.norm)
    step_norms = np.empty(nsteps)
    states = np.empty((BLOCK, qs.shape[0]), dtype=np.complex128)
    rows = [tridiag.split(x, REDUCED) for x in states]
    psi = psi0.values
    # a block's last state, in its last row, is read by the next block's
    # first step, which writes row 0
    for start in range(0, nsteps, BLOCK):
        ks = np.arange(start, min(start + BLOCK, nsteps))
        block = states[:ks.shape[0]]
        with np.errstate(all="ignore"):
            factors = _factor(s, t0 + ks * dt_eff + 0.5 * dt_eff, dt_eff)
            for j in range(ks.shape[0]):
                psi = _cn_step(factors, j, psi, rows[j])
            step_norms[ks] = l2_norm(block, dq)
        # the slices at steps ks[0] + 1 .. ks[-1] + 1, compared outside
        # errstate: the analytic states' warnings are not muted
        reached = np.arange(*np.searchsorted(steps, (ks[0] + 1, ks[-1] + 2)))
        if reached.size:
            compare(reached, block[steps[reached] - 1 - start],
                    step_norms[steps[reached] - 1])
    return PropagationRun(initial=psi0, dt=dt_eff, slice_ts=slice_ts,
                          slice_norms=norms, overlaps=overlaps,
                          fidelity_defects=1.0 - overlaps,
                          step_norms=step_norms)
