"""Independent Crank-Nicolson solver for the scaled-mass Schrodinger
equation, used as an end-to-end check: analytically constructed
eigenfunctions propagated numerically must stay on themselves.

Second-order spatial stencil (the tridiagonal solve requires it) with
Dirichlet ends, midpoint-evaluated Hamiltonian for time dependence, and a
Cayley step (1 + i dt H/2hbar) psi' = (1 - i dt H/2hbar) psi that is
unitary up to round-off.  The tridiagonal system is solved by odd-even
cyclic reduction, which works on whole arrays at every level.

H(t) does not depend on psi, so steps run in blocks of ``BLOCK``: one
``build_hamiltonian`` call evaluates the Hamiltonians at the block's
midpoints, and one elimination of (1 + i dt H/2hbar) over the whole block
keeps each level's factors and checks every pivot before the block's
first step.  A step then only forms its right-hand side, reduces it and
back-substitutes, in ``_cn_step``, which every caller steps with.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, SolverBreakdown, ValidationError
from .invariants import frame_from_beta
from .ode import integrate_beta
from .quantum import WaveFunction, eval_psin, inner

# Steps factored together.  The factors take about 4 * BLOCK * npoints
# complex values (1 MB at 1024 points).  Blocks of 32 and 64 ran within 3%
# of 16 but raised the peak RSS of a 1024-point `bckosc propagate` from
# 36 MB to 40 and 46 MB.
BLOCK = 16


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
    """Odd-even elimination of (1 + i a H(t)), a = dt/(2 hbar), for every
    time of the 1-d array ts at once.

    Each level eliminates the odd-numbered unknowns from the equations of
    the even-numbered ones, which leaves a symmetric tridiagonal system of
    half the size; ``c[:, j]`` couples unknowns j and j+1.  A level keeps
    w, the inverse odd pivots, and lw, rw, the odd unknowns' couplings to
    their left and right even neighbours times w.  Returns (diagonal of
    1 - i a H, off-diagonal of i a H, levels, last pivot), each indexed by
    time first.  Raises SolverBreakdown if any pivot vanishes or is not
    finite.
    """
    diag, off = build_hamiltonian(s, ts)
    a = 0.5 * dt / s.hbar
    # built in place: a complex temporary fewer at the peak of a block
    b = np.empty(diag.shape, dtype=np.complex128)
    b.real = 1.0
    np.multiply(a, diag, out=b.imag)
    rdiag = b.conj()
    c = np.broadcast_to(1j * a * off[:, None],
                        (diag.shape[0], diag.shape[1] - 1))
    levels, pivots = [], []
    while b.shape[1] > 1:
        m = b.shape[1]
        p, q = m // 2, m - m // 2
        pivots.append(np.abs(b[:, 1::2]))
        w = 1.0 / b[:, 1::2]
        left, right = c[:, 0::2], c[:, 1::2]
        lw, rw = left * w, right * w[:, :q - 1]
        b = b[:, 0::2].copy()
        b[:, :p] -= left * lw
        b[:, 1:] -= right * rw
        c = -(left[:, :q - 1] * rw)
        levels.append((w, lw, rw))
    pivots.append(np.abs(b))
    piv = np.concatenate(pivots, axis=1)
    if not (piv.min() >= 1e-300 and piv.max() < np.inf):
        raise SolverBreakdown("tridiagonal elimination pivot vanished or "
                              "is not finite")
    return rdiag, 1j * a * off, levels, b


def _cn_step(factors, j, values):
    """Crank-Nicolson step j of a factored block:
    (1 + i a H_j)^{-1} (1 - i a H_j) values, solved in place of the
    right-hand side."""
    rdiag, ioff, levels, last = factors
    o = ioff[j]
    x = rdiag[j] * values
    x[1:] -= o * values[:-1]
    x[:-1] -= o * values[1:]
    evens, split = x, []
    for w, lw, rw in levels:
        odd, evens = evens[1::2], evens[0::2]
        split.append((odd, evens))
        evens[:odd.shape[0]] -= lw[j] * odd
        evens[1:] -= rw[j] * odd[:rw.shape[1]]
    evens /= last[j]
    for (w, lw, rw), (odd, evens) in zip(reversed(levels), reversed(split)):
        xo = odd * w[j]
        xo -= lw[j] * evens[:odd.shape[0]]
        xo[:rw.shape[1]] -= rw[j] * evens[1:]
        odd[...] = xo
    return x


def crank_nicolson_step(psi, s, t, dt):
    """One unitary step from t to t + dt with H evaluated at t + dt/2."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    with np.errstate(all="ignore"):
        factors = _factor(s, np.array([t + 0.5 * dt]), dt)
        out = _cn_step(factors, 0, psi.values.astype(np.complex128))
    return WaveFunction(qs=psi.qs, values=out, t=t + dt, n=psi.n)


@dataclass(frozen=True)
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
    regardless.  Each slice is compared once its block of steps is done, so
    at most ``BLOCK`` propagated states are held at a time.
    """
    if not (s.t0 <= t0 < t1 <= s.t1):
        raise OutOfDomain("propagation window must lie inside the scenario "
                          "window")
    if beta_sol is None:
        beta_sol = integrate_beta(s)
    nsteps = max(1, int(round((t1 - t0) / dt)))
    dt_eff = (t1 - t0) / nsteps
    stride = max(1, nsteps // max(1, max_slices - 1))
    steps = list(range(0, nsteps + 1, stride))
    if steps[-1] != nsteps:
        steps.append(nsteps)
    slice_ts = t0 + dt_eff * np.array(steps)
    # frames at slice times past a breakdown are never used: the pivot
    # check of the block that reaches them raises first
    with np.errstate(all="ignore"):
        frames = frame_from_beta(s, beta_sol, slice_ts)
    psi0 = eval_psin(n, s, frames.at(0), t0)
    overlaps = np.empty(len(steps))
    norms = np.empty(len(steps))

    def compare(k, values):
        tk = float(slice_ts[k])
        num = WaveFunction(qs=psi0.qs, values=values, t=tk, n=n)
        ana = eval_psin(n, s, frames.at(k), tk)
        overlaps[k] = abs(inner(ana, num)) / (ana.norm * num.norm)
        norms[k] = num.norm

    psi = psi0.values.astype(np.complex128)
    compare(0, psi)
    step_norms = np.empty(nsteps)
    k_slice = 1
    for start in range(0, nsteps, BLOCK):
        ks = np.arange(start, min(start + BLOCK, nsteps))
        reached = []
        with np.errstate(all="ignore"):
            factors = _factor(s, t0 + ks * dt_eff + 0.5 * dt_eff, dt_eff)
            for j, k in enumerate(ks):
                psi = _cn_step(factors, j, psi)
                dens = psi.real ** 2 + psi.imag ** 2
                step_norms[k] = np.sqrt(psi0.dq * (
                    np.sum(dens) - 0.5 * (dens[0] + dens[-1])))
                if k + 1 == steps[k_slice]:
                    reached.append((k_slice, psi))
                    k_slice += 1
        # outside errstate: the analytic states' warnings are not muted
        for k, values in reached:
            compare(k, values)
    return PropagationRun(initial=psi0, dt=dt_eff, slice_ts=slice_ts,
                          slice_norms=norms, overlaps=overlaps,
                          fidelity_defects=1.0 - overlaps,
                          step_norms=step_norms)
