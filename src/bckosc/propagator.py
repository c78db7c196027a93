"""Independent split-operator solver for the scaled-mass Schrodinger
equation, used as an end-to-end check: analytically constructed
eigenfunctions propagated numerically must stay on themselves.  It ends
the Hamiltonian route (see ``ode``): H takes its (K, V, D) from
``Scenario.hamiltonian_coefficients``, the analytic states come from beta.

H = K p^2/2 + V q^2/2 - D q has no q p term, so a Strang splitting
(Strang, SIAM J. Numer. Anal. 5, 506 (1968)) applies its potential and
kinetic parts each exactly, the kinetic one in the Fourier basis (Feit,
Fleck & Steiger, J. Comput. Phys. 47, 412 (1982)):

    psi <- P ifft(T fft(P psi)),  P = exp(-i dt (V q^2/2 - D q)/(2 hbar)),
                                  T = exp(-i dt K hbar k^2/2),

with (K, V, D) at the step's midpoint and k = 2 pi fftfreq(N, dq).  The
step is second order in dt, spectrally accurate in q and unitary up to
round-off in the grid's norm sqrt(dq sum |psi_j|^2) (``quantum.l2_norm``).
It treats the grid as periodic, which ``check_packet``'s 8 sqrt(n+1)
envelope widths between the packet and either end make harmless.  Each
phase is the cos and sin of its exponent, written into the parts of a
one-row buffer; a step's exponent that overflows leaves a state that is
not finite, which its norm shows.

A run evaluates (K, V, D) at ``BLOCK`` midpoints per call.  After each
step it takes the state's norm, raises SolverBreakdown unless it is
finite, and then checks (``check_packet``) and compares each slice the
step reaches: psi_n from the run's one packet at the slice times, against
the propagated state, by ``quantum.grid_inner`` (one ``np.vecdot``
each).  So a run holds a few rows of the grid's size and nothing per step
but its norm.
"""

from dataclasses import dataclass

import numpy as np

from .core import MAX_COUNT, write_csv
from .errors import OutOfDomain, SolverBreakdown, ValidationError
from .invariants import frame_from_beta
from .ode import integrate_beta
from .quantum import (WaveFunction, check_packet, eval_psin, grid_inner,
                      l2_norm, psin_values)

# Step midpoints whose (K, V, D) one call evaluates
BLOCK = 16


class _SplitStep:
    """The split-operator step of a scenario on its grid qs at a step dt:
    the grid's squared wavenumbers and the one-row buffers of the
    phases."""

    def __init__(self, s, qs, dt):
        self.s, self.qs, self.dt = s, qs, dt
        self.dq = float(qs[1] - qs[0])
        npoints = qs.shape[0]
        self.k2 = (2.0 * np.pi * np.fft.fftfreq(npoints, self.dq)) ** 2
        self.arg = np.empty(npoints)
        self.half = np.empty(npoints, np.complex128)
        self.kinetic = np.empty(npoints, np.complex128)

    def phases(self, t):
        """(a, b, c) at the midpoint t, or at each of an array t: the half
        potential phase is exp(i (a q + b) q), the kinetic exp(i c k^2)."""
        K, V, D = self.s.hamiltonian_coefficients(t)
        r = 0.5 * self.dt / self.s.hbar
        return -0.5 * r * V, r * D, -0.5 * self.dt * self.s.hbar * K

    def __call__(self, psi, a, b, c):
        """Step psi in place with the phases (a, b, c) and return its
        norm (``l2_norm``).  Raises SolverBreakdown, with no warning, unless
        the norm is finite."""
        qs, arg, half, kinetic = self.qs, self.arg, self.half, self.kinetic
        with np.errstate(all="ignore"):
            np.multiply(qs, a, out=arg)
            arg += b
            arg *= qs
            np.cos(arg, out=half.real)
            np.sin(arg, out=half.imag)
            psi *= half
            np.fft.fft(psi, out=psi)
            np.multiply(self.k2, c, out=arg)
            np.cos(arg, out=kinetic.real)
            np.sin(arg, out=kinetic.imag)
            psi *= kinetic
            np.fft.ifft(psi, out=psi)
            psi *= half
            norm = l2_norm(psi, self.dq)
        if not norm < np.inf:
            raise SolverBreakdown("split-operator step is not finite")
        return norm


@dataclass(frozen=True, eq=False)
class PropagationRun:
    """Numeric propagation compared against the analytic eigenfunction."""

    initial: WaveFunction
    dt: float
    slice_ts: np.ndarray
    slice_norms: np.ndarray
    overlaps: np.ndarray
    step_norms: np.ndarray      # post-step norms (l2_norm), every step

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
        write_csv(path, "t,norm,overlap,fidelity_defect",
                  [self.slice_ts, self.slice_norms, self.overlaps,
                   self.fidelity_defects])


def propagate_and_compare(s, n, t0, t1, dt, max_slices=201, beta_sol=None):
    """Propagate the analytic psi_n numerically from t0 to t1 and record
    per-slice norms and overlaps with the analytic reference.

    dt is adjusted to divide the window exactly.  ``max_slices`` bounds how
    many intermediate comparisons are made; every step's norm is kept
    regardless.  The packet at the slice times is formed once; once the
    step that reaches a slice is taken and found finite, the slice is
    checked (``check_packet``) and compared, so a slice fails only after
    the steps before it.  ``beta_sol`` is dropped once the packet and
    psi_n(t0) exist, before the step's buffers are made, so a caller that
    hands over its last reference frees it there; perfbench/spans.py's
    wrapper keeps it alive, but only in traced runs.  A window of more
    than ``core.MAX_COUNT`` steps raises ValidationError before any
    allocation.
    """
    if not (s.t0 <= t0 < t1 <= s.t1):
        raise OutOfDomain("propagation window must lie inside the scenario "
                          "window")
    if not 0 < dt < np.inf:
        raise ValidationError("dt must be positive and finite")
    if not (t1 - t0) / dt <= MAX_COUNT:
        raise ValidationError(f"propagation needs more than {MAX_COUNT} "
                              f"steps of dt {dt:g}")
    if beta_sol is None:
        beta_sol = integrate_beta(s)
    nsteps = max(1, int(round((t1 - t0) / dt)))
    dt_eff = (t1 - t0) / nsteps
    stride = max(1, -(-nsteps // max(1, max_slices - 1)))  # ceiling
    steps = np.append(np.arange(0, nsteps, stride), nsteps)
    slice_ts = t0 + dt_eff * steps
    # past a breakdown a slice's packet can overflow, or its Omega be
    # negative or not finite: the step that reaches it raises first
    with np.errstate(all="ignore"):
        packet = frame_from_beta(s, beta_sol, slice_ts).packet
    psi0 = eval_psin(n, s, frame_from_beta(s, beta_sol, t0))
    del beta_sol
    qs, dq = psi0.qs, psi0.dq
    step = _SplitStep(s, qs, dt_eff)
    scratch = np.empty((2, 1, qs.shape[0]))
    overlaps = np.empty(steps.shape[0])

    def compare(k, values, values_norm):
        # one-sample packets keep numpy's array loops, which round as on the
        # whole packet: bit for bit eval_psin's on slice k's one-sample
        # frame.  It is written into the step's phase buffer, free here
        ana = psin_values(n, s, [v[k:k + 1] for v in packet], qs,
                          step.half[None], scratch)
        overlaps[k:k + 1] = (np.abs(grid_inner(ana, values, dq))
                             / (l2_norm(ana, dq) * values_norm))

    compare(0, psi0.values[None], psi0.norm)  # eval_psin checked t0
    step_norms = np.empty(nsteps)
    psi = psi0.values.copy()
    k = 1
    for start in range(0, nsteps, BLOCK):
        ks = np.arange(start, min(start + BLOCK, nsteps))
        with np.errstate(all="ignore"):
            phases = step.phases(t0 + ks * dt_eff + 0.5 * dt_eff)
        for j, a, b, c in zip(ks.tolist(), *phases):
            step_norms[j] = step(psi, a, b, c)
            # the slice at step j + 1, compared outside errstate: the
            # analytic states' warnings are not muted
            if steps[k] == j + 1:
                check_packet(s, [v[k:k + 1] for v in packet], n)
                compare(k, psi[None], step_norms[j])
                k += 1
    norms = np.concatenate(([psi0.norm], step_norms[steps[1:] - 1]))
    return PropagationRun(initial=psi0, dt=dt_eff, slice_ts=slice_ts,
                          slice_norms=norms, overlaps=overlaps,
                          step_norms=step_norms)
