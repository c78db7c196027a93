"""Eigenfunctions and spectra of the quadratic invariant on a spatial grid
and uncertainty relations.  The references the tests check them with (the
textbook Hermite polynomial, an independent Schrodinger operator, the
ladder and I_Q operators as finite-difference operators, and the
constant-parameter closed forms) live in ``tests/oracles.py``, outside the
package.

Construction summary.  With the amplitude beta, force functional F and
conserved normalization Omega, the ground state annihilated by the linear
invariant is a displaced Gaussian

    psi_0 = (a/pi)^(1/4) exp(-x^2/2) exp(i(Theta + Phi(q)))

with a = Omega/(2 hbar^2 beta* beta), center q0 = -(2 hbar/Omega) Im(beta* F),
x = sqrt(a) (q - q0), local phase
Phi(q) = [m e^G Re(beta'/beta) q^2 + 2 Re(F/beta) q]/(2 hbar), and global
phase Theta = -phi/2 - Re(P)/(2 m hbar) where phi is the continuously
unwrapped argument of beta and P accumulates exp(-G) (F/beta)^2.  Excited
states multiply in i^n e^{-i n phi} times normalized Hermite functions of x;
this phase convention makes the ladder relations a psi_n = sqrt(n) psi_{n-1}
and a^dag psi_n = sqrt(n+1) psi_{n+1} exact, and the whole family solves the
time-dependent Schrodinger equation of the scaled-mass Hamiltonian.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import write_csv
from .errors import (DegreeTooLarge, GridTooNarrow, OmegaNotPositive,
                     ValidationError)
from .invariants import omega_of_frame

MAX_DEGREE = 200


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex amplitudes on a uniform spatial grid at one instant."""

    qs: np.ndarray
    values: np.ndarray
    t: float
    n: object = None            # quantum number when known, else None

    @property
    def dq(self):
        return float(self.qs[1] - self.qs[0])

    @cached_property
    def norm(self):
        """L2 norm by the trapezoid rule, cached after first use."""
        return float(l2_norm(self.values, self.dq))

    def to_csv(self, path, footer=None):
        """CSV columns q, re_psi, im_psi, abs2 and an optional footer."""
        v = np.asarray(self.values, dtype=np.complex128)
        # |v|^2 as libm's hypot, then pow: bit for bit what abs(v) ** 2
        # gives a numpy scalar (np.abs and squaring round differently)
        write_csv(path, "q,re_psi,im_psi,abs2",
                  [self.qs, v.real, v.imag,
                   np.float_power(np.hypot(v.real, v.imag), 2)], footer)


def trapezoid_inner(left, right, dq):
    """Trapezoid rule for conj(left) * right along the last axis at spacing
    dq: one ``np.vecdot`` less half the end terms, so no array of the
    operands' shape is formed."""
    ends = (np.conjugate(left[..., 0]) * right[..., 0]
            + np.conjugate(left[..., -1]) * right[..., -1])
    return dq * (np.vecdot(left, right) - 0.5 * ends)


def l2_norm(values, dq):
    """Trapezoid L2 norm of ``values`` along its last axis."""
    return np.sqrt(trapezoid_inner(values, values, dq).real)


def _normalized_hermite(n, x, h, h_prev, work):
    """h_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)); unit L2 norm in
    x, stable to n = 200.  Formed in place in the float arrays h and
    h_prev, with ``work`` for products, all of x's shape; returns the one
    of h and h_prev that holds h_n."""
    np.multiply(x, -0.5, out=h_prev)
    h_prev *= x
    np.exp(h_prev, out=h_prev)
    h_prev *= np.pi ** -0.25
    if n == 0:
        return h_prev
    np.multiply(x, math.sqrt(2.0), out=h)
    h *= h_prev
    for k in range(1, n):
        # h_prev becomes x sqrt(2/(k+1)) h - sqrt(k/(k+1)) h_prev
        np.multiply(x, math.sqrt(2.0 / (k + 1)), out=work)
        work *= h
        h_prev *= math.sqrt(k / (k + 1.0))
        np.subtract(work, h_prev, out=h_prev)
        h, h_prev = h_prev, h
    return h


def _first(mask):
    """Index of the first true sample of ``mask`` (a scalar or 1-d array),
    or None."""
    hits = np.flatnonzero(mask)
    return hits[0] if hits.size else None


def _packet(s, fr):
    """(Omega, a, q0) on a scalar or vector frame: Omega,
    a = Omega/(2 hbar^2 beta* beta) and the packet center
    q0 = -(2 hbar/Omega) Im(beta* F).  Raises OmegaNotPositive for the
    first sample where Omega > 0 fails."""
    om = omega_of_frame(fr)
    k = _first(om <= 0.0)
    if k is not None:
        raise OmegaNotPositive(f"Omega = {np.ravel(om)[k]:g} is not "
                               "positive; the ladder construction requires "
                               "Omega > 0")
    b = fr.beta
    a = om / (2.0 * s.hbar ** 2 * (b.conjugate() * b).real)
    q0 = -(2.0 * s.hbar / om) * (b.conjugate() * fr.F).imag
    return om, a, q0


def check_grid(s, fr, n):
    """Require 8 sqrt(n+1) envelope widths 1/sqrt(a) on both sides of the
    packet center at every sample of the frame; raise GridTooNarrow with a
    symmetric suggestion for the first sample that fails.  Returns the
    packet (Omega, a, q0) of ``_packet``."""
    om, a, q0 = _packet(s, fr)
    w = 1.0 / np.sqrt(a)
    need = 8.0 * w * math.sqrt(n + 1.0)
    k = _first((s.qmax - q0 < need) | (q0 - s.qmin < need))
    if k is not None:
        q0, w, need = (np.ravel(v)[k] for v in (q0, w, need))
        suggested = math.ceil((abs(q0) + need) * 10.0) / 10.0
        # q0 + 0.0 prints an undriven centre -0.0 as 0
        raise GridTooNarrow(
            f"grid [{s.qmin:g}, {s.qmax:g}] clips the envelope centered at "
            f"q = {q0 + 0.0:.4g} (width {w:.4g}, need +-{need:.4g}); "
            f"suggested qmax = {suggested:g}", suggested_qmax=suggested)
    return om, a, q0


def psin_values(n, s, frame, qs, out=None, scratch=None):
    """Values of psi_n on the grid qs for a scalar frame, or one row per
    sample of a vector frame.  The grid is checked at every sample
    (``check_grid``); n is not validated here.

    The values are written into ``out``, a C-contiguous complex array of
    the result's shape, and formed with ``scratch``, a float array of
    shape (2,) + the result's shape; either one is new when not given.
    Nothing else of the result's shape is allocated.
    """
    _, a, q0 = check_grid(s, frame, n)

    def col(v):
        return np.asarray(v)[..., None]

    shape = np.shape(a) + qs.shape
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    if scratch is None:
        scratch = np.empty((2,) + shape)
    # x and the recurrence's products live in the two halves of out's own
    # memory (a buffer of it, so never a copy) until the values fill it
    x, work = np.ndarray((2,) + shape, buffer=out)
    np.subtract(qs, col(q0), out=x)
    x *= col(np.sqrt(a))
    first, second = scratch
    h = _normalized_hermite(int(n), x, first, second, work)
    phi_q = second if h is first else first
    b = frame.beta
    ratio_bd = frame.dbeta / b
    ratio_F = frame.F / b
    np.multiply(col(s.m * frame.expG * ratio_bd.real), qs, out=phi_q)
    phi_q += col(2.0 * ratio_F.real)
    phi_q *= qs
    phi_q /= 2.0 * s.hbar
    theta = (-0.5 * frame.phase
             - np.real(frame.phase_integral) / (2.0 * s.m * s.hbar))
    pref = (1j ** int(n)) * np.exp(1j * (theta - n * frame.phase))
    # h e^{i phi_q}, then times the prefactor
    np.sin(phi_q, out=out.imag)
    out.imag *= h
    np.multiply(np.cos(phi_q, out=phi_q), h, out=out.real)
    out *= col(pref * a ** 0.25)
    return out


def eval_psin(n, s, frame, t):
    """Eigenfunction psi_n of the quadratic invariant on the scenario grid.

    The frame must be beta-derived and timestamped at t.
    """
    if n < 0 or int(n) != n:
        raise ValidationError("quantum number must be a nonnegative integer")
    if n > MAX_DEGREE:
        raise DegreeTooLarge(f"quantum number {n} exceeds {MAX_DEGREE}")
    if not abs(float(frame.t) - t) <= 1e-12 + 1e-12 * abs(t):
        raise ValidationError("frame timestamp does not match requested t")
    qs = s.grid()
    return WaveFunction(qs=qs, values=psin_values(n, s, frame, qs),
                        t=float(t), n=int(n))


def build_spectrum(omega_value, nmax):
    """Eigenvalues Omega (n + 1/2) for n = 0..nmax, as an array."""
    if omega_value <= 0.0:
        raise OmegaNotPositive(f"Omega = {omega_value:g} is not positive")
    return omega_value * (np.arange(int(nmax) + 1) + 0.5)


def write_spectrum_csv(path, eigenvalues):
    """CSV columns n, eigenvalue."""
    write_csv(path, "n,eigenvalue", [np.arange(len(eigenvalues)), eigenvalues])


def moments(n, frame, s):
    """(<q>, <p>, var_q, var_p) of psi_n on a scalar frame.  The
    expectations sit at the packet center and do not depend on n:

    <q> = q0, <p> = -(2 m hbar e^G/Omega) Im(beta'* F)
    var_q = (hbar^2/Omega) beta* beta (2n+1)
    var_p = (hbar^2 m^2 e^{2G}/Omega) beta'* beta' (2n+1)
    """
    om, _, q_exp = _packet(s, frame)
    bdF = np.conjugate(frame.dbeta) * frame.F
    p_exp = -(2.0 * s.m * s.hbar * frame.expG / om) * np.asarray(bdF).imag
    bb = float((np.conjugate(frame.beta) * frame.beta).real)
    dd = float((np.conjugate(frame.dbeta) * frame.dbeta).real)
    var_q = s.hbar ** 2 / om * bb * (2 * n + 1)
    var_p = (s.hbar ** 2 * s.m ** 2 * frame.expG ** 2 / om) * dd * (2 * n + 1)
    return float(q_exp), float(p_exp), float(var_q), float(var_p)
