"""Eigenfunctions and spectra of the quadratic invariant on a spatial grid
and uncertainty relations.  The references the tests check them with (the
textbook Hermite polynomial, an independent Schrodinger operator, the
ladder and I_Q operators as finite-difference operators, the moments
from beta and F, and the constant-parameter closed forms) live in
``tests/oracles.py``, outside the package.

Construction summary.  A frame enters psi_n, and its moments, only
through its packet (``invariants.packet_of_frame``) and its time; this
module keeps what depends on n.
The ground state, annihilated by the linear invariant, is the displaced
Gaussian (a/pi)^(1/4) exp(-x^2/2) exp(i(Theta + Phi(q))) with
x = sqrt(a) (q - q0) and Phi(q) = [chirp q^2 + lin q]/(2 hbar).  Excited
states multiply in i^n e^{-i n phi} times normalized Hermite functions of
x; this phase convention makes the ladder relations a psi_n =
sqrt(n) psi_{n-1} and a^dag psi_n = sqrt(n+1) psi_{n+1} exact, and the
whole family solves the time-dependent Schrodinger equation of the
scaled-mass Hamiltonian.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import write_csv
from .errors import (DegreeTooLarge, GridTooNarrow, OmegaNotPositive,
                     ValidationError)
from .invariants import finite_omega

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
        """L2 norm (``l2_norm``), cached after first use."""
        return float(l2_norm(self.values, self.dq))

    def to_csv(self, path, footer=None):
        """CSV columns q, re_psi, im_psi, abs2 and an optional footer."""
        v = np.asarray(self.values, dtype=np.complex128)
        # |v|^2 as libm's hypot, then pow: bit for bit what abs(v) ** 2
        # gives a numpy scalar (np.abs and squaring round differently)
        write_csv(path, "q,re_psi,im_psi,abs2",
                  [self.qs, v.real, v.imag,
                   np.float_power(np.hypot(v.real, v.imag), 2)], footer)


def grid_inner(left, right, dq):
    """<left|right> along the last axis at spacing dq: dq sum conj(left)
    right, one ``np.vecdot``.  This is the periodic grid's quadrature, the
    one the split-operator step conserves (see ``propagator``)."""
    return dq * np.vecdot(left, right)


def l2_norm(values, dq):
    """L2 norm (``grid_inner``) of ``values`` along its last axis."""
    return np.sqrt(grid_inner(values, values, dq).real)


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


def check_packet(s, packet, n=None):
    """Raise for the first sample of ``packet`` (``packet_of_frame``) whose
    Omega is not finite and positive, OmegaNotPositive, or, for psi_n
    (n given), whose 8 sqrt(n+1) envelope widths 1/sqrt(a) on either side
    of the center q0 leave the grid, GridTooNarrow with a symmetric
    suggestion."""
    om, a, q0 = packet[:3]
    bad = ~(np.isfinite(om) & (om > 0.0))
    if n is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            w = 1.0 / np.sqrt(a)
        need = 8.0 * w * math.sqrt(n + 1.0)
        bad |= (s.qmax - q0 < need) | (q0 - s.qmin < need)
    hits = np.flatnonzero(bad)
    if not hits.size:
        return
    om = np.ravel(om)[hits[0]]
    finite_omega(om)
    if not om > 0.0:
        raise OmegaNotPositive(f"Omega = {om:g} is not positive; the ladder "
                               "construction requires Omega > 0")
    q0, w, need = (np.ravel(v)[hits[0]] for v in (q0, w, need))
    suggested = math.ceil((abs(q0) + need) * 10.0) / 10.0
    # q0 + 0.0 prints an undriven centre -0.0 as 0
    raise GridTooNarrow(
        f"grid [{s.qmin:g}, {s.qmax:g}] clips the envelope centered at "
        f"q = {q0 + 0.0:.4g} (width {w:.4g}, need +-{need:.4g}); "
        f"suggested qmax = {suggested:g}", suggested_qmax=suggested)


def psin_values(n, s, packet, qs, out=None, scratch=None):
    """Values of psi_n on the grid qs for a packet (``packet_of_frame``) of
    one sample, scalars or one-sample arrays; nothing is checked
    (``check_packet``) and n is not validated.  The values are written
    into ``out``, a C-contiguous complex array of shape qs.shape or
    (1,) + qs.shape, and formed with ``scratch``, a float array of shape
    (2,) + out.shape; either one is new when not given, and nothing else
    of out's shape is allocated."""
    _, a, q0, chirp, lin, theta, phase = packet
    if out is None:
        out = np.empty(qs.shape, dtype=np.complex128)
    if scratch is None:
        scratch = np.empty((2,) + out.shape)
    # x and the recurrence's products live in the two halves of out's own
    # memory (a buffer of it, so never a copy) until the values fill it
    x, work = np.ndarray((2,) + out.shape, buffer=out)
    np.subtract(qs, q0, out=x)
    x *= np.sqrt(a)
    first, second = scratch
    h = _normalized_hermite(int(n), x, first, second, work)
    phi_q = second if h is first else first
    np.multiply(chirp, qs, out=phi_q)
    phi_q += lin
    phi_q *= qs
    phi_q /= 2.0 * s.hbar
    pref = (1j ** int(n)) * np.exp(1j * (theta - n * phase))
    # h e^{i phi_q}, then times the prefactor
    np.sin(phi_q, out=out.imag)
    out.imag *= h
    np.multiply(np.cos(phi_q, out=phi_q), h, out=out.real)
    out *= pref * a ** 0.25
    return out


def eval_psin(n, s, frame):
    """Eigenfunction psi_n of the quadratic invariant on the scenario grid
    at the time of ``frame``, a scalar beta-derived frame."""
    if n < 0 or int(n) != n:
        raise ValidationError("quantum number must be a nonnegative integer")
    if n > MAX_DEGREE:
        raise DegreeTooLarge(f"quantum number {n} exceeds {MAX_DEGREE}")
    check_packet(s, frame.packet, n)
    qs = s.grid()
    return WaveFunction(qs=qs, values=psin_values(n, s, frame.packet, qs),
                        t=float(frame.t), n=int(n))


def build_spectrum(omega_value, nmax):
    """Eigenvalues Omega (n + 1/2) for n = 0..nmax, as an array."""
    if omega_value <= 0.0:
        raise OmegaNotPositive(f"Omega = {omega_value:g} is not positive")
    return omega_value * (np.arange(int(nmax) + 1) + 0.5)


def write_spectrum_csv(path, eigenvalues):
    """CSV columns n, eigenvalue."""
    write_csv(path, "n,eigenvalue", [np.arange(len(eigenvalues)), eigenvalues])


def moments(n, frame, s):
    """(<q>, <p>, var_q, var_p) of psi_n on a scalar frame, from its packet
    (``packet_of_frame``): <q> = q0 and <p> = chirp q0 + lin/2 whatever n,
    var_q = (n + 1/2)/a and var_p = (n + 1/2)(hbar^2 a + chirp^2/a)."""
    check_packet(s, frame.packet)
    _, a, q0, chirp, lin = frame.packet[:5]
    level = n + 0.5
    return (float(q0), float(chirp * q0 + 0.5 * lin), float(level / a),
            float(level * (s.hbar ** 2 * a + chirp ** 2 / a)))
