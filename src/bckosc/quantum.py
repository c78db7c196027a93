"""Eigenfunctions and spectra of the quadratic invariant, ladder operators
on a spatial grid, uncertainty relations, and closed forms for the
underdamped constant-parameter oscillator.

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
from functools import cache, cached_property

import numpy as np

from .errors import (DegreeTooLarge, GridTooNarrow, InsufficientSlices,
                     NotUnderdamped, OmegaNotPositive, UnsupportedForceShape,
                     ValidationError)
from .invariants import InvariantFrame, iq_coefficients, omega_of_frame

MAX_DEGREE = 200


@dataclass(frozen=True)
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
        """CSV columns q, re_psi, im_psi, abs2; optional comment footer."""
        with open(path, "w", newline="\n") as fh:
            fh.write("q,re_psi,im_psi,abs2\n")
            for k in range(self.qs.shape[0]):
                v = self.values[k]
                fh.write(f"{self.qs[k]:.17g},{v.real:.17g},{v.imag:.17g},"
                         f"{abs(v) ** 2:.17g}\n")
            if footer:
                fh.write(footer.rstrip("\n") + "\n")


@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue Omega (n + 1/2) of the quadratic invariant."""

    n: int
    eigenvalue: float


def inner(left, right):
    """Trapezoid inner product <left|right> of two grid wavefunctions."""
    if left.qs.shape != right.qs.shape:
        raise ValidationError("wavefunctions live on different grids")
    return complex(np.trapezoid(np.conjugate(left.values) * right.values,
                                dx=left.dq))


def l2_norm(values, dq):
    """Trapezoid L2 norm of ``values`` along its last axis."""
    return np.sqrt(np.trapezoid(np.abs(values) ** 2, dx=dq, axis=-1))


def hermite(n, x):
    """Physicists' Hermite polynomial H_n by the three-term recurrence.

    Values can overflow float64 for large n·x; the eigenfunction path uses
    the scaled (normalized) recurrence instead and stays finite.  Kept
    apart from that recurrence on purpose: it is the unscaled textbook
    polynomial, a reference that shares no code with the eigenfunctions.
    """
    if n < 0 or int(n) != n:
        raise ValidationError("Hermite degree must be a nonnegative integer")
    if n > MAX_DEGREE:
        raise DegreeTooLarge(f"Hermite degree {n} exceeds {MAX_DEGREE}")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


def _normalized_hermite(n, x):
    """h_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)); unit L2 norm in
    x, stable to n = 200."""
    h_prev = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n == 0:
        return h_prev
    h = x * math.sqrt(2.0) * h_prev
    for k in range(1, n):
        h, h_prev = (x * math.sqrt(2.0 / (k + 1)) * h
                     - math.sqrt(k / (k + 1.0)) * h_prev), h
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
        raise GridTooNarrow(
            f"grid [{s.qmin:g}, {s.qmax:g}] clips the envelope centered at "
            f"q = {q0:.4g} (width {w:.4g}, need +-{need:.4g}); "
            f"suggested qmax = {suggested:g}", suggested_qmax=suggested)
    return om, a, q0


def psin_values(n, s, frame, qs):
    """Values of psi_n on the grid qs for a scalar frame, or one row per
    sample of a vector frame.  The grid is checked at every sample
    (``check_grid``); n is not validated here."""
    _, a, q0 = check_grid(s, frame, n)

    def col(v):
        return np.asarray(v)[..., None]

    x = col(np.sqrt(a)) * (qs - col(q0))
    h = _normalized_hermite(int(n), x)
    b = frame.beta
    ratio_bd = frame.dbeta / b
    ratio_F = frame.F / b
    phi_q = (col(s.m * frame.expG * ratio_bd.real) * qs ** 2
             + col(2.0 * ratio_F.real) * qs) / (2.0 * s.hbar)
    theta = (-0.5 * frame.phase
             - np.real(frame.phase_integral) / (2.0 * s.m * s.hbar))
    pref = (1j ** int(n)) * np.exp(1j * (theta - n * frame.phase))
    return col(pref * a ** 0.25) * h * np.exp(1j * phi_q)


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


def eval_psi0(s, frame, t):
    """Ground state annihilated by the linear invariant; see eval_psin."""
    return eval_psin(0, s, frame, t)


def build_spectrum(omega_value, nmax):
    """Eigenvalues Omega (n + 1/2) for n = 0..nmax."""
    if omega_value <= 0.0:
        raise OmegaNotPositive(f"Omega = {omega_value:g} is not positive")
    return [SpectrumEntry(n=n, eigenvalue=omega_value * (n + 0.5))
            for n in range(int(nmax) + 1)]


def write_spectrum_csv(path, entries):
    with open(path, "w", newline="\n") as fh:
        fh.write("n,eigenvalue\n")
        for e in entries:
            fh.write(f"{e.n},{e.eigenvalue:.17g}\n")


def _d1(values, dq):
    """4th-order central first derivative; grid ends treated as zero
    (Dirichlet padding)."""
    p = np.pad(values, 2)
    return (p[:-4] - 8.0 * p[1:-3] + 8.0 * p[3:-1] - p[4:]) / (12.0 * dq)


def _d2(values, dq):
    """4th-order central second derivative with Dirichlet padding."""
    p = np.pad(values, 2)
    return (-p[:-4] + 16.0 * p[1:-3] - 30.0 * p[2:-2] + 16.0 * p[3:-1]
            - p[4:]) / (12.0 * dq * dq)


def apply_ladder(direction, psi, frame, s):
    """Apply the lowering ("down") or raising ("up") operator.

    Both are the linear invariant (or its conjugate) over sqrt(Omega) with
    p realized as -i hbar d/dq on the grid.  The outermost two grid cells
    use zero padding; exclude them from error metrics.
    """
    om = _packet(s, frame)[0]
    if direction not in ("down", "up"):
        raise ValidationError('ladder direction must be "down" or "up"')
    b = complex(frame.beta)
    bd = complex(frame.dbeta)
    Fc = complex(frame.F)
    if direction == "up":
        b, bd, Fc = b.conjugate(), bd.conjugate(), Fc.conjugate()
    dpsi = _d1(psi.values, psi.dq)
    meG = s.m * frame.expG
    out = (b * (-1j * s.hbar) * dpsi - meG * bd * psi.qs * psi.values
           - Fc * psi.values) / math.sqrt(om)
    nxt = None
    if psi.n is not None:
        nxt = psi.n + 1 if direction == "up" else max(psi.n - 1, 0)
    return WaveFunction(qs=psi.qs, values=out, t=psi.t, n=nxt)


def apply_IQ(psi, frame, s):
    """Apply the quadratic invariant as a differential operator.

    The symmetrized product {q,p} acts as -i hbar (q d/dq + d/dq q); the
    kinetic part uses the 4th-order second-difference stencil.
    """
    _packet(s, frame)
    c1, c2, c3, c4, c5 = iq_coefficients(frame)
    dpsi = _d1(psi.values, psi.dq)
    ddpsi = _d2(psi.values, psi.dq)
    qs = psi.qs
    anticomm = -1j * s.hbar * (2.0 * qs * dpsi + psi.values)
    out = (0.5 * c1 * qs ** 2 * psi.values
           + 0.5 * c2 * anticomm
           - 0.5 * c3 * s.hbar ** 2 * ddpsi
           + c4 * qs * psi.values
           + c5 * (-1j * s.hbar) * dpsi
           - frame.F_sigma * psi.values)
    return WaveFunction(qs=psi.qs, values=out, t=psi.t, n=psi.n)


def schrodinger_residual(series, s):
    """Max interior-slice residual ||i hbar dpsi/dt - H psi|| / ||psi||.

    The time derivative is a central difference over uniformly spaced
    slices; H applies the scaled-mass kinetic term with the 4th-order
    stencil.  Two boundary cells on each side are excluded from norms.
    This H is kept apart from the propagator's Hamiltonian on purpose, so
    the residual checks the eigenstates against an independent operator.
    """
    if len(series) < 3:
        raise InsufficientSlices("need at least 3 uniformly spaced slices")
    ts = np.array([w.t for w in series], dtype=float)
    dts = np.diff(ts)
    dt = float(dts[0])
    if dt <= 0 or np.max(np.abs(dts - dt)) > 1e-8 * abs(dt):
        raise ValidationError("slices are not uniformly spaced in time")
    worst = 0.0
    sl = slice(2, -2)
    for k in range(1, len(series) - 1):
        w = series[k]
        dpsi_dt = (series[k + 1].values - series[k - 1].values) / (2.0 * dt)
        t = w.t
        G = float(s.G(t))
        pot = (0.5 * s.m * float(s.omega(t)) ** 2 * np.exp(G) * w.qs ** 2
               - np.exp(G) * float(s.force(t)) * w.qs)
        hpsi = (-(s.hbar ** 2) * np.exp(-G) / (2.0 * s.m)
                * _d2(w.values, w.dq) + pot * w.values)
        resid = 1j * s.hbar * dpsi_dt - hpsi
        denom = l2_norm(w.values[sl], w.dq)
        worst = max(worst, l2_norm(resid[sl], w.dq) / denom)
    return worst


def expectation_qp(n, frame, s):
    """Packet-center expectations (<q>, <p>); independent of n."""
    om, _, q_exp = _packet(s, frame)
    bdF = np.conjugate(frame.dbeta) * frame.F
    p_exp = -(2.0 * s.m * s.hbar * frame.expG / om) * np.asarray(bdF).imag
    return float(q_exp), float(p_exp)


@dataclass(frozen=True)
class UncertaintyReport:
    var_q: float
    var_p: float
    product: float


def uncertainty_product(n, frame, s, full=False):
    """(dq)^2 (dp)^2 for psi_n from the frame; with full=True also the
    separate variances.

    var_q = (hbar^2/Omega) beta* beta (2n+1)
    var_p = (hbar^2 m^2 e^{2G}/Omega) beta'* beta' (2n+1)
    """
    om = _packet(s, frame)[0]
    bb = float((np.conjugate(frame.beta) * frame.beta).real)
    dd = float((np.conjugate(frame.dbeta) * frame.dbeta).real)
    var_q = s.hbar ** 2 / om * bb * (2 * n + 1)
    var_p = (s.hbar ** 2 * s.m ** 2 * frame.expG ** 2 / om) * dd * (2 * n + 1)
    if full:
        return UncertaintyReport(var_q=var_q, var_p=var_p,
                                 product=var_q * var_p)
    return var_q * var_p


@dataclass(frozen=True)
class UnderdampedParams:
    """Constant-parameter underdamped scenario constants."""

    m: float
    hbar: float
    omega: float
    g: float
    omega_bar: float
    F0: float
    alpha: float

    @property
    def Omega(self):
        return 2.0 * self.m * self.omega_bar * self.hbar


def _constant_value(tf):
    """Value of a time function that is constant, else None."""
    if tf.kind == 0 and not np.any(tf.params[1:]):
        return float(tf.params[0])
    if tf.kind == 1 and tf.params[0] == 0.0:
        return float(tf.params[3])
    if tf.kind == 2 and tf.params[0] == 0.0:
        return float(tf.params[2])
    return None


def underdamped_params(s):
    """Extract and validate the constants of the underdamped closed forms.

    Requires constant omega and damping with g^2 < omega^2, t0 = 0, and a
    force that is either identically zero or a pure sine A sin(alpha t).
    """
    w = _constant_value(s.omega)
    g = _constant_value(s.damping)
    if w is None or g is None:
        raise UnsupportedForceShape(
            "closed forms require constant omega and damping")
    if s.t0 != 0.0:
        raise UnsupportedForceShape("closed forms require t0 = 0")
    w = abs(w)
    if g * g >= w * w:
        raise NotUnderdamped(
            f"g^2 = {g * g:g} >= omega^2 = {w * w:g}: not underdamped")
    fv = _constant_value(s.force)
    if fv == 0.0:
        F0, alpha = 0.0, 0.0
    elif s.force.kind == 1 and s.force.params[2] == 0.0 \
            and s.force.params[3] == 0.0:
        F0 = float(s.force.params[0])
        alpha = float(s.force.params[1])
    else:
        raise UnsupportedForceShape(
            "closed forms require F = 0 or F = A sin(alpha t)")
    wbar = math.sqrt(w * w - g * g)
    if F0 != 0.0:
        A = g * g - wbar * wbar + alpha * alpha
        B = 2.0 * g * wbar
        if A * A + B * B == 0.0:
            raise UnsupportedForceShape(
                "resonant undamped driving has no bounded closed form")
    return UnderdampedParams(m=s.m, hbar=s.hbar, omega=w, g=g,
                             omega_bar=wbar, F0=F0, alpha=alpha)


@cache
def _gauss_legendre_16():
    return np.polynomial.legendre.leggauss(16)


def _phase_integral_closed(p, t):
    """P(t) = int_0^t e^{2 g tau} F0^2 (N(tau)/Dt)^2 dtau by composite
    Gauss-Legendre quadrature; N/Dt is the bounded core of F/beta."""
    if p.F0 == 0.0:
        return complex(0.0)
    nodes, weights = _gauss_legendre_16()
    gbar = complex(p.g, p.omega_bar)
    Dt = complex(p.g ** 2 - p.omega_bar ** 2 + p.alpha ** 2,
                 2.0 * p.g * p.omega_bar)

    def core(tau):
        N = (gbar * np.sin(p.alpha * tau) - p.alpha * np.cos(p.alpha * tau)
             + p.alpha * np.exp(-gbar * tau))
        return np.exp(2.0 * p.g * tau) * p.F0 ** 2 * (N / Dt) ** 2

    panels = max(8, int(math.ceil(abs(t) * 4.0)))
    edges = np.linspace(0.0, t, panels + 1)
    total = 0.0 + 0.0j
    for k in range(panels):
        mid = 0.5 * (edges[k] + edges[k + 1])
        half = 0.5 * (edges[k + 1] - edges[k])
        total += half * np.sum(weights * core(mid + half * nodes))
    return complex(total)


def underdamped_closed_forms(s, t):
    """InvariantFrame from the constant-parameter closed forms, bypassing
    ODE integration entirely.  Accepts scalar or array t.

    Its gamma, sigma and F_sigma are written out here rather than taken
    from ``invariants.envelope_group`` on purpose: they are the oracle the
    ODE frame is compared with."""
    p = underdamped_params(s)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    tv = np.atleast_1d(t_arr)
    g, wbar = p.g, p.omega_bar
    gbar = complex(g, wbar)
    beta = np.exp(-g * tv) * np.exp(1j * wbar * tv)
    dbeta = complex(-g, wbar) * beta
    if p.F0 != 0.0:
        Dt = complex(g * g - wbar * wbar + p.alpha ** 2, 2.0 * g * wbar)
        N = (gbar * np.sin(p.alpha * tv) - p.alpha * np.cos(p.alpha * tv)
             + p.alpha * np.exp(-gbar * tv))
        core = p.F0 * N / Dt            # equals beta* F, stays bounded
        Fc = np.exp(gbar * tv) * core
        P = np.array([_phase_integral_closed(p, float(x)) for x in tv])
    else:
        core = np.zeros_like(beta)
        Fc = np.zeros_like(beta)
        P = np.zeros_like(beta)
    G = 2.0 * g * tv
    expG = np.exp(G)
    Fval = p.F0 * np.sin(p.alpha * tv)
    gamma = 2.0 * np.exp(-2.0 * g * tv)
    dgamma = -2.0 * g * gamma
    ddgamma = 4.0 * g * g * gamma
    sigma = -2.0 * core.real
    dsigma = -2.0 * (np.conjugate(dbeta) * Fc).real - gamma * expG * Fval
    F_sigma = -(np.abs(Fc) ** 2)
    phase = wbar * tv

    def out(x):
        return x[0] if scalar else x

    def outc(x):
        return complex(x[0]) if scalar else x

    return InvariantFrame(
        t=t, m=p.m, hbar=p.hbar,
        omega=out(np.full_like(tv, p.omega)),
        damping=out(np.full_like(tv, g)),
        force=out(Fval), G=out(G), expG=out(expG),
        beta=outc(beta), dbeta=outc(dbeta), F=outc(Fc),
        gamma=out(gamma), dgamma=out(dgamma), ddgamma=out(ddgamma),
        sigma=out(sigma), dsigma=out(dsigma), F_sigma=out(F_sigma),
        phase=out(phase), phase_integral=outc(P))


@dataclass(frozen=True)
class UncertaintyComparison:
    """Two published candidates for the constant-parameter uncertainty
    factor; the grid-quadrature oracle in the test suite adjudicates."""

    generic_factor: float       # (omega_bar^2 + g^2)/omega_bar^2
    alternative_factor: float   # (omega_bar^2 - g^2)/omega_bar^2
    adopted: str = "generic"


def underdamped_uncertainty_factors(s):
    """Both closed-form factors multiplying hbar^2 (n+1/2)^2 in the
    constant-parameter uncertainty product.

    The generic formula evaluated on the closed-form amplitude yields
    (omega_bar^2 + g^2)/omega_bar^2 = omega^2/omega_bar^2; an alternative
    published closed form has (omega_bar^2 - g^2)/omega_bar^2 instead.
    These disagree for g != 0 and the alternative dips below the
    Heisenberg floor; uncertainty_product adopts the generic value and the
    quadrature oracle must confirm it.
    """
    p = underdamped_params(s)
    wb2 = p.omega_bar ** 2
    return UncertaintyComparison(
        generic_factor=(wb2 + p.g ** 2) / wb2,
        alternative_factor=(wb2 - p.g ** 2) / wb2)
