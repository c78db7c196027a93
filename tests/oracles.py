"""Independent references the tests compare bckosc with.

They live here, outside the package, so that they share no code with the
paths they check:

- ``hermite``, the unscaled textbook Hermite polynomial;
- ``apply_ladder`` and ``apply_IQ``, the ladder operators and the
  quadratic invariant as finite-difference operators on a grid, each with
  its own Omega and coefficients from the frame's fields, apart from
  ``bckosc.quantum`` and ``bckosc.invariants``, and ``inner``, the
  trapezoid inner product they are measured with;
- ``beta_moments``, psi_n's expectations and variances from beta, beta'
  and F, apart from psi_n's packet;
- ``schrodinger_residual``, the Schrodinger equation with its own
  Hamiltonian and stencil, apart from the propagator's Hamiltonian;
- ``underdamped_closed_forms`` and ``underdamped_uncertainty_factors``, the
  closed forms of the constant-parameter underdamped oscillator, apart from
  the ODE pipeline and ``bckosc.invariants``;
- ``coefficient_solution``, the five coefficient ODEs of the quadratic
  invariant with their own (K, V, D), solved by scipy's DOP853, apart from
  ``bckosc.ode`` and ``Scenario.hamiltonian_coefficients``.

From bckosc they take only data types, constants and errors.  The grid
operators take and return arrays of a state's values.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.integrate import solve_ivp

from bckosc import InvariantFrame
from bckosc.core import KIND_EXP, KIND_POLY, KIND_SIN
from bckosc.errors import BckoscError, DegreeTooLarge, ValidationError
from bckosc.quantum import MAX_DEGREE


class InsufficientSlices(BckoscError):
    """A time series needs at least three uniformly spaced slices."""


class NotUnderdamped(BckoscError):
    """Closed forms requested for parameters with g^2 >= omega^2."""


class UnsupportedForceShape(BckoscError):
    """Closed forms requested for a drive outside the supported family."""


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


def _d1(values, dq):
    """4th-order central first derivative with Dirichlet padding."""
    p = np.pad(values, 2)
    return (p[:-4] - 8.0 * p[1:-3] + 8.0 * p[3:-1] - p[4:]) / (12.0 * dq)


def _d2(values, dq):
    """4th-order central second derivative with Dirichlet padding."""
    p = np.pad(values, 2)
    return (-p[:-4] + 16.0 * p[1:-3] - 30.0 * p[2:-2] + 16.0 * p[3:-1]
            - p[4:]) / (12.0 * dq * dq)


def inner(left, right, dq):
    """Trapezoid inner product <left|right> of two 1-d arrays at spacing
    dq."""
    prod = np.conjugate(left) * right
    return complex(dq * (prod.sum() - 0.5 * (prod[0] + prod[-1])))


def _omega(fr):
    """Omega = Re(i m hbar e^G W) with the Wronskian
    W = beta'* beta - beta* beta'."""
    w = np.conjugate(fr.dbeta) * fr.beta - np.conjugate(fr.beta) * fr.dbeta
    return (1j * fr.m * fr.hbar * fr.expG * w).real


def apply_ladder(direction, values, qs, fr):
    """The lowering ("down") or raising ("up") operator of a scalar frame
    applied to a state's values on the uniform grid qs.

    Lowering is the linear invariant I = beta p - m e^G beta' q - F over
    sqrt(Omega), raising its adjoint, with p = -i hbar d/dq by the
    4th-order stencil (Lewis & Riesenfeld, J. Math. Phys. 10, 1458
    (1969)).  The outermost two grid cells see zero padding; leave them
    out of error metrics.
    """
    conj = {"down": False, "up": True}[direction]
    b, bd, Fc = (complex(v).conjugate() if conj else complex(v)
                 for v in (fr.beta, fr.dbeta, fr.F))
    dpsi = _d1(values, float(qs[1] - qs[0]))
    return (b * (-1j * fr.hbar) * dpsi - fr.m * fr.expG * bd * qs * values
            - Fc * values) / math.sqrt(_omega(fr))


def apply_IQ(values, qs, fr):
    """The quadratic invariant of a scalar frame applied to a state's
    values on the uniform grid qs.

    I_Q = c1 q^2/2 + c2 {q,p}/2 + c3 p^2/2 + c4 q + c5 p - F_sigma, with
    c1 = (m e^G)^2 (gamma''/2 + g gamma' + omega^2 gamma),
    c2 = -(m e^G/2) gamma', c3 = gamma, c4 = -m e^G (sigma' + gamma e^G F)
    and c5 = sigma from the frame's envelope group.  The symmetrized
    product {q,p} acts as -i hbar (q d/dq + d/dq q), and p^2 as -hbar^2
    times the 4th-order second-difference stencil.
    """
    meG = fr.m * fr.expG
    c1 = meG ** 2 * (0.5 * fr.ddgamma + fr.damping * fr.dgamma
                     + fr.omega ** 2 * fr.gamma)
    c2 = -0.5 * meG * fr.dgamma
    c4 = -meG * (fr.dsigma + fr.gamma * fr.expG * fr.force)
    dq = float(qs[1] - qs[0])
    dpsi = _d1(values, dq)
    anticomm = -1j * fr.hbar * (2.0 * qs * dpsi + values)
    return (0.5 * c1 * qs ** 2 * values
            + 0.5 * c2 * anticomm
            - 0.5 * fr.gamma * fr.hbar ** 2 * _d2(values, dq)
            + c4 * qs * values
            + fr.sigma * (-1j * fr.hbar) * dpsi
            - fr.F_sigma * values)


def beta_moments(n, fr):
    """(<q>, <p>, var_q, var_p) of psi_n on a scalar frame by the amplitude
    route, from beta, beta', F and e^G with the frame's own Omega, apart
    from the packet that ``bckosc.quantum.moments`` reads:

    <q> = -(2 hbar/Omega) Im(beta* F),
    <p> = -(2 m hbar e^G/Omega) Im(beta'* F),
    var_q = (hbar^2/Omega) beta* beta (2n + 1),
    var_p = (hbar^2 m^2 e^{2G}/Omega) beta'* beta' (2n + 1).
    """
    om = _omega(fr)
    b, bd, Fc = complex(fr.beta), complex(fr.dbeta), complex(fr.F)
    return (-(2.0 * fr.hbar / om) * (b.conjugate() * Fc).imag,
            -(2.0 * fr.m * fr.hbar * fr.expG / om) * (bd.conjugate() * Fc).imag,
            fr.hbar ** 2 / om * abs(b) ** 2 * (2 * n + 1),
            (fr.hbar * fr.m * fr.expG) ** 2 / om * abs(bd) ** 2 * (2 * n + 1))


def _l2_norm(values, dq):
    """Trapezoid L2 norm of a 1-d array at spacing dq."""
    squares = np.square(values.real) + np.square(values.imag)
    return math.sqrt(dq * (squares.sum() - 0.5 * (squares[0] + squares[-1])))


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
        denom = _l2_norm(w.values[sl], w.dq)
        worst = max(worst, _l2_norm(resid[sl], w.dq) / denom)
    return worst


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
    if tf.kind == KIND_POLY and not tf.breaks.size \
            and not np.any(tf.params[1:]):
        return float(tf.params[0])
    if tf.kind in (KIND_SIN, KIND_EXP) and tf.params[0] == 0.0:
        return 0.0
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
    elif s.force.kind == KIND_SIN and s.force.params[2] == 0.0:
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
    Heisenberg floor; quantum.moments adopts the generic value and the
    quadrature oracle must confirm it.
    """
    p = underdamped_params(s)
    wb2 = p.omega_bar ** 2
    return UncertaintyComparison(
        generic_factor=(wb2 + p.g ** 2) / wb2,
        alternative_factor=(wb2 - p.g ** 2) / wb2)


@cache
def coefficient_solution(s, c0):
    """scipy's dense DOP853 solution (rtol 1e-12, atol 1e-14) of the five
    coefficient ODEs of the quadratic invariant
    I_Q = c1 q^2/2 + c2 qp + c3 p^2/2 + c4 q + c5 p - F(sigma, t)
    from the tuple c(t0) = c0, cached per scenario and c0.

    dI_Q/dt = 0 along H = K p^2/2 + V q^2/2 - D q, with K = e^{-G}/m,
    V = m e^G omega^2 and D = e^G F, gives, term by term in q^2, qp, p^2,
    q and p (Lewis & Riesenfeld, J. Math. Phys. 10, 1458 (1969)):
    c1' = 2V c2, c2' = V c3 - K c1, c3' = -2K c2, c4' = V c5 - D c2 and
    c5' = -D c3 - K c4.  (K, V, D) are written out here, apart from the
    Hamiltonian route's ``Scenario.hamiltonian_coefficients``.
    """
    def rhs(t, c):
        eG = math.exp(s.G(t))
        K = 1.0 / (s.m * eG)
        V = s.m * eG * float(s.omega(t)) ** 2
        D = eG * float(s.force(t))
        c1, c2, c3, c4, c5 = c
        return [2.0 * V * c2, V * c3 - K * c1, -2.0 * K * c2,
                V * c5 - D * c2, -D * c3 - K * c4]

    out = solve_ivp(rhs, (s.t0, s.t1), c0, method="DOP853", rtol=1e-12,
                    atol=1e-14, dense_output=True)
    if not out.success:
        raise RuntimeError(f"coefficient oracle: {out.message}")
    return out.sol
