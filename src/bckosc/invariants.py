"""Linear and quadratic invariants, the conserved normalization Omega,
the envelope first integral and its Ermakov-type residual.

This module owns the quantities the paper derives from the amplitude beta:
the envelope group (``envelope_group``, ``envelope_ics``), the five
coefficients of I_Q (``iq_coefficients``), Omega (``omega_of_frame``) and
the packet of psi_n (``packet_of_frame``).  The other modules call these
definitions rather than restate them.  The references the tests compare
them with, the constant-parameter closed forms, the five coefficient ODEs
and the ladder and I_Q operators, restate them on purpose, outside the
package, in ``tests/oracles.py``.

An InvariantFrame collects everything needed to evaluate the invariants at
one instant.  Fields may be scalars or equally-shaped arrays; every
operation here is elementwise, so a "vector frame" sampled on a time grid
evaluates whole drift series in one call.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import write_csv
from .errors import DegenerateSolutions, GammaVanishes, OmegaNotPositive


@dataclass(frozen=True, eq=False)
class InvariantFrame:
    """Snapshot of the auxiliary functions at time t.

    ``F`` is the force functional of beta, ``F_sigma`` the force functional
    of sigma, ``phase`` the continuously unwrapped argument of beta and
    ``phase_integral`` the accumulated Gaussian phase
    int e^{-G} (F/beta)^2; the last two feed the wavefunction construction.
    A scalar frame holds Python or numpy scalars.
    """

    t: object
    m: float
    hbar: float
    omega: object
    damping: object
    force: object
    G: object
    expG: object
    beta: object
    dbeta: object
    F: object
    gamma: object
    dgamma: object
    ddgamma: object
    sigma: object
    dsigma: object
    F_sigma: object
    phase: object = 0.0
    phase_integral: object = 0.0

    @cached_property
    def packet(self):
        """``packet_of_frame`` of the frame, formed once."""
        return packet_of_frame(self)


def envelope_group(b, bd, Fc, omega, damping, expG, force):
    """The envelope group of the amplitude, elementwise:

    gamma = 2 beta* beta with gamma' and gamma'' (the latter through the
    amplitude equation), sigma = -(beta* F + F* beta) with sigma', and
    F_sigma = -|F|^2, from beta, beta' and the force functional F.
    """
    gamma = 2.0 * (b.conjugate() * b).real
    dgamma = 4.0 * (b.conjugate() * bd).real
    ddgamma = 4.0 * (bd.conjugate() * bd).real - 2.0 * damping * dgamma \
        - 2.0 * omega * omega * gamma
    sigma = -2.0 * (b.conjugate() * Fc).real
    dsigma = -2.0 * (bd.conjugate() * Fc).real - gamma * expG * force
    F_sigma = -(Fc.conjugate() * Fc).real
    return gamma, dgamma, ddgamma, sigma, dsigma, F_sigma


def envelope_ics(s):
    """((gamma, gamma', gamma''), (sigma, sigma')) at t0 for the scenario's
    amplitude ICs, where F(beta, t0) = 0 and e^{G(t0)} = 1."""
    b0, db0 = s.resolved_beta0()
    group = envelope_group(b0, db0, 0j, s.omega(s.t0), s.damping(s.t0), 1.0,
                           s.force(s.t0))
    return group[:3], group[3:5]


def frame_from_beta(s, beta_sol, t):
    """Build a frame (or vector frame) from a dense amplitude solution,
    with the envelope group derived algebraically by ``envelope_group``."""
    re_b, im_b, re_bd, im_bd, re_F, im_F, re_P, im_P, phase = beta_sol(t).T
    b = re_b + 1j * im_b
    bd = re_bd + 1j * im_bd
    Fc = re_F + 1j * im_F
    t_arr = np.asarray(t, dtype=float)
    w = s.omega(t_arr)
    g = s.damping(t_arr)
    F = s.force(t_arr)
    G = s.G(t_arr)
    expG = np.exp(G)
    gamma, dgamma, ddgamma, sigma, dsigma, F_sigma = envelope_group(
        b, bd, Fc, w, g, expG, F)
    return InvariantFrame(
        t=t, m=s.m, hbar=s.hbar, omega=w, damping=g, force=F, G=G, expG=expG,
        beta=b, dbeta=bd, F=Fc, gamma=gamma, dgamma=dgamma, ddgamma=ddgamma,
        sigma=sigma, dsigma=dsigma, F_sigma=F_sigma, phase=phase,
        phase_integral=re_P + 1j * im_P)


def eval_linear_invariant(fr, q, p):
    """I = beta p - m e^G beta' q - F(beta, t)."""
    return fr.beta * p - fr.m * fr.expG * fr.dbeta * q - fr.F


def _wronskian_omega(fr):
    """The Wronskian W = beta'* beta - beta* beta' and Omega, the real part
    of i m hbar e^G W, which may not be finite."""
    w = np.conjugate(fr.dbeta) * fr.beta - np.conjugate(fr.beta) * fr.dbeta
    with np.errstate(over="ignore", invalid="ignore"):
        om = (1j * fr.m * fr.hbar * fr.expG * w).real
    return w, om


def omega_of_frame(fr):
    """Omega = i m hbar e^G (beta'* beta - beta* beta') evaluated on the
    frame; real by construction, and not checked (``finite_omega``)."""
    return _wronskian_omega(fr)[1]


def finite_omega(om):
    """Raise OmegaNotPositive unless every sample of ``om`` is finite."""
    if not np.all(np.isfinite(om)):
        raise OmegaNotPositive("Omega = i m hbar e^G W is not finite")


def packet_of_frame(fr):
    """The packet of the eigenstates psi_n of I_Q at each sample of the
    frame: (Omega, a, q0, chirp, lin, Theta, phi) with phi the unwrapped
    argument of beta, a = Omega/(2 hbar^2 beta* beta), q0 = -(2 hbar/Omega)
    Im(beta* F), chirp = m e^G Re(beta'/beta), lin = 2 Re(F/beta) and
    Theta = -phi/2 - Re(P)/(2 m hbar).  Where Omega is not finite and
    positive the entries mean nothing, and are formed without a warning."""
    om = omega_of_frame(fr)
    b = fr.beta
    with np.errstate(divide="ignore", invalid="ignore"):
        return (om, om / (2.0 * fr.hbar ** 2 * (b.conjugate() * b).real),
                -(2.0 * fr.hbar / om) * (b.conjugate() * fr.F).imag,
                fr.m * fr.expG * (fr.dbeta / b).real, 2.0 * (fr.F / b).real,
                -0.5 * fr.phase
                - np.real(fr.phase_integral) / (2.0 * fr.m * fr.hbar),
                fr.phase)


@dataclass(frozen=True, eq=False)
class OmegaReport:
    """Sampled conserved normalization and its conservation quality."""

    ts: np.ndarray
    omega: np.ndarray       # real part of i m hbar e^G W per sample
    wronskian: np.ndarray
    mean: float
    max_rel_drift: float


def compute_omega(s, beta_sol, samples=512):
    """The OmegaReport of ``samples`` evenly spaced frames of the scenario
    window."""
    ts = np.linspace(s.t0, s.t1, samples)
    return omega_report(frame_from_beta(s, beta_sol, ts))


def omega_report(fr):
    """The OmegaReport of a vector frame.  Raises OmegaNotPositive if
    Omega is not finite, DegenerateSolutions if the Wronskian vanishes."""
    w, om = _wronskian_omega(fr)
    finite_omega(om)
    if np.any(np.abs(w) < 1e-12 * (np.abs(fr.beta) * np.abs(fr.dbeta))):
        raise DegenerateSolutions(
            "Wronskian of (beta, beta*) vanishes: the two solutions are "
            "linearly dependent and no ladder normalization exists")
    mean = float(np.mean(om))
    drift = float(np.max(np.abs(om - mean)) / max(abs(mean), 1e-300))
    return OmegaReport(ts=fr.t, omega=om, wronskian=w, mean=mean,
                       max_rel_drift=drift)


def iq_coefficients(fr):
    """The five coefficients of the quadratic invariant,

    I_Q = c1 q^2/2 + c2 qp + c3 p^2/2 + c4 q + c5 p - F(sigma, t)

    in its classical realization ({q,p} -> 2qp), from the envelope group:

    c1 = (m e^G)^2 (gamma''/2 + g gamma' + omega^2 gamma),
    c2 = -(m e^G/2) gamma', c3 = gamma,
    c4 = -m e^G (sigma' + gamma e^G F), c5 = sigma.

    ``fr`` is a frame, or any object with its fields m, expG, omega,
    damping, force, gamma, dgamma, ddgamma, sigma and dsigma.
    """
    meG = fr.m * fr.expG
    return (meG ** 2 * (0.5 * fr.ddgamma + fr.damping * fr.dgamma
                        + fr.omega ** 2 * fr.gamma),
            -0.5 * meG * fr.dgamma,
            fr.gamma,
            -meG * (fr.dsigma + fr.gamma * fr.expG * fr.force),
            fr.sigma)


def eval_quadratic_invariant(fr, q, p):
    """Quadratic invariant in envelope form (see ``iq_coefficients``)."""
    c1, c2, c3, c4, c5 = iq_coefficients(fr)
    return (0.5 * c1 * q * q + c2 * q * p + 0.5 * c3 * p * p + c4 * q
            + c5 * p - fr.F_sigma)


def _require_gamma(fr, what):
    """Raise GammaVanishes where e^G gamma, which keeps its scale as
    damping shrinks gamma like e^{-G}, is <= 1e-12."""
    if np.any(fr.expG * fr.gamma <= 1e-12):
        raise GammaVanishes(f"e^G gamma <= 1e-12: {what} undefined")


def first_integral_C(fr):
    """Conserved first integral of the envelope equation:

    C = e^{2G} (gamma gamma'' + 2 g gamma gamma' + 2 omega^2 gamma^2
                - gamma'^2 / 2).

    For the amplitude-derived envelope, C = 2 Omega^2 / (m hbar)^2.
    """
    _require_gamma(fr, "envelope first integral")
    return fr.expG ** 2 * (fr.gamma * fr.ddgamma
                           + 2.0 * fr.damping * fr.gamma * fr.dgamma
                           + 2.0 * fr.omega ** 2 * fr.gamma ** 2
                           - 0.5 * fr.dgamma ** 2)


def ermakov_residual(fr, C):
    """Residual of r'' + 2g r' + omega^2 r = e^{-2G} C / (2 r^3) for
    r = sqrt(gamma), with r'' formed from the frame's gamma group."""
    _require_gamma(fr, "Ermakov residual")
    r = np.sqrt(fr.gamma)
    dr = 0.5 * fr.dgamma / r
    ddr = (fr.ddgamma - 0.5 * fr.dgamma ** 2 / fr.gamma) / (2.0 * r)
    return (ddr + 2.0 * fr.damping * dr + fr.omega ** 2 * r
            - np.exp(-2.0 * fr.G) * C / (2.0 * r ** 3))


def drift(series, reference=None):
    """Max |x - x_ref| / (1 + |x_ref|); reference defaults to the first
    sample.  Works for real and complex series."""
    arr = np.asarray(series)
    ref = arr.flat[0] if reference is None else reference
    return float(np.max(np.abs(arr - ref)) / (1.0 + abs(ref)))


def verification_series(s, beta_sol, trajectory, samples=512):
    """Everything cmd-verify reports but the envelope ODEs: per-sample I,
    I_Q, C and the Ermakov residual along one trajectory, the OmegaReport
    of the same samples, summary drifts, C's deviation from
    2 Omega^2 / (m hbar)^2 and the vector frame they were evaluated on."""
    ts = np.linspace(s.t0, s.t1, samples)
    fr = frame_from_beta(s, beta_sol, ts)
    q, p = trajectory(ts).T
    lin = eval_linear_invariant(fr, q, p)
    quad = eval_quadratic_invariant(fr, q, p)
    C = first_integral_C(fr)
    erm = ermakov_residual(fr, float(np.mean(C)))
    om = omega_report(fr)
    return {
        "ts": ts, "frame": fr, "I": lin, "IQ": quad, "omega_report": om,
        "C": C, "ermakov": erm,
        "drift_I": drift(lin),
        "drift_IQ": drift(quad),
        "drift_C": drift(C, float(np.mean(C))),
        "C_vs_omega": float(np.max(np.abs(
            C - 2.0 * om.omega ** 2 / (s.m * s.hbar) ** 2))
            / (1.0 + np.max(np.abs(C)))),
        "max_ermakov": float(np.max(np.abs(erm))),
    }


def write_verification_report(path, series):
    """CSV report: t, re_I, im_I, IQ, Omega, C, ermakov_residual plus a
    summary footer."""
    om = series["omega_report"]
    write_csv(path, "t,re_I,im_I,IQ,Omega,C,ermakov_residual",
              [series["ts"], series["I"].real, series["I"].imag,
               series["IQ"], om.omega, series["C"], series["ermakov"]],
              footer={"max_drift_I": series["drift_I"],
                      "max_drift_IQ": series["drift_IQ"],
                      "omega_drift": om.max_rel_drift})
