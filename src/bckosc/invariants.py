"""Linear and quadratic invariants, the conserved normalization Omega,
the envelope first integral and its Ermakov-type residual.

This module owns the quantities the paper derives from the amplitude beta:
the envelope group (``envelope_group``, ``envelope_ics``), the five
coefficients of I_Q (``iq_coefficients``) and Omega (``omega_of_frame``).
The other modules call these definitions rather than restate them; the
closed forms in ``quantum.underdamped_closed_forms`` stay independent on
purpose, as the oracle they are compared with.

An InvariantFrame collects everything needed to evaluate the invariants at
one instant.  Fields may be scalars or equally-shaped arrays; every
operation here is elementwise, so a "vector frame" sampled on a time grid
evaluates whole drift series in one call.
"""

from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateSolutions, GammaVanishes


@dataclass(frozen=True)
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

    def at(self, k):
        """The frame at sample k of a vector frame."""
        return replace(self, **{f.name: getattr(self, f.name)[k]
                                for f in fields(self)
                                if np.ndim(getattr(self, f.name))})


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


def eval_conjugate_invariant(fr, q, p):
    """The conjugate invariant; exactly conj(eval_linear_invariant)."""
    return np.conjugate(eval_linear_invariant(fr, q, p))


def _wronskian_omega(fr):
    """The Wronskian W = beta'* beta - beta* beta' and the complex
    i m hbar e^G W whose real part is Omega."""
    w = np.conjugate(fr.dbeta) * fr.beta - np.conjugate(fr.beta) * fr.dbeta
    return w, 1j * fr.m * fr.hbar * fr.expG * w


def omega_of_frame(fr):
    """Omega = i m hbar e^G (beta'* beta - beta* beta') evaluated on the
    frame; real by construction."""
    return _wronskian_omega(fr)[1].real


@dataclass(frozen=True)
class OmegaReport:
    """Sampled conserved normalization and its conservation quality."""

    ts: np.ndarray
    omega: np.ndarray       # real part of i m hbar e^G W per sample
    imag_residue: float     # max |Im| of the same product, reported not dropped
    wronskian: np.ndarray
    mean: float
    max_rel_drift: float


def compute_omega(s, beta_sol, samples=512):
    """The OmegaReport of ``samples`` evenly spaced frames of the scenario
    window."""
    ts = np.linspace(s.t0, s.t1, samples)
    return omega_report(frame_from_beta(s, beta_sol, ts))


def omega_report(fr):
    """The OmegaReport of a vector frame.  Raises DegenerateSolutions if
    the Wronskian vanishes at any sample."""
    w, om_c = _wronskian_omega(fr)
    if np.any(np.abs(w) < 1e-12 * (np.abs(fr.beta) * np.abs(fr.dbeta))):
        raise DegenerateSolutions(
            "Wronskian of (beta, beta*) vanishes: the two solutions are "
            "linearly dependent and no ladder normalization exists")
    om = om_c.real
    mean = float(np.mean(om))
    drift = float(np.max(np.abs(om - mean)) / max(abs(mean), 1e-300))
    return OmegaReport(ts=fr.t, omega=om,
                       imag_residue=float(np.max(np.abs(om_c.imag))),
                       wronskian=w, mean=mean, max_rel_drift=drift)


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


def first_integral_C(fr):
    """Conserved first integral of the envelope equation:

    C = e^{2G} (gamma gamma'' + 2 g gamma gamma' + 2 omega^2 gamma^2
                - gamma'^2 / 2).

    For the amplitude-derived envelope, C = 2 Omega^2 / (m hbar)^2.
    """
    if np.any(np.asarray(fr.gamma) <= 1e-12):
        raise GammaVanishes("gamma <= 0: envelope first integral undefined")
    return fr.expG ** 2 * (fr.gamma * fr.ddgamma
                           + 2.0 * fr.damping * fr.gamma * fr.dgamma
                           + 2.0 * fr.omega ** 2 * fr.gamma ** 2
                           - 0.5 * fr.dgamma ** 2)


def ermakov_residual(fr, C):
    """Residual of r'' + 2g r' + omega^2 r = e^{-2G} C / (2 r^3) for
    r = sqrt(gamma), with r'' formed from the frame's gamma group."""
    if np.any(np.asarray(fr.gamma) <= 1e-12):
        raise GammaVanishes("gamma <= 0: Ermakov residual undefined")
    r = np.sqrt(fr.gamma)
    dr = 0.5 * fr.dgamma / r
    ddr = (fr.ddgamma - 0.5 * fr.dgamma ** 2 / fr.gamma) / (2.0 * r)
    return (ddr + 2.0 * fr.damping * dr + fr.omega ** 2 * r
            - np.exp(-2.0 * fr.G) * C / (2.0 * r ** 3))


@dataclass(frozen=True)
class CReductionReport:
    """Max deviations of the five coefficient relations on a sample grid.

    Each deviation is scaled by (1 + sup |reference|) for its relation, so
    coefficients that grow exponentially large are compared in relative
    terms while order-one coefficients keep their absolute scale.
    """

    ts: np.ndarray
    dev_c1: float
    dev_c2: float
    dev_c3: float
    dev_c4: float
    dev_c5: float

    @property
    def max_deviation(self):
        return max(self.dev_c1, self.dev_c2, self.dev_c3,
                   self.dev_c4, self.dev_c5)


def verify_c_reduction(s, c_sol, gamma_sol, sigma_sol, samples=512):
    """Check the reduction of the five coefficient ODEs onto (gamma, sigma):
    each c_k against ``iq_coefficients`` of the envelope solutions."""
    ts = np.linspace(s.t0, s.t1, samples)
    c = c_sol(ts)
    ga = gamma_sol(ts)
    si = sigma_sol(ts)
    ref = iq_coefficients(SimpleNamespace(
        m=s.m, expG=np.exp(s.G(ts)), omega=s.omega(ts), damping=s.damping(ts),
        force=s.force(ts), gamma=ga[:, 0], dgamma=ga[:, 1], ddgamma=ga[:, 2],
        sigma=si[:, 0], dsigma=si[:, 1]))

    def dev(k):
        return float(np.max(np.abs(c[:, k] - ref[k]))
                     / (1.0 + np.max(np.abs(ref[k]))))

    return CReductionReport(ts, *(dev(k) for k in range(5)))


def drift(series, reference=None):
    """Max |x - x_ref| / (1 + |x_ref|); reference defaults to the first
    sample.  Works for real and complex series."""
    arr = np.asarray(series)
    ref = arr.flat[0] if reference is None else reference
    return float(np.max(np.abs(arr - ref)) / (1.0 + abs(ref)))


def verification_series(s, beta_sol, trajectory, samples=512):
    """Everything cmd-verify reports: per-sample I, I_Q, Omega, C and the
    Ermakov residual along one trajectory, plus summary drifts and the
    vector frame they were evaluated on."""
    ts = np.linspace(s.t0, s.t1, samples)
    fr = frame_from_beta(s, beta_sol, ts)
    q = trajectory.q(ts)
    p = trajectory.p(ts)
    lin = eval_linear_invariant(fr, q, p)
    quad = eval_quadratic_invariant(fr, q, p)
    om = omega_of_frame(fr)
    C = first_integral_C(fr)
    erm = ermakov_residual(fr, float(np.mean(C)))
    return {
        "ts": ts, "frame": fr, "I": lin, "IQ": quad, "Omega": om, "C": C,
        "ermakov": erm,
        "drift_I": drift(lin),
        "drift_IQ": drift(quad),
        "drift_Omega": drift(om, float(np.mean(om))),
        "drift_C": drift(C, float(np.mean(C))),
        "max_ermakov": float(np.max(np.abs(erm))),
    }


def write_verification_report(path, series):
    """CSV report: t, re_I, im_I, IQ, Omega, C, ermakov_residual plus a
    summary footer."""
    with open(path, "w", newline="\n") as fh:
        fh.write("t,re_I,im_I,IQ,Omega,C,ermakov_residual\n")
        for k in range(series["ts"].shape[0]):
            vals = (series["ts"][k], series["I"][k].real,
                    series["I"][k].imag, series["IQ"][k],
                    series["Omega"][k], series["C"][k],
                    series["ermakov"][k])
            fh.write(",".join(f"{v:.17g}" for v in vals) + "\n")
        fh.write(f"# max_drift_I={series['drift_I']:.17g}, "
                 f"max_drift_IQ={series['drift_IQ']:.17g}, "
                 f"omega_drift={series['drift_Omega']:.17g}\n")
