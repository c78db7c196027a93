"""Linear and quadratic invariants, the conserved normalization Omega,
the envelope first integral and its Ermakov-type residual.

An InvariantFrame collects everything needed to evaluate the invariants at
one instant.  Fields may be scalars or equally-shaped arrays; every
operation here is elementwise, so a "vector frame" sampled on a time grid
evaluates whole drift series in one call.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DegenerateSolutions, GammaVanishes


@dataclass(frozen=True)
class InvariantFrame:
    """Snapshot of the auxiliary functions at time t.

    ``F`` is the force functional of beta, ``F_sigma`` the force functional
    of sigma, ``phase`` the continuously unwrapped argument of beta and
    ``phase_integral`` the accumulated Gaussian phase
    int e^{-G} (F/beta)^2; the last two feed the wavefunction construction.
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


def frame_from_beta(s, beta_sol, t):
    """Build a frame (or vector frame) from a dense amplitude solution.

    The envelope group is derived algebraically: gamma = 2 beta* beta,
    sigma = -(beta* F + F* beta), F_sigma = -|F|^2.
    """
    v = beta_sol(t)
    b = v[..., 0] + 1j * v[..., 1]
    bd = v[..., 2] + 1j * v[..., 3]
    Fc = v[..., 4] + 1j * v[..., 5]
    P = v[..., 6] + 1j * v[..., 7]
    phase = v[..., 8]
    t_arr = np.asarray(t, dtype=float)
    w = s.omega(t_arr)
    g = s.damping(t_arr)
    F = s.force(t_arr)
    G = s.G(t_arr)
    expG = np.exp(G)
    gamma = 2.0 * (b.conjugate() * b).real
    dgamma = 4.0 * (b.conjugate() * bd).real
    ddgamma = 4.0 * (bd.conjugate() * bd).real - 2.0 * g * dgamma \
        - 2.0 * w * w * gamma
    sigma = -2.0 * (b.conjugate() * Fc).real
    dsigma = -2.0 * (bd.conjugate() * Fc).real - gamma * expG * F
    F_sigma = -(Fc.conjugate() * Fc).real
    if np.asarray(t).ndim == 0:
        conv = float
    else:
        conv = lambda x: x  # noqa: E731
    return InvariantFrame(
        t=t, m=s.m, hbar=s.hbar,
        omega=conv(w), damping=conv(g), force=conv(F),
        G=conv(G), expG=conv(expG),
        beta=b if np.ndim(b) else complex(b),
        dbeta=bd if np.ndim(bd) else complex(bd),
        F=Fc if np.ndim(Fc) else complex(Fc),
        gamma=conv(gamma), dgamma=conv(dgamma), ddgamma=conv(ddgamma),
        sigma=conv(sigma), dsigma=conv(dsigma), F_sigma=conv(F_sigma),
        phase=conv(phase),
        phase_integral=P if np.ndim(P) else complex(P))


def eval_linear_invariant(fr, q, p):
    """I = beta p - m e^G beta' q - F(beta, t)."""
    return fr.beta * p - fr.m * fr.expG * fr.dbeta * q - fr.F


def eval_conjugate_invariant(fr, q, p):
    """The conjugate invariant; exactly conj(eval_linear_invariant)."""
    return np.conjugate(eval_linear_invariant(fr, q, p))


def omega_of_frame(fr):
    """Omega = i m hbar e^G (beta'* beta - beta* beta') evaluated on the
    frame; real by construction."""
    w = np.conjugate(fr.dbeta) * fr.beta - np.conjugate(fr.beta) * fr.dbeta
    return (1j * fr.m * fr.hbar * fr.expG * w).real


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
    ts = np.linspace(s.t0, s.t1, samples)
    v = beta_sol(ts)
    b = v[:, 0] + 1j * v[:, 1]
    bd = v[:, 2] + 1j * v[:, 3]
    w = bd.conjugate() * b - b.conjugate() * bd
    scale = np.abs(b) * np.abs(bd)
    if np.any(np.abs(w) < 1e-12 * scale):
        raise DegenerateSolutions(
            "Wronskian of (beta, beta*) vanishes: the two solutions are "
            "linearly dependent and no ladder normalization exists")
    expG = np.exp(s.G(ts))
    om_c = 1j * s.m * s.hbar * expG * w
    om = om_c.real
    mean = float(np.mean(om))
    drift = float(np.max(np.abs(om - mean)) / max(abs(mean), 1e-300))
    return OmegaReport(ts=ts, omega=om,
                       imag_residue=float(np.max(np.abs(om_c.imag))),
                       wronskian=w, mean=mean, max_rel_drift=drift)


def eval_quadratic_invariant(fr, q, p):
    """Quadratic invariant in envelope form, classical realization
    ({q,p} -> 2qp):

    I_Q = (1/2)(m e^G)^2 (gamma''/2 + g gamma' + omega^2 gamma) q^2
          - (m e^G / 2) gamma' q p + (gamma/2) p^2
          - m e^G (sigma' + gamma e^G F) q + sigma p - F(sigma, t).
    """
    meG = fr.m * fr.expG
    cq2 = 0.5 * meG ** 2 * (0.5 * fr.ddgamma + fr.damping * fr.dgamma
                            + fr.omega ** 2 * fr.gamma)
    return (cq2 * q * q
            - 0.5 * meG * fr.dgamma * q * p
            + 0.5 * fr.gamma * p * p
            - meG * (fr.dsigma + fr.gamma * fr.expG * fr.force) * q
            + fr.sigma * p
            - fr.F_sigma)


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

    c3 = gamma, c2 = -(m e^G/2) gamma', c5 = sigma,
    c4 = -m e^G (sigma' + gamma e^G F),
    c1 = (m e^G)^2 (gamma''/2 + g gamma' + omega^2 gamma).
    """
    ts = np.linspace(s.t0, s.t1, samples)
    c = c_sol(ts)
    ga = gamma_sol(ts)
    si = sigma_sol(ts)
    g = s.damping(ts)
    w = s.omega(ts)
    F = s.force(ts)
    eG = np.exp(s.G(ts))
    meG = s.m * eG
    gamma, dgamma, ddgamma = ga[:, 0], ga[:, 1], ga[:, 2]
    sigma, dsigma = si[:, 0], si[:, 1]
    t1 = meG ** 2 * (0.5 * ddgamma + g * dgamma + w * w * gamma)
    t2 = -0.5 * meG * dgamma
    t4 = -meG * (dsigma + gamma * eG * F)

    def dev(col, ref):
        return float(np.max(np.abs(col - ref)) / (1.0 + np.max(np.abs(ref))))

    return CReductionReport(ts=ts, dev_c1=dev(c[:, 0], t1),
                            dev_c2=dev(c[:, 1], t2), dev_c3=dev(c[:, 2], gamma),
                            dev_c4=dev(c[:, 3], t4), dev_c5=dev(c[:, 4], sigma))


def drift(series, reference=None):
    """Max |x - x_ref| / (1 + |x_ref|); reference defaults to the first
    sample.  Works for real and complex series."""
    arr = np.asarray(series)
    ref = arr.flat[0] if reference is None else reference
    return float(np.max(np.abs(arr - ref)) / (1.0 + abs(ref)))


def verification_series(s, beta_sol, trajectory, samples=512):
    """Everything cmd-verify reports: per-sample I, I_Q, Omega, C and the
    Ermakov residual along one trajectory, plus summary drifts."""
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
        "ts": ts, "I": lin, "IQ": quad, "Omega": om, "C": C,
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
