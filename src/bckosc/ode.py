"""Integration of the amplitude, classical, envelope and coefficient systems.

Every system here is linear, y' = A(t) y, once a forcing term b(t) is
carried as one more column of A acting on a constant component 1.  For a
linear system one explicit Runge-Kutta step is a matrix: the stage
derivatives are K_s = M_s y_n and the step is y_{n+1} = R_n y_n, and the
Dormand-Prince 5(4) dense-output and error-estimate combinations of the K_s
are matrices times y_n as well.  The engine builds these matrices for every
step of a grid at once, chains the steps with matrix products and applies
the remaining matrices to the chained states.  Complex amplitudes are two
real columns of one chain, since A is real.

The grid is uniform between the knots of any tabulated time function.  Its
step count comes from the embedded error estimate: each step's scaled
error norm e_n says that about (e_n / 0.5)^(1/5) steps of a grid that
equidistributes the error would fall in it.  A trial grid at the maximum
step is solved first, and finer grids follow until a grid has at least as
many steps as that sum asks for.  A single worst step does not set the
count, so a component crossing zero, where its relative error norm
spikes, does not refine the whole window.

The Gaussian phase integral and the unwrapped phase of beta are not linear
in the state.  They ride along as quadratures of the amplitude system's
stage values with the method's own weights, which is what the Runge-Kutta
method does with them as extra states, so no separate pass is needed.
"""

from types import SimpleNamespace

import numpy as np

from .core import KIND_PPOLY
from .errors import OutOfDomain, StepSizeUnderflow
from .invariants import envelope_ics, iq_coefficients

BETA_NAMES = ("re_beta", "im_beta", "re_dbeta", "im_dbeta",
              "re_F", "im_F", "re_P", "im_P", "phase")
GAMMA_NAMES = ("gamma", "dgamma", "ddgamma")
SIGMA_NAMES = ("sigma", "dsigma")
C_NAMES = ("c1", "c2", "c3", "c4", "c5")

# ---------- Dormand-Prince 5(4) tableau ----------
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.zeros((7, 6))
_A[1, 0] = 1 / 5
_A[2, :2] = (3 / 40, 9 / 40)
_A[3, :3] = (44 / 45, -56 / 15, 32 / 9)
_A[4, :4] = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A[5, :5] = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_A[6, :6] = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_B = np.append(_A[6], 0.0)
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])
# quartic dense-output matrix (Shampine's continuous extension)
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])

# the last two stages share the node c = 1, so A(t) is evaluated at six
# times per step
_NODES = 6
# steps whose matrices are built together; bounds the working memory
_CHUNK = 256
# the finest grid tried; a solution that needs more steps is given up
MAX_STEPS = 1 << 20
# the error norm an equidistributing grid aims at, the extra steps a refined
# grid takes over the count the last one asked for, and the largest
# refinement from one grid to the next
_TARGET = 0.5
_MARGIN = 1.2
_MAX_REFINE = 100.0


def _assemble(t, d, entries):
    """Coefficient matrices A(t) of shape t.shape + (d, d) from
    {(row, col): values}; the other entries are zero."""
    out = np.zeros(t.shape + (d, d))
    for (i, j), v in entries.items():
        out[..., i, j] = v
    return out


def _sweep(ts, coef, y0, nout, rtol, atol, rider=None):
    """One Dormand-Prince pass over the grid ``ts``.

    ``coef(t)`` gives A at an array of times and ``y0`` is the (d, k) block
    of initial columns.  ``rider``, if given, is (z0, fn): the riders'
    initial values and ``fn(t, Y)``, their derivatives from the stage times
    (7, steps) and stage values (7, steps, d, k), of shape (7, steps, r).
    The state block and the riders fill the columns of ``ys``
    (steps + 1, d*k + r) and ``qs`` (steps, d*k + r, 4); the first ``nout``
    columns are the solution's components, and only they enter the error
    norm, each scaled by atol + rtol * |value|.

    Returns (ys, qs, errn, bad): ``errn`` holds each step's scaled error
    norm and ``bad`` is the first step whose state or error is not finite,
    or None.  The pass stops at the chunk holding that step.
    """
    n = ts.shape[0] - 1
    d, k = y0.shape
    dk = d * k
    z0, fn = rider if rider is not None else ((), None)
    ys = np.empty((n + 1, dk + len(z0)))
    qs = np.empty((n, dk + len(z0), 4))
    errn = np.empty(n)
    ys[0] = np.concatenate((y0.ravel(), z0))
    eye = np.eye(d)
    for i0 in range(0, n, _CHUNK):
        i1 = min(i0 + _CHUNK, n)
        h = ts[i0 + 1:i1 + 1] - ts[i0:i1]
        hh = h[:, None, None]
        tst = np.minimum(ts[i0:i1, None] + h[:, None] * _C[:_NODES], ts[-1])
        amat = coef(tst)
        # stage maps S_s (stage value = S_s y_n) and stage derivatives M_s
        smaps = np.empty((7, i1 - i0, d, d))
        mats = np.empty((7, i1 - i0, d, d))
        smaps[0] = eye
        for st in range(7):
            if st:
                smaps[st] = eye + hh * np.tensordot(_A[st, :st], mats[:st],
                                                    axes=1)
            np.matmul(amat[:, min(st, _NODES - 1)], smaps[st], out=mats[st])
        # chain the step maps R_n = S_6 by a prefix product over the chunk
        chain = smaps[6].copy()
        off = 1
        while off < i1 - i0:
            chain[off:] = chain[off:] @ chain[:-off]
            off *= 2
        ys[i0 + 1:i1 + 1, :dk] = (chain @ ys[i0, :dk].reshape(d, k)
                                   ).reshape(-1, dk)
        yn = ys[i0:i1, :dk].reshape(-1, d, k)
        dense = hh * np.tensordot(_P.T, mats, axes=1) @ yn
        qs[i0:i1, :dk] = np.moveaxis(dense, 0, -1).reshape(-1, dk, 4)
        err = (hh * np.tensordot(_E, mats, axes=1) @ yn).reshape(-1, dk)
        if fn is not None:
            f = fn(np.concatenate([tst, tst[:, -1:]], axis=1).T, smaps @ yn)
            ys[i0 + 1:i1 + 1, dk:] = ys[i0, dk:] + np.cumsum(
                h[:, None] * np.tensordot(_B, f, axes=1), axis=0)
            qs[i0:i1, dk:] = np.moveaxis(
                h[:, None] * np.tensordot(_P.T, f, axes=1), 0, -1)
            err = np.concatenate(
                [err, h[:, None] * np.tensordot(_E, f, axes=1)], axis=1)
        ya, yb = ys[i0:i1, :nout], ys[i0 + 1:i1 + 1, :nout]
        scale = atol + rtol * np.maximum(np.abs(ya), np.abs(yb))
        errn[i0:i1] = np.sqrt(np.mean((err[:, :nout] / scale) ** 2, axis=1))
        finite = np.isfinite(errn[i0:i1]) & np.isfinite(yb).all(axis=1)
        if not finite.all():
            return ys, qs, errn, i0 + int(np.argmin(finite))
    return ys, qs, errn, None


def _grid(bounds, h):
    """Uniform steps of at most h on each piece between the bounds."""
    parts = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        count = max(1, int(np.ceil((b - a) / h - 1e-9)))
        parts.append(np.linspace(a, b, count + 1)[:-1])
    parts.append(bounds[-1:])
    return np.concatenate(parts)


def _bounds(s):
    """The window's ends and the knots of its tabulated functions."""
    knots = [f.breaks for f in (s.omega, s.damping, s.force)
             if f.kind == KIND_PPOLY]
    inner = np.unique(np.concatenate(knots)) if knots else np.zeros(0)
    inner = inner[(inner > s.t0) & (inner < s.t1)]
    return np.concatenate(([s.t0], inner, [s.t1]))


class ODESolution:
    """Dense solution of one system over the scenario window.

    Calling the solution interpolates with the integrator's dense-output
    polynomial; at a grid time the stored state itself is returned.
    ``stats`` counts the work: ``naccept`` is the number of steps of the
    grid kept, ``nreject`` the number of steps of the coarser trial grids
    the error test rejected, and ``nfev`` the number of evaluations of the
    coefficient matrix A(t), six per step of every grid tried.
    """

    def __init__(self, ts, ys, qs, names, stats):
        self.ts = ts
        self.ys = ys
        self.qs = qs
        self.names = tuple(names)
        self.stats = dict(stats)

    @property
    def t0(self):
        return float(self.ts[0])

    @property
    def t1(self):
        return float(self.ts[-1])

    def _locate(self, t):
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        if tq.size and (tq.min() < self.t0 - 1e-12 or tq.max() > self.t1 + 1e-12):
            raise OutOfDomain(
                f"evaluation time outside [{self.t0}, {self.t1}]")
        idx = np.searchsorted(self.ts, tq, side="right") - 1
        idx = np.clip(idx, 0, self.ts.shape[0] - 2)
        th = (tq - self.ts[idx]) / (self.ts[idx + 1] - self.ts[idx])
        return tq, idx, th

    def __call__(self, t):
        tq, idx, th = self._locate(t)
        Q = self.qs[idx]
        acc = Q[..., 3]
        for j in (2, 1, 0):
            acc = acc * th[..., None] + Q[..., j]
        out = self.ys[idx] + acc * th[..., None]
        at_end = tq == self.ts[-1]
        if np.any(at_end):
            out[at_end] = self.ys[-1]
        if np.asarray(t).ndim == 0:
            return out[0]
        return out

    def derivative(self, t, order=1):
        """Time derivative of the dense interpolant (order 1 or 2)."""
        tq, idx, th = self._locate(t)
        Q = self.qs[idx]
        h = (self.ts[idx + 1] - self.ts[idx])[..., None]
        if order == 1:
            acc = 4.0 * Q[..., 3]
            for j, c in ((2, 3.0), (1, 2.0), (0, 1.0)):
                acc = acc * th[..., None] + c * Q[..., j]
            out = acc / h
        elif order == 2:
            acc = 12.0 * Q[..., 3]
            acc = acc * th[..., None] + 6.0 * Q[..., 2]
            acc = acc * th[..., None] + 2.0 * Q[..., 1]
            out = acc / h ** 2
        else:
            raise ValueError("order must be 1 or 2")
        if np.asarray(t).ndim == 0:
            return out[0]
        return out

    def component(self, name, t):
        i = self.names.index(name)
        vals = self(t)
        return vals[..., i]

    def subset(self, indices, names):
        """Selected components repackaged as a new solution."""
        sol = ODESolution(self.ts, self.ys[:, indices], self.qs[:, indices, :],
                          names, self.stats)
        return sol

    def to_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("t," + ",".join(self.names) + "\n")
            for k in range(self.ts.shape[0]):
                row = [f"{self.ts[k]:.17g}"]
                row += [f"{v:.17g}" for v in self.ys[k]]
                fh.write(",".join(row) + "\n")


class BetaSolution(ODESolution):
    """Amplitude solution with complex accessors and the augmented states."""

    def beta(self, t):
        v = self(t)
        return v[..., 0] + 1j * v[..., 1]

    def dbeta(self, t):
        v = self(t)
        return v[..., 2] + 1j * v[..., 3]

    def force_functional(self, t):
        v = self(t)
        return v[..., 4] + 1j * v[..., 5]

    def phase_integral(self, t):
        v = self(t)
        return v[..., 6] + 1j * v[..., 7]

    def phase(self, t):
        return self(t)[..., 8]


class Trajectory(ODESolution):
    """Classical phase-space trajectory."""

    def q(self, t):
        return self(t)[..., 0]

    def p(self, t):
        return self(t)[..., 1]


def _integrate(s, name, coef, y0, nout, names, cls=ODESolution, rider=None):
    """Solve one linear system (see _sweep) over the scenario window at
    the scenario's tolerances.

    ``name`` names the system in errors.  A solution that leaves the float
    range while the steps before it were fine enough, or that needs more
    than MAX_STEPS steps, raises StepSizeUnderflow.
    """
    y0 = np.asarray(y0, dtype=float)
    bounds = _bounds(s)
    h = s.step_max
    nreject = nfev = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            ts = _grid(bounds, h)
            n = ts.shape[0] - 1
            if n > MAX_STEPS:
                raise StepSizeUnderflow(
                    f"{name} system needs more than {MAX_STEPS} steps "
                    f"over [{s.t0}, {s.t1}]")
            ys, qs, errn, bad = _sweep(ts, coef, y0, nout, s.rtol, s.atol,
                                       rider)
            nfev += _NODES * n
            done = n if bad is None else bad
            # the step count of a grid that equidistributes the error at
            # _TARGET, over the steps this grid got through
            need = (np.sum((errn[:done] / _TARGET) ** 0.2) if done
                    else np.inf)
            if need <= done:
                if bad is None:
                    break
                # enough steps up to a state that is not finite: the
                # solution itself leaves the float range
                raise StepSizeUnderflow(
                    f"{name} system: solution not finite past "
                    f"t={ts[bad]:.17g}")
            nreject += n
            del ys, qs, errn
            h /= min(_MAX_REFINE, _MARGIN * need / done)
    stats = {"naccept": n, "nreject": nreject, "nfev": nfev}
    return cls(ts, ys[:, :nout], qs[:, :nout], names, stats)


def integrate_beta(s):
    """Integrate the amplitude equation beta'' + 2g beta' + omega^2 beta = 0
    together with the force functional, the Gaussian phase integral and the
    unwrapped phase of beta.  The force functional starts at zero at t0
    whether or not F(t0) vanishes."""
    b0, db0 = s.resolved_beta0()

    def coef(t):
        # (beta, beta', F_int)
        return _assemble(t, 3, {
            (0, 1): 1.0, (1, 0): -s.omega(t) ** 2, (1, 1): -2.0 * s.damping(t),
            (2, 0): np.exp(s.G(t)) * s.force(t)})

    def riders(t, stages):
        # P' = e^{-G} F_int^2 / beta^2, phi' = Im(beta' conj(beta)) / |beta|^2
        b = stages[..., 0, 0] + 1j * stages[..., 0, 1]
        db = stages[..., 1, 0] + 1j * stages[..., 1, 1]
        Fc = stages[..., 2, 0] + 1j * stages[..., 2, 1]
        pv = np.exp(-s.G(t)) * (Fc * Fc) / (b * b)
        dphi = (db * b.conjugate()).imag / (b.real ** 2 + b.imag ** 2)
        return np.stack((pv.real, pv.imag, dphi), axis=-1)

    y0 = [[b0.real, b0.imag], [db0.real, db0.imag], [0.0, 0.0]]
    z0 = [0.0, 0.0, float(np.angle(b0))]
    return _integrate(s, "amplitude", coef, y0, 9, BETA_NAMES, BetaSolution,
                      (z0, riders))


def integrate_classical(s, q0, p0):
    """Integrate Hamilton's equations q' = e^{-G} p/m,
    p' = e^G (F - m omega^2 q)."""
    def coef(t):
        G = s.G(t)
        eG = np.exp(G)
        return _assemble(t, 3, {
            (0, 1): np.exp(-G) / s.m, (1, 0): -eG * s.m * s.omega(t) ** 2,
            (1, 2): eG * s.force(t)})

    return _integrate(s, "classical", coef, [[q0], [p0], [1.0]], 2,
                      ("q", "p"), Trajectory)


def gamma_ics_from_beta(s):
    """Envelope ICs matching gamma = 2 beta* beta for the scenario's
    amplitude ICs."""
    return envelope_ics(s)[0]


def integrate_gamma(s, gamma0, dgamma0, ddgamma0):
    """Integrate the third-order envelope equation
    gamma''' + 6g gamma'' + 2(g' + 4g^2 + 2 omega^2) gamma'
    + 2((omega^2)' + 4 omega^2 g) gamma = 0."""
    wd, gd = s.omega.derivative(), s.damping.derivative()

    def coef(t):
        w, g = s.omega(t), s.damping(t)
        return _assemble(t, 3, {
            (0, 1): 1.0, (1, 2): 1.0,
            (2, 0): -2.0 * (2.0 * w * wd(t) + 4.0 * w * w * g),
            (2, 1): -2.0 * (gd(t) + 4.0 * g * g + 2.0 * w * w),
            (2, 2): -6.0 * g})

    return _integrate(s, "envelope", coef, [[gamma0], [dgamma0], [ddgamma0]],
                      3, GAMMA_NAMES)


def integrate_sigma(s, gamma_sol, sigma0=0.0, dsigma0=0.0):
    """Integrate the driven envelope companion
    sigma'' + 2g sigma' + omega^2 sigma =
    -(3/2) e^G F gamma' - e^G (F' + 4 g F) gamma,
    with gamma taken from a dense envelope solution."""
    dF = s.force.derivative()

    def coef(t):
        g, F = s.damping(t), s.force(t)
        eG = np.exp(s.G(t))
        ga = gamma_sol(t)
        drive = (-1.5 * eG * F * ga[..., 1]
                 - eG * (dF(t) + 4.0 * g * F) * ga[..., 0])
        return _assemble(t, 3, {
            (0, 1): 1.0, (1, 0): -s.omega(t) ** 2, (1, 1): -2.0 * g,
            (1, 2): drive})

    return _integrate(s, "companion", coef, [[sigma0], [dsigma0], [1.0]], 2,
                      SIGMA_NAMES)


def c_ics_from_gamma_sigma(s, gamma_ics, sigma_ics):
    """Coefficient ICs that reduce the five-ODE system to (gamma, sigma)."""
    (gamma, dgamma, ddgamma), (sigma, dsigma) = gamma_ics, sigma_ics
    # e^{G(t0)} = 1 by the gauge choice
    return np.array(iq_coefficients(SimpleNamespace(
        m=s.m, expG=1.0, omega=s.omega(s.t0), damping=s.damping(s.t0),
        force=s.force(s.t0), gamma=gamma, dgamma=dgamma, ddgamma=ddgamma,
        sigma=sigma, dsigma=dsigma)))


def integrate_c_system(s, c0):
    """Integrate the five first-order coefficient ODEs of the quadratic
    invariant."""
    c0 = np.asarray(c0, dtype=float)
    if c0.shape != (5,):
        raise ValueError("c0 must have five components")

    def coef(t):
        G = s.G(t)
        eG = np.exp(G)
        kin = np.exp(-G) / s.m
        pot = eG * s.m * s.omega(t) ** 2
        drive = eG * s.force(t)
        return _assemble(t, 5, {
            (0, 1): 2.0 * pot, (1, 0): -kin, (1, 2): pot, (2, 1): -2.0 * kin,
            (3, 1): -drive, (3, 4): pot, (4, 2): -drive, (4, 3): -kin})

    return _integrate(s, "coefficient", coef, c0[:, None], 5, C_NAMES)


def accumulate_F(s, beta_sol):
    """The force functional F(beta, t) = int_{t0}^t e^G beta F dtau as a
    dense solution.  It is carried as an augmented state of the amplitude
    system, so this is a view of the corresponding components."""
    return beta_sol.subset([4, 5], ("re_F", "im_F"))
