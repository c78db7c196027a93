"""Integration of the amplitude, classical, envelope and coefficient systems.

Every system here is linear, y' = A(t) y, once a forcing term b(t) is
carried as one more column of A acting on a constant component 1.  For a
linear system one explicit Runge-Kutta step is a matrix: the stage
derivatives are K_s = M_s y_n and the step is y_{n+1} = R_n y_n, and the
dense-output and error-estimate combinations of the K_s are matrices times
y_n as well.  The method is Dormand and Prince's 8(5,3) pair DOP853
(Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10): 12 stages make
the 8th-order step, the 13th is the derivative at its end, three more give
the 7th-order continuous extension, which is stored in the power basis of
the step fraction theta.  The engine builds these matrices for every
step of a grid at once, chains the steps with matrix products and applies
the remaining matrices to the chained states.  Complex amplitudes are two
real columns of one chain, since A is real.

The grid is uniform between the knots of any tabulated time function.  Its
step count comes from the embedded error estimate: each step's error norm
e_n (DOP853's combination of its 5th- and 3rd-order estimates, which
scales as h^8) says that about (e_n / _TARGET)^(1/8) steps of a grid that
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

# ---------- Dormand-Prince 8(5,3) tableau (DOP853) ----------
# Hairer, Norsett & Wanner, Solving ODEs I, sections II.5 and II.10.  Stages
# 0-11 make the 8th-order step, stage 12 is the derivative at its end (FSAL),
# and stages 13-15 complete the 7th-order continuous extension.
_STAGES = 16
_STEP = 12
_DEGREE = 7
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778])
# the nonzero entries {column: a} of rows 1-15 of the Runge-Kutta matrix
_A_ROWS = (
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2,
     1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2,
     2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1,
     2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2,
     3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2,
     3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1,
     5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1,
     3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1,
     5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1,
     7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1,
     3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1,
     5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1,
     7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1,
     3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654,
     5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1,
     7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762,
     9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449,
     3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444,
     5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1,
     7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258,
     9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    # the step's weights b
    {0: 5.42937341165687622380535766363e-2,
     5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044,
     7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1,
     9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1,
     11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2,
     6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1,
     8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1,
     10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3,
     12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2,
     5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2,
     7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4,
     11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4,
     13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1,
     5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878,
     7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1,
     12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149,
     14: -9.15095847217987001081870187138})
# the 3rd-order estimator's weights are b minus these
_E3_SHIFT = {0: 0.244094488188976377952755905512,
             8: 0.733846688281611857341361741547,
             11: 0.220588235294117647058823529412e-1}
# the 5th-order error estimator's weights
_E5 = {0: 0.1312004499419488073250102996e-1,
       5: -0.1225156446376204440720569753e+1,
       6: -0.4957589496572501915214079952,
       7: 0.1664377182454986536961530415e+1,
       8: -0.3503288487499736816886487290,
       9: 0.3341791187130174790297318841,
       10: 0.8192320648511571246570742613e-1,
       11: -0.2235530786388629525884427845e-1}
# the four highest terms of the continuous extension's Hermite-like basis
_D_ROWS = (
    {0: -0.84289382761090128651353491142e+1,
     5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1,
     7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1,
     9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1,
     11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1,
     13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1,
     15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2,
     5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3,
     7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2,
     9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2,
     11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2,
     13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1,
     15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2,
     5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3,
     7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2,
     9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1,
     11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1,
     13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2,
     15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2,
     5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3,
     7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2,
     9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3,
     11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2,
     13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2,
     15: -0.14972683625798562581422125276e+3})


def _rows(rows, width, first=0):
    """The dense (first + len(rows), width) matrix of sparse rows."""
    out = np.zeros((first + len(rows), width))
    for i, row in enumerate(rows, start=first):
        out[i, list(row)] = list(row.values())
    return out


def _weights():
    """Rows of the stage combinations a step needs beyond the stages: the
    step's weights b, the continuous extension in the power basis (the
    coefficients of theta^1 .. theta^7) and the 5th- and 3rd-order error
    estimators."""
    b = _A[_STEP]
    e3 = b.copy()
    e3[list(_E3_SHIFT)] -= list(_E3_SHIFT.values())
    e0, e12 = np.eye(_STAGES)[[0, _STEP]]
    # the extension is y_n + theta (F0 + (1 - theta) (F1 + theta (F2 + ...
    # (1 - theta) (F5 + theta F6)))) with F0 the step's increment, F1 and F2
    # its Hermite corrections and F3-F6 the rows D
    ext = np.vstack([b, e0 - b, 2 * b - e0 - e12, _rows(_D_ROWS, _STAGES)])
    poly = np.zeros((_DEGREE + 1, _STAGES))  # power-basis coefficients
    for i, f in enumerate(ext[::-1]):
        poly[0] += f
        shifted = np.roll(poly, 1, axis=0)  # times theta; the top row is 0
        poly = shifted if i % 2 == 0 else poly - shifted
    return np.vstack([b, poly[1:], _rows([_E5], _STAGES), e3])


_A = _rows(_A_ROWS, _STAGES, first=1)
_W = _weights()
# stages 11 and 12 share the node c = 1, so A(t) is evaluated at the 15
# distinct nodes per step; _NODE_OF maps each stage to its node
_NODES, _NODE_OF = np.unique(_C, return_inverse=True)
# steps whose matrices are built together; bounds the working memory
_CHUNK = 256
# the finest grid tried; a solution that needs more steps is given up
MAX_STEPS = 1 << 20
# the error norm an equidistributing grid aims at, the extra steps a refined
# grid takes over the count the last one asked for, and the largest
# refinement from one grid to the next.  _TARGET = 0.5 would let the random
# document perfbench/scenarios.py --seed 12 doc_027 fail verify's I drift
# (1.3e-6 against its default bound 1e-6)
_TARGET = 0.1
_MARGIN = 1.2
_MAX_REFINE = 100.0


def _assemble(t, d, entries):
    """Coefficient matrices A(t) of shape t.shape + (d, d) from
    {(row, col): values}; the other entries are zero."""
    out = np.zeros(t.shape + (d, d))
    for (i, j), v in entries.items():
        out[..., i, j] = v
    return out


def _combine(w, x):
    """Stage combinations sum_s w[..., s] x[s] of a stack x (stages, ...),
    as one matrix product."""
    return (w @ x.reshape(x.shape[0], -1)).reshape(w.shape[:-1] + x.shape[1:])


def _sweep(ts, coef, y0, nout, rtol, atol, rider=None):
    """One DOP853 pass over the grid ``ts``.

    ``coef(t)`` gives A at an array of times and ``y0`` is the (d, k) block
    of initial columns.  ``rider``, if given, is (z0, fn): the riders'
    initial values and ``fn(t, Y)``, their derivatives from the stage times
    (16, steps) and stage values (16, steps, d, k), of shape (16, steps, r).
    The state block and the riders fill the columns of ``ys``
    (steps + 1, d*k + r) and ``qs`` (steps, d*k + r, 7); the first ``nout``
    columns are the solution's components, and only they enter the error
    norm, each scaled by atol + rtol * |value|.

    Returns (ys, qs, errn, bad): ``errn`` holds each step's error norm
    e5^2 / sqrt((e5^2 + 0.01 e3^2) nout), where e5 and e3 are the 2-norms
    of the scaled 5th- and 3rd-order estimates, and ``bad`` is the first
    step whose state or error is not finite, or None.  The pass stops at
    the chunk holding that step.
    """
    n = ts.shape[0] - 1
    d, k = y0.shape
    dk = d * k
    z0, fn = rider if rider is not None else ((), None)
    ys = np.empty((n + 1, dk + len(z0)))
    qs = np.empty((n, dk + len(z0), _DEGREE))
    errn = np.empty(n)
    ys[0] = np.concatenate((y0.ravel(), z0))
    eye = np.eye(d)
    for i0 in range(0, n, _CHUNK):
        i1 = min(i0 + _CHUNK, n)
        h = ts[i0 + 1:i1 + 1] - ts[i0:i1]
        hh = h[:, None, None]
        tst = np.minimum(ts[i0:i1, None] + h[:, None] * _NODES, ts[-1])
        amat = coef(tst)
        # stage maps S_s (stage value = S_s y_n) and stage derivatives M_s
        smaps = np.empty((_STAGES, i1 - i0, d, d))
        mats = np.empty_like(smaps)
        smaps[0] = eye
        for st in range(_STAGES):
            if st:
                smaps[st] = eye + hh * _combine(_A[st, :st], mats[:st])
            np.matmul(amat[:, _NODE_OF[st]], smaps[st], out=mats[st])
        # chain the step maps R_n = S_12 by a prefix product over the chunk
        chain = smaps[_STEP].copy()
        off = 1
        while off < i1 - i0:
            chain[off:] = chain[off:] @ chain[:-off]
            off *= 2
        ys[i0 + 1:i1 + 1, :dk] = (chain @ ys[i0, :dk].reshape(d, k)
                                   ).reshape(-1, dk)
        yn = ys[i0:i1, :dk].reshape(-1, d, k)
        # the dense-output coefficients, then the two error estimates
        out = (hh * _combine(_W[1:], mats) @ yn).reshape(-1, i1 - i0, dk)
        qs[i0:i1, :dk] = np.moveaxis(out[:_DEGREE], 0, -1)
        err = out[_DEGREE:]
        if fn is not None:
            f = h[:, None] * _combine(_W, fn(tst[:, _NODE_OF].T, smaps @ yn))
            ys[i0 + 1:i1 + 1, dk:] = ys[i0, dk:] + np.cumsum(f[0], axis=0)
            qs[i0:i1, dk:] = np.moveaxis(f[1:_DEGREE + 1], 0, -1)
            err = np.concatenate([err, f[_DEGREE + 1:]], axis=2)
        ya, yb = ys[i0:i1, :nout], ys[i0 + 1:i1 + 1, :nout]
        scale = atol + rtol * np.maximum(np.abs(ya), np.abs(yb))
        e5, e3 = np.sum((err[..., :nout] / scale) ** 2, axis=2)
        den = np.sqrt((e5 + 0.01 * e3) * nout)
        errn[i0:i1] = 0.0  # a step with no error at all has den = 0
        np.divide(e5, den, out=errn[i0:i1], where=den != 0)
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


def _horner(Q, th):
    """sum_j Q[..., j] th^j, with th broadcast over Q's middle axes."""
    th = th[..., None]
    acc = Q[..., -1]
    for j in range(Q.shape[-1] - 2, -1, -1):
        acc = acc * th + Q[..., j]
    return acc


class ODESolution:
    """Dense solution of one system over the scenario window.

    Calling the solution interpolates with the integrator's dense-output
    polynomial; at a grid time the stored state itself is returned.
    ``stats`` counts the work: ``naccept`` is the number of steps of the
    grid kept, ``nreject`` the number of steps of the coarser trial grids
    the error test rejected, and ``nfev`` the number of evaluations of the
    coefficient matrix A(t), fifteen per step of every grid tried.
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
        out = self.ys[idx] + _horner(self.qs[idx], th) * th[..., None]
        at_end = tq == self.ts[-1]
        if np.any(at_end):
            out[at_end] = self.ys[-1]
        if np.asarray(t).ndim == 0:
            return out[0]
        return out

    def derivative(self, t, order=1):
        """Time derivative of the dense interpolant (order 1 or 2)."""
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        tq, idx, th = self._locate(t)
        # qs[..., j] multiplies theta^(j + 1)
        power = np.arange(1, self.qs.shape[-1] + 1)
        Q = self.qs[idx] * power
        if order == 2:
            Q = Q[..., 1:] * power[:-1]
        h = (self.ts[idx + 1] - self.ts[idx])[..., None]
        out = _horner(Q, th) / h ** order
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
            nfev += _NODES.shape[0] * n
            done = n if bad is None else bad
            # the step count of a grid that equidistributes the error at
            # _TARGET, over the steps this grid got through
            need = (np.sum((errn[:done] / _TARGET) ** 0.125) if done
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
