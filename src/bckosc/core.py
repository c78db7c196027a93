"""Scenario model: parameter time functions, validation, parsing.

A scenario bundles the oscillator parameters m, omega(t), g(t), F(t), the
integration window, amplitude initial conditions, the spatial grid and the
integrator tolerances.  Time functions come in five variants (constant,
linear, sinusoid, exponential, tabulated) and know their own derivatives
and antiderivatives in closed form, so the damping integral
G(t) = 2 * int_{t0}^t g is exact for the analytic variants.
"""

import configparser
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidIC, OutOfDomain, ParseError, ValidationError

# The most steps, samples, grid points or levels a run may ask for; a
# larger count is refused before any work, not left to fail an allocation
MAX_COUNT = 1 << 20

# TimeFunction kinds
KIND_POLY = 0     # params: six ascending coefficients, a row per spline segment
KIND_SIN = 1      # params: A, angular frequency, phase
KIND_EXP = 2      # params: A, rate


def _top(c):
    """The highest k with c[..., k] not +0.0 in some row, or 0."""
    kept = ((c != 0.0) | np.signbit(c)).reshape(-1, 6).any(axis=0)
    return int(np.flatnonzero(kept).max(initial=0))


def _horner(c, u, top):
    """c[0] + c[1] u + ... + c[top] u^top, adding in place: one temporary
    array per power, not two.  Above ``top`` (see _top) the six-coefficient
    sum stays +0.0 (+-0.0 + 0.0 is +0.0) and reaches c[top] + 0.0 u, so for
    finite u this start gives its bits, unless c[5] is -0.0."""
    out = c[top] + 0.0 * u
    for k in range(top - 1, -1, -1):
        out = out * u
        out += c[k]
    return out


@dataclass(frozen=True, eq=False)
class TimeFunction:
    """One scalar function of time in encoded form.

    ``params`` holds six ascending polynomial coefficients (POLY),
    (amplitude, angular frequency, phase) for SIN, or (amplitude, rate) for
    EXP, padded with zeros to six; every entry must be finite.  A spline is
    a POLY with non-empty ``breaks``: ``params`` has one row per segment
    [breaks[i], breaks[i+1]], in powers of t - breaks[i].  A spline built
    by ``tabulated`` also keeps its ``samples``, the (times, values) it was
    built from, since a spline does not give back its last value exactly.
    ``tf_document`` gives a function's type and keys in a scenario document.
    """

    kind: int
    params: np.ndarray
    breaks: np.ndarray = ()
    samples: tuple | None = None

    def __post_init__(self):
        raw = np.asarray(self.params, dtype=float)
        p = np.zeros(raw.shape[:-1] + (6,))
        p[..., :raw.shape[-1]] = raw
        if not np.isfinite(p).all():
            raise ValidationError(
                f"time function parameters must be finite, got {raw.tolist()}")
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "breaks", np.asarray(self.breaks, dtype=float))
        object.__setattr__(self, "_top", _top(p))

    # ---------- constructors ----------
    @classmethod
    def constant(cls, value):
        return cls(KIND_POLY, [float(value)])

    @classmethod
    def linear(cls, a, b):
        """a + b*t."""
        return cls(KIND_POLY, [float(a), float(b)])

    @classmethod
    def sinusoid(cls, amplitude, frequency, phase=0.0):
        """amplitude * sin(frequency*t + phase)."""
        return cls(KIND_SIN, [float(amplitude), float(frequency), float(phase)])

    @classmethod
    def exponential(cls, amplitude, rate):
        """amplitude * exp(rate*t)."""
        return cls(KIND_EXP, [float(amplitude), float(rate)])

    @classmethod
    def tabulated(cls, times, values):
        """Natural cubic spline through (times, values) samples: the second
        derivatives M, zero at both ends, solve the diagonally dominant
        tridiagonal system h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i]
        + h[i] M[i+1] = 6 (slope[i] - slope[i-1]) (de Boor, A Practical
        Guide to Splines, ch. IV)."""
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValidationError("tabulated samples must be two equal-length 1-d arrays")
        if t.shape[0] < 4:
            raise ValidationError("tabulated variant needs at least 4 samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValidationError("tabulated samples must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("tabulated sample times must increase strictly")
        h = np.diff(t)
        coefs = np.zeros((t.shape[0] - 1, 4))
        # knots a few ulps apart overflow; the check below reports them
        with np.errstate(over="ignore", invalid="ignore"):
            slope = np.diff(v) / h
            # elimination and back substitution: each pivot stays above
            # h[i-1] + h[i], so none vanishes
            d = (2.0 * (h[:-1] + h[1:])).tolist()
            c = h[1:-1].tolist()
            r = (6.0 * np.diff(slope)).tolist()
            for i, ci in enumerate(c):
                w = ci / d[i]
                d[i + 1] -= w * ci
                r[i + 1] -= w * r[i]
            M = [0.0] * t.shape[0]
            M[-2] = r[-1] / d[-1]
            for i in range(len(c) - 1, -1, -1):
                M[i + 1] = (r[i] - c[i] * M[i + 2]) / d[i]
            M = np.array(M)
            coefs[:, 0] = v[:-1]
            coefs[:, 1] = slope - h * (2.0 * M[:-1] + M[1:]) / 6.0
            coefs[:, 2] = 0.5 * M[:-1]
            coefs[:, 3] = np.diff(M) / (6.0 * h)
        if not np.all(np.isfinite(coefs)):
            raise ValidationError("tabulated samples too close for a finite spline")
        return cls(KIND_POLY, coefs, breaks=t,
                   samples=(tuple(t.tolist()), tuple(v.tolist())))

    # ---------- evaluation ----------
    @property
    def domain(self):
        if self.breaks.size:
            return float(self.breaks[0]), float(self.breaks[-1])
        return -math.inf, math.inf

    def __call__(self, t):
        """Value at t; a float for a scalar t, else an array of t's shape."""
        arr = np.asarray(t, dtype=float)
        p = self.params
        if self.kind == KIND_SIN:
            out = p[0] * np.sin(p[1] * arr + p[2])
        elif self.kind == KIND_EXP:
            out = p[0] * np.exp(p[1] * arr)
        elif not self.breaks.size:
            out = _horner(p, arr, self._top)
        else:
            lo, hi = self.domain
            # a nan lies in no interval, so it is refused with the infinities
            if not np.all((arr >= lo) & (arr <= hi)):
                raise OutOfDomain(
                    f"time {t} outside tabulated range [{lo}, {hi}]")
            seg = np.clip(np.searchsorted(self.breaks, arr, side="right") - 1,
                          0, p.shape[0] - 1)
            out = _horner(p.T[:self._top + 1, seg], arr - self.breaks[seg],
                          self._top)
        return float(out) if arr.ndim == 0 else out

    # ---------- calculus ----------
    def derivative(self):
        p = self.params
        if self.kind == KIND_SIN:
            return TimeFunction(KIND_SIN, [p[0] * p[1], p[1], p[2] + 0.5 * math.pi])
        if self.kind == KIND_EXP:
            return TimeFunction(KIND_EXP, [p[0] * p[1], p[1]])
        return TimeFunction(KIND_POLY, p[..., 1:] * np.arange(1, 6),
                            breaks=self.breaks)

    def antiderivative(self):
        """Some antiderivative; a polynomial's sixth coefficient must be 0."""
        p = self.params
        if self.kind == KIND_SIN:
            a, w, ph = p[:3]
            if w == 0.0:
                return TimeFunction(KIND_POLY, [0.0, a * math.sin(ph)])
            return TimeFunction(KIND_SIN, [a / w, w, ph - 0.5 * math.pi])
        if self.kind == KIND_EXP:
            a, k = p[:2]
            if k == 0.0:
                return TimeFunction(KIND_POLY, [0.0, a])
            return TimeFunction(KIND_EXP, [a / k, k])
        if np.any(p[..., 5] != 0.0):
            raise ValidationError("polynomial degree too high to integrate")
        anti = np.zeros_like(p)
        anti[..., 1:] = p[..., :5] / np.arange(1, 6)
        if self.breaks.size:
            # each segment starts at the value the one before it ends with
            ends = _horner(anti.T, np.diff(self.breaks), _top(anti))
            anti[1:, 0] = np.cumsum(ends)[:-1]
        return TimeFunction(KIND_POLY, anti, breaks=self.breaks)


def twice_integral(damping, t0):
    """G(t) = 2 (A(t) - A(t0)) for A an antiderivative of the damping, as a
    plain function of t (a float for a scalar t, else an array)."""
    anti = damping.antiderivative()
    a0 = anti(t0)
    return lambda t: 2.0 * (anti(t) - a0)


_CONST_ZERO = TimeFunction.constant(0.0)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Validated problem description; immutable once constructed."""

    omega: TimeFunction
    t0: float
    t1: float
    m: float = 1.0
    hbar: float = 1.0
    damping: TimeFunction = _CONST_ZERO
    force: TimeFunction = _CONST_ZERO
    beta0: tuple | None = None
    qmin: float = -12.0
    qmax: float = 12.0
    npoints: int = 1024
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float | None = None

    def __post_init__(self):
        for name in ("t0", "t1", "m", "hbar", "qmin", "qmax", "rtol", "atol",
                     "max_step"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v}")
        if not self.m > 0:
            raise ValidationError(f"m must be positive, got {self.m}")
        if not self.hbar > 0:
            raise ValidationError(f"hbar must be positive, got {self.hbar}")
        if not self.t1 > self.t0:
            raise ValidationError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        if not math.isfinite(self.t1 - self.t0):
            raise ValidationError(f"t1 - t0 overflows, got [{self.t0}, {self.t1}]")
        if not 16 <= self.npoints <= MAX_COUNT:
            raise ValidationError(f"npoints must be in [16, {MAX_COUNT}], "
                                  f"got {self.npoints}")
        if not self.qmin < self.qmax:
            raise ValidationError(f"need qmin < qmax, got [{self.qmin}, {self.qmax}]")
        if not math.isfinite(self.qmax - self.qmin):
            raise ValidationError(f"qmax - qmin overflows, got [{self.qmin}, {self.qmax}]")
        if not (self.rtol > 0 and self.atol > 0):
            raise ValidationError("tolerances must be positive")
        if self.max_step is not None and not self.max_step > 0:
            raise ValidationError("max_step must be positive")
        if self.beta0 is not None:
            b0, db0 = complex(self.beta0[0]), complex(self.beta0[1])
            if b0 == 0 and db0 == 0:
                raise ValidationError("beta ICs must not both vanish")
            if not np.isfinite([b0, db0]).all():
                raise ValidationError(f"beta ICs must be finite, got {b0}, {db0}")
            object.__setattr__(self, "beta0", (b0, db0))
        for name in ("omega", "damping", "force"):
            f = getattr(self, name)
            lo, hi = f.domain
            if lo > self.t0 or hi < self.t1:
                raise ValidationError(
                    f"{name} tabulated range [{lo}, {hi}] does not cover "
                    f"the window [{self.t0}, {self.t1}]")

    @property
    def step_max(self):
        """``max_step``, or a hundredth of the window when it is unset."""
        if self.max_step is not None:
            return self.max_step
        return (self.t1 - self.t0) / 100.0

    @cached_property
    def G(self):
        """The damping integral G(t) = 2 int_{t0}^t g as a function of t
        (exact per variant)."""
        return twice_integral(self.damping, self.t0)

    def hamiltonian_coefficients(self, t):
        """(K, V, D) of H = K p^2/2 + V q^2/2 - D q at t: K = e^{-G}/m,
        V = m omega^2 e^G and D = e^G F; only the Hamiltonian route reads
        them (see ``ode``)."""
        G = self.G(t)
        eG = np.exp(G)
        return (np.exp(-G) / self.m, eG * self.m * self.omega(t) ** 2,
                eG * self.force(t))

    def resolved_beta0(self):
        """Amplitude ICs: user-specified, or the underdamped default
        beta(t0) = 1, beta'(t0) = -g(t0) + i*sqrt(omega(t0)^2 - g(t0)^2)."""
        if self.beta0 is not None:
            return self.beta0
        w0 = self.omega(self.t0)
        g0 = self.damping(self.t0)
        disc = w0 * w0 - g0 * g0
        if disc <= 0:
            raise InvalidIC(
                f"default beta ICs need omega^2 > g^2 at t0 "
                f"(got omega={w0}, g={g0}); specify [beta0] explicitly")
        return 1.0 + 0.0j, complex(-g0, math.sqrt(disc))

    def grid(self):
        return np.linspace(self.qmin, self.qmax, self.npoints)


# ---------- the scenario document ----------

# Each section: how many of its leading keys a present section must have,
# and its keys.
_SECTIONS = {
    "scenario": (2, ("t0", "t1", "m", "hbar")),
    "beta0": (4, ("re", "im", "dre", "dim")),
    "grid": (3, ("qmin", "qmax", "npoints")),
    "integrator": (0, ("rtol", "atol", "max_step")),
}
# The sections that hold a time function, and the types they take: kind,
# how many leading keys are required, and the keys in ``params`` order.
# Each type but ``tabulated`` is built by the TimeFunction constructor of
# its name, whose arguments are its keys (an optional key left out takes
# the default, 0).  ``tabulated`` takes exactly one of its two keys, a
# file or inline samples, and builds a spline from them.
_TF_SECTIONS = ("omega", "damping", "force")
_TYPES = {
    "constant": (KIND_POLY, 1, ("value",)),
    "linear": (KIND_POLY, 2, ("a", "b")),
    "sinusoid": (KIND_SIN, 2, ("amplitude", "frequency", "phase")),
    "exponential": (KIND_EXP, 2, ("amplitude", "rate")),
    "tabulated": (KIND_POLY, 0, ("file", "samples")),
}


def _require(cp, sect, key):
    if not cp.has_option(sect, key):
        raise ParseError(f"[{sect}] is missing required key '{key}'")
    return cp.get(sect, key)


def _check_keys(cp, sect, keys):
    for key in cp.options(sect):
        if key not in keys:
            raise ParseError(f"unknown key '{key}' in [{sect}]")


def _read(cp, sect, nreq, keys):
    """The section's numbers by key; the first ``nreq`` keys must be there."""
    out = {}
    for i, key in enumerate(keys):
        if i < nreq or cp.has_option(sect, key):
            raw = _require(cp, sect, key)
            try:
                # npoints is the one integer in the document
                out[key] = int(raw) if key == "npoints" else float(raw)
            except ValueError as e:
                what = "an integer" if key == "npoints" else "a number"
                raise ParseError(f"[{sect}] {key} = {raw!r} is not {what}") from e
    return out


def _parse_tf(cp, sect, base_dir):
    name = _require(cp, sect, "type").strip().lower()
    if name not in _TYPES:
        raise ParseError(f"[{sect}] unknown type '{name}'")
    _, nreq, keys = _TYPES[name]
    _check_keys(cp, sect, ("type", *keys))
    if name != "tabulated":
        return getattr(TimeFunction, name)(**_read(cp, sect, nreq, keys))
    has_file = cp.has_option(sect, "file")
    if has_file == cp.has_option(sect, "samples"):
        raise ParseError(
            f"[{sect}] tabulated needs exactly one of 'file' or 'samples'")
    if has_file:
        path = cp.get(sect, "file").strip()
        if base_dir is not None:
            path = os.path.join(base_dir, path)
        try:
            ts, vs = _read_samples_csv(path)
        except (OSError, UnicodeDecodeError) as e:
            raise ParseError(f"[{sect}] cannot read '{path}': {e}") from e
    else:
        ts, vs = _parse_inline_samples(sect, cp.get(sect, "samples"))
    return TimeFunction.tabulated(ts, vs)


def _read_samples_csv(path):
    import csv

    ts, vs = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for i, row in enumerate(filter(None, csv.reader(fh))):
            try:
                t, v = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                if i == 0:
                    continue  # a header row
                raise ParseError(f"bad sample row {row!r} in {path}")
            if len(row) != 2:
                raise ParseError(f"bad sample row {row!r} in {path}: "
                                 "a row has two fields")
            ts.append(t)
            vs.append(v)
    return ts, vs


def _parse_inline_samples(sect, raw):
    ts, vs = [], []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            a, b = item.split(":")
            ts.append(float(a))
            vs.append(float(b))
        except ValueError as e:
            raise ParseError(f"[{sect}] bad sample entry {item!r}") from e
    return ts, vs


def parse_scenario(text, base_dir=None):
    """Parse a scenario document (the sectioned key=value format) into a
    Scenario.  Raises ParseError for malformed documents and ValidationError
    for structurally invalid ones."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ParseError(f"bad scenario document: {e}") from e

    for sect in cp.sections():
        if sect in _SECTIONS:
            _check_keys(cp, sect, _SECTIONS[sect][1])
        elif sect not in _TF_SECTIONS:
            raise ParseError(f"unknown section [{sect}]")
    for sect in ("scenario", "omega"):
        if not cp.has_section(sect):
            raise ParseError(f"missing [{sect}] section")

    kw = {}
    for sect in _TF_SECTIONS:
        if cp.has_section(sect):
            kw[sect] = _parse_tf(cp, sect, base_dir)
    for sect in ("scenario", "grid", "integrator"):
        if cp.has_section(sect):
            kw.update(_read(cp, sect, *_SECTIONS[sect]))
    if cp.has_section("beta0"):
        re, im, dre, dim = _read(cp, "beta0", *_SECTIONS["beta0"]).values()
        kw["beta0"] = (complex(re, im), complex(dre, dim))
    return Scenario(**kw)


def parse_scenario_file(path):
    """Parse the scenario document at ``path``, which must be UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read '{path}': {e}") from e
    return parse_scenario(text, base_dir=os.path.dirname(os.path.abspath(path)))


def write_csv(path, header, columns, footer=None):
    """Write a CSV artifact with LF line ends: the header line, one row per
    sample of the equal-length columns and, when given, the footer
    {name: value} as one line "# name=value, ...".  A column that is a
    list of str is written as is; every other value, the footer's too, as
    f"{float(v):.17g}", by one %-format per row over the columns' .tolist()
    floats, which is faster than formatting numpy scalars one by one.  A
    footer value is written plus 0.0, so that -0.0 is written as 0."""
    fmts, cols = [], []
    for c in columns:
        text = isinstance(c, list) and bool(c) and isinstance(c[0], str)
        fmts.append("%s" if text else "%.17g")
        cols.append(c if text else np.asarray(c, dtype=float).tolist())
    line = ",".join(fmts) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row for row in zip(*cols))
        if footer:
            fh.write("# " + ", ".join(f"{name}={value + 0.0:.17g}"
                                      for name, value in footer.items())
                     + "\n")


def tf_document(f):
    """The type that writes ``f`` in a scenario document, and its keys'
    values: the first type whose keys cover the nonzero ``params`` of a
    function without breaks, or ``tabulated`` with the samples of a spline.
    Any other function, such as a quadratic or a spline's derivative, raises
    ValidationError."""
    if f.samples is not None:
        pairs = ", ".join(f"{t:.17g}:{v:.17g}" for t, v in zip(*f.samples))
        return "tabulated", {"samples": pairs}
    for name, (kind, _, keys) in _TYPES.items():
        if kind == f.kind and not (f.breaks.size or np.any(f.params[len(keys):])):
            return name, dict(zip(keys, f.params.tolist()))
    raise ValidationError(f"cannot serialize derived time function {f!r}")
