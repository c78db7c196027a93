"""Scenario model: parameter time functions, validation, parsing.

A scenario bundles the oscillator parameters m, omega(t), g(t), F(t), the
integration window, amplitude initial conditions, the spatial grid and the
integrator tolerances.  Time functions come in five variants (constant,
linear, sinusoid, exponential, tabulated) and know their own derivatives
and antiderivatives in closed form, so the damping integral
G(t) = 2 * int_{t0}^t g is exact for the analytic variants.
"""

import configparser
import csv
import io
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tridiag
from .errors import InvalidIC, OutOfDomain, ParseError, ValidationError

# TimeFunction kinds
KIND_POLY = 0     # params: up to 6 ascending polynomial coefficients
KIND_SIN = 1      # params: A, angular frequency, phase, offset
KIND_EXP = 2      # params: A, rate, offset
KIND_PPOLY = 3    # piecewise polynomial: breaks + per-segment ascending coeffs

_EMPTY_BREAKS = np.zeros(0)
_EMPTY_COEFS = np.zeros((0, 5))


@dataclass(frozen=True, eq=False)
class TimeFunction:
    """One scalar function of time in encoded form.

    ``params`` holds up to six ascending polynomial coefficients (POLY), or
    (amplitude, angular frequency, phase, offset) for SIN, or
    (amplitude, rate, offset) for EXP.  PPOLY stores breakpoints plus
    per-segment ascending coefficients of degree <= 4.
    """

    kind: int
    params: np.ndarray
    breaks: np.ndarray = field(default_factory=lambda: _EMPTY_BREAKS)
    coefs: np.ndarray = field(default_factory=lambda: _EMPTY_COEFS)
    label: str = "derived"
    meta: tuple = ()

    def __post_init__(self):
        p = np.zeros(6)
        raw = np.asarray(self.params, dtype=float)
        p[:raw.shape[0]] = raw
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "breaks", np.asarray(self.breaks, dtype=float))
        coefs = np.asarray(self.coefs, dtype=float).reshape(-1, 5)
        object.__setattr__(self, "coefs", coefs)

    # ---------- constructors ----------
    @classmethod
    def constant(cls, value):
        return cls(KIND_POLY, [float(value)], label="constant",
                   meta=(float(value),))

    @classmethod
    def linear(cls, a, b):
        """a + b*t."""
        return cls(KIND_POLY, [float(a), float(b)], label="linear",
                   meta=(float(a), float(b)))

    @classmethod
    def sinusoid(cls, amplitude, frequency, phase=0.0):
        """amplitude * sin(frequency*t + phase)."""
        return cls(KIND_SIN, [float(amplitude), float(frequency),
                              float(phase), 0.0],
                   label="sinusoid",
                   meta=(float(amplitude), float(frequency), float(phase)))

    @classmethod
    def exponential(cls, amplitude, rate):
        """amplitude * exp(rate*t)."""
        return cls(KIND_EXP, [float(amplitude), float(rate), 0.0],
                   label="exponential",
                   meta=(float(amplitude), float(rate)))

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
        slope = np.diff(v) / h
        M = np.zeros_like(t)
        M[1:-1] = 6.0 * np.diff(slope)
        tridiag.solve(2.0 * (h[:-1] + h[1:])[None], h[None, 1:-1],
                      M[None, 1:-1])
        coefs = np.zeros((t.shape[0] - 1, 5))
        coefs[:, 0] = v[:-1]
        coefs[:, 1] = slope - h * (2.0 * M[:-1] + M[1:]) / 6.0
        coefs[:, 2] = 0.5 * M[:-1]
        coefs[:, 3] = np.diff(M) / (6.0 * h)
        return cls(KIND_PPOLY, [], breaks=t, coefs=coefs, label="tabulated",
                   meta=(tuple(t.tolist()), tuple(v.tolist())))

    # ---------- evaluation ----------
    @property
    def domain(self):
        if self.kind == KIND_PPOLY:
            return float(self.breaks[0]), float(self.breaks[-1])
        return -math.inf, math.inf

    def __call__(self, t):
        """Value at t; a float for a scalar t, else an array of t's shape."""
        arr = np.asarray(t, dtype=float)
        p = self.params
        if self.kind == KIND_POLY:
            out = p[5]
            for c in p[4::-1]:
                out = out * arr + c
        elif self.kind == KIND_SIN:
            out = p[0] * np.sin(p[1] * arr + p[2]) + p[3]
        elif self.kind == KIND_EXP:
            out = p[0] * np.exp(p[1] * arr) + p[2]
        else:
            lo, hi = self.domain
            if np.any(arr < lo) or np.any(arr > hi):
                raise OutOfDomain(
                    f"time {t} outside tabulated range [{lo}, {hi}]")
            seg = np.clip(np.searchsorted(self.breaks, arr, side="right") - 1,
                          0, self.coefs.shape[0] - 1)
            u = arr - self.breaks[seg]
            c = self.coefs[seg]
            out = c[..., 4]
            for k in (3, 2, 1, 0):
                out = out * u + c[..., k]
        return float(out) if arr.ndim == 0 else out

    # ---------- calculus ----------
    def derivative(self):
        if self.kind == KIND_POLY:
            p = [k * self.params[k] for k in range(1, 6)]
            return TimeFunction(KIND_POLY, p)
        if self.kind == KIND_SIN:
            a, w, ph, _ = self.params[:4]
            return TimeFunction(KIND_SIN, [a * w, w, ph + 0.5 * math.pi, 0.0])
        if self.kind == KIND_EXP:
            a, k, _ = self.params[:3]
            return TimeFunction(KIND_EXP, [a * k, k, 0.0])
        coefs = np.zeros_like(self.coefs)
        for j in range(4):
            coefs[:, j] = (j + 1) * self.coefs[:, j + 1]
        return TimeFunction(KIND_PPOLY, [], breaks=self.breaks, coefs=coefs)

    def antiderivative(self):
        """Some antiderivative; only the variants produced by the public
        constructors are supported (offsets are rejected)."""
        if self.kind == KIND_POLY:
            if self.params[5] != 0.0:
                raise ValidationError("polynomial degree too high to integrate")
            p = [0.0] + [self.params[k] / (k + 1) for k in range(5)]
            return TimeFunction(KIND_POLY, p)
        if self.kind == KIND_SIN:
            a, w, ph, off = self.params[:4]
            if off != 0.0:
                raise ValidationError("cannot integrate offset sinusoid")
            if w == 0.0:
                return TimeFunction(KIND_POLY, [0.0, a * math.sin(ph)])
            return TimeFunction(KIND_SIN, [a / w, w, ph - 0.5 * math.pi, 0.0])
        if self.kind == KIND_EXP:
            a, k, off = self.params[:3]
            if off != 0.0:
                raise ValidationError("cannot integrate offset exponential")
            if k == 0.0:
                return TimeFunction(KIND_POLY, [0.0, a])
            return TimeFunction(KIND_EXP, [a / k, k, 0.0])
        nseg = self.coefs.shape[0]
        coefs = np.zeros((nseg, 5))
        if np.any(self.coefs[:, 4] != 0.0):
            raise ValidationError("piecewise degree too high to integrate")
        for j in range(4):
            coefs[:, j + 1] = self.coefs[:, j] / (j + 1)
        # accumulate constants so segments join continuously
        run = 0.0
        for s in range(nseg):
            coefs[s, 0] = run
            h = self.breaks[s + 1] - self.breaks[s]
            v = 0.0
            for j in range(4, -1, -1):
                v = v * h + coefs[s, j]
            run = v
        return TimeFunction(KIND_PPOLY, [], breaks=self.breaks, coefs=coefs)

    def affine(self, scale, shift):
        """scale * f(t) + shift as a new TimeFunction."""
        if self.kind == KIND_POLY:
            p = self.params * scale
            p[0] += shift
            return TimeFunction(KIND_POLY, p)
        if self.kind == KIND_SIN:
            a, w, ph, off = self.params[:4]
            return TimeFunction(KIND_SIN, [a * scale, w, ph, off * scale + shift])
        if self.kind == KIND_EXP:
            a, k, off = self.params[:3]
            return TimeFunction(KIND_EXP, [a * scale, k, off * scale + shift])
        coefs = self.coefs * scale
        coefs[:, 0] += shift
        return TimeFunction(KIND_PPOLY, [], breaks=self.breaks, coefs=coefs)

    def __eq__(self, other):
        """Equal when the encoded functions are; ``label`` and ``meta`` only
        record how one was built."""
        if not isinstance(other, TimeFunction):
            return NotImplemented
        return (self.kind == other.kind
                and np.array_equal(self.params, other.params)
                and np.array_equal(self.breaks, other.breaks)
                and np.array_equal(self.coefs, other.coefs))

    def __hash__(self):
        return hash((self.kind, *self.params.tolist()))


def twice_integral(damping, t0):
    """G(t) = 2 * (A(t) - A(t0)) for A an antiderivative of the damping."""
    anti = damping.antiderivative()
    return anti.affine(2.0, -2.0 * anti(t0))


_CONST_ZERO = TimeFunction.constant(0.0)


@dataclass(frozen=True)
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
        if not self.m > 0:
            raise ValidationError(f"m must be positive, got {self.m}")
        if not self.hbar > 0:
            raise ValidationError(f"hbar must be positive, got {self.hbar}")
        if not self.t1 > self.t0:
            raise ValidationError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        if self.npoints < 16:
            raise ValidationError(f"npoints must be >= 16, got {self.npoints}")
        if not self.qmin < self.qmax:
            raise ValidationError(f"need qmin < qmax, got [{self.qmin}, {self.qmax}]")
        if not (self.rtol > 0 and self.atol > 0):
            raise ValidationError("tolerances must be positive")
        if self.max_step is not None and not self.max_step > 0:
            raise ValidationError("max_step must be positive")
        if self.beta0 is not None:
            b0, db0 = complex(self.beta0[0]), complex(self.beta0[1])
            if b0 == 0 and db0 == 0:
                raise ValidationError("beta ICs must not both vanish")
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
        """The damping integral as a TimeFunction (exact per variant)."""
        return twice_integral(self.damping, self.t0)

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


# ---------- scenario document parsing ----------

_TF_SECTIONS = ("omega", "damping", "force")
_KNOWN_KEYS = {
    "scenario": {"m", "hbar", "t0", "t1"},
    "omega": {"type", "value", "a", "b", "amplitude", "frequency", "phase",
              "rate", "file", "samples"},
    "beta0": {"re", "im", "dre", "dim"},
    "grid": {"qmin", "qmax", "npoints"},
    "integrator": {"rtol", "atol", "max_step"},
}
_KNOWN_KEYS["damping"] = _KNOWN_KEYS["omega"]
_KNOWN_KEYS["force"] = _KNOWN_KEYS["omega"]


def _get_float(sect, key, raw):
    try:
        return float(raw)
    except ValueError as e:
        raise ParseError(f"[{sect}] {key} = {raw!r} is not a number") from e


def _require(cp, sect, key):
    if not cp.has_option(sect, key):
        raise ParseError(f"[{sect}] is missing required key '{key}'")
    return cp.get(sect, key)


def _parse_tf(cp, sect, base_dir):
    kind = _require(cp, sect, "type").strip().lower()
    getf = lambda key: _get_float(sect, key, _require(cp, sect, key))
    if kind == "constant":
        return TimeFunction.constant(getf("value"))
    if kind == "linear":
        return TimeFunction.linear(getf("a"), getf("b"))
    if kind == "sinusoid":
        phase = 0.0
        if cp.has_option(sect, "phase"):
            phase = _get_float(sect, "phase", cp.get(sect, "phase"))
        return TimeFunction.sinusoid(getf("amplitude"), getf("frequency"), phase)
    if kind == "exponential":
        return TimeFunction.exponential(getf("amplitude"), getf("rate"))
    if kind == "tabulated":
        has_file = cp.has_option(sect, "file")
        has_inline = cp.has_option(sect, "samples")
        if has_file == has_inline:
            raise ParseError(
                f"[{sect}] tabulated needs exactly one of 'file' or 'samples'")
        if has_file:
            path = cp.get(sect, "file").strip()
            if base_dir is not None:
                path = os.path.join(base_dir, path)
            try:
                ts, vs = _read_samples_csv(path)
            except OSError as e:
                raise ParseError(f"[{sect}] cannot read '{path}': {e}") from e
        else:
            ts, vs = _parse_inline_samples(sect, cp.get(sect, "samples"))
        return TimeFunction.tabulated(ts, vs)
    raise ParseError(f"[{sect}] unknown type '{kind}'")


def _read_samples_csv(path):
    ts, vs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                t, v = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                if not ts:
                    continue  # tolerate a single header row
                raise ParseError(f"bad sample row {row!r} in {path}")
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
        if sect not in _KNOWN_KEYS:
            raise ParseError(f"unknown section [{sect}]")
        for key in cp.options(sect):
            if key not in _KNOWN_KEYS[sect]:
                raise ParseError(f"unknown key '{key}' in [{sect}]")

    if not cp.has_section("scenario"):
        raise ParseError("missing [scenario] section")
    if not cp.has_section("omega"):
        raise ParseError("missing [omega] section")

    t0 = _get_float("scenario", "t0", _require(cp, "scenario", "t0"))
    t1 = _get_float("scenario", "t1", _require(cp, "scenario", "t1"))
    kw = {"t0": t0, "t1": t1}
    for key in ("m", "hbar"):
        if cp.has_option("scenario", key):
            kw[key] = _get_float("scenario", key, cp.get("scenario", key))

    kw["omega"] = _parse_tf(cp, "omega", base_dir)
    for sect in ("damping", "force"):
        if cp.has_section(sect):
            kw[sect] = _parse_tf(cp, sect, base_dir)

    if cp.has_section("beta0"):
        vals = {k: _get_float("beta0", k, _require(cp, "beta0", k))
                for k in ("re", "im", "dre", "dim")}
        kw["beta0"] = (complex(vals["re"], vals["im"]),
                       complex(vals["dre"], vals["dim"]))

    if cp.has_section("grid"):
        kw["qmin"] = _get_float("grid", "qmin", _require(cp, "grid", "qmin"))
        kw["qmax"] = _get_float("grid", "qmax", _require(cp, "grid", "qmax"))
        npoints = _require(cp, "grid", "npoints")
        try:
            kw["npoints"] = int(npoints)
        except ValueError as e:
            raise ParseError(f"[grid] npoints = {npoints!r} is not an integer") from e

    if cp.has_section("integrator"):
        for key in ("rtol", "atol", "max_step"):
            if cp.has_option("integrator", key):
                kw[key] = _get_float("integrator", key, cp.get("integrator", key))

    return Scenario(**kw)


def parse_scenario_file(path):
    with open(path) as fh:
        return parse_scenario(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def _fmt(x):
    return f"{x:.17g}"


def write_rows(fh, *columns):
    """Write equal-length 1-d columns to fh as CSV rows, each value as
    f"{float(v):.17g}": one %-format per row over the columns' .tolist()
    floats, which is faster than formatting numpy scalars one by one."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    fh.writelines(line % row for row in rows)


def _serialize_tf(out, sect, f):
    out.write(f"[{sect}]\n")
    out.write(f"type = {f.label}\n")
    if f.label == "constant":
        out.write(f"value = {_fmt(f.meta[0])}\n")
    elif f.label == "linear":
        out.write(f"a = {_fmt(f.meta[0])}\nb = {_fmt(f.meta[1])}\n")
    elif f.label == "sinusoid":
        out.write(f"amplitude = {_fmt(f.meta[0])}\n"
                  f"frequency = {_fmt(f.meta[1])}\n"
                  f"phase = {_fmt(f.meta[2])}\n")
    elif f.label == "exponential":
        out.write(f"amplitude = {_fmt(f.meta[0])}\nrate = {_fmt(f.meta[1])}\n")
    elif f.label == "tabulated":
        ts, vs = f.meta
        pairs = ", ".join(f"{_fmt(t)}:{_fmt(v)}" for t, v in zip(ts, vs))
        out.write(f"samples = {pairs}\n")
    else:
        raise ValidationError(f"cannot serialize derived time function {f!r}")
    out.write("\n")


def serialize_scenario(s):
    """Render a Scenario back into the document format; round-trips exactly."""
    out = io.StringIO()
    out.write("[scenario]\n")
    out.write(f"m = {_fmt(s.m)}\nhbar = {_fmt(s.hbar)}\n")
    out.write(f"t0 = {_fmt(s.t0)}\nt1 = {_fmt(s.t1)}\n\n")
    _serialize_tf(out, "omega", s.omega)
    _serialize_tf(out, "damping", s.damping)
    _serialize_tf(out, "force", s.force)
    if s.beta0 is not None:
        b0, db0 = s.beta0
        out.write("[beta0]\n")
        out.write(f"re = {_fmt(b0.real)}\nim = {_fmt(b0.imag)}\n")
        out.write(f"dre = {_fmt(db0.real)}\ndim = {_fmt(db0.imag)}\n\n")
    out.write("[grid]\n")
    out.write(f"qmin = {_fmt(s.qmin)}\nqmax = {_fmt(s.qmax)}\n")
    out.write(f"npoints = {s.npoints}\n\n")
    out.write("[integrator]\n")
    out.write(f"rtol = {_fmt(s.rtol)}\natol = {_fmt(s.atol)}\n")
    if s.max_step is not None:
        out.write(f"max_step = {_fmt(s.max_step)}\n")
    return out.getvalue()
