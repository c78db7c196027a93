#!/usr/bin/env python3
"""Seeded generator of valid scenario documents, for a verify-random
workload that runs ``bckosc verify`` on each in its own process.  That
workload is not yet part of the benchmark; NOTES.md says why.

Each document gives omega(t), the damping g(t) and the force F(t) one of
the five time-function kinds: constant, linear, sinusoid, exponential and
tabulated.  Documents come in blocks of five.  In each block omega,
damping and force each take every kind once, in orders shuffled per block
and independently of each other, so every kind has the same share in
every block.  Without the blocks, the share of documents with a tabulated
function, which pay the scipy.interpolate import, would vary much more
from run to run.  The draw ranges below are fixed; they are part of the
benchmark's definition and change only with a new benchmark.

Two conditions are imposed, and no others:

* omega(t0)^2 > g(t0)^2, so the default amplitude initial conditions exist
  (``Scenario.resolved_beta0``).  It holds by construction: omega(t0) is
  at least OMEGA0[0] and 0 <= g(t0) <= G_MAX < OMEGA0[0].
* the paper's side condition beta(t0) F(t0) = 0.  The default
  beta(t0) = 1, so F(t0) = 0.  A constant or exponential force can meet
  it only with amplitude 0, so those two draws are the undriven case.

Draw ranges (t0 = 0, T = t1 - t0, u(a, b) uniform):

* omega(t0) = w0 ~ u(0.5, 2.0)
  - constant:    w0
  - linear:      w0 + b t,           b = w0 * u(-0.5, 0.5) / T
  - sinusoid:    A sin(f t + ph),    A = w0 * u(1.0, 1.5),
                                     ph = asin(w0 / A),
                                     f = 2 pi u(0.5, 3.0) / T
  - exponential: w0 exp(r t),        r = u(-0.5, 0.5) / T
  - tabulated:   n ~ {6..12} evenly spaced samples over [t0, t1],
                 first w0, the rest w0 * (1 + u(-0.3, 0.3))
* g, with G_MAX = 0.3, so 0 <= g(t0) <= 0.3 < omega(t0)
  - constant:    g0 ~ u(0, 0.3)
  - linear:      g0 + b t,           g0 ~ u(0, 0.3), b = u(-0.3, 0.3) / T
  - sinusoid:    A sin(f t + ph),    A ~ u(0, 0.3), ph ~ u(0, pi),
                                     f = 2 pi u(0.5, 3.0) / T
  - exponential: A exp(r t),         A ~ u(0, 0.3), r = u(-0.5, 0.5) / T
  - tabulated:   n ~ {6..12} evenly spaced samples, values u(0, 0.3)
* F, with F(t0) = 0
  - constant:    0
  - linear:      b t,                b = u(-1, 1) / T
  - sinusoid:    A sin(f t),         A ~ u(-1, 1), f = 2 pi u(0.5, 3.0) / T
  - exponential: 0 exp(r t),         r = u(-0.5, 0.5) / T
  - tabulated:   n ~ {6..12} samples, first 0, the rest u(-1, 1)
* window: T = 3 * 2 pi / w0, three undamped periods at t0
* m = hbar = 1, default beta0, grid and integrator tolerances.

Usage: python3 perfbench/scenarios.py --seed 7 --count 4 --out DIR
"""

import argparse
import math
import os
import random

KINDS = ("constant", "linear", "sinusoid", "exponential", "tabulated")
OMEGA0 = (0.5, 2.0)
G_MAX = 0.3
PERIODS = 3
BLOCK = len(KINDS)
CYCLES = (0.5, 3.0)
SAMPLES = (6, 12)


def _fmt(x):
    return repr(float(x))


def _samples(rng, t1, first, draw):
    n = rng.randint(*SAMPLES)
    ts = [t1 * k / (n - 1) for k in range(n - 1)] + [t1]
    vs = [first] + [draw() for _ in range(n - 1)]
    # inline samples are comma-separated "t:v" pairs; the parser rejects
    # whitespace-separated pairs
    return {"type": "tabulated",
            "samples": ", ".join(f"{_fmt(t)}:{_fmt(v)}"
                                 for t, v in zip(ts, vs))}


def _omega(rng, kind, w0, t1):
    if kind == "constant":
        return {"type": kind, "value": w0}
    if kind == "linear":
        return {"type": kind, "a": w0, "b": w0 * rng.uniform(-0.5, 0.5) / t1}
    if kind == "sinusoid":
        amp = w0 * rng.uniform(1.0, 1.5)
        return {"type": kind, "amplitude": amp,
                "frequency": 2 * math.pi * rng.uniform(*CYCLES) / t1,
                "phase": math.asin(w0 / amp)}
    if kind == "exponential":
        return {"type": kind, "amplitude": w0,
                "rate": rng.uniform(-0.5, 0.5) / t1}
    return _samples(rng, t1, w0, lambda: w0 * (1 + rng.uniform(-0.3, 0.3)))


def _damping(rng, kind, t1):
    if kind == "constant":
        return {"type": kind, "value": rng.uniform(0, G_MAX)}
    if kind == "linear":
        return {"type": kind, "a": rng.uniform(0, G_MAX),
                "b": rng.uniform(-G_MAX, G_MAX) / t1}
    if kind == "sinusoid":
        return {"type": kind, "amplitude": rng.uniform(0, G_MAX),
                "frequency": 2 * math.pi * rng.uniform(*CYCLES) / t1,
                "phase": rng.uniform(0, math.pi)}
    if kind == "exponential":
        return {"type": kind, "amplitude": rng.uniform(0, G_MAX),
                "rate": rng.uniform(-0.5, 0.5) / t1}
    return _samples(rng, t1, rng.uniform(0, G_MAX),
                    lambda: rng.uniform(0, G_MAX))


def _force(rng, kind, t1):
    if kind == "constant":
        return {"type": kind, "value": 0.0}
    if kind == "linear":
        return {"type": kind, "a": 0.0, "b": rng.uniform(-1, 1) / t1}
    if kind == "sinusoid":
        return {"type": kind, "amplitude": rng.uniform(-1, 1),
                "frequency": 2 * math.pi * rng.uniform(*CYCLES) / t1,
                "phase": 0.0}
    if kind == "exponential":
        return {"type": kind, "amplitude": 0.0,
                "rate": rng.uniform(-0.5, 0.5) / t1}
    return _samples(rng, t1, 0.0, lambda: rng.uniform(-1, 1))


def _section(name, kv):
    lines = [f"[{name}]"]
    for k, v in kv.items():
        lines.append(f"{k} = {v if isinstance(v, str) else _fmt(v)}")
    return "\n".join(lines) + "\n"


def document(rng, kinds):
    """One scenario document with the (omega, damping, force) ``kinds``
    and parameters drawn from ``rng``; a comment header names the kinds."""
    w0 = rng.uniform(*OMEGA0)
    t1 = PERIODS * 2 * math.pi / w0
    parts = [
        f"# omega {kinds[0]}, damping {kinds[1]}, force {kinds[2]}\n",
        _section("scenario", {"m": 1.0, "hbar": 1.0, "t0": 0.0, "t1": t1}),
        _section("omega", _omega(rng, kinds[0], w0, t1)),
        _section("damping", _damping(rng, kinds[1], t1)),
        _section("force", _force(rng, kinds[2], t1)),
    ]
    return "\n".join(parts)


def documents(seed, count):
    """``count`` documents, the same for the same seed."""
    rng = random.Random(seed)
    docs = []
    while len(docs) < count:
        orders = [rng.sample(KINDS, BLOCK) for _ in range(3)]
        for kinds in zip(*orders):
            docs.append(document(rng, kinds))
    return docs[:count]


def write_documents(seed, count, outdir):
    """Write documents as outdir/doc_000.cfg ... and return their paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for i, text in enumerate(documents(seed, count)):
        path = os.path.join(outdir, f"doc_{i:03d}.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        paths.append(path)
    return paths


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, default=8)
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args(argv)
    for path in write_documents(args.seed, args.count, args.out):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
