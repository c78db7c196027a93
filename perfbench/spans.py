"""Span tracing for the benchmark's traced run.

The traced run calls ``bckosc.cli.main`` in this process.  Wrappers
defined here record one span (name, start, end, parent, run id) around
each public function of a layer, installed in the namespaces where its
callers look the function up, and per-layer counters at the same
boundaries.  Spans stay in memory; ``Tracer.metrics`` turns them into the
per-layer metrics when the run ends.

A layer's self time is its span time minus the time its child spans
cover.  The program runs on one thread, so child spans never overlap and
the covered time is the sum of their durations.
"""

import contextlib
import functools
import os
import time
from collections import defaultdict

import numpy as np

import bckosc.cli
import bckosc.core
import bckosc.invariants
import bckosc.ode
import bckosc.propagator
import bckosc.quantum

ODE_SYSTEMS = ("beta", "classical", "gamma", "sigma")
ODE_STATS = ("nfev", "naccept", "nreject")

# Working set of one Crank-Nicolson step per grid point: the Hamiltonian
# diagonal (float64) and four complex128 vectors: psi, the right-hand side,
# the elimination factors and the solution.  A model computed from the
# array sizes, not a measured memory traffic.
CN_BYTES_PER_POINT = 8 + 4 * 16

# Per-layer metrics in the order they are reported: (name, unit, better).
PER_LAYER = (
    [(f"ode.integrate_{s}.{k}", u, b) for s in ODE_SYSTEMS
     for k, u, b in (("self_s", "s", "lower"), ("nfev", "count", "lower"),
                     ("naccept", "count", "lower"),
                     ("nreject", "count", "lower"),
                     ("accept_ratio", "frac", "higher"))]
    + [
        ("ode.dense_eval.self_s", "s", "lower"),
        ("ode.dense_eval.points", "count", "lower"),
        ("core.parse_scenario_file.self_s", "s", "lower"),
        ("core.TimeFunction.call.self_s", "s", "lower"),
        ("core.TimeFunction.call.points", "count", "lower"),
    ]
    + [(f"invariants.{f}.{k}", u, "lower")
       for f in ("frame_from_beta", "verification_series", "compute_omega")
       for k, u in (("self_s", "s"), ("calls", "count"),
                    ("points", "count"))]
    + [
        ("quantum.eval_psin.self_s", "s", "lower"),
        ("quantum.eval_psin.calls", "count", "lower"),
        ("propagator.propagate_and_compare.self_s", "s", "lower"),
        ("propagator.steps", "count", "lower"),
        ("propagator.step_us", "us", "lower"),
        ("propagator.bytes_per_step", "B", "lower"),
        ("propagator.max_step_norm_drift", "norm", "lower"),
        ("cli.output.self_s", "s", "lower"),
        ("cli.output.bytes", "B", "lower"),
        ("cli.runtime_warnings", "count", "lower"),
        ("cli.fail_frac", "frac", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ])


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent index, run id]
        self.counters = defaultdict(float)
        self.max_step_norm_drift = 0.0
        self.run_id = 0
        self._stack = []

    def wrap(self, name, fn, count=None):
        """``fn`` wrapped in a span; ``count(tracer, args, kwargs, result)``
        records counters after each call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.run_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced

    def self_times(self):
        """Total self time per span name over the whole run."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return out

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        for owner, attr, name, count in _targets():
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig, count))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def metrics(self, runs, extra):
        """Per-layer metrics, each a per-invocation mean over ``runs``
        traced invocations, plus the run-level values in ``extra``."""
        selfs = self.self_times()
        c = self.counters
        per = 1.0 / max(runs, 1)
        out = {}
        for s in ODE_SYSTEMS:
            key = f"ode.integrate_{s}"
            out[f"{key}.self_s"] = selfs[key] * per
            for k in ODE_STATS:
                out[f"{key}.{k}"] = c[f"{key}.{k}"] * per
            tried = c[f"{key}.naccept"] + c[f"{key}.nreject"]
            out[f"{key}.accept_ratio"] = (c[f"{key}.naccept"] / tried
                                          if tried else 0.0)
        for key in ("ode.dense_eval", "core.TimeFunction.call"):
            out[f"{key}.self_s"] = selfs[key] * per
            out[f"{key}.points"] = c[f"{key}.points"] * per
        out["core.parse_scenario_file.self_s"] = \
            selfs["core.parse_scenario_file"] * per
        for f in ("frame_from_beta", "verification_series", "compute_omega"):
            key = f"invariants.{f}"
            out[f"{key}.self_s"] = selfs[key] * per
            out[f"{key}.calls"] = c[f"{key}.calls"] * per
            out[f"{key}.points"] = c[f"{key}.points"] * per
        out["quantum.eval_psin.self_s"] = selfs["quantum.eval_psin"] * per
        out["quantum.eval_psin.calls"] = c["quantum.eval_psin.calls"] * per
        key = "propagator.propagate_and_compare"
        steps = c["propagator.steps"]
        out[f"{key}.self_s"] = selfs[key] * per
        out["propagator.steps"] = steps * per
        out["propagator.step_us"] = selfs[key] / steps * 1e6 if steps else 0.0
        out["propagator.bytes_per_step"] = (
            c["propagator.bytes"] / steps if steps else 0.0)
        out["propagator.max_step_norm_drift"] = self.max_step_norm_drift
        out["cli.output.self_s"] = selfs["cli.output"] * per
        out["cli.output.bytes"] = c["cli.output.bytes"] * per
        out.update(extra)
        return out


# ---------- counters recorded at the layer boundaries ----------

def _ode_stats(name):
    def count(tr, args, kwargs, sol):
        for k in ODE_STATS:
            tr.counters[f"{name}.{k}"] += sol.stats[k]
    return count


def _points(name, arg):
    """Counts calls and the size of positional argument ``arg``."""
    def count(tr, args, kwargs, result):
        tr.counters[f"{name}.calls"] += 1
        tr.counters[f"{name}.points"] += np.size(args[arg])
    return count


def _sampled(name, ts):
    """Counts calls and the sample times ``ts(result)`` of each result."""
    def count(tr, args, kwargs, result):
        tr.counters[f"{name}.calls"] += 1
        tr.counters[f"{name}.points"] += np.size(ts(result))
    return count


def _calls(name):
    def count(tr, args, kwargs, result):
        tr.counters[f"{name}.calls"] += 1
    return count


def _propagation(tr, args, kwargs, run):
    s = args[0]
    steps = run.step_norms.shape[0]
    tr.counters["propagator.steps"] += steps
    tr.counters["propagator.bytes"] += steps * s.npoints * CN_BYTES_PER_POINT
    tr.max_step_norm_drift = max(tr.max_step_norm_drift,
                                 run.max_step_norm_drift)


def _output_bytes(path_arg):
    def count(tr, args, kwargs, result):
        tr.counters["cli.output.bytes"] += os.path.getsize(args[path_arg])
    return count


def _targets():
    """(owner, attribute, span name, counter) for every wrapped function,
    in each namespace its callers look it up in."""
    cli, inv, prop = bckosc.cli, bckosc.invariants, bckosc.propagator
    out = [(cli, "parse_scenario_file", "core.parse_scenario_file", None),
           (bckosc.core.TimeFunction, "__call__", "core.TimeFunction.call",
            _points("core.TimeFunction.call", 1)),
           (bckosc.ode.ODESolution, "__call__", "ode.dense_eval",
            _points("ode.dense_eval", 1))]
    for s in ODE_SYSTEMS:
        name = f"ode.integrate_{s}"
        out.append((cli, f"integrate_{s}", name, _ode_stats(name)))
    out.append((prop, "integrate_beta", "ode.integrate_beta",
                _ode_stats("ode.integrate_beta")))
    for owner in (cli, inv, prop):
        out.append((owner, "frame_from_beta", "invariants.frame_from_beta",
                    _points("invariants.frame_from_beta", 2)))
    out.append((cli, "verification_series", "invariants.verification_series",
                _sampled("invariants.verification_series",
                         lambda r: r["ts"])))
    out.append((cli, "compute_omega", "invariants.compute_omega",
                _sampled("invariants.compute_omega", lambda r: r.ts)))
    for owner in (cli, prop):
        out.append((owner, "eval_psin", "quantum.eval_psin",
                    _calls("quantum.eval_psin")))
    out.append((cli, "propagate_and_compare",
                "propagator.propagate_and_compare", _propagation))
    out.append((cli, "write_verification_report", "cli.output",
                _output_bytes(0)))
    out.append((cli, "write_spectrum_csv", "cli.output", _output_bytes(0)))
    out.append((bckosc.propagator.PropagationRun, "to_csv", "cli.output",
                _output_bytes(1)))
    out.append((bckosc.quantum.WaveFunction, "to_csv", "cli.output",
                _output_bytes(1)))
    return out
