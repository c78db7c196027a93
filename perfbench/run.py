#!/usr/bin/env python3
"""The bckosc benchmark: runs the ``bckosc`` CLI the way a user does and
reports its end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-driven --seed 1 \\
        --seconds 55 --trace 0

Workloads (see NOTES.md for why each was chosen):

* ``verify-driven``: ``bckosc verify`` on the bundled driven scenario at
  the acceptance tolerances.
* ``propagate-driven``: ``bckosc propagate`` on the same scenario.

The benchmark runs one CLI process at a time, in order, for about
``--seconds`` (at least one).  Before that it times a few fresh
interpreters that import ``bckosc``, parse the scenario and exit: the
set-up time.  A host-speed probe, a fixed loop of this file, runs before
and after every CLI process, and their wall and CPU times are scaled by
it to a reference host speed.  Each set-up interpreter is scaled the
same way by a bare interpreter that imports only numpy (see NOTES.md).  Every process is checked:
exit code, every PASS/FAIL line against its bound, and an output CSV
that holds only finite numbers.  A process fails on a non-zero exit, a FAIL line, a
missing check or CSV, or a non-finite CSV value.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` they are the per-layer ones: a third of the time runs
untraced processes, the rest runs the argv twice at a time in this
process through ``bckosc.cli.main``, untraced and then with the span
wrappers of ``spans.py`` installed, after one untraced warm-up call.

Each metric is printed by name with its unit, then run metadata, then the
result: the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Details of every process
go to .perfbench/<workload>-<seed>-<trace>/result.json.  Without the
``bckosc`` sources in src/ the benchmark exits with code 2 and prints no
result.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DRIVEN = ROOT / "scenarios" / "underdamped_driven.cfg"

# Every run ends well within the 180 s a run may take; a process still
# running at the deadline is killed and counts as failed.
DEADLINE_S = 170.0
SETUP_REPS = 9

# The end-to-end times are scaled to a host on which host_probe() takes
# REF_PROBE_S and an interpreter running REF_IMPORT_MAIN takes
# REF_IMPORT_S.  See host_probe and setup_times.
REF_PROBE_S = 0.30
REF_IMPORT_S = 0.20
REF_IMPORT_MAIN = "import numpy"
PROBE_POINTS = 1024
PROBE_SWEEPS = 100

CHILD_MAIN = "import sys; from bckosc.cli import main; sys.exit(main())"
SETUP_MAIN = ("import sys, bckosc\n"
              "for path in sys.argv[1:]:\n"
              "    bckosc.parse_scenario_file(path)\n")
META_MAIN = ("import json, platform, numpy, scipy, bckosc._accel as a; "
             "print(json.dumps({'python': platform.python_version(), "
             "'numpy': numpy.__version__, 'scipy': scipy.__version__, "
             "'backend': 'numba' if a.NUMBA_ENABLED else 'numpy'}))")

CHECKS = {
    "verify": ("I drift", "IQ drift", "omega drift", "C drift",
               "ermakov residual", "gamma ODE vs 2|beta|^2",
               "sigma ODE vs -2Re(b*F)"),
    "propagate": ("fidelity defect",),
}
CHECK_LINE = re.compile(r"^(.+?)\s+(\S+)\s+\(tol (\S+)\)\s+(PASS|FAIL)$")
WROTE_LINE = re.compile(r"^wrote (.+)$")


@dataclass(frozen=True)
class Workload:
    command: str
    options: tuple = ()


WORKLOADS = {
    # the acceptance tolerances of criteria 1-5
    "verify-driven": Workload(
        "verify", ("--rtol", "1e-12", "--atol", "1e-14", "--tol", "1e-8")),
    # 1024 points, 789 Crank-Nicolson steps; the overlap bound is the
    # fidelity-defect bound 1e-4 of criterion 8
    "propagate-driven": Workload(
        "propagate", ("--n", "0", "--periods", "0.5", "--dt", "0.004",
                      "--min-overlap", "0.9999")),
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


@dataclass
class Invocation:
    """One CLI invocation and what its output check found."""

    wall: float
    rc: int
    cpu: float = math.nan
    maxrss_kb: int = 0
    warnings: int = 0
    traced: bool = False
    probe: float = math.nan
    checks: list = field(default_factory=list)
    problems: list = field(default_factory=list)


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (
        os.pathsep + path if path else ""))


def host_probe():
    """Seconds taken by a fixed piece of work in the style of the
    program's hot loops when numba is absent: Python loops over numpy
    arrays, here a complex tridiagonal solve.

    A shared virtual machine can change speed by 1.5x for seconds to
    minutes at a time, and a process's CPU time changes with it.  The probe slows down with the program, so a time divided by the
    probes next to it is steady where the raw time is not.  The probe's
    work is fixed here and does not depend on bckosc."""
    n = PROBE_POINTS
    diag = np.linspace(1.0, 3.0, n)
    psi = diag.astype(np.complex128)
    u, cp, out = psi.copy(), psi.copy(), psi.copy()
    a, off = 0.01, -0.5
    ia = complex(0.0, a)
    o = ia * off
    start = time.perf_counter()
    for _ in range(PROBE_SWEEPS):
        for j in range(n):
            hp = diag[j] * psi[j]
            if j > 0:
                hp += off * psi[j - 1]
            if j < n - 1:
                hp += off * psi[j + 1]
            u[j] = psi[j] - ia * hp
        cp[0] = o / complex(1.0, a * diag[0])
        u[0] = u[0] / complex(1.0, a * diag[0])
        for j in range(1, n):
            denom = complex(1.0, a * diag[j]) - o * cp[j - 1]
            cp[j] = o / denom
            u[j] = (u[j] - o * u[j - 1]) / denom
        out[n - 1] = u[n - 1]
        for j in range(n - 2, -1, -1):
            out[j] = u[j] - cp[j] * out[j + 1]
    return time.perf_counter() - start


def probed(step, probe=host_probe):
    """``step`` with a ``probe()`` after each call; each result's
    ``probe`` is the mean of the probes just before and just after it."""
    last = probe()

    def call():
        nonlocal last
        item = step()
        after = probe()
        item.probe = 0.5 * (last + after)
        last = after
        return item
    return call


def scaled(invs, attr, ref=REF_PROBE_S):
    """Median of ``attr`` over ``invs``, each scaled by its own probe to
    the reference host speed, on which the probe takes ``ref``."""
    return statistics.median(getattr(i, attr) / i.probe for i in invs) * ref


def run_child(argv, logdir, timeout):
    """Run one process to completion; returns (wall, rusage, exit code,
    stdout, stderr).  Resource use comes from os.wait4 on the child."""
    out_path, err_path = logdir / "stdout.txt", logdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage, proc.returncode,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"))


def csv_problem(path):
    """None if ``path`` is a CSV whose rows and comment footers hold only
    finite numbers, else what is wrong with it."""
    if not path.is_file():
        return f"output {path.name} missing"
    rows = 0
    with open(path) as fh:
        fh.readline()  # header
        for line in fh:
            if line.startswith("#"):
                fields = re.findall(r"=\s*([^,\s]+)", line)
            else:
                fields = line.strip().split(",")
                rows += 1
            for text in fields:
                try:
                    value = float(text)
                except ValueError:
                    return f"{path.name}: {text!r} is not a number"
                if not math.isfinite(value):
                    return f"{path.name}: non-finite value {text}"
    return None if rows else f"{path.name} has no rows"


def check_output(inv, command, stdout):
    """Parse PASS/FAIL lines and the written CSV into ``inv``."""
    if inv.rc != 0:
        inv.problems.append(f"exit code {inv.rc}")
    written = []
    for line in stdout.splitlines():
        line = line.strip()
        m = CHECK_LINE.match(line)
        if m:
            label, verdict = m.group(1), m.group(4)
            value, bound = float(m.group(2)), float(m.group(3))
            inv.checks.append((label, value, bound, verdict))
            if verdict == "FAIL":
                inv.problems.append(f"{label}: FAIL")
            elif not value <= bound:
                inv.problems.append(
                    f"{label}: PASS with {value:g} over bound {bound:g}")
        m = WROTE_LINE.match(line)
        if m:
            written.append(Path(m.group(1)))
    seen = {c[0] for c in inv.checks}
    for label in CHECKS[command]:
        if label not in seen:
            inv.problems.append(f"{label}: no check line")
    if inv.rc == 0 and len(written) != 1:
        inv.problems.append(f"{len(written)} output files reported")
    for path in written:
        if not path.is_absolute():
            path = ROOT / path
        problem = csv_problem(path)
        if problem:
            inv.problems.append(problem)


def cli_argv(wl, outdir):
    return [wl.command, "--scenario", str(DRIVEN), "--out", str(outdir),
            *wl.options]


def invoke(wl, rundir, timeout):
    """Run the CLI in a fresh interpreter, as a user does."""
    outdir = rundir / "out"
    wall, usage, rc, stdout, stderr = run_child(
        [sys.executable, "-c", CHILD_MAIN, *cli_argv(wl, outdir)],
        rundir, timeout)
    inv = Invocation(wall=wall, rc=rc, cpu=usage.ru_utime + usage.ru_stime,
                     maxrss_kb=usage.ru_maxrss,
                     warnings=stderr.count("RuntimeWarning"))
    check_output(inv, wl.command, stdout)
    return inv


def invoke_in_process(wl, rundir, tracer=None):
    """Run the same argv in this process, with the span wrappers of
    ``tracer`` installed when one is given."""
    import bckosc.cli

    buf = io.StringIO()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            tracer.run_id += 1
            stack.enter_context(tracer.installed())
        stack.enter_context(contextlib.redirect_stdout(buf))
        start = time.perf_counter()
        try:
            rc = bckosc.cli.main(cli_argv(wl, rundir / "out"))
            error = None
        except Exception as exc:  # a child would exit 1 with a traceback
            rc, error = 1, f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    inv = Invocation(wall=wall, rc=rc, traced=tracer is not None)
    if error:
        inv.problems.append(error)
    check_output(inv, wl.command, buf.getvalue())
    return inv


def loop(seconds, deadline, step):
    """Call ``step()`` while another call, as long as the mean one so
    far, ends within ``seconds`` and before the deadline; at least once.
    Returns the results."""
    out = []
    start = now = time.perf_counter()
    while not out or (now + (now - start) / len(out) <= min(
            start + seconds, deadline)):
        out.append(step())
        now = time.perf_counter()
    return out


def setup_times(rundir, deadline):
    """Fresh interpreters that import bckosc, parse the scenario and
    exit.  Each one's probe is a bare interpreter that imports only
    numpy, bckosc's one import-time dependency: process start and
    imports follow the host's speed, but not as host_probe() does."""
    def interpreter(*args):
        wall, _, rc, _, stderr = run_child(
            [sys.executable, "-c", *args], rundir,
            deadline - time.perf_counter())
        if rc != 0:
            raise HarnessError(f"set-up interpreter failed ({rc}): "
                               f"{stderr.strip()[-400:]}")
        return wall

    step = probed(
        lambda: Invocation(wall=interpreter(SETUP_MAIN, str(DRIVEN)), rc=0),
        lambda: interpreter(REF_IMPORT_MAIN))
    return [step() for _ in range(SETUP_REPS)]


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(name, seed, trace, rundir, deadline):
    """Interpreter, library versions and backend as a fresh interpreter
    sees them; this first process also warms the file cache."""
    _, _, rc, stdout, stderr = run_child(
        [sys.executable, "-c", META_MAIN], rundir,
        deadline - time.perf_counter())
    if rc != 0:
        raise HarnessError(f"cannot import bckosc from {SRC}: "
                           f"{stderr.strip()[-400:]}")
    meta = json.loads(stdout.strip().splitlines()[-1])
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    meta.update(nproc=nproc, machine=platform.machine(), git_sha=git_sha(),
                workload=name, seed=seed, trace=trace)
    return meta


def end_to_end(invs, setup):
    return {
        "wall_s": scaled(invs, "wall"),
        "cpu_s": scaled(invs, "cpu"),
        "setup_s": scaled(setup, "wall", REF_IMPORT_S),
        "peak_rss_mb": max(i.maxrss_kb for i in invs) / 1024.0,
    }


def unscaled(invs, setup):
    """The raw medians behind the scaled times, and the probes'."""
    return {
        "wall_s": statistics.median(i.wall for i in invs),
        "cpu_s": statistics.median(i.cpu for i in invs),
        "probe_s": statistics.median(i.probe for i in invs),
        "setup_s": statistics.median(i.wall for i in setup),
        "import_numpy_s": statistics.median(i.probe for i in setup),
    }


def per_layer(plain, in_process, pairs, tracer):
    """Per-layer metrics of the traced invocations.  The tracing overhead
    compares each traced in-process invocation with the same argv run
    untraced in this process just before it."""
    untraced = sum(u.wall for u, _ in pairs)
    traced = [t for _, t in pairs]
    invs = plain + in_process
    return tracer.metrics(len(traced), {
        "cli.runtime_warnings": statistics.fmean(i.warnings for i in plain),
        "cli.fail_frac": sum(bool(i.problems) for i in invs) / len(invs),
        "trace.overhead_frac": sum(t.wall for t in traced) / untraced - 1.0,
    })


def summarize_checks(invs):
    """Worst measured value of each check next to its bound."""
    worst = {}
    for inv in invs:
        for label, value, bound, verdict in inv.checks:
            w = worst.setdefault(label, {"worst": value, "bound": bound,
                                         "pass": 0, "fail": 0})
            if not value <= w["worst"]:
                w["worst"] = value
            w["pass" if verdict == "PASS" else "fail"] += 1
    return worst


def run(name, seed, seconds, trace):
    """One benchmark run; returns (result, details)."""
    if not (SRC / "bckosc" / "__init__.py").is_file():
        raise HarnessError(f"no bckosc sources under {SRC}")
    deadline = time.perf_counter() + DEADLINE_S
    wl = WORKLOADS[name]
    rundir = WORK / f"{name}-{seed}-{trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    meta = metadata(name, seed, trace, rundir, deadline)
    setup = setup_times(rundir, deadline)

    def untraced():
        return invoke(wl, rundir, deadline - time.perf_counter())

    if trace:
        sys.path.insert(0, str(SRC))
        from spans import PER_LAYER, Tracer

        raw = {}
        plain = loop(seconds / 3, deadline, untraced)
        # The first in-process call pays the one-time costs: lazy imports,
        # and the JIT compile or cache load of _accel where numba is
        # present.  It is checked but takes no part in the metrics.
        warm = invoke_in_process(wl, rundir)
        tracer = Tracer()
        pairs = loop(2 * seconds / 3, deadline, lambda: (
            invoke_in_process(wl, rundir),
            invoke_in_process(wl, rundir, tracer)))
        in_process = [warm] + [i for pair in pairs for i in pair]
        invs = plain + in_process
        values = per_layer(plain, in_process, pairs, tracer)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        invs = loop(seconds, deadline, probed(untraced))
        values = end_to_end(invs, setup)
        units = dict(END_TO_END)
        raw = unscaled(invs, setup)
    failed = sum(bool(i.problems) for i in invs)
    result = {
        "correct": failed == 0,
        "attempted": len(invs),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in units},
    }
    details = {"meta": meta, "setup": [vars(i) for i in setup],
               "unscaled": raw, "checks": summarize_checks(invs),
               "invocations": [vars(i) for i in invs], "result": result}
    with open(rundir / "result.json", "w") as fh:
        json.dump(details, fh, indent=1)
    return result, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="measuring time; 0 runs one invocation")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must not be negative")
    try:
        result, details = run(args.workload, args.seed, args.seconds,
                              args.trace)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for k, inv in enumerate(details["invocations"]):
        for problem in inv["problems"]:
            print(f"failed invocation {k}: {problem}")
    for label, w in details["checks"].items():
        print(f"check {label}: worst {w['worst']:.6g} bound {w['bound']:g} "
              f"({w['pass']} PASS, {w['fail']} FAIL)")
    for key, value in details["meta"].items():
        print(f"meta {key} = {value}")
    for key, value in details["unscaled"].items():
        print(f"unscaled median {key} = {value:.6g} s")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    for n, m in result["metrics"].items():
        print(f"metric {n} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
