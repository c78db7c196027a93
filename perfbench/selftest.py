#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Runs every workload of run.py at its smallest size (``--seconds 0``: one
invocation of each kind) with and without tracing.  It checks that each
result line has the keys correct, attempted, failed and metrics, with
valid counts and finite values, and that its workload and metric names
and units are those of BENCHMARK.json.  It also checks that the scenario
generator is deterministic and keeps its two documented conditions, and
that the benchmark refuses to run, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.

Usage, from the root of a checkout: python3 perfbench/selftest.py
Takes under two minutes; exits 0 when every check passes.
"""

import json
import math
import shutil
import subprocess
import sys

from run import ROOT, SRC, WORK, WORKLOADS
from scenarios import documents

SEED = 1
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd, workload, trace, seconds=0):
    cmd = json.loads((cwd / "BENCHMARK.json").read_text())["command"]
    return subprocess.run(
        [*cmd, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec, workload, trace, proc):
    """Problems with one run's result, as a list of strings."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int)
            and isinstance(result["failed"], int)
            and 0 <= result["failed"] <= result["attempted"]
            and result["attempted"] >= 1):
        problems.append("attempted/failed are not valid counts")
    if not (result["correct"] and result["failed"] == 0):
        problems.append("an invocation failed or the run was not correct")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metric names/units differ: missing "
                        f"{sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not (
                isinstance(m["value"], (int, float))
                and math.isfinite(m["value"])):
            problems.append(f"{name}: bad value {m}")
    if not trace:
        for name, m in result["metrics"].items():
            if m["value"] == 0:
                problems.append(f"{name}: end-to-end metric is 0")
    return problems


def check_generator():
    sys.path.insert(0, str(SRC))
    from bckosc import parse_scenario

    problems = []
    docs = documents(5, 10)
    if docs != documents(5, 10):
        problems.append("same seed gave different documents")
    if docs == documents(6, 10):
        problems.append("different seeds gave the same documents")
    for k, text in enumerate(docs):
        s = parse_scenario(text)
        if not s.omega(s.t0) ** 2 > s.damping(s.t0) ** 2:
            problems.append(f"document {k}: omega(t0)^2 <= g(t0)^2")
        if s.force(s.t0) != 0.0:
            problems.append(f"document {k}: F(t0) != 0")
    return problems


def check_bare():
    """Only BENCHMARK.json and the benchmark's paths: must refuse."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, spec["workloads"][0]["name"], 0, seconds=1)
    lines = proc.stdout.strip().splitlines()
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0 without the sources")
    if lines and lines[-1].startswith("{"):
        problems.append("printed a result without the sources")
    shutil.rmtree(bare)
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    checks = [("workload names",
               lambda: [] if names == list(WORKLOADS) else
               [f"BENCHMARK.json has {names}, run.py {list(WORKLOADS)}"]),
              ("generator", check_generator), ("bare directory", check_bare)]
    for workload in WORKLOADS:
        for trace in (0, 1):
            checks.append((
                f"{workload} --trace {trace}",
                lambda w=workload, t=trace: check_result(
                    spec, w, t, run_bench(ROOT, w, t))))
    failed = 0
    for label, check in checks:
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {label}")
        for p in problems:
            print(f"    {p}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
