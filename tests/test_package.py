"""Package-wide checks: the BLAS thread pool numpy starts when bckosc loads
it, module-level imports that nothing reads, and the module constants the
README quotes."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from bckosc import ode, propagator

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# the CPUs this process may run on, which is what OpenBLAS sizes its pool by
CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)

# imports each named module in turn and records, after each one, the
# process's thread count and whether os.environ is what it was before
PROBE = """
import json, os, sys
seen = []
for name in sys.argv[1:]:
    before = dict(os.environ)
    __import__(name)
    seen.append([len(os.listdir("/proc/self/task")), dict(os.environ) == before])
print(json.dumps(seen))
"""

linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="counts threads in /proc/self/task")
several_cpus = pytest.mark.skipif(CPUS < 2, reason="OpenBLAS starts no "
                                  "worker thread on a single CPU")


def probe(*modules, **env):
    """Run PROBE in a fresh interpreter whose environment sets none of the
    BLAS thread variables apart from ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    base["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    out = subprocess.run([sys.executable, "-c", PROBE, *modules],
                         env=dict(base, **env), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@linux_only
@several_cpus
def test_bckosc_loads_numpy_with_one_blas_thread():
    # one thread, and OPENBLAS_NUM_THREADS is unset again afterwards
    assert probe("bckosc") == [[1, True]]


@linux_only
@several_cpus
@pytest.mark.parametrize("var", BLAS_VARS)
def test_user_blas_thread_count_is_kept(var):
    assert probe("bckosc", **{var: "2"}) == [[2, True]]


@linux_only
def test_numpy_loaded_first_is_left_alone():
    (numpy_threads, _), bckosc_seen = probe("numpy", "bckosc")
    assert bckosc_seen == [numpy_threads, True]


# ---------- unused imports ----------

MODULES = sorted([*(ROOT / "src" / "bckosc").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(path):
    """Names bound by the module's top-level imports that no expression in
    the module reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"],
    ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    # the package __init__ is exempt: its imports are re-exports
    assert unused_imports(path) == []


# ---------- the oracles' independence ----------

# what tests/oracles.py may take from bckosc: data types, constants and
# errors, never an operation of the paths its references are compared with
ORACLE_ALLOWED = {
    "bckosc": {"InvariantFrame", "Scenario", "TimeFunction"},
    "bckosc.core": {"KIND_EXP", "KIND_POLY", "KIND_SIN"},
    "bckosc.quantum": {"MAX_DEGREE"},
}


def test_oracles_import_only_types_constants_and_errors():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            taken += [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            taken += [(node.module, a.name) for a in node.names]
    from_bckosc = [(module, name) for module, name in taken
                   if module.split(".")[0] == "bckosc"]
    assert from_bckosc
    for module, name in from_bckosc:
        assert (module == "bckosc.errors"
                or name in ORACLE_ALLOWED.get(module, ())), (module, name)


# ---------- the two routes ----------

# the functions that read H's coefficients, the Hamiltonian route; the
# amplitude route (integrate_beta, integrate_gamma, integrate_sigma, the
# invariants and the wavefunctions) and the oracles code the force apart
HAMILTONIAN_ROUTE = {"ode.integrate_classical", "propagator.build_hamiltonian"}


def referrers(path, name):
    """The module's top-level functions, methods (Class.method) and other
    statements that read ``name``, as a bare name or an attribute."""
    owners = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ClassDef):
            owners += [(f"{node.name}.{getattr(n, 'name', '<body>')}", n)
                       for n in node.body]
        else:
            owners.append((getattr(node, "name", "<module>"), node))
    return {f"{path.stem}.{owner}" for owner, node in owners
            if any(isinstance(n, ast.Name) and n.id == name
                   or isinstance(n, ast.Attribute) and n.attr == name
                   for n in ast.walk(node))}


def test_only_the_hamiltonian_route_reads_its_coefficients():
    paths = [*(ROOT / "src" / "bckosc").glob("*.py"),
             ROOT / "tests" / "oracles.py"]
    found = set().union(*(referrers(p, "hamiltonian_coefficients")
                          for p in paths))
    assert found == HAMILTONIAN_ROUTE


# ---------- figures the README quotes ----------

@pytest.mark.parametrize("pattern, value", [
    (r"`propagator\.BLOCK` \((\d+)\)", propagator.BLOCK),
    (r"`propagator\.REDUCED` \((\d+)\)", propagator.REDUCED),
    (r"(\d+) steps at a time", ode._CHUNK),
])
def test_readme_quotes_the_module_constants(pattern, value):
    text = " ".join((ROOT / "README.md").read_text().split())
    assert re.findall(pattern, text) == [str(value)]
