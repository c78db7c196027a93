"""Package-wide checks: the BLAS thread pool numpy starts when bckosc loads
it, module-level imports that nothing reads, and the module constants the
README quotes."""

import ast
import json
import math
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


def owners(path, match):
    """The module's top-level functions, methods (Class.method) and other
    statements with a node that ``match`` accepts."""
    found = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{getattr(n, 'name', '<body>')}", n)
                      for n in node.body]
        else:
            found.append((getattr(node, "name", "<module>"), node))
    return {f"{path.stem}.{owner}" for owner, node in found
            if any(match(n) for n in ast.walk(node))}


def reads(name):
    """Whether a node reads ``name``, as a bare name or an attribute."""
    return lambda n: (isinstance(n, ast.Name) and n.id == name
                      or isinstance(n, ast.Attribute) and n.attr == name)


def referrers(path, name):
    """The module's owners (``owners``) that read ``name``."""
    return owners(path, reads(name))


def test_only_the_hamiltonian_route_reads_its_coefficients():
    paths = [*(ROOT / "src" / "bckosc").glob("*.py"),
             ROOT / "tests" / "oracles.py"]
    found = set().union(*(referrers(p, "hamiltonian_coefficients")
                          for p in paths))
    assert found == HAMILTONIAN_ROUTE


def test_only_the_packet_reads_the_phase_integral_and_beta_ratio():
    # psi_n's packet is defined once: the global phase is the one reader of
    # the accumulated phase integral (beside the frame's field), and the
    # chirp the one division of beta' by beta
    paths = sorted((ROOT / "src" / "bckosc").glob("*.py"))
    found = set().union(*(referrers(p, "phase_integral") for p in paths))
    assert found == {"invariants.InvariantFrame.<body>",
                     "invariants.packet_of_frame"}

    def divides_dbeta(n):
        return (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)
                and any(map(reads("dbeta"), ast.walk(n.left))))

    found = set().union(*(owners(p, divides_dbeta) for p in paths))
    assert found == {"invariants.packet_of_frame"}


def test_no_module_reaches_numpy_linalg():
    # the Crank-Nicolson solve's dense inverse was the package's one LAPACK
    # call, and its first call alone made about 1 MB of pages resident
    paths = sorted((ROOT / "src" / "bckosc").glob("*.py"))
    found = set().union(*(referrers(p, "linalg") for p in paths))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "",
                         *(a.name for a in node.names)]
                found |= {f"{path.stem}: import {name}" for name in names
                          if "linalg" in name.split(".")}
    assert found == set()


def write_opens(path):
    """The module.qualname of the function around each call of ``open``
    in the module whose mode may write: any mode but a constant of r, b
    and t."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", None) == "open"):
                modes = [*child.args[1:2], *(k.value for k in child.keywords
                                             if k.arg == "mode")]
                if any(not (isinstance(m, ast.Constant)
                            and set(m.value) <= set("rbt")) for m in modes):
                    found.append(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found


def test_only_write_csv_opens_a_file_to_write():
    # the artifact format (header, rows at 17 digits, LF line ends, the
    # "# name=value, ..." footer) is decided in one place
    found = [owner for path in sorted((ROOT / "src" / "bckosc").glob("*.py"))
             for owner in write_opens(path)]
    assert found == ["core.write_csv"]


# ---------- every function runs in a command ----------

# the functions of the package that no command calls, each with the
# reason it stays
UNCALLED = {
    "__init__.__dir__": "lists the lazily loaded names for dir(bckosc) and "
                        "interactive completion, which no command asks for",
}

# records every Python function a fresh interpreter calls, from before
# `import bckosc.cli` on, while main runs each argv of sys.argv[1] in turn;
# prints the exit codes and the (module, qualified name) of each function
# of the package that ran
AUDIT = """
import json, os, sys
seen = set()

def record(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

sys.setprofile(record)
import bckosc.cli
codes = [bckosc.cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
pkg = os.path.dirname(bckosc.__file__)
print(json.dumps([codes, sorted(
    f"{os.path.basename(c.co_filename)[:-3]}.{c.co_qualname}" for c in seen
    if os.path.dirname(c.co_filename) == pkg)]))
"""

AUDIT_DOCS = {
    "exponential.cfg": "[damping]\ntype = exponential\namplitude = 0.1\n"
                       "rate = -0.2\n",
    "inline.cfg": "[force]\ntype = tabulated\n"
                  "samples = 0:0.0, 1:0.1, 2:0.2, 3:0.1\n",
    "file.cfg": "[force]\ntype = tabulated\nfile = force.csv\n",
}


def package_functions():
    """Every def under src/bckosc as module.qualname: Class.method, and
    outer.<locals>.inner for a nested one."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    for path in (ROOT / "src" / "bckosc").glob("*.py"):
        visit(ast.parse(path.read_text(), str(path)), f"{path.stem}.")
    return found


def test_every_function_runs_in_a_command(tmp_path):
    # the five commands on the bundled scenarios, which hold a constant, a
    # linear and a sinusoidal function, then verify on a document of each
    # other kind; psi_2 at t = 3 needs qmax 13.9 on sho's grid of 12, the
    # one run that exits 4
    for name, section in AUDIT_DOCS.items():
        (tmp_path / name).write_text("[scenario]\nt0 = 0\nt1 = 3\n[omega]\n"
                                     "type = constant\nvalue = 1\n" + section)
    (tmp_path / "force.csv").write_text("t,F\n0,0\n1,0.1\n2,0.2\n3,0.1\n")
    sweeps = {"sho.cfg": ("omega", "1:1.2"),
              "underdamped_driven.cfg": ("F0", "0.4:0.5"),
              "ramp_omega.cfg": ("g", "0.04:0.05")}
    runs, codes = [], []
    for name, (param, span) in sweeps.items():
        for argv, code in (
                (["verify"], 0), (["spectrum"], 0), (["wavefunction"], 0),
                (["wavefunction", "--n", "2", "--t", "3"],
                 4 if name == "sho.cfg" else 0),
                (["propagate", "--periods", "0.2", "--dt", "0.01"], 0),
                (["sweep", "--param", param, "--range", span, "--steps",
                  "2"], 0)):
            runs.append([*argv, "--scenario", str(ROOT / "scenarios" / name)])
            codes.append(code)
    for name in AUDIT_DOCS:
        runs.append(["verify", "--scenario", str(tmp_path / name)])
        codes.append(0)
    runs = [[*argv, "--out", str(tmp_path), "--quiet"] for argv in runs]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path
                                                      if p))
    out = subprocess.run([sys.executable, "-c", AUDIT, json.dumps(runs)],
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    got, called = json.loads(out.stdout.splitlines()[-1])
    assert got == codes
    defined = package_functions()
    for name, reason in UNCALLED.items():
        print(f"not called on purpose: {name}: {reason}")
        assert name in defined and name not in called, name
    assert sorted(defined - set(called) - UNCALLED.keys()) == []

@pytest.mark.parametrize("pattern, value", [
    (r"`propagator\.BLOCK` \((\d+)\)", propagator.BLOCK),
    (r"`propagator\.NEGLIGIBLE` \(2\^(-\d+)\)",
     round(math.log2(propagator.NEGLIGIBLE))),
    (r"(\d+) steps at a time", ode._CHUNK),
])
def test_readme_quotes_the_module_constants(pattern, value):
    text = " ".join((ROOT / "README.md").read_text().split())
    assert re.findall(pattern, text) == [str(value)]
