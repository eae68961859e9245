"""Source hygiene: every imported name in the package and scripts is used,
the package keeps no process-wide memo and never uses scipy.integrate, and
importing it starts no thread and loads no scipy."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "heavytail_lmc").glob("*.py"))
SOURCES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
)
# Decorators whose memo lives as long as the process and grows with every
# distinct argument.  Memos stay on the instance that owns them.
GLOBAL_MEMOS = {"lru_cache", "cache"}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def _global_memos(tree: ast.Module) -> list[str]:
    modules = {"functools"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"functools.{alias.name} (line {node.lineno})"
                      for alias in node.names if alias.name in GLOBAL_MEMOS]
        elif (isinstance(node, ast.Attribute) and node.attr in GLOBAL_MEMOS
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"functools.{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_process_wide_memo(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _global_memos(tree) == []


@pytest.mark.parametrize("source", [
    "import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): pass",
    "import functools as ft\n@ft.cache\ndef f(x): pass",
    "from functools import lru_cache",
    "from functools import cache as memo",
])
def test_process_wide_memo_check_finds_each_form(source):
    assert len(_global_memos(ast.parse(source))) == 1


def _module_level_scipy_imports(tree: ast.Module) -> list[str]:
    """Imports of scipy that run when the module is imported: any outside a
    function body."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.split(".")[0] == "scipy"]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "scipy"):
            found.append(f"{node.module} (line {node.lineno})")
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _module_level_scipy_imports(tree) == []


@pytest.mark.parametrize("source", [
    "import scipy",
    "import scipy.special as sp",
    "from scipy import integrate",
    "from scipy.optimize import brentq",
])
def test_module_level_scipy_check_finds_each_form(source):
    assert len(_module_level_scipy_imports(ast.parse(source))) == 1
    nested = "def f():\n    " + source + "\nclass C:\n    " + source
    assert len(_module_level_scipy_imports(ast.parse(nested))) == 1


def _scipy_integrate_uses(tree: ast.Module) -> list[str]:
    """Imports of scipy.integrate, and reads of it off scipy, anywhere in
    the module: every integral goes through the package's own rule."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.split(".")[:2] == ["scipy", "integrate"]]
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")
            if module[:2] == ["scipy", "integrate"] or (
                    module == ["scipy"]
                    and any(alias.name == "integrate" for alias in node.names)):
                found.append(f"{node.module} (line {node.lineno})")
        elif (isinstance(node, ast.Attribute) and node.attr == "integrate"
              and isinstance(node.value, ast.Name) and node.value.id == "scipy"):
            found.append(f"scipy.integrate (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_scipy_integrate(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _scipy_integrate_uses(tree) == []


@pytest.mark.parametrize("source", [
    "import scipy.integrate",
    "import scipy.integrate as si",
    "from scipy import integrate",
    "from scipy import special, integrate as si",
    "from scipy.integrate import quad",
    "import scipy\nscipy.integrate.quad(f, 0, 1)",
])
def test_scipy_integrate_check_finds_each_form(source):
    assert len(_scipy_integrate_uses(ast.parse(source))) == 1
    nested = "def f():\n    " + source.replace("\n", "\n    ")
    assert len(_scipy_integrate_uses(ast.parse(nested))) == 1
    assert _scipy_integrate_uses(ast.parse("from scipy import special")) == []


def _run_fresh(args: list[str], **env_extra) -> subprocess.CompletedProcess:
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, check=True, timeout=300)


def test_import_starts_no_thread():
    proc = _run_fresh(
        ["-c", "import threading, heavytail_lmc; print(threading.active_count())"])
    assert proc.stdout.strip() == "1"


SAMPLER_ONLY_RUN = """
import os, tempfile
from heavytail_lmc import GenCauchy, gaussian_init, run_chains, write_trace_csv
init = gaussian_init(4.0, 2, 64, 0.01, seed=3)
trace = run_chains(GenCauchy(d=2, nu=3.0), init, 20, record_every=5)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "trace.csv")
    write_trace_csv(trace, path)
    with open(path) as fh:
        assert fh.readline().strip() == "iter,m2,se,n_chains"
"""


@pytest.mark.parametrize("args", [
    ["-c", "import heavytail_lmc"],
    ["-m", "heavytail_lmc", "--help"],
    ["-c", SAMPLER_ONLY_RUN],
], ids=["import", "help", "sampler"])
def test_scipy_stays_unloaded(args):
    # -X importtime writes one stderr line per module the process imports
    proc = _run_fresh(["-X", "importtime", *args])
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "heavytail_lmc" in imported
    assert imported & {"scipy.special", "scipy.integrate", "scipy.optimize"} == set()


FIRST_CALLS_ON_THREADS = """
import sys, threading
from heavytail_lmc import (GenCauchy, Gaussian, Sublinear, log_normalizing_constant,
                           median_radius, tail_mass, tilde_moment)

def values():
    return (log_normalizing_constant(GenCauchy(d=1, nu=2.0)),
            median_radius(GenCauchy(d=1, nu=2.0)),
            Gaussian(d=1).deep_tail_quantile(1e-9),
            tail_mass(Sublinear(d=2, alpha=0.5), 3.0),
            tilde_moment(2, 0.5, 1.0, 2.0))

assert not {"scipy.special", "scipy.integrate", "scipy.optimize"} & set(sys.modules)
barrier = threading.Barrier(2, timeout=60)
results = [None, None]

def leg(i):
    barrier.wait()
    results[i] = values()

threads = [threading.Thread(target=leg, args=(i,)) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join(120)
    assert not t.is_alive()
assert results[0] == results[1] == values(), results
print("ok")
"""


def test_first_scipy_calls_on_two_threads_agree():
    # two threads race to be the first caller of each scipy submodule
    assert _run_fresh(["-c", FIRST_CALLS_ON_THREADS]).stdout.strip() == "ok"


SWEEP_FLAGS = ["phase-transition", "--family", "gaussian", "--d", "2",
               "--sigma2", "16,64", "--h", "0.05", "--n-chains", "500",
               "--n-iters", "50", "--record-every", "5", "--seed", "3"]
SCIPY_UP_FRONT = ("import sys, scipy.special, scipy.integrate, scipy.optimize\n"
                  "from heavytail_lmc.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))")


def test_sweep_on_pool_threads_matches_scipy_loaded_up_front(tmp_path):
    lazy, eager = tmp_path / "lazy", tmp_path / "eager"
    _run_fresh(["-m", "heavytail_lmc", *SWEEP_FLAGS, "--output-dir", str(lazy)],
               HEAVYTAIL_THREADS="2")
    _run_fresh(["-c", SCIPY_UP_FRONT, *SWEEP_FLAGS, "--output-dir", str(eager)],
               HEAVYTAIL_THREADS="2")
    for name in ("phase.csv", "phase.svg"):
        assert (lazy / name).read_bytes() == (eager / name).read_bytes(), name
    assert len((lazy / "phase.csv").read_text().splitlines()) == 1 + 6
