"""Source hygiene: every imported name in the package and scripts is used,
each public name has one home module, the package keeps no process-wide
memo, neither the package nor the scripts import scipy, threads start only
in the sampler and importing the package starts none, commands run while
scipy cannot be imported and reach the package's own special functions and
root finder, only bounds knows the modified-target width, the scripts
run the CLI's pipelines instead of re-implementing them, and the sampler's
steps do not re-check the batch they advance."""

import ast
import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from heavytail_lmc import (ChainBatch, GenCauchy, RadialCustom, Sublinear,
                           direct_sampler, gaussian_init, lmc_step, make_grid,
                           run_chains, targets)
from heavytail_lmc.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "heavytail_lmc").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
SOURCES = sorted([p for p in PACKAGE if p.name != "__init__.py"] + SCRIPTS)
# Decorators whose memo lives as long as the process and grows with every
# distinct argument.  Memos stay on the instance that owns them.
GLOBAL_MEMOS = {"lru_cache", "cache"}


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


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
    used |= set(_exported(tree))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def _defined(tree: ast.Module) -> set[str]:
    """The names a module binds at top level other than by importing."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_each_public_name_has_one_home():
    """No name is in two modules' __all__, and the package __init__ imports
    each name from the module that defines it."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE}
    homes: dict[str, list[str]] = {}
    for module, tree in trees.items():
        for name in _exported(tree):
            homes.setdefault(name, []).append(module)
    assert {n: m for n, m in homes.items() if len(m) > 1} == {}
    misplaced = [f"{alias.name} from .{node.module}"
                 for node in trees["__init__"].body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names
                 if alias.name not in _defined(trees[node.module])]
    assert misplaced == []


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


# Names that import a module from a string: scipy reached this way is
# still an import of scipy.
DYNAMIC_IMPORTS = {"__import__", "import_module"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_scipy(module) -> bool:
    return isinstance(module, str) and module.split(".")[0] == "scipy"


def _scipy_names(node: ast.AST) -> list[str]:
    """The scipy modules that this one node imports, in any form."""
    if isinstance(node, ast.Import):
        return [f"{alias.name} (line {node.lineno})" for alias in node.names
                if _is_scipy(alias.name)]
    if isinstance(node, ast.ImportFrom) and _is_scipy(node.module):
        return [f"{node.module} (line {node.lineno})"]
    if (isinstance(node, ast.Call) and node.args
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in DYNAMIC_IMPORTS
            and isinstance(node.args[0], ast.Constant)
            and _is_scipy(node.args[0].value)):
        return [f"{node.args[0].value} (line {node.lineno})"]
    return []


def _scipy_imports(tree: ast.Module, *, in_functions: bool) -> list[str]:
    """Imports of scipy or any of its modules, in any form: those outside
    every function body (they run when the module is imported), or those
    inside one (they run when it is called). The two halves cover the whole
    module: the package and its scripts run on numpy alone, and scipy is
    only the tests' oracle."""
    found = []
    stack = [(node, False) for node in tree.body]
    while stack:
        node, inside = stack.pop()
        inside = inside or isinstance(node, FUNCTIONS)
        if inside == in_functions:
            found += _scipy_names(node)
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", PACKAGE + SCRIPTS, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _scipy_imports(tree, in_functions=False) == []


@pytest.mark.parametrize("path", PACKAGE + SCRIPTS, ids=lambda p: p.name)
def test_no_scipy_integrate(path):
    """No scipy import inside a function either, of any scipy module (the
    name predates the ban on all of scipy)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _scipy_imports(tree, in_functions=True) == []


@pytest.mark.parametrize("source", [
    "import scipy",
    "import scipy.special as sp",
    "from scipy import integrate",
    "from scipy.optimize import brentq",
])
def test_module_level_scipy_check_finds_each_form(source):
    assert len(_scipy_imports(ast.parse(source), in_functions=False)) == 1
    nested = ast.parse("def f():\n    " + source + "\nclass C:\n    " + source)
    assert len(_scipy_imports(nested, in_functions=False)) == 1
    assert len(_scipy_imports(nested, in_functions=True)) == 1
    deferred = ast.parse("g = lambda: __import__('scipy')")
    assert _scipy_imports(deferred, in_functions=False) == []
    assert len(_scipy_imports(deferred, in_functions=True)) == 1


@pytest.mark.parametrize("source", [
    "import scipy.integrate",
    "import scipy.integrate as si",
    "from scipy import integrate",
    "from scipy import special, integrate as si",
    "from scipy.integrate import quad",
    "import scipy\nscipy.integrate.quad(f, 0, 1)",
    "import scipy.optimize",
    "import scipy.optimize as so",
    "from scipy import optimize",
    "from scipy import special, optimize as so",
    "from scipy.optimize import brentq",
    "from scipy.optimize._zeros_py import brentq",
    "import scipy\nscipy.optimize.brentq(f, 0, 1)",
    "from scipy.interpolate import PchipInterpolator",
    "__import__('scipy.optimize')",
    "import importlib\nimportlib.import_module('scipy.special')",
    "from importlib import import_module\nimport_module('scipy')",
])
def test_scipy_integrate_check_finds_each_form(source):
    """Each form of importing scipy, found once at module level and once
    inside a method (the name predates the ban on all of scipy)."""
    assert len(_scipy_imports(ast.parse(source), in_functions=False)) == 1
    nested = ast.parse("class C:\n    def f(self):\n        "
                       + source.replace("\n", "\n        "))
    assert _scipy_imports(nested, in_functions=False) == []
    assert len(_scipy_imports(nested, in_functions=True)) == 1
    allowed = ast.parse("import scipyx\nfrom . import targets\n"
                        "import_module('numpy')\ns = 'scipy'")
    assert _scipy_imports(allowed, in_functions=False) == []


def _thread_starters(tree: ast.Module) -> list[str]:
    """Imports of concurrent.futures and uses of threading.Thread anywhere
    in the module: only the sampler's draw-ahead helper starts threads."""
    threading_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            threading_names |= {alias.asname or alias.name for alias in node.names
                                if alias.name == "threading"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.split(".")[:2] == ["concurrent", "futures"]]
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")
            names = {alias.name for alias in node.names}
            if (module[:2] == ["concurrent", "futures"]
                    or (module == ["concurrent"] and "futures" in names)
                    or (module == ["threading"] and "Thread" in names)):
                found.append(f"{node.module} (line {node.lineno})")
        elif (isinstance(node, ast.Attribute) and node.attr == "Thread"
              and isinstance(node.value, ast.Name)
              and node.value.id in threading_names):
            found.append(f"threading.Thread (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "sampler.py"],
                         ids=lambda p: p.name)
def test_threads_start_only_in_the_sampler(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _thread_starters(tree) == []


@pytest.mark.parametrize("source", [
    "import concurrent.futures",
    "import concurrent.futures as cf",
    "from concurrent.futures import ThreadPoolExecutor",
    "from concurrent import futures",
    "from threading import Thread",
    "import threading\nthreading.Thread(target=print).start()",
    "import threading as th\nth.Thread(target=print)",
])
def test_thread_starter_check_finds_each_form(source):
    assert len(_thread_starters(ast.parse(source))) == 1
    nested = "def f():\n    " + source.replace("\n", "\n    ")
    assert len(_thread_starters(ast.parse(nested))) == 1
    assert _thread_starters(ast.parse(
        "import threading\nthreading.main_thread()")) == []


WIDTH = "_MODIFIED_TARGET_WIDTH"


def _width_references(tree: ast.Module) -> list[str]:
    """Imports, names, attributes and strings naming the modified-target
    comparison's width: bounds applies that rule, and every other module
    takes its verdict from bounds."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"import {WIDTH} (line {node.lineno})"
                      for alias in node.names if alias.name == WIDTH]
        elif (isinstance(node, ast.Name) and node.id == WIDTH
              or isinstance(node, ast.Attribute) and node.attr == WIDTH
              or isinstance(node, ast.Constant) and node.value == WIDTH):
            found.append(f"{WIDTH} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", [p for p in PACKAGE + SCRIPTS
                                  if p.name != "bounds.py"],
                         ids=lambda p: p.name)
def test_only_bounds_knows_the_modified_target_width(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _width_references(tree) == []


@pytest.mark.parametrize("source", [
    "from .bounds import _MODIFIED_TARGET_WIDTH",
    "from heavytail_lmc.bounds import _MODIFIED_TARGET_WIDTH as width",
    "from heavytail_lmc import bounds\nbounds._MODIFIED_TARGET_WIDTH",
    "import heavytail_lmc.bounds as b\nwide = s > 2 * b._MODIFIED_TARGET_WIDTH",
    "from heavytail_lmc import bounds\ngetattr(bounds, '_MODIFIED_TARGET_WIDTH')",
])
def test_width_check_finds_each_form(source):
    assert len(_width_references(ast.parse(source))) == 1
    nested = "def f():\n    " + source.replace("\n", "\n    ")
    assert len(_width_references(ast.parse(nested))) == 1
    assert _width_references(ast.parse(
        "from .bounds import init_divergence_bound, phase_leg_bounds")) == []
    bounds = ROOT / "src" / "heavytail_lmc" / "bounds.py"
    assert _width_references(ast.parse(bounds.read_text()))


# The steps of the CLI's sample and fp-evolve pipelines.
CLI_PIPELINE_STEPS = {"fokker_planck_evolve_1d", "write_fp_csv", "run_chains",
                      "gaussian_init", "write_trace_csv"}


def _cli_pipeline_steps(tree: ast.Module) -> list[str]:
    """Imports of a CLI pipeline step by name, and reads of one off a
    module: a script runs the subcommand that owns the pipeline."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name in CLI_PIPELINE_STEPS]
        elif isinstance(node, ast.Attribute) and node.attr in CLI_PIPELINE_STEPS:
            found.append(f"{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_scripts_do_not_reimplement_the_cli(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _cli_pipeline_steps(tree) == []


@pytest.mark.parametrize("source", [
    "from heavytail_lmc import run_chains",
    "from heavytail_lmc.sampler import gaussian_init as draw",
    "from heavytail_lmc.fi_verify import make_grid, write_fp_csv",
    "import heavytail_lmc\nheavytail_lmc.fokker_planck_evolve_1d(s, r, 1.0, 0.1)",
    "import heavytail_lmc.sampler as smp\nsmp.write_trace_csv(trace, path)",
])
def test_cli_pipeline_step_check_finds_each_form(source):
    assert len(_cli_pipeline_steps(ast.parse(source))) == 1
    nested = "def f():\n    " + source.replace("\n", "\n    ")
    assert len(_cli_pipeline_steps(ast.parse(nested))) == 1
    assert _cli_pipeline_steps(ast.parse(
        "from heavytail_lmc import make_grid\n"
        "from heavytail_lmc.cli import main, cmd_phase_transition")) == []


def _run_fresh(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, check=True, timeout=300)


def test_the_hot_path_validates_once(monkeypatch):
    """ChainBatch checks its fields when a caller builds one; the sampler's
    steps do not check them again.  The number of ``__post_init__`` calls in
    ``run_chains`` does not grow with ``n_iters``, and the batch
    ``lmc_step`` returns is the one the constructor builds from its values:
    an int k, a float h and float64 2-D positions, field for field."""
    spec = GenCauchy(d=2, nu=2.0)
    start = gaussian_init(sigma2=4.0, d=2, n_chains=32, h=0.05, seed=3)
    init = ChainBatch(start.positions, h=0.05, k=7, rng_root=3)
    checks, real = [], ChainBatch.__post_init__

    def counted(self):
        checks.append(self.k)
        real(self)

    monkeypatch.setattr(ChainBatch, "__post_init__", counted)
    counts = []
    for n_iters in (1, 5, 60):
        checks.clear()
        run_chains(spec, init, n_iters, record_every=2)
        counts.append(len(checks))
    assert counts[0] == counts[1] == counts[2]

    stepped = lmc_step(init, spec)
    built = ChainBatch(stepped.positions, h=stepped.h, k=stepped.k,
                       rng_root=stepped.rng_root)
    assert vars(stepped).keys() == vars(built).keys()
    for name, value in vars(built).items():
        got = getattr(stepped, name)
        assert type(got) is type(value), name
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype == np.float64 and got.ndim == 2
            assert got.tobytes() == value.tobytes()
        else:
            assert got == value, name
    assert (stepped.k, stepped.h, stepped.rng_root) == (8, 0.05, 3)


def test_import_starts_no_thread():
    proc = _run_fresh(
        ["-c", "import threading, heavytail_lmc; print(threading.active_count())"])
    assert proc.stdout.strip() == "1"


FIRST_CALLS_ON_THREADS = """
import threading
from heavytail_lmc import (GenCauchy, Gaussian, Sublinear, log_normalizing_constant,
                           median_radius, tail_mass, tilde_moment)

def values():
    return (log_normalizing_constant(GenCauchy(d=1, nu=2.0)),
            median_radius(GenCauchy(d=1, nu=2.0)),
            Gaussian(d=1).deep_tail_quantile(1e-9),
            tail_mass(Sublinear(d=2, alpha=0.5), 3.0),
            tilde_moment(2, 0.5, 1.0, 2.0))

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


def test_first_calls_on_two_threads_agree():
    # two threads race to be the first caller of log-gamma, the erfc
    # quantile, the root finder and the quadratures
    assert _run_fresh(["-c", FIRST_CALLS_ON_THREADS]).stdout.strip() == "ok"


# One command of each kind that needs log-gamma, the erfc quantile or a
# root search: log Z and moments in closed form or by quadrature (the
# sphere area), the window and core width of make_grid's default grid,
# and a heavy-tailed sweep's median radius.
COMMANDS = [
    ["verify", "wpi", "--r-grid", "0.1,0.5"],
    ["verify", "fp"],
    ["fp-evolve", "--family", "gaussian", "--d", "1", "--sigma2", "4",
     "--t-final", "0.001", "--dt", "1e-5"],
    ["fp-evolve", "--family", "gen_cauchy", "--nu", "2", "--d", "1",
     "--sigma2", "4", "--t-final", "0.01", "--dt", "1e-3"],
    ["phase-transition", "--family", "gen_cauchy", "--nu", "2", "--d", "2",
     "--families", "gen_cauchy,sublinear,gaussian", "--sigma2", "16,64",
     "--h", "0.05", "--n-chains", "500", "--n-iters", "50",
     "--record-every", "5", "--seed", "3"],
]
PACKAGE_ROUTINES = ("_gammaln", "_erfcinv", "_brentq")


@pytest.fixture
def routines_without_scipy(monkeypatch):
    """The package routines called, in order, while every import of scipy
    fails: a command that needed scipy would stop with an ImportError."""
    for name in [m for m in sys.modules if _is_scipy(m)] + ["scipy"]:
        monkeypatch.setitem(sys.modules, name, None)
    used = []
    for name in PACKAGE_ROUTINES:
        def counted(*args, _name=name, _fn=getattr(targets, name), **kwargs):
            used.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(targets, name, counted)
    return used


def test_commands_leave_scipy_unloaded(tmp_path, routines_without_scipy):
    for i, argv in enumerate(COMMANDS):
        assert main(argv + ["--output-dir", str(tmp_path / str(i))]) == 0, argv
    assert set(routines_without_scipy) == set(PACKAGE_ROUTINES)


def test_root_searches_leave_scipy_optimize_unloaded(tmp_path,
                                                     routines_without_scipy):
    # a heavy-tailed sweep's median radius and make_grid's default core
    # width are the package's root searches
    flags = ["phase-transition", "--family", "gen_cauchy", "--nu", "2",
             "--d", "2", "--families", "gen_cauchy,sublinear",
             "--sigma2", "16,64", "--h", "0.05", "--n-chains", "500",
             "--n-iters", "50", "--record-every", "5", "--seed", "3"]
    assert main(flags + ["--output-dir", str(tmp_path)]) == 0
    in_sweep = routines_without_scipy.count("_brentq")
    make_grid(GenCauchy(d=1, nu=2.0))
    assert 1 <= in_sweep < routines_without_scipy.count("_brentq")


DRAWS_WITHOUT_SCIPY = """
import hashlib, sys
sys.modules["scipy"] = None  # every import of scipy now fails
import numpy as np
from heavytail_lmc import RadialCustom, Sublinear, direct_sampler
for spec in (Sublinear(d=2, alpha=0.5), RadialCustom(d=3, f=lambda t: 0.5 * t)):
    print(hashlib.sha256(direct_sampler(spec, 1000, 0).tobytes()).hexdigest())
try:
    import scipy.interpolate
except ImportError:
    print("no scipy")
"""


def test_direct_sampler_draws_where_scipy_cannot_be_imported():
    want = [hashlib.sha256(direct_sampler(spec, 1000, 0).tobytes()).hexdigest()
            for spec in (Sublinear(d=2, alpha=0.5),
                         RadialCustom(d=3, f=lambda t: 0.5 * t))]
    lines = _run_fresh(["-c", DRAWS_WITHOUT_SCIPY]).stdout.split("\n")
    assert lines[:3] == [*want, "no scipy"]
