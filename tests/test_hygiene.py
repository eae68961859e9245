"""Source hygiene: every imported name in the package and scripts is used,
each public name has one home module, the package keeps no process-wide
memo, never uses scipy.integrate or scipy.optimize and starts threads only
in the sampler, importing it starts no thread and loads no scipy, no command
loads scipy, only bounds knows the modified-target width, and the scripts run
the CLI's pipelines instead of re-implementing them."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

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


# scipy subpackages the package does not use: every integral goes through
# its own quadrature rule and every root search through targets._brentq.
BANNED_SCIPY = ("integrate", "optimize")


def _in_banned_scipy(module: str) -> bool:
    parts = module.split(".")
    return parts[0] == "scipy" and len(parts) > 1 and parts[1] in BANNED_SCIPY


def _banned_scipy_uses(tree: ast.Module) -> list[str]:
    """Imports of a banned scipy subpackage, and reads of one off scipy,
    anywhere in the module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if _in_banned_scipy(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if _in_banned_scipy(node.module) or (
                    node.module == "scipy"
                    and any(alias.name in BANNED_SCIPY for alias in node.names)):
                found.append(f"{node.module} (line {node.lineno})")
        elif (isinstance(node, ast.Attribute) and node.attr in BANNED_SCIPY
              and isinstance(node.value, ast.Name) and node.value.id == "scipy"):
            found.append(f"scipy.{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_scipy_integrate(path):
    """Neither banned subpackage (the name predates the optimize ban)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _banned_scipy_uses(tree) == []


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
])
def test_scipy_integrate_check_finds_each_form(source):
    assert len(_banned_scipy_uses(ast.parse(source))) == 1
    nested = "def f():\n    " + source.replace("\n", "\n    ")
    assert len(_banned_scipy_uses(ast.parse(nested))) == 1
    for allowed in ("from scipy import special", "import scipy.special",
                    "from scipy.interpolate import PchipInterpolator",
                    "import scipy\nscipy.special.gammaln(2.0)"):
        assert _banned_scipy_uses(ast.parse(allowed)) == []


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


def test_sweep_matches_scipy_loaded_up_front(tmp_path):
    lazy, eager = tmp_path / "lazy", tmp_path / "eager"
    _run_fresh(["-m", "heavytail_lmc", *SWEEP_FLAGS, "--output-dir", str(lazy)])
    _run_fresh(["-c", SCIPY_UP_FRONT, *SWEEP_FLAGS, "--output-dir", str(eager)])
    for name in ("phase.csv", "phase.svg"):
        assert (lazy / name).read_bytes() == (eager / name).read_bytes(), name
    assert len((lazy / "phase.csv").read_text().splitlines()) == 1 + 6


HEAVY_TAILED_ROOT_SEARCHES = """
import sys, tempfile
from heavytail_lmc import GenCauchy, make_grid, targets
from heavytail_lmc.cli import main

searches, brentq = [], targets._brentq

def counted(*args, **kwargs):
    searches.append(args[1:3])
    return brentq(*args, **kwargs)

targets._brentq = counted
with tempfile.TemporaryDirectory() as tmp:
    assert main(sys.argv[1:] + ["--output-dir", tmp]) == 0
in_sweep = len(searches)
make_grid(GenCauchy(d=1, nu=2.0))
assert in_sweep >= 1 and len(searches) > in_sweep, searches
assert "scipy.special" not in sys.modules
assert "scipy.optimize" not in sys.modules
print("ok")
"""


def test_root_searches_leave_scipy_optimize_unloaded():
    # a heavy-tailed sweep's median radius and make_grid's default core
    # width are the package's root searches
    flags = ["phase-transition", "--family", "gen_cauchy", "--nu", "2",
             "--d", "2", "--families", "gen_cauchy,sublinear",
             "--sigma2", "16,64", "--h", "0.05", "--n-chains", "500",
             "--n-iters", "50", "--record-every", "5", "--seed", "3"]
    proc = _run_fresh(["-c", HEAVY_TAILED_ROOT_SEARCHES, *flags])
    assert proc.stdout.strip().splitlines()[-1] == "ok"


# One command of each kind that needs log-gamma or the erfc quantile:
# log Z and moments in closed form or by quadrature (the sphere area), and
# the window of make_grid's default Gaussian grid.
SCIPY_FREE_COMMANDS = [
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

COMMANDS_ON_NUMPY_ALONE = f"""
import sys, tempfile
from heavytail_lmc import targets
from heavytail_lmc.cli import main

used = set()
for name in ("_gammaln", "_erfcinv"):
    def counted(x, _name=name, _fn=getattr(targets, name)):
        used.add(_name)
        return _fn(x)
    setattr(targets, name, counted)
for argv in {SCIPY_FREE_COMMANDS!r}:
    with tempfile.TemporaryDirectory() as tmp:
        assert main(argv + ["--output-dir", tmp]) == 0, argv
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert loaded == [], (argv[:2], loaded)
assert used == {{"_gammaln", "_erfcinv"}}, used
print("ok")
"""


def test_commands_leave_scipy_unloaded():
    proc = _run_fresh(["-c", COMMANDS_ON_NUMPY_ALONE])
    assert proc.stdout.strip().splitlines()[-1] == "ok"
