"""Source hygiene: every imported name in the package and scripts is used,
and the package keeps no process-wide memo."""

import ast
import pathlib

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
