"""The public namespace: every exported name resolves and has a home module; no module imports a name it never uses."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import volbias

MODULES = ("cli", "minimize", "risk", "regions", "losses", "trainer", "stats")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"volbias.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_are_listed_in_a_module_all():
    listed = {n for name in MODULES for n in importlib.import_module(f"volbias.{name}").__all__}
    public = {n for n, v in vars(volbias).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert sorted(public - listed) == []


PACKAGE = Path(volbias.__file__).parent
TESTS = Path(__file__).parent
CHECKED_FILES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(
    p for folder in (TESTS, TESTS.parent / "demos") for p in folder.glob("*.py")
)


@pytest.mark.parametrize(
    "path", CHECKED_FILES, ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}"
)
def test_every_imported_name_is_used(path):
    # stands in for a linter's unused-import check
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
