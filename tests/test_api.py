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


BENCH = TESTS.parent / "bench"
TRACER_TABLES = ("NOTES", "UNTRACED", "TRACK_ALLOCATIONS")


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_volbias_name_the_bench_looks_up_resolves(path):
    # the benchmark runs unchanged across versions, so removing a name it reads breaks it; its own
    # smoke test is slow and outside this suite, so the names are checked here, without running it
    tree = ast.parse(path.read_text())
    modules = {}  # local name -> the volbias module it is bound to
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, volbias) for a in node.names if a.name == "volbias")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "volbias":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(owner, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
                elif inspect.ismodule(getattr(owner, alias.name)):
                    modules[alias.asname or alias.name] = getattr(owner, alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if not hasattr(modules[node.value.id], node.attr):
                missing.append(f"{node.value.id}.{node.attr}")
    # the tracer wraps the functions in each module's __all__ and keys its tables by "layer.name"
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in TRACER_TABLES for t in node.targets):
            for key in node.value.keys if isinstance(node.value, ast.Dict) else node.value.elts:
                layer, name = ast.literal_eval(key).split(".")
                if name not in importlib.import_module(f"volbias.{layer}").__all__:
                    missing.append(f"{layer}.{name}")
    assert missing == []
