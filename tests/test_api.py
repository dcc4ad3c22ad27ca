"""The public namespace: every exported name resolves and has a home module."""

import importlib
import inspect

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
