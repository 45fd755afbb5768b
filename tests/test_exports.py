"""The package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import tdslink

MODULES = sorted(m.name for m in pkgutil.iter_modules(tdslink.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_are_defined(name):
    module = importlib.import_module(f"tdslink.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
