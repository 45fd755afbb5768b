"""The package surface: every exported name resolves, and no module
imports a name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tdslink

MODULES = sorted(m.name for m in pkgutil.iter_modules(tdslink.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_are_defined(name):
    module = importlib.import_module(f"tdslink.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def _unused_imports(path) -> list[str]:
    """Names a module imports (``__future__`` aside) and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    sources = sorted(Path(tdslink.__file__).parent.glob("*.py"))
    unused = [u for path in sources if path.name != "__init__.py"
              for u in _unused_imports(path)]
    assert unused == []
