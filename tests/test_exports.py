"""The package surface: every exported name resolves, and no module
imports a name it never uses."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs most of a cold start and the package needs only
    # scipy.fft and scipy.special; an import of it under tdslink fails here
    code = "import sys, tdslink.cli; print('scipy.signal' in sys.modules)"
    src = str(Path(tdslink.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
