"""Imports: the package loads no scipy module, every export resolves, and
every import is used.

scipy is a test-only dependency (the quadrature and lpmv oracles); a cold
`hypnorms` process imports numpy and the standard library only.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import hypnorms

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(hypnorms.__path__))


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, hypnorms, hypnorms.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_submodules_found():
    assert {"radial", "ballfield", "tubefield", "families", "cli", "verify"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", ["__init__"] + SUBMODULES)
def test_every_export_resolves(name):
    module = hypnorms if name == "__init__" else importlib.import_module(f"hypnorms.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", ["__init__"] + SUBMODULES)
def test_every_import_is_used(name):
    # a name a module imports is read in that module or re-exported by its __all__
    module = hypnorms if name == "__init__" else importlib.import_module(f"hypnorms.{name}")
    with open(module.__file__) as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read - set(module.__all__)) == []
