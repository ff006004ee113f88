"""Imports: the package loads no scipy module, the exact commands and the
exact library calls load no numpy, every export resolves, and every import
is used.

scipy is a test-only dependency (the quadrature and lpmv oracles).  The
package re-exports its names lazily, and numpy is imported only by the
array modules (ballfield, tubefield) and by the code that builds or reads
arrays, so `import hypnorms`, `import hypnorms.cli`, the exact subcommands
and the exact layer (polytope norms, the cover and gluing families, MV
lattices, the fibering scan) run on the standard library alone.
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
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the CLI invocations that do only integer, Fraction and math work
EXACT_INVOCATIONS = [
    ["verify", "homalg"],
    ["verify", "bns"],
    ["family", "covers", "--degrees", "1,2,4,8"],
    ["family", "gluing", "--n", "1..100"],
    ["family", "gluing", "--n", "10..1000"],
]


def fresh_python(code: str, *argv: str) -> str:
    """stdout of `code` run in a new interpreter that imports hypnorms from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, hypnorms, hypnorms.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert fresh_python(code).strip() == "[]"


def test_package_and_cli_imports_load_no_numpy():
    code = (
        "import sys, hypnorms; print('numpy' in sys.modules); "
        "import hypnorms.cli; print('numpy' in sys.modules)"
    )
    assert fresh_python(code).split() == ["False", "False"]


@pytest.mark.parametrize("argv", EXACT_INVOCATIONS, ids=" ".join)
def test_exact_invocation_loads_no_numpy(argv):
    code = (
        "import contextlib, io, sys\n"
        "from hypnorms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    assert fresh_python(code, *argv).split() == ["0", "False"]


def test_exact_library_calls_load_no_numpy():
    # polytope norms, the families' exact rows, MV lattices and the fibering scan
    code = (
        "import sys\n"
        "from hypnorms.bounds import (NormDatum, PolytopeNorm, dual_norm, inf_of_duals_check,\n"
        "                             polytope_gauge)\n"
        "from hypnorms.families import (CoverFamilyParams, GluingFamilyParams, cover_family,\n"
        "                               gluing_family)\n"
        "from hypnorms.fibering import X064_RELATOR, fibered_characters\n"
        "from hypnorms.homalg import mv_intersection\n"
        "diamond = PolytopeNorm([(1, 0), (0, 1), (-1, 0), (0, -1)])\n"
        "square = PolytopeNorm([('7/10', '7/10'), ('-7/10', '7/10'), ('7/10', '-7/10'),\n"
        "                       ('-7/10', '-7/10')])\n"
        "polytope_gauge(diamond, (1.0, 0.5)), dual_norm(diamond, [3, 4])\n"
        "inf_of_duals_check([diamond, square], [(1.0, 0.2), (1.0, 1.0)])\n"
        "cover_family(CoverFamilyParams(NormDatum(1.0, 1.0, 1.0, harmonic=4.0), (1, 2, 4)))\n"
        "gluing_family(GluingFamilyParams(), 5), mv_intersection(3)\n"
        "fibered_characters(X064_RELATOR, 3)\n"
        "print('numpy' in sys.modules)\n"
    )
    assert fresh_python(code).strip() == "False"


def test_submodules_found():
    assert {"radial", "ballfield", "tubefield", "families", "cli", "verify"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", ["__init__"] + SUBMODULES)
def test_every_export_resolves(name):
    module = hypnorms if name == "__init__" else importlib.import_module(f"hypnorms.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from hypnorms import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(hypnorms.__all__)


def test_unknown_export_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hypnorms.no_such_name


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
