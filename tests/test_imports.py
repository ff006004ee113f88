"""Imports: importing the package loads no submodule, the package loads no
scipy module, the commands and library calls that do no array work load no
numpy, the CLI and the ball module load no tube module, every export
resolves, and every import is used.

scipy is a test-only dependency (the quadrature and lpmv oracles).  Each
name is imported from the submodule that defines it, and numpy is imported
only by ballfield and by the functions that build or read arrays
(quadrature's rule and grid, the tube integrals, the float suites, float log
grids), so `import hypnorms`, `import hypnorms.cli`, the exact layer
(polytope norms, the cover and gluing families, MV lattices, the fibering
scan), the closed tube forms, and every command but `verify
ball/tube/dfbound` and `nu --log-grid` run on the standard library alone.
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

# the CLI invocations that do no array work, and the exit code each ends with
STDLIB_INVOCATIONS = [
    (["verify", "homalg"], 0),
    (["verify", "bns"], 0),
    (["family", "covers", "--degrees", "1,2,4,8"], 0),
    (["family", "gluing", "--n", "1..100"], 0),
    (["family", "gluing", "--n", "10..1000"], 0),
    (["nu", "--r", "0.001,1,30", "--format", "csv"], 0),
    (["nu", "--r", "1,400"], 0),
    (["nu", "--r", "0.01..10"], 0),
    (["family", "filling", "--n", "10,20"], 1),  # below the band at small n
    (["family", "filling", "--n", "10..1000"], 1),
    (["family", "filling", "--n", "100..1000000", "--log-grid"], 0),
]
# the controls: array work, or numpy's float geometric grid
NUMPY_INVOCATIONS = [
    ["nu", "--r", "0.01..10", "--log-grid"],
    ["verify", "tube"],
]
_RUN_MAIN = (
    "import contextlib, io, sys\n"
    "from hypnorms.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(code, 'numpy' in sys.modules)\n"
)


def fresh_python(code: str, *argv: str) -> str:
    """stdout of `code` run in a new interpreter that imports hypnorms from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_package_import_loads_no_submodule():
    code = (
        "import sys; before = set(sys.modules); import hypnorms; "
        "print(sorted(set(sys.modules) - before))"
    )
    assert fresh_python(code).strip() == "['hypnorms']"


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


@pytest.mark.parametrize("argv, code", [pytest.param(argv, code, id=" ".join(argv))
                                        for argv, code in STDLIB_INVOCATIONS])
def test_stdlib_invocation_loads_no_numpy(argv, code):
    assert fresh_python(_RUN_MAIN, *argv).split() == [str(code), "False"]


@pytest.mark.parametrize("argv", NUMPY_INVOCATIONS, ids=" ".join)
def test_array_invocation_loads_numpy(argv):
    assert fresh_python(_RUN_MAIN, *argv).split() == ["0", "True"]


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


def test_closed_tube_forms_load_no_numpy():
    code = (
        "import sys\n"
        "from hypnorms.tubefield import TubeChart, remark_ratio, tube_form_norm, tube_volume\n"
        "t = TubeChart(0.02, 5.0)\n"
        "tube_form_norm(t), tube_volume(t), remark_ratio(0.01)\n"
        "print('numpy' in sys.modules)\n"
    )
    assert fresh_python(code).strip() == "False"


@pytest.mark.parametrize("module", ["hypnorms.cli", "hypnorms.ballfield"])
def test_import_loads_no_tube_module(module):
    # both read the quadrature rule, which lived in tubefield
    code = f"import sys, {module}; print('hypnorms.tubefield' in sys.modules)"
    assert fresh_python(code).strip() == "False"


def test_expansion_field_is_the_identity():
    # benchmark/fields.py still calls ball_l2_norm_sq(expansion_field(e), ...);
    # it must keep measuring ball_l2_norm_sq(e, ...)
    from hypnorms.ballfield import HarmonicExpansion, expansion_field

    e = HarmonicExpansion({(1, 0): 1.0}, truncation=1)
    assert expansion_field(e) is e


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
