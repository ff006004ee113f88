"""Golden stdout: the exact commands print exactly the committed bytes.

tests/golden/cases.json names each invocation, its argv and its exit code;
tests/golden/<name>.out holds its stdout.  Only commands whose output comes
from integer arithmetic and correctly rounded IEEE operations have a golden:
float log grids and `verify ball` print values whose last ulp depends on the
CPU that numpy and OpenBLAS dispatch to.  scripts/contract_diff.py holds
its own copy of the benchmark's CLI invocations, checked here against
benchmark/run.py.
"""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

from hypnorms.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_code_match_golden(name, capsys):
    case = CASES[name]
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_contract_diff_copies_the_benchmark_invocations():
    # benchmark/run.py is read, not imported, so its harness never loads here
    tree = ast.parse((ROOT / "benchmark" / "run.py").read_text())
    invocations = next(ast.literal_eval(node.value) for node in tree.body
                       if isinstance(node, ast.Assign)
                       and [getattr(t, "id", None) for t in node.targets] == ["CLI_INVOCATIONS"])
    spec = importlib.util.spec_from_file_location("contract_diff",
                                                  ROOT / "scripts" / "contract_diff.py")
    contract_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(contract_diff)
    assert list(invocations.values()) == contract_diff.BENCHMARK
