"""Golden stdout: the exact commands print exactly the committed bytes.

tests/golden/cases.json names each invocation, its argv and its exit code;
tests/golden/<name>.out holds its stdout.  Only commands whose output comes
from integer arithmetic and correctly rounded IEEE operations have a golden:
float log grids and `verify ball` print values whose last ulp depends on the
CPU that numpy and OpenBLAS dispatch to.
"""

import json
from pathlib import Path

import pytest

from hypnorms.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_code_match_golden(name, capsys):
    case = CASES[name]
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
