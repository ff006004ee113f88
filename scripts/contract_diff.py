"""Compare the CLI contract of the working tree with that of a git revision.

The CLI contract is stdout and the exit code of each invocation; stderr text
is free to change.  This script checks out REV in a temporary `git
worktree`, runs every invocation in INVOCATIONS as a cold `python -m
hypnorms.cli` process on that checkout and on the working tree (each with
its own `src` on PYTHONPATH), prints every difference, and removes the
worktree when done.  The exit status is 0 when nothing differs, 1 otherwise.

Run from anywhere inside the repository:

    python scripts/contract_diff.py HEAD
    python scripts/contract_diff.py HEAD~3 --workdir /tmp/somewhere
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# The benchmark's CLI_INVOCATIONS (benchmark/run.py), copied rather than imported.
BENCHMARK = [
    ["nu", "--r", "0.001,1,30", "--format", "csv"],
    ["verify", "ball"],
    ["verify", "homalg"],
    ["verify", "tube"],
    ["verify", "dfbound"],
    ["verify", "bns"],
    ["family", "covers", "--degrees", "1,2,4,8"],
    ["family", "gluing", "--n", "1..100"],
    ["family", "filling", "--n", "100..1000000", "--log-grid"],
    ["nu", "--r", "1,400"],
    ["family", "gluing", "--n", "10..1000"],
]
# README's examples that the list above does not already hold.
README = [
    ["verify", "--format", "csv", "homalg"],
]
# Flags before the suite or family name.
FLAGS_FIRST = [
    ["verify", "--seed", "3", "bns"],
    ["verify", "--quad-order", "8", "tube"],
    ["verify", "--format", "csv", "bns"],
    ["family", "--degrees", "1,3,9", "covers"],
    ["family", "--n", "1..100", "gluing"],
    ["family", "--log-grid", "--n", "10..1000", "filling"],
]
# Tolerance overrides that are taken: one check passes, one fails.
TOL_OVERRIDES = [
    ["verify", "homalg", "--tol", "homalg-growth=1e-3"],
    ["family", "covers", "--degrees", "1,2,4,8", "--tol", "cover-ratio-constant=0"],
]
# The float suites off their defaults and numpy's log grid.  They read the
# quadrature rule and CPU-picked numpy kernels, so they are compared tree
# against tree here rather than pinned in goldens.
FLOAT_COMMANDS = [
    ["verify", "ball", "--quad-order", "4"],
    ["verify", "ball", "--quad-order", "8"],
    ["verify", "ball", "--quad-order", "16"],
    ["verify", "ball", "--quad-order", "48", "--seed", "5"],
    ["verify", "ball", "--seed", "3"],
    ["verify", "ball", "--quad-order", "256"],
    ["verify", "tube", "--quad-order", "48"],
    ["verify", "dfbound", "--seed", "4"],
    ["nu", "--r", "0.01..10", "--log-grid"],
]
# The ends of the family grids, where a rewrite that rounds differently would
# show: filling n at 2^53 - 1 and 2^63 - 1, gluing n up to its cap 10^5.
GRID_ENDS = [
    ["family", "filling", "--n", "2,3,9007199254740991,9223372036854775807"],
    ["family", "gluing", "--n", "99990..100000"],
]
# Usage errors: exit 2 and empty stdout, several from the integer rule.
USAGE_ERRORS = [
    ["family", "gluing", "--n", "0"],
    ["family", "gluing", "--n", "100001"],
    ["family", "gluing", "--n", "1..9223372036854775807"],
    ["family", "filling", "--n", "1"],
    ["family", "filling", "--n", "0..10", "--log-grid"],
    ["family", "filling", "--n", "9223372036854775808"],
    ["family", "covers", "--degrees", "0,1"],
    ["family", "covers", "--degrees", "1,2.5"],
    ["family", "covers", "--degrees", "1,3,2"],
    ["nu", "--r", "0..1"],
    ["nu", "--r", "1..0.5"],
    ["nu", "--r", "1..2", "--n", "3"],
    ["nu", "--r", "nan"],
    ["nu", "--r", "1,-2"],
    ["verify", "homalg", "--seed", "1"],
    ["verify", "tube", "--quad-order", "3"],
    ["verify", "tube", "--tol", "tube-volum=1e-30"],
    ["verify", "homalg", "--tol", "homalg-growth=nan"],
    ["verify", "homalg", "--tol", "homalg-growth=-1"],
    ["verify", "homalg", "--tol", "homalg-growth=1", "--tol", "homalg-growth=1e-30"],
    ["nu"],
    ["family", "covers"],
    ["verify", "ball", "--r", "1"],
    ["verify", "tube", "--quad-order", "257"],
]
INVOCATIONS = (BENCHMARK + README + FLAGS_FIRST + TOL_OVERRIDES + FLOAT_COMMANDS + GRID_ENDS
               + USAGE_ERRORS)


def run(tree: Path, argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one cold CLI process on the package in tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "hypnorms.cli", *argv], cwd=tree, env=env,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def compare(old_tree: Path, new_tree: Path) -> int:
    """Print each invocation whose stdout or exit code differs; return how many do."""
    differ = 0
    for argv in INVOCATIONS:
        (old_code, old_out), (new_code, new_out) = run(old_tree, argv), run(new_tree, argv)
        if (old_code, old_out) == (new_code, new_out):
            continue
        differ += 1
        print(f"DIFFERS: {' '.join(argv)}: exit {old_code} -> {new_code}")
        sys.stdout.writelines(difflib.unified_diff(
            old_out.splitlines(keepends=True), new_out.splitlines(keepends=True), "old", "new"))
    print(f"{differ} of {len(INVOCATIONS)} invocations differ in stdout or exit code")
    return differ


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--workdir", help="directory to hold the temporary worktree")
    args = parser.parse_args()
    root = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                               text=True, check=True).stdout.strip())
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        old_tree = Path(tmp) / "rev"
        subprocess.run(["git", "-C", str(root), "worktree", "add", "--detach", "--quiet",
                        str(old_tree), args.rev], check=True)
        try:
            return 1 if compare(old_tree, root) else 0
        finally:
            subprocess.run(["git", "-C", str(root), "worktree", "remove", "--force",
                            str(old_tree)], check=True)


if __name__ == "__main__":
    sys.exit(main())
