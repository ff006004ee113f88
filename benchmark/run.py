"""Benchmark for hypnorms: one workload per invocation, one JSON line out.

    python3 benchmark/run.py --workload {cli,fields,exact} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs installing.  src/ goes
on PYTHONPATH of every child process.  `cli` starts the CLI as cold
processes, one at a time; `fields` and `exact` run in a fresh worker
process (worker.py).  This process never imports hypnorms.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
The same line goes to out/result-*.json and the spans of a traced run to
out/trace-*.jsonl, next to this file.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refs
from spans import Tracer, layer_metrics, write_spans
from worker import run_rounds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 120

# README's CLI section plus the three remaining suites, each a cold process.
CLI_INVOCATIONS = {
    "nu": ["nu", "--r", "0.001,1,30", "--format", "csv"],
    "verify_ball": ["verify", "ball"],
    "verify_homalg": ["verify", "homalg"],
    "verify_tube": ["verify", "tube"],
    "verify_dfbound": ["verify", "dfbound"],
    "verify_bns": ["verify", "bns"],
    "family_covers": ["family", "covers", "--degrees", "1,2,4,8"],
    "family_gluing": ["family", "gluing", "--n", "1..100"],
    "family_filling": ["family", "filling", "--n", "100..1000000", "--log-grid"],
    # Fault probes: both fail on every run until the program is mended.
    "cli-nu-overflow": ["nu", "--r", "1,400"],
    "cli-grid-endpoint": ["family", "gluing", "--n", "10..1000"],
}
CLI_PROBES = ("cli-nu-overflow", "cli-grid-endpoint")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child(argv: list[str], env: dict, timeout: float = CHILD_TIMEOUT_S) -> tuple[int, str, str, float]:
    """Run one child to completion: (exit code, stdout, stderr, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{argv} did not finish within {timeout} s")
    return proc.returncode, out, err, time.perf_counter() - t0


def children_peak_rss_mb() -> float:
    """Largest peak resident set of any child waited for so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- cli ------------------------------------------------------------------------


def _json_report(v: refs.Verdict, stdout: str, command: str) -> dict | None:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        v.require(False)
        return None
    v.require(report.get("command") == command)
    v.require(all(c["pass"] for c in report["checks"]))
    return report


def _check_nu_rows(v: refs.Verdict, rows, radii) -> None:
    v.require([float(row["r"]) for row in rows] == radii)
    for row in rows:
        r, value = float(row["r"]), float(row["nu"])
        v.close("cli", value, refs.nu_ref(r), 1e-10)
        v.close("cli", float(row["ratio_small"]), value / (4 * math.pi / 3 * r**3), 1e-12)
        v.close("cli", float(row["ratio_large"]), value / (6 * math.pi * r), 1e-12)


def _check_gluing_rows(v: refs.Verdict, rows, first: int, last: int) -> None:
    ns = [row["n"] for row in rows]
    v.require(ns[:1] == [first] and ns[-1:] == [last] and ns == sorted(set(ns)))
    for row in rows:
        a, _, c, _ = refs.block_power(row["n"])
        v.close("cli", row["log_th_lower"], math.log(a + c), 1e-12)
        v.close("cli", row["vol"], row["n"] * 7.51768989647, 1e-12)


def check_cli(name: str, code: int, stdout: str) -> refs.Verdict:
    """Exit code 0, every reported check passing, and the rows against refs.py."""
    v = refs.Verdict()
    v.require(code == 0)
    if name == "nu":
        _check_nu_rows(v, list(csv.DictReader(io.StringIO(stdout))), [0.001, 1.0, 30.0])
        return v
    args = CLI_INVOCATIONS[name]
    command = "nu" if args[0] == "nu" else " ".join(args[:2])
    report = _json_report(v, stdout, command)
    if report is None:
        return v
    rows = report["rows"]
    if name.startswith("verify_"):
        v.require(len(rows) == len(report["checks"]) > 0)
    elif name == "family_covers":
        v.require([row["degree"] for row in rows] == [1, 2, 4, 8])
        for row in rows:
            d = row["degree"]
            v.require(row["vol"] == d and row["thurston"] == d and row["inj"] == 1.0)
            v.close("cli", row["harmonic"], 4 * math.sqrt(d), 1e-12)
            v.close("cli", row["ratio"], 0.25, 1e-12)
    elif name == "family_gluing":
        _check_gluing_rows(v, rows, 1, 100)
    elif name == "family_filling":
        v.require(rows[0]["n"] == 100 and rows[-1]["n"] == 1000000)
        for row in rows:
            ref = refs.filling_row_ref(row["n"])
            v.require(row["thurston"] == ref["thurston"])
            v.close("cli", row["inj"], ref["inj"], 1e-12)
            v.close("cli", row["harmonic_lower"], ref["harmonic_lower"], 1e-12)
    elif name == "cli-nu-overflow":
        _check_nu_rows(v, rows, [1.0, 400.0])
    elif name == "cli-grid-endpoint":
        _check_gluing_rows(v, rows, 10, 1000)
    return v


class CliWorkload:
    """The `cli` rounds in the shape run_rounds takes; each operation is a cold process."""

    PROBES = CLI_PROBES

    def __init__(self, env: dict):
        self.env = env
        self.first_stdout: dict[str, str] = {}
        self.KINDS = {name: (self.run, self.check, "cli") for name in CLI_INVOCATIONS}

    def make_round(self, seed: int, k: int) -> list[tuple[str, tuple]]:
        """The same invocations every round; the seed changes nothing here."""
        return [(name, (name, args)) for name, args in CLI_INVOCATIONS.items()]

    def run(self, tracer: Tracer, inputs):
        name, args = inputs
        return tracer.call(f"cli.{name}", child, [sys.executable, "-m", "hypnorms.cli", *args],
                           self.env)

    def check(self, inputs, out) -> refs.Verdict:
        name, _ = inputs
        code, stdout, err, _ = out
        v = check_cli(name, code, stdout)
        v.require(self.first_stdout.setdefault(name, stdout) == stdout)
        if not v.ok and name not in CLI_PROBES:
            sys.stderr.write(err)
        return v


def run_cli(seed: int, seconds: float, tracer: Tracer, env: dict) -> dict:
    """The rounds, with two timed cold imports of hypnorms.cli before them and two after."""

    def cold_import() -> float:
        code, _, err, wall = child([sys.executable, "-c", "import hypnorms.cli"], env)
        if code != 0:
            raise BenchError(f"cannot import hypnorms.cli:\n{err}")
        return wall

    setups = [cold_import(), cold_import()]
    result = run_rounds(CliWorkload(env), seed, seconds, tracer)
    setups += [cold_import(), cold_import()]
    result["setup_s"] = statistics.median(setups)
    result["spans"] = tracer.spans
    return result


# -- fields and exact --------------------------------------------------------------


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    """The workload in one worker, with a set-up-only worker before and after it."""
    base = [sys.executable, str(BENCH / "worker.py"), "--workload", workload]

    def setup_only() -> float:
        code, stdout, err, _ = child(base + ["--setup-only"], env)
        if code != 0:
            raise BenchError(f"{workload} worker failed during set-up:\n{err}")
        return json.loads(stdout)["setup_s"]

    before = setup_only()
    code, stdout, err, _ = child(base + ["--seed", str(seed), "--seconds", str(seconds),
                                         "--trace", str(trace)], env, seconds + CHILD_TIMEOUT_S)
    sys.stderr.write(err)
    if code != 0 or not stdout.strip():
        raise BenchError(f"{workload} worker exited with {code}")
    result = json.loads(stdout.splitlines()[-1])
    result["setup_s"] = statistics.median([before, result["setup_s"], setup_only()])
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description="hypnorms benchmark")
    ap.add_argument("--workload", choices=("cli", "fields", "exact"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "hypnorms" / "__init__.py").is_file():
        print(f"error: no hypnorms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

    try:
        if args.workload == "cli":
            result = run_cli(args.seed, args.seconds, Tracer(bool(args.trace)), env)
        else:
            result = run_worker(args.workload, args.seed, args.seconds, args.trace, env)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(result["spans"], result["failed_per_round"], result["worst"])
    else:
        metrics = {"setup_s": (result["setup_s"], "s"), "wall_s": (result["wall_s"], "s"),
                   "peak_rss_mb": (children_peak_rss_mb(), "MB")}
    line = json.dumps({
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(line + "\n")
    if args.trace:
        write_spans(result["spans"], OUT / f"trace-{stem}.jsonl")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
