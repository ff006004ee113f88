"""One in-process workload (`fields` or `exact`) in a fresh interpreter.

Started by run.py with src/ on PYTHONPATH.  It times set-up (import
hypnorms, then one warm-up call per entry point), then runs whole rounds
until --seconds have passed and prints one JSON line for run.py.  With
--setup-only it stops after set-up.  run.py runs the `cli` rounds with the
same run_rounds.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
import traceback

import refs  # noqa: F401 - loads mpmath before set-up is timed
from spans import Tracer


def run_rounds(module, seed: int, seconds: float, tracer: Tracer) -> dict:
    """Whole rounds until `seconds` have passed; every round has the same operations.

    `module` supplies make_round(seed, k) -> [(kind, inputs)], KINDS[kind] =
    (run, check, layer) and PROBES, the kinds that are expected to fail.
    """
    kinds = module.KINDS
    walls: list[float] = []
    attempted = failed = 0
    unexpected: list[str] = []  # operations other than the probes that failed
    failed_by_layer: dict[str, int] = {}
    worst: dict[str, float] = {}
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        ops = module.make_round(seed, k)
        outputs = []
        with tracer.span("round"):
            t0 = time.perf_counter()
            for kind, inputs in ops:
                with tracer.span(f"op.{kind}"):
                    try:
                        outputs.append((True, kinds[kind][0](tracer, inputs)))
                    except Exception:
                        outputs.append((False, traceback.format_exc()))
            walls.append(time.perf_counter() - t0)
        for (kind, inputs), (ran, out) in zip(ops, outputs):
            _, check, layer = kinds[kind]
            ok = False
            if ran:
                try:
                    verdict = check(inputs, out)
                except Exception:  # output of an unexpected shape
                    ran, out = False, traceback.format_exc()
                else:
                    ok = verdict.ok
                    for name, err in verdict.worst.items():
                        worst[name] = max(worst.get(name, 0.0), err)
            attempted += 1
            if not ok:
                failed += 1
                failed_by_layer[layer] = failed_by_layer.get(layer, 0) + 1
                if kind not in module.PROBES:
                    unexpected.append(kind)
                    print(f"{kind} failed on {inputs!r}" + ("" if ran else f"\n{out}"),
                          file=sys.stderr)
        k += 1
    return {
        "rounds": k,
        "wall_s": statistics.median(walls),
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "failed_per_round": {layer: n / k for layer, n in failed_by_layer.items()},
        "worst": worst,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("fields", "exact"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    importlib.import_module("hypnorms")
    module = importlib.import_module(args.workload)
    module.warm_up()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer(bool(args.trace))
    result = run_rounds(module, args.seed, args.seconds, tracer)
    result["setup_s"] = setup_s
    result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
