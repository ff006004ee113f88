"""Spans around the benchmark's own calls into hypnorms, and what they add up to.

A span is (id, name, start_ns, end_ns, parent id).  The tree is "round" ->
"op.<kind>" -> "<layer>.<function>", one span per call into hypnorms (for
`cli`, one "cli.<invocation>" span per cold process).  Spans stay in memory while
the workload runs and are written out once at the end.  With tracing off,
Tracer.call is a plain call and nothing is recorded.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

from refs import digits

LAYERS = ("cli", "radial", "ballfield", "tubefield", "families", "bounds", "homalg", "fibering")

# Per-call metrics by layer, as (function, unit): the median duration of the
# benchmark's calls to that function over the run.
PER_CALL = {
    "cli": [("nu", "s"), ("verify_ball", "s"), ("verify_tube", "s"), ("verify_dfbound", "s"),
            ("verify_homalg", "s"), ("verify_bns", "s"), ("family_covers", "s"),
            ("family_gluing", "s"), ("family_filling", "s")],
    "radial": [("nu", "us"), ("nu_closed", "us"), ("mode_norm", "us"), ("psi", "us"), ("dpsi", "us")],
    "ballfield": [("omega_gram", "ms"), ("psi_gram", "ms"), ("ball_l2_norm_sq", "ms"),
                  ("check_df_bound", "us")],
    "tubefield": [("tube_l2_norm_sq", "ms"), ("competitor_norm_sq", "ms"), ("tube_lower_bound", "ms")],
    "families": [("filling_family", "ms"), ("gluing_family", "us"), ("cover_family", "us")],
    "bounds": [("PolytopeNorm", "ms"), ("polytope_gauge", "us"), ("dual_norm", "us"),
               ("inf_of_duals_check", "ms"), ("supnorm_factor", "us")],
    "homalg": [("fbar_power", "us"), ("mv_generator", "us"), ("twist_word_matrix", "us")],
    "fibering": [("fibered_characters", "ms"), ("brown_status", "us")],
}
HAS_BUSY = [layer for layer in LAYERS if layer != "cli"]
HAS_DIGITS = ("radial", "ballfield", "tubefield")
HAS_FAILED = ("cli", "radial")
_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[int, str, int, int, int | None]] = []
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((sid, name, start, perf_counter_ns(), parent))
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), recorded as span `name` when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)


def write_spans(spans, path) -> None:
    """One JSON object per line, in span-id order."""
    with open(path, "w") as f:
        for sid, name, start, end, parent in sorted(spans):
            f.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                "end_ns": end, "parent": parent}) + "\n")


def layer_metrics(spans, failed_per_round: dict, worst_err: dict) -> dict:
    """Every per-layer metric, from the spans of one traced run.

    Round spans are named "round"; every other span below a round is charged
    to it.  busy_s is the median over rounds of a layer's summed call time.
    A layer the workload never calls reports 0 for its times and counts.
    """
    by_id = {s[0]: s for s in spans}

    def round_of(sid):
        while sid is not None and by_id[sid][1] != "round":
            sid = by_id[sid][4]
        return sid

    durations: dict[str, list[int]] = {}
    busy: dict[str, dict[int, int]] = {layer: {} for layer in LAYERS}
    rounds = [s[0] for s in spans if s[1] == "round"]
    for sid, name, start, end, parent in spans:
        layer, _, fn = name.partition(".")
        if layer not in busy or not fn:
            continue
        durations.setdefault(name, []).append(end - start)
        r = round_of(parent)
        busy[layer][r] = busy[layer].get(r, 0) + end - start

    out = {}
    for layer in LAYERS:
        if layer in HAS_BUSY:
            per_round = [busy[layer].get(r, 0) for r in rounds] or [0]
            out[f"{layer}.busy_s"] = (statistics.median(per_round) * 1e-9, "s")
        for fn, unit in PER_CALL[layer]:
            d = durations.get(f"{layer}.{fn}")
            out[f"{layer}.{fn}_{unit}"] = (statistics.median(d) * _SCALE[unit] if d else 0.0, unit)
        if layer in HAS_DIGITS:
            err = worst_err.get(layer)
            out[f"{layer}.min_digits"] = (digits(err) if err is not None else 0.0, "digits")
        if layer in HAS_FAILED:
            out[f"{layer}.failed"] = (failed_per_round.get(layer, 0), "count")
    return out
