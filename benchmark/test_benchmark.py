"""Self-tests of the benchmark: references, input generation, a short run.

    python3 -m pytest benchmark/test_benchmark.py

The last group starts run.py in child processes and takes about a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import exact  # noqa: E402
import fields  # noqa: E402
import refs  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

# -- the references reproduce known values ----------------------------------------


@pytest.mark.parametrize("r", [0.01, 0.5, 2.0, 7.5, 40.0])
def test_psi_ref_matches_elementary_psi1(r):
    with mp.workdps(40):
        x = mp.mpf(r)
        elementary = mp.coth(x) - x * mp.csch(x) ** 2
    assert abs(refs.psi_ref(1, r) / elementary - 1) < 1e-25


@pytest.mark.parametrize("ell,r", [(1, 0.3), (2, 1.9), (5, 3.0), (3, 5.0), (10, 12.0), (40, 2.5)])
def test_dpsi_ref_is_the_derivative_of_psi_ref(ell, r):
    h = mp.mpf("1e-6")  # five-point stencil: truncation ~h^4, rounding ~1e-30/(h psi')
    with mp.workdps(40):
        f = [refs.psi_ref(ell, mp.mpf(r) + k * h) for k in (-2, -1, 1, 2)]
        numeric = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
        assert abs(refs.dpsi_ref(ell, r) / numeric - 1) < 1e-15


@pytest.mark.parametrize("r", [3.7, 10.0, 30.0])
def test_near_one_series_matches_mpmath(r):
    with mp.workdps(60):
        w = mp.sech(mp.mpf(r) / 2) ** 2
        direct = mp.hyp2f1(0.5, 4, 4.5, 1 - w)
    assert abs(refs.hyp2f1_near_one(0.5, 4, w) / direct - 1) < 1e-25


def test_nu_ref_offset_vanishes_at_large_radius():
    with mp.workdps(50):
        offsets = [abs(refs.nu_ref(r) - 6 * mp.pi * (r - 1)) for r in (10.0, 20.0, 40.0)]
    assert offsets[0] > offsets[1] > offsets[2]
    assert offsets[2] < 1e-25


def test_nu_ref_is_three_pi_times_the_first_mode_norm():
    with mp.workdps(30):
        for r in (0.1, 1.0, 9.0):
            assert abs(refs.nu_ref(r) / (3 * mp.pi * refs.mode_norm_ref(1, r)) - 1) < 1e-25


def test_block_power_recurrence():
    assert [refs.block_power(n)[0] for n in range(6)] == [1, 3, 8, 21, 55, 144]
    m = [[1, 0], [0, 1]]
    for n in range(30):
        assert refs.block_power(n) == (m[0][0], m[0][1], m[1][0], m[1][1])
        m = refs.int_matmul(m, [[3, -1], [1, 0]])


def test_brown_ref_invariants():
    x064 = refs.word_letters(exact.X064_TEXT)
    assert len(x064) == 14 and sum(x for x in x064 if abs(x) == 1) == 0
    found = refs.fibered_ref(x064, 6)
    assert found and found == {(-p, -q) for p, q in found}
    assert refs.brown_ref((1, 2, -1, -2), 0, 0) == "not_applicable"
    assert refs.brown_ref((1, 1, -2), 1, 2) == "both_directions"


def test_polytope_closed_forms():
    scale = tuple(Fraction(s) for s in (1, 2, 3))
    for v in exact._box(scale):
        assert refs.box_gauge(scale, v) == 1
    for v in exact._cross(scale):
        assert refs.cross_gauge(scale, v) == 1
    y = (1.0, -2.0, 0.5)
    assert refs.box_dual(scale, y) == refs.vertex_dual(exact._box(scale), y)
    assert refs.cross_dual(scale, y) == refs.vertex_dual(exact._cross(scale), y)


def test_rel_err_and_digits():
    assert refs.rel_err(0.0, 0.0) == 0.0
    assert refs.rel_err(1.0, 0.0) == math.inf
    assert refs.digits(1e-7) == pytest.approx(7.0)
    assert refs.digits(0.0) == 16.0


# -- inputs are a function of the seed -------------------------------------------


@pytest.mark.parametrize("module", [fields, exact])
def test_inputs_deterministic_per_seed(module):
    assert module.make_round(7, 0) == module.make_round(7, 0)
    assert module.make_round(7, 3) == module.make_round(7, 3)
    assert module.make_round(7, 0) != module.make_round(8, 0)
    assert module.make_round(7, 0) != module.make_round(7, 1)


@pytest.mark.parametrize("module", [fields, exact])
def test_round_shape_independent_of_seed(module):
    kinds = [kind for kind, _ in module.make_round(1, 0)]
    for seed, k in ((2, 0), (3, 5), (100, 1)):
        assert [kind for kind, _ in module.make_round(seed, k)] == kinds
    assert set(kinds) == set(module.KINDS)


def test_layer_metrics_from_spans():
    tr = Tracer(True)
    for _ in range(3):
        with tr.span("round"):
            with tr.span("radial"):
                tr.call("radial.nu", math.sqrt, 2.0)
    metrics = layer_metrics(tr.spans, {"radial": 3.0}, {"radial": 1e-8})
    assert metrics["radial.nu_us"][0] > 0 and metrics["radial.busy_s"][0] > 0
    assert metrics["radial.min_digits"][0] == pytest.approx(8.0)
    assert metrics["radial.failed"] == (3.0, "count")
    assert metrics["bounds.busy_s"] == (0.0, "s")


# -- a one-round run of each workload ------------------------------------------------


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload,attempted,failed", [
    ("fields", len(fields.make_round(0, 0)), len(fields.PROBES)),
    ("exact", len(exact.make_round(0, 0)), 0),
    ("cli", 11, 2),
])
def test_one_round_counts(workload, attempted, failed):
    result = _run(workload, trace=0)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, attempted, failed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_traced_run_reports_every_layer_metric():
    result = _run("exact", trace=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["bounds.polytope_gauge_us"]["value"] > 0
    assert (BENCH / "out" / "trace-exact-seed3.jsonl").is_file()
