"""Command-line behaviour: schemas, exit codes, grids, determinism."""

import csv
import io
import json
import subprocess
import sys
import time

import pytest

from hypnorms.cli import RunConfig, UsageError, _parse_grid, _parse_tols, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_json(out):
    payload = json.loads(out)
    assert sorted(payload) == ["anchors", "checks", "command", "rows"]
    return payload


def load_csv(out):
    return list(csv.DictReader(io.StringIO(out)))


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.quad_order == 24
        assert config.fmt == "json"
        assert config.seed == 0
        assert config.tol == {}

    def test_rejects_low_order(self):
        with pytest.raises(UsageError):
            RunConfig(quad_order=3)

    def test_rejects_bad_format(self):
        with pytest.raises(UsageError):
            RunConfig(fmt="xml")


class TestGridParsing:
    def test_comma_floats(self):
        assert _parse_grid("0.001,1,30") == [0.001, 1.0, 30.0]

    def test_comma_ints(self):
        assert _parse_grid("1,2,4,8", integer=True) == [1, 2, 4, 8]

    def test_int_range_small_is_dense(self):
        assert _parse_grid("1..10", integer=True) == list(range(1, 11))

    def test_int_range_keeps_endpoint(self):
        # The gluing examples quote the rate at the last n of the range,
        # so the stepped grid must land on it exactly.
        grid = _parse_grid("1..100", integer=True)
        assert grid[0] == 1 and grid[-1] == 100

    @pytest.mark.parametrize("text, lo, hi", [("10..1000", 10, 1000), ("1..102", 1, 102)])
    def test_int_range_keeps_endpoint_off_step(self, text, lo, hi):
        # the step does not divide hi - lo here
        grid = _parse_grid(text, integer=True)
        assert grid[0] == lo and grid[-1] == hi
        assert grid == sorted(set(grid))

    def test_log_range_unique_ints(self):
        grid = _parse_grid("100..1000000", integer=True, log=True)
        assert grid[0] == 100 and grid[-1] == 1000000
        assert grid == sorted(set(grid))

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            _parse_grid("")

    def test_malformed_rejected(self):
        with pytest.raises(UsageError):
            _parse_grid("1,two,3")

    def test_reversed_range_rejected(self):
        with pytest.raises(UsageError):
            _parse_grid("5..2")

    def test_log_range_needs_positive(self):
        with pytest.raises(UsageError):
            _parse_grid("0..10", log=True)

    @pytest.mark.parametrize("log", [False, True])
    @pytest.mark.parametrize("text", ["1..100000000000000000000000",
                                      "-100000000000000000000000..5",
                                      "1..9223372036854775808"])
    def test_int_range_past_int64_rejected(self, text, log):
        with pytest.raises(UsageError, match="64 bits"):
            _parse_grid(text, integer=True, log=log)

    def test_int_range_at_int64_edge(self):
        grid = _parse_grid("9223372036854775806..9223372036854775807", integer=True)
        assert grid == [9223372036854775806, 9223372036854775807]

    @pytest.mark.parametrize("text", ["1..9223372036854775807",
                                      "9223372036854775000..9223372036854775807"])
    def test_int_log_range_at_int64_edge(self, text):
        # the float grid points round up to 2**63 at the top end
        lo, hi = (int(s) for s in text.split(".."))
        grid = _parse_grid(text, integer=True, log=True)
        assert grid[0] == lo and grid[-1] == hi and grid == sorted(set(grid))

    def test_tol_pairs(self):
        assert _parse_tols(["a=0.5", "b=1e-9"]) == {"a": 0.5, "b": 1e-9}

    def test_tol_malformed(self):
        with pytest.raises(UsageError):
            _parse_tols(["a"])
        with pytest.raises(UsageError):
            _parse_tols(["a=x"])


class TestNuCommand:
    def test_csv_three_rows(self, capsys):
        code, out, _ = run_cli(capsys, "nu", "--r", "0.001,1,30", "--format", "csv")
        assert code == 0
        rows = load_csv(out)
        assert len(rows) == 3
        assert list(rows[0]) == ["r", "nu", "ratio_small", "ratio_large"]
        assert abs(float(rows[0]["ratio_small"]) - 1.0) < 0.01
        assert abs(float(rows[2]["ratio_large"]) - 1.0) < 0.04

    def test_json_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "nu", "--r", "0.145,1")
        assert code == 0
        payload = load_json(out)
        by_name = {c["name"]: c for c in payload["checks"]}
        assert abs(by_name["branch-constant"]["value"] - 4.78) < 0.01
        assert by_name["branch-sup"]["value"] < 3.5
        assert all(c["pass"] for c in payload["checks"])

    def test_empty_grid_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "nu", "--r", "")
        assert code == 2
        assert out == ""
        assert "grid" in err

    def test_nonpositive_radius_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "nu", "--r", "0,1")
        assert code == 2

    def test_tight_tol_fails_check(self, capsys):
        code, out, _ = run_cli(capsys, "nu", "--r", "1", "--tol", "branch-constant=1e-9")
        assert code == 1
        payload = load_json(out)
        by_name = {c["name"]: c for c in payload["checks"]}
        assert not by_name["branch-constant"]["pass"]


class TestTolOverrides:
    @pytest.mark.parametrize(
        "argv, names",
        [
            (["verify", "tube", "--tol", "tube-volum=1e-30"],
             ["tube-volume", "tube-form-norm", "tube-competitor"]),
            (["verify", "homalg", "--tol", "homalg-symplectic=0.5"], ["homalg-symplectic"]),
            (["nu", "--r", "1", "--tol", "branch-constant=0.02", "--tol", "branch=1"],
             ["branch-constant", "branch-sup"]),
            (["family", "gluing", "--n", "1..10", "--tol", "branch-constant=0.02"],
             ["gluing-rate-ln"]),
        ],
    )
    def test_unused_tol_usage_error(self, capsys, argv, names):
        # a misspelled name, or one whose check keeps a fixed tolerance
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        for name in names:
            assert name in err


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["ball", "tube", "dfbound", "homalg", "bns"])
    def test_all_suites_pass(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", suite)
        assert code == 0
        payload = load_json(out)
        assert payload["command"] == f"verify {suite}"
        assert payload["checks"]
        assert all(c["pass"] for c in payload["checks"])

    def test_rows_mirror_checks(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "homalg")
        payload = load_json(out)
        assert payload["rows"] == payload["checks"]

    def test_unknown_suite_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "nosuch")
        assert code == 2

    def test_bad_quad_order_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "ball", "--quad-order", "2")
        assert code == 2


class TestFamilyCommand:
    def test_covers_constant_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "family", "covers", "--degrees", "1,2,4,8")
        assert code == 0
        payload = load_json(out)
        ratios = [row["ratio"] for row in payload["rows"]]
        assert max(ratios) / min(ratios) - 1.0 <= 1e-12
        assert [row["degree"] for row in payload["rows"]] == [1, 2, 4, 8]

    def test_covers_needs_degrees(self, capsys):
        code, _, _ = run_cli(capsys, "family", "covers")
        assert code == 2

    def test_covers_bad_degrees(self, capsys):
        # cover degrees must start at 1 and increase
        code, _, _ = run_cli(capsys, "family", "covers", "--degrees", "2,4")
        assert code == 2

    def test_gluing_rate_at_100(self, capsys):
        code, out, _ = run_cli(capsys, "family", "gluing", "--n", "1..100")
        assert code == 0
        payload = load_json(out)
        last = payload["rows"][-1]
        assert last["n"] == 100
        assert abs(last["rate_ln"] - 0.128) <= 0.002
        assert abs(last["rate_paper"] - 0.348) <= 0.001

    def test_filling_log_grid_band(self, capsys):
        code, out, _ = run_cli(
            capsys, "family", "filling", "--n", "100..1000000", "--log-grid"
        )
        assert code == 0
        payload = load_json(out)
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["filling-band-low"]["pass"]
        assert by_name["filling-band-high"]["pass"]
        assert by_name["filling-ratio-increasing"]["pass"]

    def test_filling_needs_n(self, capsys):
        code, _, _ = run_cli(capsys, "family", "filling")
        assert code == 2

    @pytest.mark.parametrize("extra", [[], ["--log-grid"]])
    def test_gluing_grid_past_int64_usage_error(self, capsys, extra):
        n = "1..100000000000000000000000"
        code, out, _ = run_cli(capsys, "family", "gluing", "--n", n, *extra)
        assert (code, out) == (2, "")

    def test_gluing_past_cap_usage_error_promptly(self, capsys):
        # the exact power at n = 2**63 - 1 would never finish
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "family", "gluing", "--n", "1..9223372036854775807")
        assert (code, out) == (2, "")
        assert "10^5" in err
        assert time.perf_counter() - start < 10.0

    def test_filling_degenerate_n_usage_error(self, capsys):
        # n=1 collapses the filled slope norm to zero
        code, _, _ = run_cli(capsys, "family", "filling", "--n", "1,2")
        assert code == 2


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, capsys):
        argv = ["family", "filling", "--n", "100..10000", "--log-grid"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_seeded_verify_byte_identical(self, capsys):
        argv = ["verify", "dfbound", "--seed", "7"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_seed_changes_sweep_values(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "dfbound", "--seed", "1")
        _, second, _ = run_cli(capsys, "verify", "dfbound", "--seed", "2")
        v1 = json.loads(first)["checks"][-1]["value"]
        v2 = json.loads(second)["checks"][-1]["value"]
        assert v1 != v2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hypnorms.cli", "verify", "bns"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["command"] == "verify bns"

    def test_diagnostics_stay_off_stdout(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hypnorms.cli", "nu", "--r", ""],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr != ""
