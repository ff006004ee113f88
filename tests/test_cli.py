"""Command-line behaviour: schemas, exit codes, grids, determinism."""

import csv
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypnorms import verify
from hypnorms.cli import UsageError, _parse_grid, _parse_tols, main

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


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

    @pytest.mark.parametrize("text", [f"1,{10**400}", f"10,{10**200}", f"{-(2**63) - 1},1",
                                      "1,9223372036854775808"],
                             ids=["1,10^400", "10,10^200", "-2^63-1,1", "1,2^63"])
    def test_int_list_past_int64_rejected(self, text):
        # the same 64-bit rule as a range's endpoints
        with pytest.raises(UsageError, match="64 bits"):
            _parse_grid(text, integer=True)

    def test_int_list_at_int64_edge(self):
        assert _parse_grid(f"{INT64_MIN},{INT64_MAX}", integer=True) == [INT64_MIN, INT64_MAX]

    def test_int_range_at_int64_edge(self):
        grid = _parse_grid("9223372036854775806..9223372036854775807", integer=True)
        assert grid == [9223372036854775806, 9223372036854775807]

    @given(st.integers(INT64_MIN, INT64_MAX - 1).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(1, min(INT64_MAX, INT64_MAX - lo)))))
    @example((1, INT64_MAX - 1))  # 27 points; a float-length range drops 9223372036854775801
    @settings(max_examples=300)
    def test_int_range_is_the_stated_rule(self, lo_width):
        # step max(1, (b - a) // 25) from a, then b, for widths up to 2**63 - 1
        lo, width = lo_width
        hi = lo + width
        step = max(1, width // 25)
        assert _parse_grid(f"{lo}..{hi}", integer=True) == [*range(lo, hi, step), hi]

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

    @pytest.mark.parametrize("val", ["nan", "inf", "-inf", "-1", "-1e-300", "1e400"])
    def test_tol_not_finite_nonnegative(self, val):
        with pytest.raises(UsageError, match="finite and >= 0"):
            _parse_tols([f"a={val}"])

    def test_tol_zero_accepted(self):
        assert _parse_tols(["a=0"]) == {"a": 0.0}


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "homalg", "--tol", "homalg-symplectic=0"],
            ["verify", "homalg", "--tol", "homalg-twist-word=0"],
            ["verify", "homalg", "--tol", "homalg-mv-generators=0"],
            ["verify", "bns", "--tol", "bns-fibered-characters=1"],
            ["verify", "bns", "--tol", "bns-exponent-sums=0"],
            ["family", "filling", "--n", "10,100", "--tol", "filling-ratio-increasing=0"],
        ],
    )
    def test_fixed_tol_refused_at_its_own_value(self, capsys, argv):
        # the value given equals the check's fixed tolerance; the name decides
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "matches no check" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "homalg", "--tol", "homalg-growth=nan"],
            ["nu", "--r", "1", "--tol", "branch-sup=inf"],
            ["verify", "tube", "--tol", "tube-competitor=-1"],
        ],
    )
    def test_nonfinite_or_negative_tol_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "finite and >= 0" in err

    def test_overridable_tol_still_taken(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "homalg", "--tol", "homalg-growth=1e-3")
        assert code == 0
        by_name = {c["name"]: c for c in load_json(out)["checks"]}
        assert by_name["homalg-growth"]["tol"] == 1e-3


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "ball"],
            ["verify", "dfbound"],
            ["verify", "bns"],
            ["nu", "--r", "1"],
            ["family", "covers", "--degrees", "1,2"],
        ],
    )
    def test_negative_seed_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert (code, out) == (2, "")
        assert "seed" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["family", "covers", "--degrees", "1,2", "--seed", "7"], "--seed"),
            (["family", "gluing", "--n", "1..3", "--seed", "0"], "--seed"),
            (["nu", "--r", "1", "--seed", "0"], "--seed"),
            (["verify", "homalg", "--seed", "7"], "--seed"),
            (["verify", "tube", "--seed", "0"], "--seed"),
            (["verify", "homalg", "--quad-order", "30"], "--quad-order"),
            (["verify", "dfbound", "--quad-order", "24"], "--quad-order"),
            (["verify", "bns", "--quad-order", "24"], "--quad-order"),
            (["nu", "--r", "1", "--quad-order", "24"], "--quad-order"),
            (["family", "filling", "--n", "10,100", "--quad-order", "24"], "--quad-order"),
        ],
    )
    def test_unread_seed_or_quad_order_usage_error(self, capsys, argv, flag):
        # refused whatever the value, the default included, as an unused --tol is
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"does not read {flag}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "suite, flags",
        [
            ("ball", ["--quad-order", "24", "--seed", "0"]),
            ("tube", ["--quad-order", "24"]),
            ("dfbound", ["--seed", "0"]),
            ("bns", ["--seed", "0"]),
        ],
    )
    def test_seed_and_quad_order_taken_where_read(self, capsys, suite, flags):
        # the defaults given explicitly reproduce the plain report
        assert run_cli(capsys, "verify", suite, *flags) == run_cli(capsys, "verify", suite)

    def test_knob_readers_are_the_suites_taking_the_knob(self):
        assert verify.SUITE_KNOBS == {
            "ball": {"order", "seed"},
            "tube": {"order"},
            "dfbound": {"seed"},
            "homalg": set(),
            "bns": {"seed"},
        }

    @pytest.mark.parametrize("suite, knobs, named", [
        ("homalg", {"order": 3, "seed": 5}, "order"),
        ("tube", {"seed": 0}, "seed"),
        ("dfbound", {"order": 24}, "order"),
        ("bns", {"quad_order": 24}, "quad_order"),
    ])
    def test_run_suite_refuses_unread_knob(self, suite, knobs, named):
        # a knob the suite does not take would otherwise be dropped silently
        with pytest.raises(ValueError, match=named):
            verify.run_suite(suite, **knobs)


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

    @pytest.mark.parametrize("argv", [["family", "covers", "--degrees", f"1,{10**400}"],
                                      ["family", "filling", "--n", f"10,{10**200}"],
                                      ["family", "gluing", "--n", f"1,{10**30}"]],
                             ids=["covers", "filling", "gluing"])
    def test_int_list_past_int64_usage_error(self, capsys, argv):
        # once an OverflowError traceback in cover_family and filling_family
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "64 bits" in err and "Traceback" not in err

    def test_filling_degenerate_n_usage_error(self, capsys):
        # n=1 collapses the filled slope norm to zero
        code, _, _ = run_cli(capsys, "family", "filling", "--n", "1,2")
        assert code == 2


# each command's argv, with the flags it cannot run without
COMMANDS = {
    "nu": ["nu", "--r", "1"],
    "verify ball": ["verify", "ball"],
    "verify tube": ["verify", "tube"],
    "verify dfbound": ["verify", "dfbound"],
    "verify homalg": ["verify", "homalg"],
    "verify bns": ["verify", "bns"],
    "family covers": ["family", "covers", "--degrees", "1,2"],
    "family filling": ["family", "filling", "--n", "10,100"],
    "family gluing": ["family", "gluing", "--n", "1,2"],
}
FLAGS = {
    "--quad-order": ["--quad-order", "24"],
    "--seed": ["--seed", "0"],
    "--n": ["--n", "5"],
    "--degrees": ["--degrees", "1"],
    "--log-grid": ["--log-grid"],
}
# the flags each command reads, written out rather than taken from the CLI's own table
READS = {
    "nu": {"--log-grid"},
    "verify ball": {"--quad-order", "--seed"},
    "verify tube": {"--quad-order"},
    "verify dfbound": {"--seed"},
    "verify homalg": set(),
    "verify bns": {"--seed"},
    "family covers": {"--degrees"},
    "family filling": {"--n", "--log-grid"},
    "family gluing": {"--n", "--log-grid"},
}


class TestFlagContract:
    @pytest.mark.parametrize("command, flag", [(c, f) for c in COMMANDS for f in FLAGS
                                               if f not in READS[c]])
    def test_unread_flag_usage_error(self, capsys, command, flag):
        code, out, err = run_cli(capsys, *COMMANDS[command], *FLAGS[flag])
        assert (code, out) == (2, "")
        assert f"{command} does not read {flag}" in err and "Traceback" not in err

    @pytest.mark.parametrize("before, after", [
        (["verify", "--format", "csv", "homalg"], ["verify", "homalg", "--format", "csv"]),
        (["verify", "--seed", "3", "ball"], ["verify", "ball", "--seed", "3"]),
        (["verify", "--quad-order", "30", "--seed", "2", "ball"],
         ["verify", "ball", "--quad-order", "30", "--seed", "2"]),
        (["verify", "--quad-order", "8", "tube"], ["verify", "tube", "--quad-order", "8"]),
        (["family", "--n", "1,2", "gluing"], ["family", "gluing", "--n", "1,2"]),
        (["family", "--degrees", "1,2,4,8", "covers"], ["family", "covers", "--degrees", "1,2,4,8"]),
        (["family", "--log-grid", "--n", "100..10000", "filling"],
         ["family", "filling", "--n", "100..10000", "--log-grid"]),
        (["nu", "--log-grid", "--r", "0.01..10"], ["nu", "--r", "0.01..10", "--log-grid"]),
    ])
    def test_flags_before_positional(self, capsys, before, after):
        code, out, _ = run_cli(capsys, *before)
        assert out and code in (0, 1)
        assert run_cli(capsys, *after)[:2] == (code, out)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_exits_zero(self, capsys, command):
        code, out, _ = run_cli(capsys, *command.split(), "--help")
        assert code == 0 and "usage" in out

    @pytest.mark.parametrize("argv", [
        ["verify", "ball", "--quad-order", "x"],
        ["verify", "bns", "--seed", "1.5"],
        ["verify", "homalg", "--format", "xml"],
    ])
    def test_malformed_flag_value_usage_error(self, capsys, argv):
        # argparse refuses these values before any command runs
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert argv[2] in err and "Traceback" not in err


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

    def test_bns_report_is_seed_free(self, capsys):
        # the seed draws bns's words, but every check value is a count that is
        # the same for any sweep of a correct walk: 0 mismatches in 100
        reports = {run_cli(capsys, "verify", "bns", "--seed", s)[1] for s in ("0", "1", "7")}
        assert len(reports) == 1

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
