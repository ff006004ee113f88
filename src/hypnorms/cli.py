"""Command-line front end: tables and invariant reports on stdout.

Subcommands expose the library as reproducible one-line invocations:

  nu       radial norm-density table with the two asymptotic ratios
  verify   run a named invariant suite (ball, tube, dfbound, homalg, bns)
  family   per-n rows for the cover, filling, and gluing families

Each of the nine commands (nu, five suites, three families) reads --format,
--tol, and the flags _READS lists for it; any other flag given is a usage
error, as is a --tol whose name no check of the command looks up.

Output is JSON (default) or CSV, written to stdout only; diagnostics go
to stderr.  A fixed invocation is byte-identical across runs: floats are
emitted via repr, randomized sweeps are seeded, and no timestamps appear.
Exit codes: 0 all checks pass, 1 some check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .bounds import NormDatum
from .families import (
    CoverFamilyParams,
    FillingFamilyParams,
    GluingFamilyParams,
    cover_family,
    filling_family,
    gluing_family,
)
from .radial import nu
from .verify import SUITE_KNOBS, SUITES, Check, run_suite

__all__ = ["main", "cmd_nu", "cmd_verify", "cmd_family"]

# the flags only some commands read, by argparse dest; each is left out of
# the parsed arguments unless given
_FLAGS = {"order": "--quad-order", "seed": "--seed", "n": "--n", "degrees": "--degrees",
          "log_grid": "--log-grid"}
# the flags each command reads; a suite reads the knobs it takes as parameters
_READS = {
    "nu": {"log_grid"},
    **{f"verify {name}": knobs for name, knobs in SUITE_KNOBS.items()},
    "family covers": {"degrees"},
    "family filling": {"n", "log_grid"},
    "family gluing": {"n", "log_grid"},
}
_GRID_POINTS = 25  # points of a float a..b range; integer ranges step by (b - a) // 25
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1  # integer grid points are 64-bit


class UsageError(Exception):
    pass


class _Tols(dict):
    """--tol overrides that remember every name a command looks up."""

    def __init__(self):
        super().__init__()
        self.looked_up: dict[str, None] = {}

    def get(self, name, default=None):
        self.looked_up[name] = None
        return super().get(name, default)


def _int_at_least(lo: int):
    """argparse type: an int >= lo; argparse reports any other value (exit 2)."""

    def parse(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type: "invalid int value: 'x'"
    return parse


def _parse_tols(pairs: list[str] | None) -> _Tols:
    out = _Tols()
    for pair in pairs or ():
        name, sep, val = pair.partition("=")
        if not sep or not name:
            raise UsageError(f"--tol expects name=value, got {pair!r}")
        try:
            out[name] = float(val)
        except ValueError:
            raise UsageError(f"--tol value for {name!r} is not a number: {val!r}")
        if not 0.0 <= out[name] < math.inf:
            raise UsageError(f"--tol value for {name!r} must be finite and >= 0, got {val!r}")
    return out


def _parse_grid(text: str, *, integer: bool = False, log: bool = False) -> list:
    """Comma list or a..b range.

    Float ranges carry 25 points, evenly or (log) geometrically spaced.  An
    integer range steps by max(1, (b - a) // 25) and always ends at b, so it
    holds every integer when b - a < 50 (1..50 gives 50 points) and 26 to 38
    points beyond; an integer log range rounds 25 geometric points and drops
    duplicates.  Integer endpoints and list entries must fit in 64 bits.
    """
    text = (text or "").strip()
    if not text:
        raise UsageError("empty grid")
    is_range = ".." in text
    try:
        vals = [(int if integer else float)(tok)
                for tok in (text.split("..", 1) if is_range else text.split(","))]
    except ValueError:
        raise UsageError(f"malformed grid {text!r}")
    if integer and not all(_INT64_MIN <= v <= _INT64_MAX for v in vals):
        raise UsageError(f"integer grid points must fit in 64 bits, got {text!r}")
    if not is_range:
        return vals
    lo, hi = vals
    if not lo < hi:
        raise UsageError(f"grid range needs lo < hi, got {text!r}")
    if integer and not log:
        return [*range(lo, hi, max(1, (hi - lo) // _GRID_POINTS)), hi]
    # float points stay numpy's: the printed grids depend on its exact floats
    import numpy as np

    if log:
        if lo <= 0:
            raise UsageError("log grid needs positive endpoints")
        points = np.geomspace(lo, hi, _GRID_POINTS)
    else:
        points = np.linspace(lo, hi, _GRID_POINTS)
    if integer:
        # float points of a log range near 2**63 can round past an end
        return sorted({min(max(int(v), lo), hi) for v in points})
    return [float(v) for v in points]


def _require_tols_used(tols: _Tols) -> None:
    # a --tol that no check of the command looked up would otherwise pass
    # silently: a typo, or a check whose tolerance is fixed
    unused = [f"{k}={v!r}" for k, v in tols.items() if k not in tols.looked_up]
    if unused:
        names = ", ".join(tols.looked_up) or "none"
        raise UsageError(
            f"--tol {' '.join(unused)} matches no check here; checks that take one: {names}"
        )


def _check_dict(c: Check) -> dict:
    return {
        "name": c.name,
        "anchor": c.anchor,
        "value": c.value,
        "tol": c.tol,
        "pass": c.passed,
    }


def _emit(command: str, rows: list[dict], checks: list[Check], fmt: str) -> None:
    if fmt == "json":
        payload = {
            "command": command,
            "anchors": [c.anchor for c in checks],
            "rows": rows,
            "checks": [_check_dict(c) for c in checks],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    sys.stdout.write(buf.getvalue())


def cmd_nu(grid: list[float], tols: _Tols) -> tuple[list[dict], list[Check]]:
    """Norm-density table plus the two branch-constant checks."""
    if not all(math.isfinite(r) and r > 0 for r in grid):
        raise UsageError("nu table needs finite, strictly positive radii")
    rows = []
    for r in grid:
        try:
            v = nu(r)
            small = 4.0 * math.pi / 3.0 * r**3
        except (ValueError, OverflowError) as e:
            raise UsageError(f"nu table radius {r} is out of range: {e}")
        if not sys.float_info.min <= small < math.inf:
            raise UsageError(
                f"nu table radius {r} is out of range: 4 pi r**3 / 3 is not a normal float"
            )
        rows.append(
            {
                "r": r,
                "nu": v,
                "ratio_small": v / small,
                "ratio_large": v / (6.0 * math.pi * r),
            }
        )
    import numpy as np  # the branch-sup grid is numpy's geomspace, bit for bit

    t478 = tols.get("branch-constant", 0.01)
    v478 = math.sqrt(0.29 / nu(0.145))
    sup_grid = np.geomspace(0.145, 50.0, 120)
    vsup = max(math.sqrt(e / nu(e)) for e in sup_grid)
    t35 = tols.get("branch-sup", 3.5)
    checks = [
        Check("branch-constant", "sqrt(0.29/nu(0.145)) = 4.78 +- 0.01",
              v478, t478, abs(v478 - 4.78) <= t478),
        Check("branch-sup", "sup sqrt(eps/nu(eps)) on [0.145, 50] stays below",
              vsup, t35, vsup < t35),
    ]
    return rows, checks


def cmd_verify(suite: str, tols: _Tols, **knobs) -> tuple[list[dict], list[Check]]:
    """Run one named invariant suite; rows mirror the checks."""
    checks = run_suite(suite, tol=tols, **knobs)
    return [_check_dict(c) for c in checks], checks


def _covers_rows(degrees: list[int], tols: _Tols) -> tuple[list[dict], list[Check]]:
    base = NormDatum(vol=1.0, inj=1.0, thurston=1.0, harmonic=4.0)
    try:
        fam = cover_family(CoverFamilyParams(base, tuple(degrees)))
    except ValueError as e:
        raise UsageError(str(e))
    rows = []
    ratios = []
    for d, datum in zip(degrees, fam):
        ratio = datum.thurston / (datum.harmonic * math.sqrt(datum.vol))
        ratios.append(ratio)
        rows.append(
            {
                "degree": d,
                "vol": datum.vol,
                "inj": datum.inj,
                "thurston": datum.thurston,
                "harmonic": datum.harmonic,
                "ratio": ratio,
            }
        )
    spread = max(ratios) / min(ratios) - 1.0
    t = tols.get("cover-ratio-constant", 1e-12)
    checks = [
        Check("cover-ratio-constant", "thurston/(harmonic sqrt(vol)) constant over degrees",
              spread, t, spread <= t)
    ]
    return rows, checks


def _filling_rows(n_grid: list[int], tols: _Tols) -> tuple[list[dict], list[Check]]:
    params = FillingFamilyParams()
    rows = []
    band = []
    ratios = []
    for n in n_grid:
        try:
            pt = filling_family(params, n)
        except ValueError as e:
            raise UsageError(str(e))
        over = pt.ratio / math.sqrt(math.log(n)) if n > 1 else math.nan
        band.append(over)
        ratios.append(pt.ratio)
        rows.append(
            {
                "n": n,
                "vol": pt.datum.vol,
                "inj": pt.datum.inj,
                "thurston": pt.datum.thurston,
                "harmonic_lower": pt.harmonic_lower,
                "ratio": pt.ratio,
                "ratio_over_sqrt_log": over,
            }
        )
    t_lo = tols.get("filling-band-low", 1.75)
    t_hi = tols.get("filling-band-high", 1.82)
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    checks = [
        Check("filling-band-low", "ratio/sqrt(log n) bounded below on the grid",
              min(band), t_lo, min(band) >= t_lo),
        Check("filling-band-high", "ratio/sqrt(log n) bounded above on the grid",
              max(band), t_hi, max(band) <= t_hi),
        Check("filling-ratio-increasing", "harmonic/thurston ratio increases along the grid",
              float(increasing), 0.0, increasing),
    ]
    return rows, checks


def _gluing_rows(n_grid: list[int], tols: _Tols) -> tuple[list[dict], list[Check]]:
    params = GluingFamilyParams()
    rows = []
    last = None
    for n in n_grid:
        try:
            pt = gluing_family(params, n)
        except ValueError as e:
            raise UsageError(str(e))
        last = pt
        rows.append(
            {
                "n": n,
                "vol": pt.vol,
                "log_th_lower": pt.log_th_lower,
                "rate_ln": pt.rate_ln,
                "rate_paper": pt.rate_paper,
            }
        )
    t_ln = tols.get("gluing-rate-ln", 0.002)
    checks = [
        Check("gluing-rate-ln", "log_th_lower/vol near ln(lam)/vol_block at the last n",
              last.rate_ln, t_ln, abs(last.rate_ln - 0.128) <= t_ln),
    ]
    return rows, checks


def cmd_family(kind: str, tols: _Tols, n: str | None = None, degrees: str | None = None,
               log_grid: bool = False) -> tuple[list[dict], list[Check]]:
    if kind == "covers":
        if not degrees:
            raise UsageError("covers needs --degrees")
        return _covers_rows(_parse_grid(degrees, integer=True), tols)
    if not n:
        raise UsageError(f"{kind} needs --n")
    rows_of = _filling_rows if kind == "filling" else _gluing_rows
    return rows_of(_parse_grid(n, integer=True, log=log_grid), tols)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hypnorms", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--tol", action="append", metavar="NAME=VAL")
    suppress = argparse.SUPPRESS  # the _FLAGS are absent unless given
    common.add_argument("--quad-order", dest="order", type=_int_at_least(4), default=suppress)
    common.add_argument("--seed", type=_int_at_least(0), default=suppress)
    common.add_argument("--n", default=suppress, help="comma list or a..b range of n")
    common.add_argument("--degrees", default=suppress, help="comma list of cover degrees")
    common.add_argument("--log-grid", action="store_true", default=suppress)
    sub = parser.add_subparsers(dest="command", required=True)

    p_nu = sub.add_parser("nu", parents=[common], help="radial norm-density table")
    p_nu.add_argument("--r", required=True, help="comma list or a..b range")

    p_verify = sub.add_parser("verify", parents=[common], help="run an invariant suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))

    p_family = sub.add_parser("family", parents=[common], help="per-n family tables")
    p_family.add_argument("kind", choices=("covers", "filling", "gluing"))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    command = " ".join(getattr(args, k) for k in ("command", "suite", "kind") if k in args)
    try:
        given = {dest: getattr(args, dest) for dest in _FLAGS if dest in args}
        unread = [_FLAGS[dest] for dest in given if dest not in _READS[command]]
        if unread:
            raise UsageError(f"{command} does not read {', '.join(unread)}")
        tols = _parse_tols(args.tol)
        if args.command == "nu":
            grid = _parse_grid(args.r, log=given.get("log_grid", False))
            rows, checks = cmd_nu(grid, tols)
        elif args.command == "verify":
            rows, checks = cmd_verify(args.suite, tols, **given)
        else:
            rows, checks = cmd_family(args.kind, tols, **given)
        _require_tols_used(tols)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _emit(command, rows, checks, args.format)
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
