"""Command-line front end: tables and invariant reports on stdout.

Subcommands expose the library as reproducible one-line invocations:

  nu       radial norm-density table with the two asymptotic ratios
  verify   run a named invariant suite (ball, tube, dfbound, homalg, bns)
  family   per-n rows for the cover, filling, and gluing families

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
from dataclasses import dataclass, field

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

__all__ = ["RunConfig", "main", "cmd_nu", "cmd_verify", "cmd_family"]

# the only commands that read these RunConfig knobs, the suites whose
# parameters take them; giving one to any other command is a usage error,
# as an unused --tol is
_KNOB_READERS = {
    knob: tuple(f"verify {name}" for name, knobs in SUITE_KNOBS.items() if param in knobs)
    for knob, param in (("quad_order", "order"), ("seed", "seed"))
}
_GRID_POINTS = 25  # points of a float a..b range; integer ranges step by (b - a) // 25
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1  # integer range endpoints are 64-bit


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


@dataclass(frozen=True)
class RunConfig:
    """The knobs of one run; each command reads only some of them."""

    tol: dict[str, float] = field(default_factory=dict)
    quad_order: int = 24
    fmt: str = "json"
    seed: int = 0

    def __post_init__(self):
        if self.quad_order < 4:
            raise UsageError(f"quadrature order must be >= 4, got {self.quad_order}")
        if self.fmt not in ("json", "csv"):
            raise UsageError(f"format must be json or csv, got {self.fmt!r}")
        if self.seed < 0:
            raise UsageError(f"seed must be nonnegative, got {self.seed}")


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
    duplicates.
    """
    text = (text or "").strip()
    if not text:
        raise UsageError("empty grid")
    num = int if integer else float
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = num(lo_s), num(hi_s)
            if not lo < hi:
                raise UsageError(f"grid range needs lo < hi, got {text!r}")
            if integer and not (_INT64_MIN <= lo and hi <= _INT64_MAX):
                raise UsageError(f"integer grid endpoints must fit in 64 bits, got {text!r}")
            if integer and not log:
                return [*range(lo, hi, max(1, (hi - lo) // _GRID_POINTS)), hi]
            # float points stay numpy's: the printed grids depend on its exact floats
            import numpy as np

            if log:
                if lo <= 0:
                    raise UsageError("log grid needs positive endpoints")
                vals = np.geomspace(lo, hi, _GRID_POINTS)
            else:
                vals = np.linspace(lo, hi, _GRID_POINTS)
            if integer:
                # float points of a log range near 2**63 can round past an end
                return sorted({min(max(int(v), lo), hi) for v in vals})
            return [float(v) for v in vals]
        return [num(tok) for tok in text.split(",")]
    except UsageError:
        raise
    except ValueError:
        raise UsageError(f"malformed grid {text!r}")


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


def cmd_nu(grid: list[float], config: RunConfig) -> tuple[list[dict], list[Check]]:
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

    t478 = config.tol.get("branch-constant", 0.01)
    v478 = math.sqrt(0.29 / nu(0.145))
    sup_grid = np.geomspace(0.145, 50.0, 120)
    vsup = max(math.sqrt(e / nu(e)) for e in sup_grid)
    t35 = config.tol.get("branch-sup", 3.5)
    checks = [
        Check("branch-constant", "sqrt(0.29/nu(0.145)) = 4.78 +- 0.01",
              v478, t478, abs(v478 - 4.78) <= t478),
        Check("branch-sup", "sup sqrt(eps/nu(eps)) on [0.145, 50] stays below",
              vsup, t35, vsup < t35),
    ]
    return rows, checks


def cmd_verify(suite: str, config: RunConfig) -> tuple[list[dict], list[Check]]:
    """Run one named invariant suite; rows mirror the checks."""
    checks = run_suite(suite, order=config.quad_order, seed=config.seed, tol=config.tol)
    rows = [_check_dict(c) for c in checks]
    return rows, checks


def _covers_rows(degrees: list[int], config: RunConfig) -> tuple[list[dict], list[Check]]:
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
    t = config.tol.get("cover-ratio-constant", 1e-12)
    checks = [
        Check("cover-ratio-constant", "thurston/(harmonic sqrt(vol)) constant over degrees",
              spread, t, spread <= t)
    ]
    return rows, checks


def _filling_rows(n_grid: list[int], config: RunConfig) -> tuple[list[dict], list[Check]]:
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
    t_lo = config.tol.get("filling-band-low", 1.75)
    t_hi = config.tol.get("filling-band-high", 1.82)
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


def _gluing_rows(n_grid: list[int], config: RunConfig) -> tuple[list[dict], list[Check]]:
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
    t_ln = config.tol.get("gluing-rate-ln", 0.002)
    checks = [
        Check("gluing-rate-ln", "log_th_lower/vol near ln(lam)/vol_block at the last n",
              last.rate_ln, t_ln, abs(last.rate_ln - 0.128) <= t_ln),
    ]
    return rows, checks


def cmd_family(kind: str, args, config: RunConfig) -> tuple[list[dict], list[Check]]:
    # covers reads --degrees alone, filling and gluing every other family flag
    given = {"--degrees": args.degrees is not None, "--n": args.n is not None,
             "--log-grid": args.log_grid}
    unread = [f for f, on in given.items() if on and (f == "--degrees") != (kind == "covers")]
    if unread:
        raise UsageError(f"family {kind} does not read {', '.join(unread)}")
    if kind == "covers":
        if not args.degrees:
            raise UsageError("covers needs --degrees")
        degrees = _parse_grid(args.degrees, integer=True, log=False)
        return _covers_rows(degrees, config)
    if not args.n:
        raise UsageError(f"{kind} needs --n")
    n_grid = _parse_grid(args.n, integer=True, log=args.log_grid)
    if kind == "filling":
        return _filling_rows(n_grid, config)
    return _gluing_rows(n_grid, config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hypnorms", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--tol", action="append", metavar="NAME=VAL")
    # absent unless given, so main can refuse them where nothing reads them
    common.add_argument("--quad-order", type=int, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_nu = sub.add_parser("nu", parents=[common], help="radial norm-density table")
    p_nu.add_argument("--r", required=True, help="comma list or a..b range")
    p_nu.add_argument("--log-grid", action="store_true")

    p_verify = sub.add_parser("verify", parents=[common], help="run an invariant suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))

    p_family = sub.add_parser("family", parents=[common], help="per-n family tables")
    p_family.add_argument("kind", choices=("covers", "filling", "gluing"))
    p_family.add_argument("--n", help="comma list or a..b range of n")
    p_family.add_argument("--degrees", help="comma list of cover degrees")
    p_family.add_argument("--log-grid", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.command == "nu":
        command = "nu"
    elif args.command == "verify":
        command = f"verify {args.suite}"
    else:
        command = f"family {args.kind}"
    try:
        knobs = {k: getattr(args, k) for k in _KNOB_READERS if hasattr(args, k)}
        unread = [
            f"{command} does not read --{k.replace('_', '-')}; only {', '.join(readers)} do"
            for k, readers in _KNOB_READERS.items() if k in knobs and command not in readers
        ]
        if unread:
            raise UsageError("; ".join(unread))
        config = RunConfig(tol=_parse_tols(args.tol), fmt=args.format, **knobs)
        if args.command == "nu":
            grid = _parse_grid(args.r, integer=False, log=args.log_grid)
            rows, checks = cmd_nu(grid, config)
        elif args.command == "verify":
            rows, checks = cmd_verify(args.suite, config)
        else:
            rows, checks = cmd_family(args.kind, args, config)
        _require_tols_used(config.tol)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _emit(command, rows, checks, config.fmt)
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
