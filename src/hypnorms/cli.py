"""Command-line front end: tables and invariant reports on stdout.

Subcommands expose the library as reproducible one-line invocations:

  nu       radial norm-density table with the two asymptotic ratios
  verify   run a named invariant suite (ball, tube, dfbound, homalg, bns)
  family   per-n rows for the cover, filling, and gluing families

Each of the nine commands (nu, five suites, three families) is one function
in _COMMANDS.  Besides --format and --tol, a command reads exactly the
flags its function takes as keyword parameters and needs those without a
default; any other flag given, or a needed one missing, is a usage error.
A command returns its checks at their default tolerances, and _apply_tols
then applies every --tol in one step: each name must match a check of the
command whose tolerance is not fixed, and appear once.

Output is JSON (default) or CSV, written to stdout only; diagnostics go
to stderr.  A fixed invocation is byte-identical across runs: floats are
emitted via repr, randomized sweeps are seeded, and no timestamps appear.
Exit codes: 0 all checks pass, 1 some check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import operator
import os
import sys
from dataclasses import asdict, replace

from ._args import checked_int, checked_real
from .bounds import NormDatum, branch_constant
from .families import (
    CoverFamilyParams,
    FillingFamilyParams,
    GluingFamilyParams,
    cover_family,
    filling_family,
    gluing_family,
)
from .quadrature import MAX_ORDER
from .radial import nu
from .verify import SUITES, Check

__all__ = ["main"]

# the flags only some commands read, by argparse dest; each is left out of
# the parsed arguments unless given
_FLAGS = {"r": "--r", "order": "--quad-order", "seed": "--seed", "n": "--n",
          "degrees": "--degrees", "log_grid": "--log-grid"}
_GRID_POINTS = 25  # points of a float or log a..b range; integer ranges step by (b - a) // 25
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1  # integer grid points are 64-bit


class UsageError(Exception):
    pass


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an int in [lo, hi] (hi None: no cap); argparse reports any other value."""

    def parse(text: str) -> int:
        value = int(text)
        try:
            return checked_int(value, lo, hi, what="value")
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e))

    parse.__name__ = "int"  # argparse names the type: "invalid int value: 'x'"
    return parse


def _parse_tols(pairs: list[str] | None) -> dict[str, float]:
    out = {}
    for pair in pairs or ():
        name, sep, val = pair.rpartition("=")  # a check name may hold "=", a number never
        if not sep or not name:
            raise UsageError(f"--tol expects name=value, got {pair!r}")
        if name in out:
            raise UsageError(f"--tol {name!r} given twice")
        try:
            value = float(val)
        except ValueError:
            raise UsageError(f"--tol value for {name!r} is not a number: {val!r}")
        try:
            out[name] = checked_real(value, what=f"--tol value for {name!r}", ge=0)
        except ValueError as e:
            raise UsageError(str(e)) from None
    return out


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for an int n >= 1, exactly (Newton's method on ints)."""
    x = int(math.exp(math.log(n) / k)) + 1  # a float guess, off by a few units at most
    x = ((k - 1) * x + n // x ** (k - 1)) // k  # one step from any x lands at or above the floor
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _parse_grid(text: str, *, integer: bool = False, log: bool = False) -> list:
    """Comma list or a..b range.

    A float range carries 25 points.  Evenly spaced, they are
    i * ((b - a)/24) + a for i < 24, then b, which is np.linspace's formula;
    with --log-grid they are np.geomspace's.  An integer range steps by
    max(1, (b - a) // 25) and always ends at b, so it holds every integer
    when b - a < 50 (1..50 gives 50 points) and 26 to 38 points beyond; an
    integer log range holds the floors of 25 exact geometric points,
    a^((24-i)/24) b^(i/24), without duplicates.  Integer endpoints and
    list entries must fit in 64 bits.
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
    if log and lo <= 0:
        raise UsageError("log grid needs positive endpoints")
    last = _GRID_POINTS - 1
    if integer and log:
        # the 24th root of lo^(24-i) hi^i, in ints: exact, and within [lo, hi]
        return sorted({_iroot(lo ** (last - i) * hi**i, last) for i in range(_GRID_POINTS)})
    if integer:
        return [*range(lo, hi, max(1, (hi - lo) // _GRID_POINTS)), hi]
    if log:
        import numpy as np  # the points stay np.geomspace's; their last ulp may depend on the CPU

        return [float(v) for v in np.geomspace(lo, hi, _GRID_POINTS)]
    step = (hi - lo) / last
    return [i * step + lo for i in range(last)] + [hi]


def _apply_tols(checks: list[Check], tols: dict[str, float]) -> list[Check]:
    """The checks with each --tol in place of the default tolerance of the check it names.

    A name that matches no check here whose tolerance is not fixed would
    otherwise pass silently: a typo, or a check whose tolerance is fixed.
    """
    takes = [c.name for c in checks if not c.fixed]
    unused = [f"{k}={v!r}" for k, v in tols.items() if k not in takes]
    if unused:
        raise UsageError(f"--tol {' '.join(unused)} matches no check here; "
                         f"checks that take one: {', '.join(takes) or 'none'}")
    return [replace(c, tol=tols[c.name]) if c.name in tols else c for c in checks]


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


def _nu_rows(r: str, log_grid=False) -> tuple[list[dict], list[Check]]:
    """Norm-density table on the radii of the grid r, plus the two branch-constant checks."""
    grid = _parse_grid(r, log=log_grid)
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
    v478 = branch_constant()
    # 120 geometric points from 0.145 to 50; sqrt(eps/nu(eps)) decreases, so
    # the sup sits at the first point, which is exactly 0.145
    sup_grid = [0.145 * (50.0 / 0.145) ** (i / 119) for i in range(120)]
    vsup = max(math.sqrt(e / nu(e)) for e in sup_grid)
    checks = [
        Check("branch-constant", "sqrt(0.29/nu(0.145)) = 4.78 +- 0.01",
              v478, 0.01, lambda v, t: abs(v - 4.78) <= t),
        Check("branch-sup", "sup sqrt(eps/nu(eps)) on [0.145, 50] stays below",
              vsup, 3.5, operator.lt),
    ]
    return rows, checks


def _covers_rows(degrees: str) -> tuple[list[dict], list[Check]]:
    grid = _parse_grid(degrees, integer=True)
    base = NormDatum(vol=1.0, inj=1.0, thurston=1.0, harmonic=4.0)
    try:
        fam = cover_family(CoverFamilyParams(base, tuple(grid)))
    except ValueError as e:
        raise UsageError(str(e))
    rows = []
    ratios = []
    for d, datum in zip(grid, fam):
        ratio = datum.thurston / (datum.harmonic * math.sqrt(datum.vol))
        ratios.append(ratio)
        rows.append({"degree": d, **asdict(datum), "ratio": ratio})
    spread = max(ratios) / min(ratios) - 1.0
    checks = [
        Check("cover-ratio-constant", "thurston/(harmonic sqrt(vol)) constant over degrees",
              spread, 1e-12)
    ]
    return rows, checks


def _filling_rows(n: str, log_grid=False) -> tuple[list[dict], list[Check]]:
    grid = _parse_grid(n, integer=True, log=log_grid)
    params = FillingFamilyParams()
    rows = []
    band = []
    ratios = []
    for n in grid:
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
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    checks = [
        Check("filling-band-low", "ratio/sqrt(log n) bounded below on the grid",
              min(band), 1.75, operator.ge),
        Check("filling-band-high", "ratio/sqrt(log n) bounded above on the grid",
              max(band), 1.82),
        Check("filling-ratio-increasing", "harmonic/thurston ratio increases along the grid",
              float(increasing), 0.0, operator.gt, fixed=True),
    ]
    return rows, checks


def _gluing_rows(n: str, log_grid=False) -> tuple[list[dict], list[Check]]:
    grid = _parse_grid(n, integer=True, log=log_grid)
    params = GluingFamilyParams()
    rows = []
    last = None
    for n in grid:
        try:
            pt = gluing_family(params, n)
        except ValueError as e:
            raise UsageError(str(e))
        last = pt
        rows.append({"n": n, **pt._asdict()})
    checks = [
        Check("gluing-rate-ln", "log_th_lower/vol near ln(lam)/vol_block at the last n",
              last.rate_ln, 0.002, lambda v, t: abs(v - 0.128) <= t),
    ]
    return rows, checks


# each command by name; a suite returns its checks alone, the others (rows, checks)
_COMMANDS = {
    "nu": _nu_rows,
    **{f"verify {name}": suite for name, suite in SUITES.items()},
    "family covers": _covers_rows,
    "family filling": _filling_rows,
    "family gluing": _gluing_rows,
}
# the flags a command reads are its parameters; it needs those without a default
_PARAMS = {command: inspect.signature(f).parameters for command, f in _COMMANDS.items()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hypnorms", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--tol", action="append", metavar="NAME=VAL")
    suppress = argparse.SUPPRESS  # the _FLAGS are absent unless given
    common.add_argument("--r", default=suppress, help="comma list or a..b range of radii")
    common.add_argument("--quad-order", dest="order", type=_int_in(4, MAX_ORDER),
                        default=suppress)
    common.add_argument("--seed", type=_int_in(0), default=suppress)
    common.add_argument("--n", default=suppress, help="comma list or a..b range of n")
    common.add_argument("--degrees", default=suppress, help="comma list of cover degrees")
    common.add_argument("--log-grid", action="store_true", default=suppress)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("nu", parents=[common], help="radial norm-density table")

    p_verify = sub.add_parser("verify", parents=[common], help="run an invariant suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))

    p_family = sub.add_parser("family", parents=[common], help="per-n family tables")
    p_family.add_argument("kind", choices=("covers", "filling", "gluing"))

    return parser


def main(argv: list[str] | None = None) -> int:
    # The suites' matrix products are small (the ball Grams' at most ~80 x 96),
    # so a CLI process runs OpenBLAS on one thread unless the caller set a
    # count; numpy is not loaded yet in a cold process, so its pool starts so.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    command = " ".join(getattr(args, k) for k in ("command", "suite", "kind") if k in args)
    try:
        given = {dest: getattr(args, dest) for dest in _FLAGS if dest in args}
        params = _PARAMS[command]
        unread = [_FLAGS[dest] for dest in given if dest not in params]
        if unread:
            raise UsageError(f"{command} does not read {', '.join(unread)}")
        missing = [_FLAGS[p] for p, v in params.items() if v.default is v.empty and p not in given]
        if missing:
            raise UsageError(f"{command} needs {', '.join(missing)}")
        tols = _parse_tols(args.tol)
        result = _COMMANDS[command](**given)
        rows, checks = (None, result) if args.command == "verify" else result
        checks = _apply_tols(checks, tols)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if rows is None:  # the rows of a suite mirror its checks
        rows = [_check_dict(c) for c in checks]
    _emit(command, rows, checks, args.format)
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
