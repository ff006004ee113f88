"""The argument rules (README, Conventions): an integer argument is an int, a
real argument a finite real read as a float, neither a bool, each in a
stated range; anything else raises ValueError naming the argument."""

import math
from numbers import Real

__all__ = ["checked_int", "checked_ints", "checked_real"]

_INT = frozenset({int})


def _shown(x) -> str:
    """repr(x), or x described without it where repr refuses an int too long to print."""
    try:
        return repr(x)
    except ValueError:  # past sys.get_int_max_str_digits(), 4300 digits by default
        if isinstance(x, int):  # bit_length * log10(2) digits, give or take one
            return f"an int of about {x.bit_length() * 30103 // 100000 + 1} digits"
        return f"a {type(x).__name__} holding an int too long to print"


def checked_int(x, lo: int, hi: int | None = None, *, what: str) -> int:
    """x itself if type(x) is int and lo <= x <= hi (no upper limit if hi is None)."""
    if type(x) is int and lo <= x and (hi is None or x <= hi):
        return x
    top = str(hi)  # a cap such as 100000 reads as 10^5
    top = f"10^{len(top) - 1}" if len(top) > 3 and top.rstrip("0") == "1" else top
    span = f">= {lo}" if hi is None else f"in [{lo}, {top}]"
    raise ValueError(f"{what} must be an integer {span}, got {_shown(x)}")


def checked_ints(row, what: str, size: int | None = None) -> tuple[int, ...]:
    """tuple(row) if its entries are ints and, when size is given, there are size of them."""
    try:
        row = tuple(row)
        if _INT.issuperset(map(type, row)) and (size is None or len(row) == size):
            return row
    except TypeError:
        pass
    raise ValueError(f"{what} must be {size or 'all'} integers, got {_shown(row)}")


def checked_real(x, *, what: str, gt=None, ge=None, lt=None) -> float:
    """float(x) if x is a real, not a bool, that is finite and > gt, >= ge and < lt where given."""
    v = x
    if type(x) is not float:  # a plain float, the common case, skips the type checks
        real = isinstance(x, (float, int, Real)) and not isinstance(x, bool)  # Real is slowest
        try:
            v = float(x) if real else math.nan
        except OverflowError:  # an int or a Fraction past the float range
            v = math.nan
    if (math.isfinite(v) and (gt is None or v > gt) and (ge is None or v >= ge)
            and (lt is None or v < lt)):
        return v
    span = " and ".join(f"{o} {b}" for o, b in ((">", gt), (">=", ge), ("<", lt)) if b is not None)
    raise ValueError(f"{what} must be a finite real{span and ' ' + span}, got {_shown(x)}")
