"""The integer rule (README, Conventions): an integer argument is a Python
int, not a bool or a float, in a stated range; else ValueError naming it."""

__all__ = ["checked_int", "checked_ints"]

_INT = frozenset({int})


def checked_int(x, lo: int, hi: int | None = None, *, what: str) -> int:
    """x itself if type(x) is int and lo <= x <= hi (no upper limit if hi is None)."""
    if type(x) is int and lo <= x and (hi is None or x <= hi):
        return x
    top = str(hi)  # a cap such as 100000 reads as 10^5
    top = f"10^{len(top) - 1}" if len(top) > 3 and top.rstrip("0") == "1" else top
    span = f">= {lo}" if hi is None else f"in [{lo}, {top}]"
    raise ValueError(f"{what} must be an integer {span}, got {x!r}")


def checked_ints(row, what: str, size: int | None = None) -> tuple[int, ...]:
    """tuple(row) if its entries are ints and, when size is given, there are size of them."""
    try:
        row = tuple(row)
        if _INT.issuperset(map(type, row)) and (size is None or len(row) == size):
            return row
    except TypeError:
        pass
    raise ValueError(f"{what} must be {size or 'all'} integers, got {row!r}")
