"""Word algebra and Brown's fibering criterion for two-generator groups.

Free words over {a, b} and their inverses, integral characters on the
abelianization, and the walk-based criterion deciding which characters of
a two-generator one-relator group have finitely generated kernel, hence
define fibrations over the circle.

The criterion is applied in its cyclic form: the walk of partial character
sums along the relator is periodic once the character kills the relator,
and the decision reads off how often the minimum and the maximum are
attained over one period (positions 0 .. len-1).  Counting over one period
rather than the endpoint-inclusive walk is what makes the answer invariant
under cyclic permutation of the relator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

__all__ = [
    "Word",
    "Character",
    "BrownStatus",
    "X064_RELATOR",
    "parse_word",
    "exponent_sums",
    "brown_status",
    "fibered_characters",
]

# letter encoding: a = +1, a^-1 = -1, b = +2, b^-1 = -2
_LETTER_OF_CHAR = {"a": 1, "A": -1, "b": 2, "B": -2}
_CHAR_OF_LETTER = {1: "a", -1: "A", 2: "b", -2: "B"}


@dataclass(frozen=True)
class Word:
    """Word in the free group on a, b; not reduced unless asked."""

    letters: tuple[int, ...]

    def __init__(self, letters: Iterable[int] = ()):
        letters = tuple(letters)
        if any(x not in _CHAR_OF_LETTER for x in letters):
            raise ValueError("letters must be one of +1, -1, +2, -2")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(_CHAR_OF_LETTER[x] for x in self.letters)

    def reduce(self) -> "Word":
        """Freely reduced form: adjacent inverse pairs cancelled out."""
        stack: list[int] = []
        for x in self.letters:
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        return Word(stack)

    def cyc_reduce(self) -> "Word":
        """Cyclically reduced form: also strips inverse first/last pairs."""
        ls = list(self.reduce().letters)
        while len(ls) >= 2 and ls[0] == -ls[-1]:
            ls = ls[1:-1]
        return Word(ls)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters).reduce()


def parse_word(s: str) -> Word:
    """Parse a word over a, b, A, B with optional caret exponents.

    "a^-2" means A A; the result is freely reduced.
    """
    out: list[int] = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch not in _LETTER_OF_CHAR:
            raise ValueError(f"illegal character {ch!r} in word")
        base = _LETTER_OF_CHAR[ch]
        i += 1
        count = 1
        if i < len(s) and s[i] == "^":
            i += 1
            sign = 1
            if i < len(s) and s[i] == "-":
                sign = -1
                i += 1
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            if j == i:
                raise ValueError("malformed exponent in word")
            count = sign * int(s[i:j])
            i = j
        if count < 0:
            base, count = -base, -count
        out.extend([base] * count)
    return Word(out).reduce()


@dataclass(frozen=True)
class Character:
    """Integral character (p, q) = values on a, b.

    The zero character is representable (operations on it report
    not_applicable) but is never produced by the fibered scan, which
    ranges over primitive pairs only.
    """

    p: int
    q: int

    def __init__(self, p: int, q: int):
        _as_pair((p, q))  # the integer rule of a (p, q) pair
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def primitive(self) -> tuple[int, int]:
        """gcd-normalized representative of the same ray pair."""
        g = math.gcd(self.p, self.q)
        if g == 0:
            return (0, 0)
        return (self.p // g, self.q // g)

    @property
    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def value(self, w: Word) -> int:
        sa, sb = exponent_sums(w)
        return self.p * sa + self.q * sb


def exponent_sums(w: Word) -> tuple[int, int]:
    """(total a-exponent, total b-exponent); a free-reduction invariant."""
    sa = sb = 0
    for x in w.letters:
        if abs(x) == 1:
            sa += 1 if x > 0 else -1
        else:
            sb += 1 if x > 0 else -1
    return sa, sb


class BrownStatus(Enum):
    BOTH_DIRECTIONS = "both_directions"
    ONE_DIRECTION = "one_direction"
    NEITHER = "neither"
    NOT_APPLICABLE = "not_applicable"


def _as_pair(chi) -> tuple[int, int]:
    if isinstance(chi, Character):
        return chi.p, chi.q
    p, q = chi
    for x in (p, q):
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"character values must be integers, got {x!r}")
    return p, q


def brown_status(relator: Word, chi) -> BrownStatus:
    """Classify a character by the min/max-once walk criterion.

    chi is a Character or a pair (p, q) of Python ints, not bool (TypeError).
    The relator is cyclically reduced first; characters that are zero or do
    not kill the relator are not characters of the quotient group and
    report not_applicable.  Otherwise the walk of partial sums along one
    period of the cyclic relator is examined: the character (together with
    its negative) spans a pair of fibered directions iff the walk attains
    its minimum exactly once and its maximum exactly once.
    """
    p, q = _as_pair(chi)
    w = relator.cyc_reduce()
    if not w.letters:
        raise ValueError("empty relator")
    if p == 0 and q == 0:
        return BrownStatus.NOT_APPLICABLE
    step = {1: p, -1: -p, 2: q, -2: -q}
    if sum(step[x] for x in w.letters) != 0:
        return BrownStatus.NOT_APPLICABLE
    values = [0]
    acc = 0
    for x in w.letters[:-1]:
        acc += step[x]
        values.append(acc)
    unique_min = values.count(min(values)) == 1
    unique_max = values.count(max(values)) == 1
    if unique_min and unique_max:
        return BrownStatus.BOTH_DIRECTIONS
    if unique_min or unique_max:
        return BrownStatus.ONE_DIRECTION
    return BrownStatus.NEITHER


def fibered_characters(relator: Word, bound: int) -> list[Character]:
    """All primitive characters with |p|, |q| <= bound fibering both ways.

    A nonempty result certifies that the group fibers over the circle:
    a finitely generated kernel forces a fibration.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    out = []
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if math.gcd(p, q) != 1:
                continue
            if brown_status(relator, (p, q)) is BrownStatus.BOTH_DIRECTIONS:
                out.append(Character(p, q))
    return out


# Relator of the census manifold presentation exercised by the bns
# verification suite; both exponent sums vanish (abelianization Z^2).
X064_RELATOR = parse_word("a^2bab^-2a^-1b^2a^-1ba^-1b^-2")
