"""Word algebra and Brown's fibering criterion for two-generator groups.

Free words over {a, b} and their inverses, integral characters on the
abelianization, and Brown's criterion deciding which characters of a
two-generator one-relator group have finitely generated kernel, hence
define fibrations over the circle (Brown 1987, Invent. Math. 90).

The relator is cyclically reduced, and W is the set of its partial
exponent sums over one period (positions 0 .. len-1), each with its visit
count; conv(W) is the walk polygon.  A character that kills the relator
attains its minimum over the walk once iff one point of W attains it,
visited once; that point is then one vertex of conv(W).  The same holds
for the maximum.  Counting over one period rather than the
endpoint-inclusive walk makes the answer invariant under cyclic
permutation of the relator.  brown_status compares one character on W;
fibered_characters builds conv(W) once and drops the characters normal to
an edge or in the normal cone of a vertex visited more than once.
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
        ls = self.reduce().letters
        i, j = 0, len(ls) - 1
        while i < j and ls[i] == -ls[j]:
            i, j = i + 1, j - 1
        return Word(ls[i:j + 1])

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


_STEP = {1: (1, 0), -1: (-1, 0), 2: (0, 1), -2: (0, -1)}


def _walk(letters: tuple[int, ...]) -> tuple[tuple[int, int], dict[tuple[int, int], int]]:
    """Exponent sums and the visit count of each point of one walk period.

    The walk starts at the origin and visits positions 0 .. len-1 of the
    cyclically reduced relator; the position after the last letter is the
    pair of exponent sums.
    """
    if not letters:
        raise ValueError("empty relator")
    visits: dict[tuple[int, int], int] = {}
    x = y = 0
    for letter in letters:
        visits[x, y] = visits.get((x, y), 0) + 1
        dx, dy = _STEP[letter]
        x, y = x + dx, y + dy
    return (x, y), visits


def _half_hull(points) -> list[tuple[int, int]]:
    """One monotone chain: drop the last point while it is not a strict left turn."""
    chain: list[tuple[int, int]] = []
    for x, y in points:
        while len(chain) >= 2:
            (ox, oy), (ux, uy) = chain[-2], chain[-1]
            if (ux - ox) * (y - oy) > (uy - oy) * (x - ox):
                break
            chain.pop()
        chain.append((x, y))
    return chain


def _hull(points) -> list[tuple[int, int]]:
    """Strict convex hull, counterclockwise from the least point.

    Monotone chain; collinear points are not vertices, so a face attained
    by one point is a vertex.
    """
    points = sorted(points)
    if len(points) == 1:
        return points
    return _half_hull(points)[:-1] + _half_hull(reversed(points))[:-1]


def _status(sums: tuple[int, int], visits: dict[tuple[int, int], int], p: int, q: int) -> BrownStatus:
    sa, sb = sums
    if (p == 0 and q == 0) or p * sa + q * sb != 0:
        return BrownStatus.NOT_APPLICABLE
    values = [p * x + q * y for x, y in visits]
    counts = list(visits.values())

    def attained_once(extreme: int) -> bool:
        return values.count(extreme) == 1 and counts[values.index(extreme)] == 1

    unique_min = attained_once(min(values))
    unique_max = attained_once(max(values))
    if unique_min and unique_max:
        return BrownStatus.BOTH_DIRECTIONS
    if unique_min or unique_max:
        return BrownStatus.ONE_DIRECTION
    return BrownStatus.NEITHER


def brown_status(relator: Word, chi) -> BrownStatus:
    """Classify a character by the min/max-once criterion on the walk polygon.

    chi is a Character or a pair (p, q) of Python ints, not bool (TypeError).
    The relator is cyclically reduced first (ValueError if nothing is left);
    characters that are zero or do not kill the relator are not characters
    of the quotient group and report not_applicable.  Otherwise chi is
    compared on the points of one walk period: a side (min or max) is
    attained once when exactly one point attains it and the walk visits
    that point once, which makes the point a vertex of the walk polygon
    visited once.  The character (together with its negative) spans a pair
    of fibered directions iff both sides are.
    """
    p, q = _as_pair(chi)
    return _status(*_walk(relator.cyc_reduce().letters), p, q)


def fibered_characters(relator: Word, bound: int) -> list[Character]:
    """All primitive characters with |p|, |q| <= bound fibering both ways.

    Ordered by p, then q.  With nonzero exponent sums only the two
    primitive characters perpendicular to them kill the relator.  With zero
    sums the polygon has at least three vertices, and a character fibers
    unless it is normal to an edge (its min or max face is that edge) or lies
    in the normal cone of a vertex the walk visits more than once.  A
    nonempty result certifies that the group fibers over the circle: a
    finitely generated kernel forces a fibration.  A bound that is not an
    int (a float, a bool) raises ValueError.
    """
    if type(bound) is not int or bound < 1:
        raise ValueError(f"bound must be an int >= 1, got {bound!r}")
    sums, visits = _walk(relator.cyc_reduce().letters)
    sa, sb = sums
    if sa or sb:
        g = math.gcd(sa, sb)
        perpendicular = sorted([(-sb // g, sa // g), (sb // g, -sa // g)])
        return [Character(p, q) for p, q in perpendicular
                if abs(p) <= bound and abs(q) <= bound
                and _status(sums, visits, p, q) is BrownStatus.BOTH_DIRECTIONS]
    verts = _hull(visits)
    edge_normals = set()
    # chi has v as its unique min or max vertex iff chi.e1 and chi.e2 have
    # one strict sign, for the edges e1 = next - v and e2 = prev - v
    cones = []
    for i, v in enumerate(verts):
        nxt, prev = verts[(i + 1) % len(verts)], verts[i - 1]
        dx, dy = nxt[0] - v[0], nxt[1] - v[1]
        g = math.gcd(dx, dy)
        edge_normals |= {(-dy // g, dx // g), (dy // g, -dx // g)}
        if visits[v] > 1:
            cones.append((dx, dy, prev[0] - v[0], prev[1] - v[1]))
    span = range(-bound, bound + 1)
    out = []
    for p in span:
        for q in span:
            if math.gcd(p, q) != 1 or (p, q) in edge_normals:
                continue
            if cones and any((p * a + q * b) * (p * c + q * d) > 0 for a, b, c, d in cones):
                continue
            out.append(Character(p, q))
    return out


# Relator of the census manifold presentation exercised by the bns
# verification suite; both exponent sums vanish (abelianization Z^2).
X064_RELATOR = parse_word("a^2bab^-2a^-1b^2a^-1ba^-1b^-2")
