"""Word reduction, characters, and Brown's criterion on the walk polygon.

The library compares a character on the visited points of one walk
period and scans characters off the hull of those points; the per-letter
walk below is the oracle both must agree with, status for status and list
for list.
"""

import math
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypnorms import fibering
from hypnorms.fibering import (
    X064_RELATOR,
    BrownStatus,
    Character,
    Word,
    brown_status,
    exponent_sums,
    fibered_characters,
    parse_word,
)

LETTERS = (1, -1, 2, -2)
STEP = {1: (1, 0), -1: (-1, 0), 2: (0, 1), -2: (0, -1)}


def words():
    return st.lists(st.sampled_from(LETTERS), min_size=0, max_size=24).map(Word)


def _cyc_reduce_oracle(w: Word) -> Word:
    """Oracle: free reduction, then strip inverse first/last pairs one at a time."""
    ls = list(w.reduce().letters)
    while len(ls) >= 2 and ls[0] == -ls[-1]:
        ls = ls[1:-1]
    return Word(ls)


def characters():
    return st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
        lambda c: math.gcd(*c) == 1
    )


@st.composite
def relators(draw):
    """Nonempty cyclically reduced relators, half of them with zero exponent sums."""
    head = draw(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=12))
    if draw(st.booleans()):
        tail = draw(st.permutations([-x for x in head]))
    else:
        tail = draw(st.lists(st.sampled_from(LETTERS), max_size=12))
    w = Word(head + list(tail)).cyc_reduce()
    assume(w.letters)
    return w


def _walk_status(relator: Word, chi) -> BrownStatus:
    """Oracle: Brown's criterion by walking one period of the relator letter by letter."""
    p, q = chi
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


def _walk_scan(relator: Word, bound: int) -> list[tuple[int, int]]:
    """Oracle: every primitive (p, q) in the box, by p then q, walked one by one."""
    return [
        (p, q)
        for p in range(-bound, bound + 1)
        for q in range(-bound, bound + 1)
        if math.gcd(p, q) == 1 and _walk_status(relator, (p, q)) is BrownStatus.BOTH_DIRECTIONS
    ]


def _pairs(found: list[Character]) -> list[tuple[int, int]]:
    return [(c.p, c.q) for c in found]


def _polygon(w: Word):
    """(exponent sums, hull vertices, visit count of each vertex) of a reduced relator."""
    sums, visits = fibering._walk(w.letters)
    hull = tuple(fibering._hull(visits))
    return sums, hull, tuple(visits[v] for v in hull)


class TestWord:
    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            Word((3,))

    @pytest.mark.parametrize("letters", [(True, 2, 1.0), (1, True), (2.0,), (-1, -2.0)])
    def test_rejects_bools_and_floats(self, letters):
        # True and 1.0 hash equal to 1, so a lookup in the letter table alone lets them in
        with pytest.raises(ValueError):
            Word(letters)

    def test_reduce_cancels_adjacent_inverses(self):
        assert Word((1, -1)).reduce() == Word(())
        assert Word((1, 2, -2, -1)).reduce() == Word(())
        assert Word((1, 2, -2, 1)).reduce() == Word((1, 1))

    def test_cyc_reduce_strips_conjugation(self):
        # a b a^-1 is cyclically just b
        assert Word((1, 2, -1)).cyc_reduce() == Word((2,))

    def test_cyc_reduce_long_conjugate_promptly(self):
        # a^n b a^-n: stripping one pair at a time by list slicing is quadratic
        n = 10**5
        start = time.perf_counter()
        assert Word((1,) * n + (2,) + (-1,) * n).cyc_reduce() == Word((2,))
        assert time.perf_counter() - start < 1.0

    @given(words())
    @settings(max_examples=300)
    def test_cyc_reduce_matches_pair_at_a_time(self, w):
        assert w.cyc_reduce() == _cyc_reduce_oracle(w)

    @given(words(), words())
    @settings(max_examples=200)
    def test_exponent_sums_homomorphism(self, u, v):
        su, sv = exponent_sums(u), exponent_sums(v)
        sp = exponent_sums(Word(u.letters + v.letters).reduce())
        assert sp == (su[0] + sv[0], su[1] + sv[1])

    @given(words())
    @settings(max_examples=200)
    def test_inverse_kills_sums(self, w):
        inverse = tuple(-x for x in reversed(w.letters))
        assert exponent_sums(Word(w.letters + inverse).reduce()) == (0, 0)

    @given(words())
    @settings(max_examples=200)
    def test_reduction_is_idempotent(self, w):
        r = w.reduce()
        assert r.reduce() == r
        c = w.cyc_reduce()
        assert c.cyc_reduce() == c


class TestParseWord:
    def test_empty(self):
        assert parse_word("") == Word(())

    def test_free_cancellation(self):
        assert parse_word("aA") == Word(())

    def test_caret_exponents(self):
        assert parse_word("a^3") == Word((1, 1, 1))
        assert parse_word("b^-2") == Word((-2, -2))
        assert parse_word("a^0") == Word(())

    def test_relator_expansion(self):
        w = parse_word("a^2bab^-2a^-1b^2a^-1ba^-1b^-2")
        assert len(w.letters) == 14
        assert w.letters == (1, 1, 2, 1, -2, -2, -1, 2, 2, -1, 2, -1, -2, -2)
        assert w == parse_word("aabaBBAbbAbABB")  # hand expansion
        assert w.cyc_reduce() == w

    def test_illegal_character(self):
        with pytest.raises(ValueError):
            parse_word("axb")

    def test_malformed_exponent(self):
        with pytest.raises(ValueError):
            parse_word("a^")
        with pytest.raises(ValueError):
            parse_word("a^-")


class TestCharacter:
    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            Character(1.0, 2)
        with pytest.raises(ValueError):
            Character(True, 0)


class TestBrownStatus:
    def test_x064_sums_vanish(self):
        assert exponent_sums(X064_RELATOR) == (0, 0)

    def test_x064_diagonal_character_fibers(self):
        assert brown_status(X064_RELATOR, (1, 1)) is BrownStatus.BOTH_DIRECTIONS

    def test_commutator_square_walk(self):
        # walk of (1,0) along abAB is 0,1,1,0 over one period: min and max
        # both attained twice
        assert brown_status(parse_word("abAB"), (1, 0)) is BrownStatus.NEITHER

    def test_one_direction_instance(self):
        # walk of (1,-1) along aababb is 0,1,2,1,2,1: min once, max twice
        assert brown_status(parse_word("aababb"), (1, -1)) is BrownStatus.ONE_DIRECTION

    def test_zero_character_not_applicable(self):
        assert brown_status(X064_RELATOR, (0, 0)) is BrownStatus.NOT_APPLICABLE
        assert brown_status(X064_RELATOR, Character(0, 0)) is BrownStatus.NOT_APPLICABLE

    def test_nonvanishing_character_not_applicable(self):
        # chi must kill the relator to descend to the quotient
        assert brown_status(parse_word("ab"), (1, 0)) is BrownStatus.NOT_APPLICABLE

    def test_torsion_like_relator(self):
        # <a, b | a^2>: any character killing a has a constant walk
        assert brown_status(parse_word("a^2"), (0, 1)) is BrownStatus.NEITHER

    def test_single_letter_relator(self):
        # <a, b | a> is infinite cyclic; the applicable characters fiber
        assert brown_status(parse_word("a"), (0, 1)) is BrownStatus.BOTH_DIRECTIONS
        assert brown_status(parse_word("a"), (1, 0)) is BrownStatus.NOT_APPLICABLE

    def test_empty_relator_rejected(self):
        with pytest.raises(ValueError):
            brown_status(parse_word(""), (1, 0))
        with pytest.raises(ValueError):
            brown_status(parse_word("aA"), (1, 0))

    def test_accepts_character_objects(self):
        assert brown_status(X064_RELATOR, Character(1, 1)) is BrownStatus.BOTH_DIRECTIONS

    @pytest.mark.parametrize("chi", [(1.5, 1.9), (1.0, 1.0), ("1", "1"), (True, True), (1, False)])
    def test_tuple_character_must_be_ints(self, chi):
        # the same rule as Character: Python ints, not bool
        with pytest.raises(ValueError):
            brown_status(X064_RELATOR, chi)

    @given(words(), characters())
    @settings(max_examples=300)
    def test_negation_symmetry(self, w, chi):
        w = w.cyc_reduce()
        if not w.letters:
            return
        neg = (-chi[0], -chi[1])
        assert brown_status(w, chi) is brown_status(w, neg)

    @given(words(), characters(), st.integers(0, 23))
    @settings(max_examples=300)
    def test_cyclic_invariance(self, w, chi, k):
        w = w.cyc_reduce()
        if not w.letters:
            return
        k %= len(w.letters)
        rotated = Word(w.letters[k:] + w.letters[:k])
        assert brown_status(w, chi) is brown_status(rotated, chi)

    @given(words(), characters())
    @settings(max_examples=300)
    def test_relator_inversion_invariance(self, w, chi):
        # r and r^-1 present the same group; the inverse walk is the
        # reversed, negated one, with the same count of minima and maxima
        w = w.cyc_reduce()
        if not w.letters:
            return
        inverse = Word(tuple(-x for x in reversed(w.letters)))
        assert brown_status(w, chi) is brown_status(inverse, chi)


class TestFiberedCharacters:
    def test_x064_scan_nonempty(self):
        found = fibered_characters(X064_RELATOR, 10)
        assert found
        assert Character(1, 1) in found
        assert Character(-1, -1) in found

    def test_results_are_primitive_and_fibered(self):
        for chi in fibered_characters(X064_RELATOR, 6):
            assert math.gcd(chi.p, chi.q) == 1
            assert brown_status(X064_RELATOR, chi) is BrownStatus.BOTH_DIRECTIONS

    def test_negation_closed(self):
        found = set((c.p, c.q) for c in fibered_characters(X064_RELATOR, 5))
        assert found == set((-p, -q) for p, q in found)

    def test_single_letter_relator_filter(self):
        found = fibered_characters(parse_word("a"), 1)
        assert set((c.p, c.q) for c in found) == {(0, 1), (0, -1)}

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            fibered_characters(X064_RELATOR, 0)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "3"])
    def test_bound_must_be_an_int(self, bad):
        # 2.5 once failed in range() with a TypeError, True scanned bound 1
        with pytest.raises(ValueError, match="must be an int"):
            fibered_characters(X064_RELATOR, bad)


class TestWalkOracle:
    """The polygon route against the per-letter walk."""

    @given(relators(), st.data())
    @settings(max_examples=400)
    def test_status_matches_walk(self, w, data):
        sa, sb = exponent_sums(w)
        if (sa or sb) and data.draw(st.booleans()):
            k = data.draw(st.integers(-3, 3))
            chi = (-sb * k, sa * k)  # kills the relator; k = 0 is the zero character
        else:
            chi = data.draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
        assert brown_status(w, chi) is _walk_status(w, chi)

    def test_seeded_sweep_matches_walk_in_every_status(self):
        rng = random.Random(0)
        seen = set()
        for _ in range(1500):
            head = [rng.choice(LETTERS) for _ in range(rng.randint(1, 10))]
            tail = [-x for x in head]
            rng.shuffle(tail)
            w = Word(head + (tail if rng.random() < 0.7 else [])).cyc_reduce()
            if not w.letters:
                continue
            chi = (rng.randint(-4, 4), rng.randint(-4, 4))
            status = brown_status(w, chi)
            assert status is _walk_status(w, chi), (w.letters, chi)
            seen.add(status)
        assert seen == set(BrownStatus)

    @given(relators(), st.integers(1, 8))
    @settings(max_examples=200)
    def test_scan_matches_walk(self, w, bound):
        assert _pairs(fibered_characters(w, bound)) == _walk_scan(w, bound)

    @pytest.mark.parametrize("bound", [1, 2, 5, 12])
    def test_x064_scan_matches_walk(self, bound):
        assert _pairs(fibered_characters(X064_RELATOR, bound)) == _walk_scan(X064_RELATOR, bound)


class TestWalkPolygon:
    """One named case for each branch of the polygon route."""

    def test_x064_hull(self):
        sums, hull, visits = _polygon(X064_RELATOR)
        assert sums == (0, 0)
        assert hull == ((0, 0), (2, -1), (3, -1), (3, 1), (1, 2), (0, 2))
        assert visits == (1,) * 6

    def test_character_normal_to_a_hull_edge(self):
        # (1, 2) is perpendicular to the X064 edge (2, -1): its min face is the
        # edge from (0, 0) to (2, -1), its max face the edge from (3, 1) to (1, 2)
        assert brown_status(X064_RELATOR, (1, 2)) is BrownStatus.NEITHER
        assert _walk_status(X064_RELATOR, (1, 2)) is BrownStatus.NEITHER
        # X064's hull is a hexagon with edge directions (2, -1), (1, 0) and
        # (0, 1); every other primitive character fibers
        found = _pairs(fibered_characters(X064_RELATOR, 3))
        edge_normals = {(1, 2), (-1, -2), (0, 1), (0, -1), (1, 0), (-1, 0)}
        primitive = [(p, q) for p in range(-3, 4) for q in range(-3, 4) if math.gcd(p, q) == 1]
        assert found == [pq for pq in primitive if pq not in edge_normals]

    def test_hull_vertex_visited_twice(self):
        # the walk passes the vertex (-2, 1) at positions 3 and 9
        w = parse_word("AAbaBBAbbaaB")
        sums, hull, visits = _polygon(w)
        assert sums == (0, 0)
        assert dict(zip(hull, visits))[(-2, 1)] == 2
        # (1, -2) has its min at that vertex alone: one side only
        assert brown_status(w, (1, -2)) is BrownStatus.ONE_DIRECTION
        assert _walk_status(w, (1, -2)) is BrownStatus.ONE_DIRECTION
        # (1, 2) has its extremes at vertices visited once
        assert brown_status(w, (1, 2)) is BrownStatus.BOTH_DIRECTIONS
        found = _pairs(fibered_characters(w, 2))
        assert (1, -2) not in found and (1, 2) in found
        assert found == _walk_scan(w, 2)

    def test_segment_hull(self):
        # aab walks (0,0), (1,0), (2,0): the hull is a segment
        w = parse_word("aab")
        assert _polygon(w) == ((2, 1), ((0, 0), (2, 0)), (1, 1))
        assert brown_status(w, (1, -2)) is BrownStatus.BOTH_DIRECTIONS
        assert _pairs(fibered_characters(w, 2)) == [(-1, 2), (1, -2)] == _walk_scan(w, 2)
        # on a^3 the only killing characters are constant along the segment
        assert brown_status(parse_word("a^3"), (0, 1)) is BrownStatus.NEITHER
        assert fibered_characters(parse_word("a^3"), 4) == []

    def test_one_point_hull(self):
        assert _polygon(parse_word("a")) == ((1, 0), ((0, 0),), (1,))
        assert _pairs(fibered_characters(parse_word("a"), 3)) == [(0, -1), (0, 1)]

    def test_nonzero_sum_relator(self):
        # sums (2, 1): only the characters +-(1, -2) kill the relator
        w = parse_word("abbaB")
        assert exponent_sums(w) == (2, 1)
        assert len(_polygon(w)[1]) > 2
        assert brown_status(w, (1, -2)) is BrownStatus.BOTH_DIRECTIONS
        assert brown_status(w, (1, 1)) is BrownStatus.NOT_APPLICABLE
        assert fibered_characters(w, 1) == []
        assert _pairs(fibered_characters(w, 2)) == [(-1, 2), (1, -2)] == _walk_scan(w, 2)

    # each relator has hull vertices the walk visits twice.  On the first, a
    # cone test of > 1 in place of > 0 lets (3, -1) and (-3, 1) through, and a
    # cone built on verts[i - 2] in place of verts[i - 1] drops (+-4, -+3) and
    # (+-3, -+2)
    @pytest.mark.parametrize("relator, expected", [
        ("aBBBAAbaBAbabb", [(-4, 3), (-3, 2), (-3, 4), (-2, 3), (-1, 1), (-1, 2), (-1, 3),
                            (-1, 4), (1, -4), (1, -3), (1, -2), (1, -1), (2, -3), (3, -4),
                            (3, -2), (4, -3)]),
        ("AbaBAbaaBBAb", [(-3, -4), (-2, -3), (-1, -4), (-1, -3), (-1, -2), (1, 2), (1, 3),
                          (1, 4), (2, 3), (3, 4)]),
        ("AABBabABabbbbaBB", [(-4, 1), (-3, 1), (3, -1), (4, -1)]),
    ])
    def test_vertex_cones_off_the_axes(self, relator, expected):
        # characters in the normal cone of a vertex visited twice are dropped;
        # axis characters are left out (their status rule is under review)
        w = parse_word(relator)
        assert exponent_sums(w) == (0, 0)
        found = [pq for pq in _pairs(fibered_characters(w, 4)) if pq[0] and pq[1]]
        both = [(p, q) for p in range(-4, 5) for q in range(-4, 5)
                if p and q and math.gcd(p, q) == 1
                and brown_status(w, (p, q)) is BrownStatus.BOTH_DIRECTIONS]
        assert found == both == expected


def _fox_alexander(letters) -> dict[tuple[int, int], int]:
    """Delta = (dr/da)^ab / (t_b - 1) by Fox calculus, for exponent sums (0, 0).

    A letter a at a position whose prefix abelianizes to P contributes
    +t^P to dr/da, and a letter a^-1 contributes -t^(P - e_a).
    """
    fox: dict[tuple[int, int], int] = {}
    x = y = 0
    for letter in letters:
        if letter == 1:
            fox[x, y] = fox.get((x, y), 0) + 1
        x, y = x + STEP[letter][0], y + STEP[letter][1]
        if letter == -1:
            fox[x, y] = fox.get((x, y), 0) - 1
    delta = {}
    for i in {i for i, _ in fox}:
        column = {j: c for (k, j), c in fox.items() if k == i}
        lo, hi = min(column), max(column)
        quotient = 0  # synthetic division by t_b - 1, from the top degree down
        for j in range(hi, lo, -1):
            quotient += column.get(j, 0)
            if quotient:
                delta[i, j - 1] = quotient
        assert quotient + column[lo] == 0  # t_b - 1 divides the column
    return delta


def _extreme_points(points) -> set[tuple[int, int]]:
    """Points that alone maximize some small integer direction (enough for small polygons)."""
    out = set()
    for u in range(-12, 13):
        for v in range(-12, 13):
            values = {pt: u * pt[0] + v * pt[1] for pt in points}
            top = max(values.values())
            winners = [pt for pt, val in values.items() if val == top]
            if len(winners) == 1:
                out.add(winners[0])
    return out


class TestFoxCalculusOracle:
    def test_x064_alexander_polynomial(self):
        # Delta = t_a^2 + t_a^2 t_b^-1 - t_a - t_b - 1
        expected = {(2, 0): 1, (2, -1): 1, (1, 0): -1, (0, 1): -1, (0, 0): -1}
        assert _fox_alexander(X064_RELATOR.letters) == expected

    def test_x064_hull_is_newton_polygon_plus_unit_square(self):
        # conv(W) = Newton(Delta) + [0,1]^2 up to translation (Friedl-Tillmann)
        newton = _fox_alexander(X064_RELATOR.letters)
        minkowski = {(x + i, y + j) for x, y in newton for i in (0, 1) for j in (0, 1)}
        hull = _polygon(X064_RELATOR)[1]
        ox, oy = min(minkowski)
        hx, hy = min(hull)
        shifted = {(x - ox + hx, y - oy + hy) for x, y in _extreme_points(minkowski)}
        assert shifted == set(hull)
        assert set(hull) == {(0, 0), (2, -1), (3, -1), (3, 1), (1, 2), (0, 2)}
