"""Word reduction, characters, and the fibering walk criterion."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def words():
    return st.lists(st.sampled_from(LETTERS), min_size=0, max_size=24).map(Word)


def characters():
    return st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
        lambda c: math.gcd(*c) == 1
    )


class TestWord:
    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            Word((3,))

    def test_reduce_cancels_adjacent_inverses(self):
        assert Word((1, -1)).reduce() == Word(())
        assert Word((1, 2, -2, -1)).reduce() == Word(())
        assert Word((1, 2, -2, 1)).reduce() == Word((1, 1))

    def test_cyc_reduce_strips_conjugation(self):
        # a b a^-1 is cyclically just b
        assert Word((1, 2, -1)).cyc_reduce() == Word((2,))

    def test_inverse(self):
        w = parse_word("abA")
        assert (w * w.inverse()).letters == ()
        assert str(w.inverse()) == "aBA"

    def test_str_round_trip(self):
        w = parse_word("aabaBB")
        assert parse_word(str(w)) == w

    @given(words(), words())
    @settings(max_examples=200)
    def test_exponent_sums_homomorphism(self, u, v):
        su, sv = exponent_sums(u), exponent_sums(v)
        sp = exponent_sums(u * v)
        assert sp == (su[0] + sv[0], su[1] + sv[1])

    @given(words())
    @settings(max_examples=200)
    def test_inverse_kills_sums(self, w):
        assert exponent_sums(w * w.inverse()) == (0, 0)

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
        assert len(w) == 14
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
    def test_primitive_normalization(self):
        assert Character(2, 4).primitive == (1, 2)
        assert Character(-2, -4).primitive == (-1, -2)
        assert Character(0, 6).primitive == (0, 1)
        assert Character(5, 0).primitive == (1, 0)

    def test_zero_character(self):
        z = Character(0, 0)
        assert z.is_zero
        assert z.primitive == (0, 0)

    def test_value_on_word(self):
        assert Character(2, -1).value(parse_word("ab")) == 1
        assert Character(1, 1).value(X064_RELATOR) == 0

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            Character(1.0, 2)
        with pytest.raises(TypeError):
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
        with pytest.raises(TypeError):
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
        assert brown_status(w, chi) is brown_status(w.inverse(), chi)


class TestFiberedCharacters:
    def test_x064_scan_nonempty(self):
        found = fibered_characters(X064_RELATOR, 10)
        assert found
        assert Character(1, 1) in found
        assert Character(-1, -1) in found

    def test_results_are_primitive_and_fibered(self):
        for chi in fibered_characters(X064_RELATOR, 6):
            assert (chi.p, chi.q) == chi.primitive
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
