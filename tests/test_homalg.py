"""Exact integer algebra: symplectic form, transvections, Mayer-Vietoris meets."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypnorms.homalg import (
    COHOMOLOGY_ACTION,
    GROWTH_RATE,
    INVARIANT_BLOCK,
    MONODROMY,
    SYMPLECTIC_FORM,
    TWIST_CLASSES,
    TWIST_WORD,
    FbarPower,
    IntMat,
    fbar_power,
    mv_generator,
    mv_intersection,
    symplectic_check,
    transvection,
    twist_word_matrix,
)

E1 = (1, 0, 0, 0)
E3 = (0, 0, 1, 0)
E4 = (0, 0, 0, 1)


def naive_power(m: IntMat, k: int) -> IntMat:
    """Oracle: plain repeated multiplication, no exponentiation tricks."""
    out = IntMat.identity(m.n)
    for _ in range(k):
        out = out @ m
    return out


def primitive_vectors():
    return (
        st.lists(st.integers(-5, 5), min_size=4, max_size=4)
        .filter(lambda v: any(v))
        .map(lambda v: tuple(x // math.gcd(*v) for x in v))
    )


class TestIntMat:
    def test_identity_and_matmul(self):
        eye = IntMat.identity(4)
        assert eye @ MONODROMY == MONODROMY
        assert MONODROMY @ eye == MONODROMY

    def test_transpose_involution(self):
        assert COHOMOLOGY_ACTION.transpose() == MONODROMY

    def test_power_matches_naive_oracle(self):
        for k in range(12):
            assert INVARIANT_BLOCK.power(k) == naive_power(INVARIANT_BLOCK, k)
            assert MONODROMY.power(k) == naive_power(MONODROMY, k)

    def test_vec(self):
        assert COHOMOLOGY_ACTION.vec(E1) == (3, 0, 1, 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            IntMat(((1, 2),))
        with pytest.raises(ValueError):
            IntMat(())

    def test_rejects_inexact_entries(self):
        with pytest.raises(ValueError):
            IntMat(((1.0, 0), (0, 1)))
        with pytest.raises(ValueError):
            IntMat(((True, 0), (0, 1)))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            MONODROMY @ INVARIANT_BLOCK
        with pytest.raises(ValueError):
            MONODROMY.vec((1, 0))

    def test_negative_power(self):
        with pytest.raises(ValueError):
            MONODROMY.power(-1)


class TestSymplecticCheck:
    def test_monodromy_is_symplectic(self):
        assert symplectic_check(MONODROMY, SYMPLECTIC_FORM)

    def test_identity_is_symplectic(self):
        assert symplectic_check(IntMat.identity(4), SYMPLECTIC_FORM)

    def test_perturbed_monodromy_fails(self):
        rows = [list(r) for r in MONODROMY.rows]
        rows[0][0] += 1
        assert not symplectic_check(IntMat(rows), SYMPLECTIC_FORM)

    def test_perturbation_sweep(self):
        # one of the sixteen +1 perturbations happens to stay symplectic
        # (the group is large); pin the survivor so the sweep is exact.
        survivors = []
        for i in range(4):
            for j in range(4):
                rows = [list(r) for r in MONODROMY.rows]
                rows[i][j] += 1
                if symplectic_check(IntMat(rows), SYMPLECTIC_FORM):
                    survivors.append((i, j))
        assert survivors == [(3, 0)]

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            symplectic_check(INVARIANT_BLOCK, SYMPLECTIC_FORM)


class TestTransvection:
    def test_plus_minus_compose_to_identity(self):
        gamma = (1, 0, -1, 0)
        t_plus = transvection(gamma, 1)
        t_minus = transvection(gamma, -1)
        assert t_plus @ t_minus == IntMat.identity(4)

    def test_even_in_gamma(self):
        gamma = (2, 1, 0, -1)
        neg = tuple(-x for x in gamma)
        assert transvection(gamma, 1) == transvection(neg, 1)

    @given(primitive_vectors(), st.sampled_from((1, -1)))
    @settings(max_examples=150)
    def test_always_symplectic(self, gamma, sign):
        assert symplectic_check(transvection(gamma, sign), SYMPLECTIC_FORM)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            transvection((0, 0, 0, 0), 1)

    def test_rejects_imprimitive_vector(self):
        with pytest.raises(ValueError):
            transvection((2, 0, 2, 0), 1)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            transvection(E1, 2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            transvection((1, 0), 1)

    def test_word_composes_to_monodromy(self):
        assert twist_word_matrix() == MONODROMY

    def test_frozen_classes(self):
        assert set(TWIST_CLASSES) == {"a", "b", "c", "d", "e"}
        assert all(len(v) == 4 for v in TWIST_CLASSES.values())
        assert len(TWIST_WORD) == 7
        # the chain found by scripts/derive_twist_classes.py, read-only
        assert dict(TWIST_CLASSES) == {
            "a": (1, 0, 0, 0),
            "b": (0, 1, 0, 0),
            "c": (1, 0, -1, 0),
            "d": (0, 0, 0, 1),
            "e": (0, 0, 1, 0),
        }
        with pytest.raises(TypeError):
            TWIST_CLASSES["a"] = (0, 1, 0, 0)


class TestFbarPower:
    def test_zeroth_power_is_identity(self):
        assert fbar_power(0) == FbarPower(1, 0, 0, 1)

    def test_first_power(self):
        assert fbar_power(1) == FbarPower(3, -1, 1, 0)

    def test_third_power_against_naive_oracle(self):
        m = naive_power(INVARIANT_BLOCK, 3)
        assert fbar_power(3) == FbarPower(*m.rows[0], *m.rows[1])
        assert (fbar_power(3).a, fbar_power(3).c) == (21, 8)

    def test_matches_naive_oracle_along_range(self):
        for n in range(41):
            m = naive_power(INVARIANT_BLOCK, n)
            assert fbar_power(n) == FbarPower(*m.rows[0], *m.rows[1])

    def test_three_term_recurrence_to_200(self):
        seq = [fbar_power(n) for n in range(201)]
        for n in range(1, 200):
            assert seq[n + 1].a == 3 * seq[n].a - seq[n - 1].a
            assert seq[n + 1].c == 3 * seq[n].c - seq[n - 1].c

    def test_unimodular_and_coprime_to_200(self):
        for n in range(201):
            p = fbar_power(n)
            assert p.a * p.d - p.b * p.c == 1
            assert math.gcd(p.a, p.c) == 1

    def test_entries_stay_exact_at_200(self):
        assert len(str(fbar_power(200).a)) == 84

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fbar_power(-1)


def _permutation(images) -> IntMat:
    """Matrix sending e(j+1) to e(images[j]+1), 0-based images."""
    return IntMat(tuple(tuple(int(images[j] == i) for j in range(4)) for i in range(4)))


def _unit(i: int) -> tuple[int, ...]:
    return tuple(int(i == j) for j in range(4))


def _action_inverse() -> IntMat:
    """F^-1 for F = MONODROMY^T: M^T J M = J and J^2 = -1 give F^-1 = -J M J."""
    prod = (SYMPLECTIC_FORM @ MONODROMY @ SYMPLECTIC_FORM).rows
    inv = IntMat(tuple(tuple(-x for x in row) for row in prod))
    assert COHOMOLOGY_ACTION @ inv == IntMat.identity(4)
    return inv


class TestMvIntersection:
    def test_against_small_coefficient_search(self):
        # independent oracle: enumerate small integer combinations of the
        # pushforward basis and keep those landing in the invariant plane;
        # each must be an integer multiple of the computed generator, and the
        # generator must be one of them.
        for n in range(4):
            fn = COHOMOLOGY_ACTION.power(n)
            w1, w4 = fn.vec(E1), fn.vec(E4)
            (gen,) = mv_intersection(n)
            pivot = next(i for i, x in enumerate(gen) if x)
            matches = []
            for x in range(-40, 41):
                for y in range(-40, 41):
                    v = tuple(x * a + y * b for a, b in zip(w1, w4))
                    if any(v) and v[1] == 0 and v[3] == 0:
                        matches.append(v)
            assert gen in matches
            for v in matches:
                k, rest = divmod(v[pivot], gen[pivot])
                assert rest == 0 and v == tuple(k * g for g in gen)

    @pytest.mark.parametrize("images, meet", [
        ((1, 0, 2, 3), ()),  # e1 <-> e2: F<e1, e4> = <e2, e4> and M = I
        ((3, 0, 2, 1), ()),  # e1 -> e4 -> e2: the same lattice, M antidiagonal
        ((0, 1, 3, 2), (E1, E3)),  # e3 <-> e4: F<e1, e4> is the plane and M = 0
    ], ids=["rank0-identity", "rank0-antidiagonal", "rank2"])
    def test_rank_zero_and_two_are_computed(self, monkeypatch, images, meet):
        # the meet and the check must follow F, not a stored answer
        import hypnorms.verify as verify

        monkeypatch.setattr("hypnorms.homalg.COHOMOLOGY_ACTION", _permutation(images))
        assert mv_intersection(1) == meet
        assert mv_intersection(2) == (E1,)
        checks = {c.name: c for c in verify.suite_homalg()}
        assert checks["homalg-mv-generators"].value == 60.0  # every n in 1..60
        assert not checks["homalg-mv-generators"].passed

    @pytest.mark.parametrize("rows, meet", [
        # F e1 = -e1: the generator is still e1
        (((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), (E1,)),
        # F e1 = e1 + e2 and F e4 = e2 + e3 give M = [[1, 1], [0, 0]]: the meet is
        # spanned by F e1 - F e4 = e1 - e3, whose last nonzero entry is negative
        (((1, 0, 0, 0), (1, 1, 0, 1), (0, 0, 0, 1), (0, 0, 1, 0)), ((1, 0, -1, 0),)),
    ], ids=["flip-e1", "shear"])
    def test_rank_one_kernel_and_sign(self, monkeypatch, rows, meet):
        monkeypatch.setattr("hypnorms.homalg.COHOMOLOGY_ACTION", IntMat(rows))
        assert mv_intersection(1) == meet

    @pytest.mark.parametrize("images", list(itertools.permutations(range(4))),
                             ids=lambda images: "".join(map(str, images)))
    def test_every_coordinate_permutation(self, monkeypatch, images):
        # F = +-P sends <e1, e4> to the plane of the unit vectors e(images[0]+1)
        # and e(images[3]+1); its meet with <e1, e3> is spanned by the unit
        # vectors the two planes share, so all three ranks occur
        shared = {_unit(i) for i in {0, 2} & {images[0], images[3]}}
        for sign in (1, -1):
            rows = tuple(tuple(sign * x for x in row) for row in _permutation(images).rows)
            monkeypatch.setattr("hypnorms.homalg.COHOMOLOGY_ACTION", IntMat(rows))
            meet = mv_intersection(1)
            assert len(meet) == len(shared)
            if len(meet) == 1:
                assert meet == tuple(shared)  # the sign is normalized for F = -P too
            else:
                assert {tuple(map(abs, v)) for v in meet} == shared

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 30, 61, 200, 2000, 10**4])
    def test_generator_lies_in_both_lattices(self, n):
        # membership checked by pulling back with F^-n, not by the 2x2 kernel:
        # the generator is in <e1, e3>, and F^-n maps it into <e1, e4>.  Both
        # lattices are saturated (F is unimodular), so their meet is too, and a
        # primitive vector of a saturated rank-1 lattice generates it.
        (gen,) = mv_intersection(n)
        assert gen[1] == gen[3] == 0
        assert math.gcd(*gen) == 1
        assert next(filter(None, gen)) > 0
        back = _action_inverse().power(n).vec(gen)
        assert back[1] == back[2] == 0


class TestMvGenerator:
    def test_n_zero(self):
        assert mv_generator(0) == E1

    def test_n_one(self):
        assert mv_generator(1) == (3, 0, 1, 0)

    def test_n_two_from_power_oracle(self):
        m = naive_power(INVARIANT_BLOCK, 2)
        assert mv_generator(2) == (m.rows[0][0], 0, m.rows[1][0], 0)
        assert mv_generator(2) == (8, 0, 3, 0)

    def test_generates_intersection_through_60(self):
        for n in range(61):
            phi = mv_generator(n)  # read off fbar_power(n); checked against the meet here
            assert mv_intersection(n) == (phi,)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mv_generator(-1)

    def test_suite_reports_a_wrong_intersection(self, monkeypatch):
        # mv_generator reads fbar_power alone, so a faulty intersection shows
        # up as a failed homalg-mv-generators check, not as an exception
        import hypnorms.verify as verify

        def wrong(n):
            return ((0, 0, 1, 0),)

        monkeypatch.setattr(verify, "mv_intersection", wrong)
        monkeypatch.setattr("hypnorms.homalg.mv_intersection", wrong)
        checks = {c.name: c for c in verify.suite_homalg()}
        assert not checks["homalg-mv-generators"].passed
        assert checks["homalg-symplectic"].passed

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the plain n-th root converges at 1/n speed: the leading "
            "coefficient K in a_n = K*lambda^n + O(lambda^-n) is "
            "(3 - 1/lambda)/(lambda - 1/lambda) ~ 1.1708, so "
            "a_60**(1/60) = lambda * K**(1/60) sits ~6.9e-3 above lambda "
            "and no n <= 200 gets within 1e-6; the companion test pins the "
            "fast-converging consecutive ratio instead"
        ),
    )
    def test_nth_root_growth_within_1e6_at_60(self):
        a60 = fbar_power(60).a
        assert abs(math.exp(math.log(a60) / 60) - GROWTH_RATE) <= 1e-6

    def test_growth_rate_pins(self):
        a60, a61 = fbar_power(60).a, fbar_power(61).a
        assert a61 / a60 == pytest.approx(GROWTH_RATE, rel=1e-12)
        root = math.exp(math.log(a60) / 60)
        assert root == pytest.approx(2.62492431089795, rel=1e-9)
        assert abs(root - GROWTH_RATE) < 7e-3


class TestInvariantPlane:
    def test_action_preserves_plane(self):
        for v in (E1, E3):
            image = COHOMOLOGY_ACTION.vec(v)
            assert image[1] == 0 and image[3] == 0

    def test_columns_vanish_off_plane(self):
        f = COHOMOLOGY_ACTION.rows
        for col in (0, 2):
            assert f[1][col] == 0 and f[3][col] == 0

    def test_restriction_matches_invariant_block(self):
        # read the block out of the big matrix in the (e1, e3) sub-basis
        f = COHOMOLOGY_ACTION.rows
        block = IntMat(((f[0][0], f[0][2]), (f[2][0], f[2][2])))
        assert block == INVARIANT_BLOCK
