"""Radial profile functions: route agreement, oracles, and pinned constants.

Expected values here were frozen from independent derivations (symbolic Taylor
expansion, finite differences, termwise-integrated series) before the module
under test existed; they are not regression snapshots.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypnorms import radial
from hypnorms.cli import main as cli_main
from hypnorms.radial import (
    MAX_ELL,
    dpsi,
    mode_norm,
    nu,
    nu_closed,
    profile,
    profiles,
    psi,
)
from quad_oracles import (
    int_counter_backward,
    mode_norm_quad,
    nu_integrand,
    nu_quad,
    q_ladder_profile,
    series_profile,
)

SIX_PI = 6.0 * math.pi


def rel_err(a, b):
    return abs(a - b) / abs(b)


def mp_profile(ell, r):
    """psi_ell, psi_ell' and N_ell at r from mpmath's 2F1, at 30 digits.

    psi_ell = pref t^ell F(t^2) with t = tanh(r/2) and F = 2F1(-1/2, ell;
    ell + 3/2; .); dt/dr = (1 - t^2)/2 and F' = (a b / c) 2F1(a+1, b+1; c+1; .).
    """
    with mp.workdps(30):
        r = mp.mpf(r)
        t = mp.tanh(r / 2)
        z = t * t
        a, b, c = mp.mpf(-1) / 2, mp.mpf(ell), ell + mp.mpf(3) / 2
        pref = mp.gamma(mp.mpf(3) / 2) * mp.gamma(ell + 2) / mp.gamma(c)
        f = mp.hyp2f1(a, b, c, z)
        df = a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, z)
        p = pref * t**ell * f
        d = pref * (1 - z) / 2 * (ell * t ** (ell - 1) * f + 2 * t ** (ell + 1) * df)
        return float(p), float(d), float(p * d * mp.sinh(r) ** 2)


# The ladder runs backward below this radius and forward from it.
SWITCH = 3.5


def old_seam(ell):
    # where an earlier series/Legendre pair of routes switched (ell >= 2)
    return 2.0 + max(0, ell - 10) / 15.0


def _at_adjacent_floats_of_seams(test):
    # the float just below each switch and the switch itself, where two
    # routes met: there the earlier routes broke monotonicity by up to
    # 2e-13 relative, the ladder by up to 3.4e-15
    for ell in range(1, 41):
        for s in {old_seam(ell), SWITCH}:
            test = example(ell=ell, r1=math.nextafter(s, 0.0), r2=s)(test)
    return test


class TestPsi:
    def test_degree_zero_is_constant_one(self):
        for r in (0.0, 0.3, 2.7, 11.0):
            assert psi(0, r) == 1.0
            assert dpsi(0, r) == 0.0

    def test_elementary_degree_one(self):
        # coth r - r csch^2 r, independent of the dispatch internals
        for r in (0.2, 1.0, 1.7, 4.2):
            expect = 1.0 / math.tanh(r) - r / math.sinh(r) ** 2
            assert rel_err(psi(1, r), expect) < 1e-13

    def test_vanishing_at_origin(self):
        for ell in (1, 2, 3, 6):
            assert psi(ell, 0.0) == 0.0
        assert dpsi(1, 0.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
        for ell in (2, 3, 6):
            assert dpsi(ell, 0.0) == 0.0

    def test_small_r_leading_order(self):
        # psi_1 = (2/3) r + O(r^3)
        assert rel_err(psi(1, 1e-4), (2.0 / 3.0) * 1e-4) < 1e-6

    def test_saturates_to_one(self):
        for ell in (1, 2, 4):
            assert abs(psi(ell, 40.0) - 1.0) < 1e-12

    def test_series_agrees_with_elementary_form(self):
        # same function, two routes; the explicit cap pushes the series far
        # past its default so it converges on the whole window
        for r in np.geomspace(1e-3, 10.0, 25):
            p, d, _ = series_profile(1, r, max_terms=200_000)
            assert rel_err(p, psi(1, r)) < 1e-10
            assert rel_err(d, dpsi(1, r)) < 1e-10

    def test_series_agrees_with_large_r_route(self):
        for ell in (2, 3, 5):
            for r in (2.01, 2.5, 4.0, 7.0):
                p, d, _ = series_profile(ell, r, max_terms=200_000)
                assert rel_err(p, psi(ell, r)) < 1e-10
                assert rel_err(d, dpsi(ell, r)) < 1e-10

    def test_routes_agree_at_switch_points(self):
        # both sides of the backward/forward switch, pinned by the series;
        # 2.0 and 0.15 were switch points of earlier routes
        for ell in (1, 2, 3, 5, 20, 40):
            for r in (0.1499999, 0.15, 1.9999999, 2.0, math.nextafter(SWITCH, 0.0), SWITCH):
                p, d, _ = series_profile(ell, r, max_terms=200_000)
                assert rel_err(p, psi(ell, r)) < 1e-12
                assert rel_err(d, dpsi(ell, r)) < 1e-12

    def test_derivative_matches_finite_differences(self):
        h = 1e-5
        for ell in (1, 2, 3, 5):
            for r in (0.05, 0.5, 1.5, 2.5, 8.0):
                fd = (psi(ell, r + h) - psi(ell, r - h)) / (2 * h)
                assert rel_err(dpsi(ell, r), fd) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            psi(-1, 1.0)
        with pytest.raises(ValueError):
            psi(2, -0.5)
        with pytest.raises(ValueError):
            dpsi(-3, 1.0)
        with pytest.raises(ValueError):
            dpsi(1, -1e-9)

    @given(
        ell=st.integers(min_value=1, max_value=40),
        r=st.floats(min_value=1e-6, max_value=700.0),
    )
    def test_range_property(self, ell, r):
        val = psi(ell, r)
        assert 0.0 < val <= 1.0
        assert dpsi(ell, r) >= 0.0

    @_at_adjacent_floats_of_seams
    @given(
        ell=st.integers(min_value=1, max_value=40),
        r1=st.floats(min_value=1e-4, max_value=700.0),
        r2=st.floats(min_value=1e-4, max_value=700.0),
    )
    def test_monotone_property(self, ell, r1, r2):
        # psi is strictly increasing, but a float route holds it only to its
        # accuracy: across a switch two adjacent floats can swap order
        lo, hi = sorted((r1, r2))
        assert psi(ell, lo) <= psi(ell, hi) * (1.0 + 1e-13)

    @pytest.mark.parametrize("ell", range(1, 41))
    def test_strictly_increasing_on_grid(self, ell):
        vals = [psi(ell, r) for r in np.geomspace(1e-3, 15.0, 120)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestSeam:
    """The backward/forward switch, checked against mpmath up to ell = 40."""

    @pytest.mark.parametrize("ell", [1, 2, 20, 30, 40])
    def test_both_sides_match_mpmath(self, ell):
        # 2.0, old_seam(ell) and their neighbours were switch points of the
        # series/Legendre routes this ladder replaced
        s = old_seam(ell)
        radii = (2.0, s - 0.25, math.nextafter(s, 0.0), s, s + 0.25, s + 2.0,
                 SWITCH - 0.25, math.nextafter(SWITCH, 0.0), SWITCH,
                 math.nextafter(SWITCH, math.inf), SWITCH + 0.25, SWITCH + 2.0)
        for r in radii:
            p, d, n = mp_profile(ell, r)
            assert rel_err(psi(ell, r), p) < 1e-12
            assert rel_err(dpsi(ell, r), d) < 1e-12
            assert rel_err(mode_norm(ell, r), n) < 1e-12

    @pytest.mark.parametrize("fn", [psi, dpsi, mode_norm, profile])
    def test_degree_past_validated_range_raises(self, fn):
        with pytest.raises(ValueError, match="40"):
            fn(41, 3.0)


class TestProfile:
    @pytest.mark.parametrize("ell", [0, 1, 2, 5, 12, 40])
    def test_one_pass_matches_the_readers(self, ell):
        for r in (0.0, 0.1, 0.15, 1.0, 2.0, 3.5, 4.0, 30.0, 400.0):
            p, d, flux = profile(ell, r)
            assert (p, d) == (psi(ell, r), dpsi(ell, r))
            if ell >= 1 and r > 0:
                assert p * flux == mode_norm(ell, r)
            if r < 4.0:
                assert flux == pytest.approx(d * math.sinh(r) ** 2, rel=1e-14, abs=0.0)


ORACLE_RADII = [*np.geomspace(1e-3, 700.0, 40), math.nextafter(SWITCH, 0.0), SWITCH]


class TestRecurrence:
    """profiles() against the same Q ladder run in mpmath."""

    @pytest.mark.parametrize("ell", [1, 2, 5, 20, 40])
    def test_oracle_matches_hypergeometric_form(self, ell):
        for r in (1e-3, 0.1, 1.0, 3.0, SWITCH, 6.0, 10.0):
            for got, want in zip(q_ladder_profile(ell, r), mp_profile(ell, r)):
                assert rel_err(got, want) < 1e-15

    @pytest.mark.parametrize("ell", [1, 2, 5, 10, 20, 30, 40])
    def test_matches_oracle(self, ell):
        for r in ORACLE_RADII:
            p, d, n = q_ladder_profile(ell, r)
            assert rel_err(psi(ell, r), p) < 1e-13
            if d > 1e-290:  # below, csch^2 r is subnormal
                assert rel_err(dpsi(ell, r), d) < 1e-13
            assert rel_err(mode_norm(ell, r), n) < 1e-13

    @pytest.mark.parametrize("r", [0.0, 1e-300, 0.4, 2.0, math.nextafter(SWITCH, 0.0),
                                   SWITCH, 9.0, 700.0])
    def test_prefix_identity(self, r):
        # a degree's values do not depend on how many degrees are asked for
        for ell in (0, 1, 2, 7, 39, 40):
            for lmax in {ell, min(ell + 1, 40), 40}:
                p, d, f = profiles(lmax, r)
                assert profile(ell, r) == (p[ell], d[ell], f[ell])

    @pytest.mark.parametrize("lmax", [-1, 41])
    def test_degree_range(self, lmax):
        with pytest.raises(ValueError, match="40"):
            profiles(lmax, 1.0)

    @pytest.mark.parametrize("fn", [profiles, profile, psi, dpsi, mode_norm])
    @pytest.mark.parametrize("ell", [True, 1.5, 2.0], ids=["bool", "float", "whole-float"])
    def test_degree_is_an_integer(self, fn, ell):
        # psi(True, r) was psi(1, r); psi(1.5, r) failed inside the ladder with TypeError.
        # The ladder cache first holds the int key that ell equals or truncates
        # to (True == 1 and 2.0 == 2 hash alike), so validation must precede it.
        fn(int(ell), 1.0)
        with pytest.raises(ValueError, match="integer"):
            fn(ell, 1.0)


def _signs(ladder):
    # every entry's sign bit, which == cannot see on zeros
    return [[math.copysign(1.0, v) for v in values] for values in ladder]


class TestLadderCache:
    """profiles keeps the last ladders by (lmax, r); keys that compare and
    hash equal must not return another argument's values."""

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero(self, first, second):
        # 0.0 == -0.0 hash alike, but the entries carry the sign of r
        radial._cached_ladder.cache_clear()
        fresh = profiles(2, second)
        radial._cached_ladder.cache_clear()
        profiles(2, first)
        got = profiles(2, second)
        assert got == fresh
        assert _signs(got) == _signs(fresh)
        assert _signs(profiles(2, first)) != _signs(got)

    def test_bools_raise_after_the_equal_key_is_cached(self):
        # True == 1 == 1.0 share a hash with the cached (1, 1.0)
        profiles(1, 1.0)
        for args in [(True, 1.0), (1, True)]:
            with pytest.raises(ValueError, match="lmax|r must"):
                profiles(*args)

    @pytest.mark.parametrize("lmax", [0, 1, 40])
    @pytest.mark.parametrize("r", [0.0, 1.0, math.nextafter(SWITCH, 0.0), SWITCH, 9.0, 700.0])
    def test_lengths(self, lmax, r):
        # each sequence has lmax + 1 entries, on a miss and on a hit
        radial._cached_ladder.cache_clear()
        for _ in range(2):
            assert [len(values) for values in profiles(lmax, r)] == [lmax + 1] * 3

    def test_entries_are_read_only(self):
        p, _, _ = profiles(3, 1.0)
        with pytest.raises(TypeError):
            p[1] = 0.0

    @pytest.mark.parametrize("lmax", range(MAX_ELL + 1))
    def test_backward_matches_the_int_counter_loop(self, lmax):
        rng = np.random.default_rng(31 + lmax)
        radii = [0.0, 1e-300, math.nextafter(SWITCH, 0.0), *rng.uniform(0.0, SWITCH, 24)]
        for r in map(float, radii):
            want = tuple(map(tuple, int_counter_backward(lmax, r)))
            radial._cached_ladder.cache_clear()
            assert profiles(lmax, r) == want  # a miss
            assert profiles(lmax, r) == want  # a hit
            assert _signs(profiles(lmax, r)) == _signs(want)

    def test_coefficients_reach_the_deepest_start(self):
        # the start deepens with r up to the seam; a table too short would be
        # sliced silently and start the ladder shallower
        below = math.nextafter(SWITCH, 0.0)
        deepest = MAX_ELL + 10 + int(20.0 / math.log1p(2.0 / math.expm1(below)))
        assert deepest == 381
        assert radial._miller_start(below) == deepest
        assert max(map(radial._miller_start, np.linspace(0.0, below, 1001))) == deepest
        assert len(radial._MILLER) == deepest + 1
        assert radial._MILLER == tuple((n, 2 * n + 1, n + 1) for n in range(deepest + 1))


class TestPastFloatRange:
    """The flux ~ ell(ell+1) r leaves the float range near r = 1e305; nu and
    the mode norms underflow at tiny radii."""

    @pytest.mark.parametrize("ell, r", [(1, 1.7e308), (2, 1.7e308), (40, 1e306)])
    @pytest.mark.parametrize("fn", [psi, dpsi, profile, mode_norm, profiles])
    def test_raises(self, fn, ell, r):
        with pytest.raises(ValueError, match="float range"):
            fn(ell, r)

    @pytest.mark.parametrize("ell, r", [(40, 1e305), (1, 8e307)])
    def test_finite_below_the_edge(self, ell, r):
        # N_ell(r) = ell(ell+1) r + O(1) here
        assert rel_err(mode_norm(ell, r), ell * (ell + 1) * r) < 1e-15

    @pytest.mark.parametrize("call", [lambda: nu(1e-109), lambda: nu(5e-324),
                                      lambda: mode_norm(3, 1e-100), lambda: mode_norm(40, 1e-5),
                                      lambda: psi(3, 1e-200), lambda: dpsi(3, 1e-200)])
    def test_underflow_raises(self, call):
        # each returned 0.0 for a positive radius
        with pytest.raises(ValueError, match="underflows to 0.0"):
            call()

    def test_subnormal_value_stays(self):
        # only 0.0 raises; nu(1e-108) rounds to the smallest subnormal
        assert nu(1e-108) > 0.0
        assert 0.0 < psi(3, 1e-103) < 2.2250738585072014e-308
        assert 0.0 < dpsi(3, 1e-155) < 2.2250738585072014e-308

    def test_each_value_is_checked_on_its_own(self):
        # at r = 1e-90 the degree-3 flux underflows, but psi_3 ~ 8 r^3 / 35 is right
        p, d, flux = profile(3, 1e-90)
        assert flux == 0.0
        assert psi(3, 1e-90) == p == pytest.approx(8 / 35 * 1e-270, rel=1e-12)
        assert dpsi(3, 1e-90) == d > 0.0

    def test_ladder_keeps_underflowed_entries(self):
        # profiles and profile return the whole ladder; a high degree may read 0.0
        psi_, dpsi_, _ = profiles(40, 1e-10)
        assert psi_[40] == dpsi_[40] == 0.0 and psi_[1] > 0.0
        assert profile(3, 1e-200) == (0.0, 0.0, 0.0)

    def test_degree_zero_and_the_center_stay(self):
        for r in (0.0, 1e-200):
            assert (psi(0, r), dpsi(0, r)) == (1.0, 0.0)
        assert (psi(3, 0.0), dpsi(3, 0.0)) == (0.0, 0.0)


class TestModeNorm:
    def test_quadrature_equals_flux_identity(self):
        # Green's identity: the interior integral collapses to boundary flux
        for ell in (1, 2, 3, 5):
            for r in (0.05, 0.5, 1.0, 1.7, 3.0, 6.0):
                assert rel_err(mode_norm(ell, r), mode_norm_quad(ell, r)) < 1e-10

    def test_degree_one_carries_nu(self):
        for r in (0.5, 1.0, 2.0, 5.0):
            assert rel_err(3.0 * math.pi * mode_norm(1, r), nu(r)) < 1e-15
            assert rel_err(3.0 * math.pi * mode_norm_quad(1, r), nu(r)) < 1e-10

    def test_small_ball_vanishing_order(self):
        # N_ell ~ c r^(2 ell + 1); doubling the radius scales by 2^(2 ell + 1)
        for ell in (1, 2, 3):
            ratio = mode_norm(ell, 0.2) / mode_norm(ell, 0.1)
            assert abs(ratio / 2 ** (2 * ell + 1) - 1.0) < 0.05

    def test_large_ball_linear_growth(self):
        # N_1(r)/(2r) -> 1; at r = 20 the -1 offset leaves exactly 5% deficit
        assert abs(mode_norm(1, 20.0) / 40.0 - 1.0) <= 0.05 + 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mode_norm(0, 1.0)
        with pytest.raises(ValueError):
            mode_norm(1, 0.0)
        with pytest.raises(ValueError):
            mode_norm(0, 1.0)
        with pytest.raises(ValueError):
            mode_norm(1, -2.0)

    @given(
        ell=st.integers(min_value=1, max_value=6),
        r1=st.floats(min_value=0.05, max_value=10.0),
        r2=st.floats(min_value=0.05, max_value=10.0),
    )
    @settings(deadline=None, max_examples=40)
    def test_positive_and_increasing(self, ell, r1, r2):
        lo, hi = sorted((r1, r2))
        a = mode_norm(ell, lo)
        assert a > 0.0
        if hi > lo:
            assert mode_norm(ell, hi) >= a


class TestNu:
    def test_zero_at_zero(self):
        assert nu(0.0) == 0.0
        assert nu_closed(0.0) == 0.0

    def test_quadrature_agrees_with_antiderivative(self):
        for r in np.geomspace(1e-3, 30.0, 40):
            assert rel_err(nu(r), nu_quad(r)) < 1e-10

    def test_integrand_identity(self):
        # 2 * nu_integrand = (psi_1')^2 sinh^2 + 2 psi_1^2, the degree-one
        # mode-norm integrand
        for rho in np.geomspace(1e-2, 20.0, 50):
            direct = (dpsi(1, rho) ** 2 * math.sinh(rho) ** 2 + 2.0 * psi(1, rho) ** 2) / 2.0
            assert rel_err(nu_integrand(rho), direct) < 1e-10

    def test_matches_mpmath_closed_form(self):
        # 6 pi (coth r - r csch^2 r)(r coth r - 1) at 120 digits, on
        # log-uniform radii and on both sides of 0.15, where the closed form
        # once handed over to a Taylor branch, and of the ladder's switch
        def mp_nu(r):
            with mp.workdps(120):
                r = mp.mpf(r)
                c, s = mp.coth(r), 1 / mp.sinh(r) ** 2
                return float(6 * mp.pi * (c - r * s) * (r * c - 1))

        rng = np.random.default_rng(3)
        radii = [float(r) for r in np.exp(rng.uniform(math.log(1e-3), math.log(700.0), 300))]
        for s in (0.15, SWITCH):
            radii += [math.nextafter(s, 0.0), s, math.nextafter(s, math.inf)]
        radii += [0.154, 0.2, 3.25, 3.75]
        for r in radii:
            assert rel_err(nu(r), mp_nu(r)) < 1e-14, r

    def test_pinned_past_switch(self):
        # from r = 3.5 on nu is the closed form term for term
        assert repr(nu(30.0)) == "546.637121724624"

    def test_strictly_increasing(self):
        grid = np.geomspace(1e-3, 30.0, 60)
        vals = [nu(r) for r in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_small_r_cubic(self):
        assert abs(nu(1e-3) / ((4.0 * math.pi / 3.0) * 1e-9) - 1.0) < 1e-3

    def test_large_r_linear_with_offset(self):
        # nu(r) = 6 pi (r - 1) + o(1); at r = 30 the o(1) is below 1e-9
        assert rel_err(nu(30.0), SIX_PI * 29.0) < 1e-9
        assert rel_err(nu(40.0) - nu(30.0), SIX_PI * 10.0) < 1e-8

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "nu(r)/(6 pi r) -> 1 only like 1 - 1/r: at r = 30 the ratio is "
            "29/30, outside a 1% band.  The slope is right (see the offset "
            "test above); the stated check point is just too small for the "
            "stated tolerance."
        ),
    )
    def test_large_r_naive_ratio_band(self):
        assert abs(nu(30.0) / (SIX_PI * 30.0) - 1.0) <= 0.01

    def test_domain_error(self):
        with pytest.raises(ValueError):
            nu(-0.1)

    @pytest.mark.parametrize("r", [400.0, 710.0, 1000.0, 1e6, 1e300])
    def test_finite_past_sinh_overflow(self, r):
        # coth r = 1 and r csch^2 r = 0 to double precision here, so the
        # closed form 6 pi (coth r - r csch^2 r)(r coth r - 1) is 6 pi (r - 1)
        assert rel_err(nu(r), SIX_PI * (r - 1.0)) < 1e-15

    def test_value_past_float_range_raises(self):
        with pytest.raises(ValueError, match="float range"):
            nu(1e308)

    def test_cli_table_past_sinh_overflow(self, capsys):
        assert cli_main(["nu", "--r", "1,400"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["r"] for row in rows] == [1.0, 400.0]
        assert rel_err(rows[1]["nu"], SIX_PI * 399.0) < 1e-15

    @given(
        r1=st.floats(min_value=1e-3, max_value=30.0),
        r2=st.floats(min_value=1e-3, max_value=30.0),
    )
    @settings(deadline=None, max_examples=40)
    def test_increasing_property(self, r1, r2):
        lo, hi = sorted((r1, r2))
        if hi > lo:
            assert nu_closed(hi) > nu_closed(lo)


class TestPastSinhOverflow:
    """sinh(r)**2 overflows near r = 355; psi, dpsi and mode_norm stay finite."""

    @pytest.mark.parametrize("r", [400.0, 700.0, 1000.0])
    @pytest.mark.parametrize("ell", [1, 3])
    def test_psi_saturates(self, ell, r):
        # 1 - psi_ell and psi_ell' are ~ r e^(-2r), below the float range here
        assert psi(ell, r) == 1.0
        assert dpsi(ell, r) == 0.0

    @pytest.mark.parametrize("r0, r1", [(300.0, 350.0), (400.0, 700.0)])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_mode_norm_slope(self, ell, r0, r1):
        # N_ell(r) = ell(ell+1) r + const + O(r e^(-2r)), on either side of the overflow
        slope = ell * (ell + 1)
        assert rel_err(mode_norm(ell, r1) - mode_norm(ell, r0), (r1 - r0) * slope) < 1e-13

    @pytest.mark.parametrize("r", [400.0, 1000.0])
    def test_degree_one_carries_nu(self, r):
        assert rel_err(3.0 * math.pi * mode_norm(1, r), nu(r)) < 1e-15


NONFINITE = [math.nan, math.inf, -math.inf]


class TestNonfiniteRadius:
    """Every public radial entry rejects nan and +-inf with ValueError."""

    @pytest.mark.parametrize("r", NONFINITE)
    def test_nu(self, r):
        with pytest.raises(ValueError, match="finite"):
            nu(r)

    @pytest.mark.parametrize("r", NONFINITE)
    @pytest.mark.parametrize("fn", [psi, dpsi, profile, mode_norm, profiles])
    @pytest.mark.parametrize("ell", [1, 2, 5])
    def test_mode_functions(self, fn, ell, r):
        with pytest.raises(ValueError, match="finite"):
            fn(ell, r)

    @pytest.mark.parametrize(
        "text", ["nan", "1,inf", "0.5,nan", "1e308", "1e200", "1,4e102", "1e-320", "1,1e-104"]
    )
    def test_cli_table_is_a_usage_error(self, capsys, text):
        # past the finite radii: nu(1e308) leaves the float range, and the
        # denominator 4 pi r**3 / 3 of the small-radius ratio column
        # overflows from r ~ 3.5e102 and is subnormal below r ~ 1.7e-103
        assert cli_main(["nu", "--r", text]) == 2
        assert capsys.readouterr().out == ""


class TestBranchConstants:
    """The two pinned constants behind the sup-norm comparison factors."""

    def test_small_injectivity_constant(self):
        assert abs(math.sqrt(0.29 / nu(0.145)) - 4.78) < 0.01

    def test_large_injectivity_envelope(self):
        # sqrt(r / nu(r)) on [0.145, infty): maximal at the left endpoint,
        # decreasing along the grid, everywhere below 3.5
        grid = np.geomspace(0.145, 50.0, 80)
        vals = np.array([math.sqrt(r / nu(r)) for r in grid])
        assert vals.max() < 3.5
        assert vals.argmax() == 0
        assert np.all(np.diff(vals) < 0)
        assert abs(vals[0] - 3.3768) < 1e-3
