"""Tube charts: closed forms vs quadrature, minimality recheck, sup/L2 remark."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypnorms import tubefield
from hypnorms.tubefield import (
    TubeChart,
    competitor_margin,
    competitor_norm_sq,
    remark_ratio,
    tube_form_norm,
    tube_l2_norm_sq,
    tube_lower_bound,
    tube_volume,
)
from quad_oracles import pointwise_tube_l2_norm_sq, rz_competitor_norm_sq

GRID = [
    TubeChart(eps, R)
    for eps in (0.05, 0.3, 1.0)
    for R in (0.4, 1.2, 2.5)
]
# the charts of the filling family, eps = 2/n^2 and R = asinh n
FILLING = [TubeChart(2.0 / n**2, math.asinh(n)) for n in (10, 10**3, 10**6)]


class TestChart:
    def test_validation(self):
        with pytest.raises(ValueError):
            TubeChart(0.0, 1.0)
        with pytest.raises(ValueError):
            TubeChart(1.0, -0.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_arguments(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TubeChart(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            TubeChart(0.1, bad)


class TestVolume:
    def test_inverted_formula(self):
        t = TubeChart(1.0, math.asinh(1.0 / math.sqrt(math.pi)))
        assert tube_volume(t) == pytest.approx(1.0, rel=1e-12)

    def test_formula_and_quadrature(self):
        t = TubeChart(0.29, 2.0)
        assert tube_volume(t) == pytest.approx(math.pi * 0.29 * math.sinh(2.0) ** 2, rel=1e-14)
        quad = tube_l2_norm_sq(t, lambda r, th, z: (0.0, 0.0, np.cosh(r)), order=16)
        assert quad == pytest.approx(tube_volume(t), rel=1e-10)

    def test_strictly_increasing_in_both_arguments(self):
        for eps1, eps2 in ((0.1, 0.2), (0.5, 0.9)):
            for R1, R2 in ((0.3, 0.7), (1.5, 2.0)):
                assert tube_volume(TubeChart(eps2, R1)) > tube_volume(TubeChart(eps1, R1))
                assert tube_volume(TubeChart(eps1, R2)) > tube_volume(TubeChart(eps1, R1))


class TestFormNorm:
    def test_empty_tube_limit(self):
        assert tube_form_norm(TubeChart(1.0, 1e-12)) < 1e-11

    @pytest.mark.parametrize("R", [1e-12, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.2])
    def test_shallow_tube_keeps_its_digits(self, R):
        # log(cosh R) cancels: 3.5e-9 relative at R = 1e-4, 4.4e-5 at 1e-6, 0.0 from 1e-8 down
        with mp.workdps(50):
            expect = float(mp.sqrt(2 * mp.pi * mp.log(mp.cosh(mp.mpf(R)))))
        assert tube_form_norm(TubeChart(1.0, R)) == pytest.approx(expect, rel=1e-15, abs=0.0)

    def test_squared_norm_underflow_raises(self):
        # returned 0.0, which tube_lower_bound then certified
        for t in (TubeChart(1.0, 1e-200), TubeChart(1e300, 1e-20)):
            with pytest.raises(ValueError, match="float range"):
                tube_form_norm(t)

    def test_subnormal_squared_norm_raises(self):
        # returned 1.7725020287448155e-160, of which 4 digits are right
        for t in (TubeChart(1e300, 1e-10), TubeChart(1e300, 1e-5)):
            with pytest.raises(ValueError, match="float range"):
                tube_form_norm(t)

    @pytest.mark.parametrize("eps, R", [(1e300, 1e-4), (1e300, 2e-4), (1e308, 1.0)])
    def test_normal_squared_norm_keeps_its_digits(self, eps, R):
        # just above sys.float_info.min the squared norm is a normal float
        with mp.workdps(50):
            expect = float(mp.sqrt(2 * mp.pi / eps * mp.log(mp.cosh(mp.mpf(R)))))
        assert tube_form_norm(TubeChart(eps, R)) == pytest.approx(expect, rel=1e-15, abs=0.0)

    def test_closed_form_value(self):
        t = TubeChart(0.01, 2.4311)
        expect = math.sqrt(2.0 * math.pi / 0.01 * math.log(math.cosh(2.4311)))
        assert tube_form_norm(t) == pytest.approx(expect, rel=1e-14)

    def test_doubling_epsilon_halves_squared_norm(self):
        for eps, R in ((0.2, 0.8), (0.7, 2.1)):
            a = tube_form_norm(TubeChart(eps, R)) ** 2
            b = tube_form_norm(TubeChart(2 * eps, R)) ** 2
            assert a == pytest.approx(2.0 * b, rel=1e-15)

    @pytest.mark.parametrize("t", GRID, ids=lambda t: f"eps{t.epsilon}_R{t.R}")
    def test_quadrature_agreement(self, t):
        quad = tube_l2_norm_sq(t, lambda r, th, z: (0.0, 0.0, 1.0 / t.epsilon), order=16)
        assert quad == pytest.approx(tube_form_norm(t) ** 2, rel=1e-9)


class TestPastCoshOverflow:
    def test_form_norm_at_large_depth(self):
        # log cosh 800 = 800 - log 2 to the last bit
        expect = math.sqrt(2.0 * math.pi / 0.1 * (800.0 - math.log(2.0)))
        assert tube_form_norm(TubeChart(0.1, 800.0)) == pytest.approx(expect, rel=1e-15)

    def test_form_norm_agrees_across_the_switch(self):
        for R in (19.5, 19.999, 20.0, 20.001, 20.5):
            expect = math.sqrt(2.0 * math.pi / 0.3 * math.log(math.cosh(R)))
            assert tube_form_norm(TubeChart(0.3, R)) == pytest.approx(expect, rel=1e-15)

    def test_form_norm_out_of_range_raises(self):
        with pytest.raises(ValueError, match="float range"):
            tube_form_norm(TubeChart(5e-324, 1.0))

    def test_volume_out_of_range_raises(self):
        for t in (TubeChart(0.1, 800.0), TubeChart(0.1, 1e6), TubeChart(1e308, 1.0)):
            with pytest.raises(ValueError, match="float range"):
                tube_volume(t)

    def test_volume_underflow_raises(self):
        # returned 0.0 where the volume is about 3.1e-400
        for t in (TubeChart(1.0, 1e-200), TubeChart(5e-324, 1e-170)):
            with pytest.raises(ValueError, match="float range"):
                tube_volume(t)

    def test_volume_past_sinh_overflow(self):
        # pi eps sinh^2 R = exp(2R + log(pi eps / 4)) once e^(-2R) is below an ulp;
        # at R = 715 sinh R itself overflows while the volume is finite
        for eps, R in ((1e-300, 400.0), (1e-200, 300.0), (0.3, 20.0), (0.3, 25.0), (5e-324, 715.0)):
            expect = math.exp(2.0 * R + math.log(math.pi) + math.log(eps) - math.log(4.0))
            assert tube_volume(TubeChart(eps, R)) == pytest.approx(expect, rel=1e-12)

    def test_volume_keeps_subnormal_eps_digits(self):
        # scaling by 2^1000 is exact, so the reference is a normal float within
        # a few ulps; a subnormal result may miss it by the same relative error
        # or by one of its own ulps, not by digits lost in forming pi * eps
        for eps, R in ((5.439e-320, 1.6173495001615523), (5e-324, 25.0), (1e-310, 0.7)):
            scaled = math.ldexp(tube_volume(TubeChart(eps, R)), 1000)
            ref = math.pi * math.ldexp(eps, 1000) * math.sinh(R) ** 2
            assert scaled == pytest.approx(ref, rel=1e-14, abs=math.ldexp(5e-324, 1000))


class TestBroadcastQuadrature:
    def test_matches_pointwise_oracle(self):
        calls = []

        def field(r, th, z):
            calls.append(1)
            return (np.sin(th) * r, z * np.cos(2.0 * th) + 0.5, np.cosh(r) * (1.0 + z))

        for t in (TubeChart(0.29, 2.0), TubeChart(1.0, 0.5)):
            calls.clear()
            fast = tube_l2_norm_sq(t, field, order=12)
            assert len(calls) == 1
            assert fast == pytest.approx(pointwise_tube_l2_norm_sq(t, field, order=12), rel=1e-13)

    def test_constant_components_broadcast(self):
        t = TubeChart(0.4, 1.1)
        assert tube_l2_norm_sq(t, lambda r, th, z: (0.0, 0.0, 2.5)) == pytest.approx(
            pointwise_tube_l2_norm_sq(t, lambda r, th, z: (0.0, 0.0, 2.5)), rel=1e-13
        )

    @pytest.mark.parametrize("t", GRID + FILLING, ids=lambda t: f"eps{t.epsilon:.3g}_R{t.R:.3g}")
    @pytest.mark.parametrize("order", [4, 24, 48])
    def test_theta_constant_field_on_one_angle(self, t, order):
        # a theta-independent field takes one angle of weight 2 pi; forced
        # onto the full theta grid it takes the trapezoid rule's 2*order
        def field(r, th, z):
            return np.sin(z / t.epsilon) * r, 0.5 * r, np.cosh(r)

        def forced(r, th, z):
            return tuple(w + 0.0 * th for w in field(r, th, z))

        one = tube_l2_norm_sq(t, field, order=order)
        assert one == pytest.approx(tube_l2_norm_sq(t, forced, order=order), rel=1e-14)

    def test_theta_dependent_field_keeps_trapezoid_rule(self):
        t = TubeChart(0.3, 1.2)

        def field(r, th, z):
            return np.cos(3.0 * th) * r, np.sin(th) ** 2, np.cosh(r) + 0.0 * th

        for order in (4, 12):
            assert tube_l2_norm_sq(t, field, order=order) == pytest.approx(
                pointwise_tube_l2_norm_sq(t, field, order=order), rel=1e-13
            )


class TestCompetitorQuadrature:
    @pytest.mark.parametrize("t", GRID + FILLING, ids=lambda t: f"eps{t.epsilon:.3g}_R{t.R:.3g}")
    @pytest.mark.parametrize("order", [4, 24, 48])
    def test_matches_rz_oracle(self, t, order):
        for s in (0.1, -0.1, 0.01, -0.01):
            assert competitor_norm_sq(t, s, order=order) == pytest.approx(
                rz_competitor_norm_sq(t, s, order=order), rel=1e-13
            )

    def test_one_field_call_without_theta_dependence(self, monkeypatch):
        shapes = []
        inner = tubefield.tube_l2_norm_sq

        def spy(t, field, order=24):
            def recorded(r, th, z):
                out = field(r, th, z)
                shapes.append(np.broadcast_shapes(*(np.shape(w) for w in out)))
                return out

            return inner(t, recorded, order=order)

        monkeypatch.setattr(tubefield, "tube_l2_norm_sq", spy)
        competitor_norm_sq(TubeChart(0.3, 1.2), 0.1, order=8)
        assert shapes == [(8, 1, 8)]


class TestLowerBound:
    def test_equals_form_norm(self):
        for t in (TubeChart(0.29, 2.0), TubeChart(1.0, 0.5)):
            assert tube_lower_bound(t) == tube_form_norm(t)

    @pytest.mark.parametrize("s", [0.1, -0.1, 0.01, -0.01])
    def test_competitors_never_improve(self, s):
        for t in [TubeChart(0.29, 2.0), TubeChart(0.01, 2.4311), TubeChart(1.0, 0.5)] + FILLING:
            base_sq = tube_form_norm(t) ** 2
            assert competitor_norm_sq(t, s) > base_sq

    def test_margin_is_the_worst_competitor(self):
        for t in (TubeChart(0.29, 2.0), FILLING[0]):
            base_sq = tube_form_norm(t) ** 2
            worst = min((competitor_norm_sq(t, s, order=24) - base_sq) / base_sq
                        for s in (0.1, -0.1, 0.01, -0.01))
            assert competitor_margin(t, order=24) == worst > 0.0

    @pytest.mark.parametrize("below, raises", [(1e-10, False), (1e-8, True)])
    def test_competitor_below_the_bound_raises(self, monkeypatch, below, raises):
        # a competitor under the core form by more than 1e-9 relative is refused,
        # one within that slack is not
        t = TubeChart(0.3, 1.2)
        base_sq = tube_form_norm(t) ** 2
        monkeypatch.setattr(tubefield, "competitor_norm_sq",
                            lambda t_, s, order: base_sq * (1.0 - below))
        assert competitor_margin(t, 48) == pytest.approx(-below, rel=1e-6)
        if raises:
            with pytest.raises(RuntimeError, match="below the certified bound"):
                tube_lower_bound(t)
        else:
            assert tube_lower_bound(t) == tube_form_norm(t)

    def test_perturbation_enters_at_second_order(self):
        # cross term cancels over a z-period, so +s and -s cost the same
        t = TubeChart(0.2, 1.5)
        up = competitor_norm_sq(t, 0.1) - tube_form_norm(t) ** 2
        down = competitor_norm_sq(t, -0.1) - tube_form_norm(t) ** 2
        assert up == pytest.approx(down, rel=1e-10)
        # and scales like s^2
        small = competitor_norm_sq(t, 0.01) - tube_form_norm(t) ** 2
        assert up / small == pytest.approx(100.0, rel=1e-6)

    @given(
        eps=st.floats(min_value=0.01, max_value=2.0),
        R=st.floats(min_value=0.2, max_value=3.0),
        s=st.sampled_from([0.1, -0.1, 0.01, -0.01]),
    )
    @settings(max_examples=25, deadline=None)
    def test_no_decrease_property(self, eps, R, s):
        t = TubeChart(eps, R)
        assert competitor_norm_sq(t, s) >= tube_form_norm(t) ** 2 * (1.0 - 1e-9)


class TestNonfiniteIntegral:
    """A nonfinite tube integral raises ValueError, with no RuntimeWarning."""

    DEEP = TubeChart(1.0, 800.0)  # sinh r overflows at the outer radial nodes

    def test_sinh_overflow(self):
        # returned nan
        with pytest.raises(ValueError, match="nonfinite L2 norm"):
            tube_l2_norm_sq(self.DEEP, lambda r, theta, z: (0.0, 0.0, 1.0))

    def test_nan_component(self):
        # returned nan
        with pytest.raises(ValueError, match="nonfinite L2 norm"):
            tube_l2_norm_sq(TubeChart(0.3, 1.2), lambda r, theta, z: (np.nan, 0.0, 1.0))

    @pytest.mark.parametrize("w", [10**400, np.array([10**400], dtype=object)],
                             ids=["int", "object-array"])
    def test_int_past_the_float_range(self, w):
        # np.asarray(w, dtype=float) raised OverflowError
        with pytest.raises(ValueError, match="nonfinite L2 norm"):
            tube_l2_norm_sq(TubeChart(0.3, 1.2), lambda r, theta, z: (0.0, 0.0, w))

    def test_huge_competitor(self):
        # returned inf
        with pytest.raises(ValueError, match="nonfinite L2 norm"):
            competitor_norm_sq(TubeChart(0.3, 1.2), 1e200)

    @pytest.mark.parametrize("t", [TubeChart(5e-324, 1.0), TubeChart(1.0, 1e-310)],
                             ids=["eps5e-324", "R1e-310"])
    def test_field_overflow(self, t):
        # the field ran outside the errstate: RuntimeWarning "invalid value encountered in multiply"
        with pytest.raises(ValueError, match="nonfinite L2 norm"):
            competitor_norm_sq(t, 0.1)

    def test_lower_bound_not_certified(self):
        # returned 70.867... as certified: every competitor was nan, and nan < bound is False
        with pytest.raises(ValueError, match="nonfinite L2 norm"):
            tube_lower_bound(self.DEEP)


class TestRemarkRatio:
    def test_volume_one_depth(self):
        rr = remark_ratio(1e-2)
        R = math.asinh(1.0 / math.sqrt(0.01 * math.pi))
        assert rr.l2_norm == pytest.approx(tube_form_norm(TubeChart(1e-2, R)), rel=1e-14)
        assert tube_volume(TubeChart(1e-2, R)) == pytest.approx(1.0, rel=1e-12)

    def test_sup_norm_is_core_value(self):
        rr = remark_ratio(1e-3)
        assert rr.sup_norm == 1e3
        assert rr.ratio == pytest.approx(rr.sup_norm / rr.l2_norm, rel=1e-15)

    def test_ratio_tracks_prediction_on_grid(self):
        grid = np.geomspace(1e-6, 1e-2, 25)
        ratios = []
        for eps in grid:
            rr = remark_ratio(eps)
            assert 0.3 <= rr.ratio / rr.predicted <= 3.0
            ratios.append(rr.ratio)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            remark_ratio(1.0 / math.pi)
        with pytest.raises(ValueError):
            remark_ratio(0.5)
        with pytest.raises(ValueError):
            remark_ratio(0.0)
        with pytest.raises(ValueError):
            remark_ratio(-1e-3)
