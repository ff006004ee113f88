"""The Gauss-Legendre rule and circle grid that the ball and tube quadratures share."""

import math

import numpy as np
import pytest

from hypnorms import ballfield, quadrature, verify
from hypnorms.tubefield import (
    TubeChart,
    competitor_margin,
    competitor_norm_sq,
    tube_l2_norm_sq,
    tube_lower_bound,
)


class TestGaussLegendreRule:
    def test_built_once_per_order(self, monkeypatch):
        built = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(order):
            built.append(order)
            return leggauss(order)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        quadrature._rule.cache_clear()
        try:
            for _ in range(2):
                verify.suite_tube()
                ballfield.omega_gram(2, 1.0, order=24)
                ballfield.omega_gram(2, 1.0, order=16)
        finally:
            quadrature._rule.cache_clear()
        assert sorted(built) == [16, 24, 48]

    def test_cached_rule_read_only_and_never_aliased(self):
        x, w = quadrature._rule(12)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        for a, b in ((-1.0, 1.0), (0.0, 2.0), (0.0, math.pi)):
            nodes, weights = quadrature.gauss_legendre(a, b, 12)
            assert nodes.flags.writeable and weights.flags.writeable
            assert not np.shares_memory(nodes, x) and not np.shares_memory(weights, w)
        ref_x, ref_w = np.polynomial.legendre.leggauss(12)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)

    @pytest.mark.parametrize("order", [0, 1, 3, True, 4.0, 24.5, 257])
    @pytest.mark.parametrize("call", [
        lambda n: tube_l2_norm_sq(TubeChart(0.3, 1.2), lambda r, th, z: (0.0, 0.0, 1.0), order=n),
        lambda n: competitor_norm_sq(TubeChart(0.3, 1.2), 0.1, order=n),
        lambda n: competitor_margin(TubeChart(0.3, 1.2), order=n),
        lambda n: tube_lower_bound(TubeChart(0.3, 1.2), order=n),
        lambda n: ballfield.omega_gram(2, 1.0, order=n),
        lambda n: ballfield.psi_gram(2, 1.0, order=n),
    ], ids=["tube_l2_norm_sq", "competitor_norm_sq", "competitor_margin", "tube_lower_bound",
            "omega_gram", "psi_gram"])
    def test_order_is_an_integer_of_at_least_four(self, call, order):
        # order=1 used to put a competitor at 1.86, below the core's 12.43
        with pytest.raises(ValueError, match="quadrature order"):
            call(order)


class TestThetaGrid:
    @pytest.mark.parametrize("order", [4, 24, 48])
    def test_equal_angles_with_trapezoid_weight(self, order):
        nodes, weight = quadrature.theta_grid(order)
        assert len(nodes) == 2 * order and weight == 2.0 * math.pi / (2 * order)
        assert nodes[0] == 0.0 and np.allclose(np.diff(nodes), weight, rtol=1e-14, atol=0.0)
        # the trapezoid rule integrates cos^2(k theta) exactly for 0 < k < order
        assert np.sum(np.cos(3 * nodes) ** 2) * weight == pytest.approx(math.pi, rel=1e-14)
