"""Ball fields: harmonic convention anchors, quadrature, orthogonality, df bound.

The spherical-harmonic values pinned here were computed by hand from the
convention in the ballfield docstring (real, orthonormal, no Condon-Shortley
phase).  They check the library's phi and theta factors through the
pointwise oracles of quad_oracles; derivative checks use finite differences
of Psi_lm = psi_ell Y_lm, which only rely on the scalar evaluation being
right.
"""

import math

import numpy as np
import pytest
from scipy.special import lpmv

from hypnorms import ballfield
from hypnorms.ballfield import (
    HarmonicExpansion,
    ball_l2_norm_sq,
    check_df_bound,
    mode_indices,
    omega_gram,
    psi_gram,
    _angular_grams,
    _gram,
    _legendre_table,
)
from hypnorms.quadrature import gauss_legendre
from hypnorms.radial import dpsi, mode_norm, nu, psi
from quad_oracles import (
    _assoc,
    covector_at,
    full_mesh_omega_gram,
    full_mesh_psi_gram,
    mode_norm_quad,
    nu_quad,
    pointwise_l2_norm_sq,
    sph_harm,
    sph_harm_dphi,
    sph_harm_dtheta_over_sin,
)

THREE_PI = 3.0 * math.pi


def random_expansion(rng, lmax, lmin=1):
    coeffs = {idx: rng.normal() for idx in mode_indices(lmax, lmin=lmin)}
    return HarmonicExpansion(coeffs, truncation=lmax)


def unit_mode(ell, m):
    return HarmonicExpansion({(ell, m): 1.0}, truncation=ell)


class TestSphHarm:
    def test_index_validation(self):
        with pytest.raises(ValueError):
            sph_harm(1, 2, 0.3, 0.3)
        with pytest.raises(ValueError):
            sph_harm_dphi(2, -3, 0.3, 0.3)
        with pytest.raises(ValueError):
            sph_harm_dtheta_over_sin(0, 1, 0.3, 0.3)

    def test_convention_anchors(self):
        assert sph_harm(0, 0, 1.1, 2.2) == pytest.approx(1.0 / math.sqrt(4 * math.pi), rel=1e-15)
        phi = 0.7
        assert sph_harm(1, 0, phi, 0.3) == pytest.approx(
            math.sqrt(3.0 / (4 * math.pi)) * math.cos(phi), rel=1e-14
        )
        # no Condon-Shortley: Y_11 positive at (pi/2, 0)
        assert sph_harm(1, 1, math.pi / 2, 0.0) == pytest.approx(
            math.sqrt(3.0 / (8 * math.pi)) * math.sqrt(2.0), rel=1e-14
        )
        assert sph_harm(1, -1, math.pi / 2, math.pi / 2) == pytest.approx(
            math.sqrt(3.0 / (8 * math.pi)) * math.sqrt(2.0), rel=1e-14
        )

    def test_angular_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(60):
            ell = int(rng.integers(0, 6))
            m = int(rng.integers(-ell, ell + 1))
            phi = rng.uniform(0.1, math.pi - 0.1)
            theta = rng.uniform(0.0, 2 * math.pi)
            fd_phi = (sph_harm(ell, m, phi + h, theta) - sph_harm(ell, m, phi - h, theta)) / (2 * h)
            assert sph_harm_dphi(ell, m, phi, theta) == pytest.approx(fd_phi, abs=1e-8, rel=1e-7)
            fd_th = (sph_harm(ell, m, phi, theta + h) - sph_harm(ell, m, phi, theta - h)) / (2 * h)
            assert sph_harm_dtheta_over_sin(ell, m, phi, theta) * math.sin(phi) == pytest.approx(
                fd_th, abs=1e-8, rel=1e-7
            )

    def test_pole_values_finite(self):
        for phi in (0.0, math.pi):
            for ell, m in mode_indices(4):
                assert math.isfinite(sph_harm_dphi(ell, m, phi, 0.7))
                assert math.isfinite(sph_harm_dtheta_over_sin(ell, m, phi, 0.7))

    def test_against_lpmv_up_to_degree_40(self):
        # scipy's lpmv carries the Condon-Shortley phase; the derivative
        # references use pole-free identities, and away from the poles also
        # the division forms d/dphi Pbar^m = m cot(phi) Pbar^m - Pbar^(m+1)
        # and Pbar^m / sin(phi).  Errors are relative to the max over the grid.
        pole = np.array([0.0, 1e-12, 1e-8, 1e-5, 1e-3])
        phi = np.concatenate([pole, np.linspace(0.01, math.pi - 0.01, 157), math.pi - pole[::-1]])
        x, s = np.cos(phi), np.sin(phi)
        away = s >= 0.1

        def pbar(ell, m):
            if m > ell:
                return np.zeros_like(x)
            return (-1.0) ** m * lpmv(m, ell, x)

        def close(got, ref, mask=slice(None)):
            return np.max(np.abs(got - ref)[mask]) <= 1e-12 * np.max(np.abs(ref))

        for ell in range(41):
            for m in range(ell + 1):
                scale = math.sqrt((2 * ell + 1) / (4 * math.pi) * math.factorial(ell - m)
                                  / math.factorial(ell + m)) * (math.sqrt(2.0) if m else 1.0)
                assert close(sph_harm(ell, m, phi, 0.0), scale * pbar(ell, m)), (ell, m)
                dphi = sph_harm_dphi(ell, m, phi, 0.0)
                if m == 0:
                    ref = -scale * pbar(ell, 1)
                else:
                    ref = 0.5 * scale * ((ell + m) * (ell - m + 1) * pbar(ell, m - 1)
                                         - pbar(ell, m + 1))
                    over_sin = sph_harm_dtheta_over_sin(ell, -m, phi, 0.0) / m
                    over_ref = scale * (pbar(ell - 1, m + 1) + (ell + m - 1) * (ell + m)
                                        * pbar(ell - 1, m - 1)) / (2 * m)
                    assert close(over_sin, over_ref), (ell, m)
                    assert close(over_sin, scale * pbar(ell, m) / np.where(away, s, 1.0), away)
                if ell:
                    assert close(dphi, ref), (ell, m)
                    div = scale * (m * x * pbar(ell, m) / np.where(away, s, 1.0) - pbar(ell, m + 1))
                    assert close(dphi, div, away), (ell, m)

    def test_vectorized_matches_scalar(self):
        phi = np.array([0.3, 1.2, 2.9])
        theta = np.array([0.1, 3.3, 5.0])
        vec = sph_harm(3, 2, phi, theta)
        for i in range(3):
            assert vec[i] == sph_harm(3, 2, float(phi[i]), float(theta[i]))


class TestExpansion:
    def test_index_validation(self):
        with pytest.raises(ValueError):
            HarmonicExpansion({(2, 3): 1.0}, truncation=4)
        with pytest.raises(ValueError):
            HarmonicExpansion({(3, 0): 1.0}, truncation=2)
        with pytest.raises(ValueError):
            HarmonicExpansion({}, truncation=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coefficient(self, bad):
        with pytest.raises(ValueError, match="finite"):
            HarmonicExpansion({(1, 0): 1.0, (2, 1): bad}, truncation=2)

    @pytest.mark.parametrize("coeffs, truncation", [
        ({(True, 0): 1.0}, 1), ({(1, False): 1.0}, 1), ({(1.5, 0): 1.0}, 2), ({(1.0, 0): 1.0}, 1),
        ({(1, 0.0): 1.0}, 1), ({}, 2.5), ({}, 2.0), ({(1, 0): 1.0}, True),
    ], ids=["bool-ell", "bool-m", "float-ell", "whole-float-ell", "float-m", "float-truncation",
            "whole-float-truncation", "bool-truncation"])
    def test_indices_are_integers(self, coeffs, truncation):
        # (True, 0) used to read as degree 1 in check_df_bound and break the Gram form
        with pytest.raises(ValueError, match="integer"):
            HarmonicExpansion(coeffs, truncation)


class TestCovectorOracle:
    def test_matches_finite_differences_of_Psi(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(40):
            ell = int(rng.integers(1, 5))
            m = int(rng.integers(-ell, ell + 1))
            r = rng.uniform(0.2, 3.0)
            phi = rng.uniform(0.2, math.pi - 0.2)
            th = rng.uniform(0.1, 2 * math.pi - 0.1)

            def Psi(r, phi, th):
                return psi(ell, r) * sph_harm(ell, m, phi, th)

            c_r, c_phi, c_theta = covector_at(unit_mode(ell, m), r, phi, th)
            dr = (Psi(r + h, phi, th) - Psi(r - h, phi, th)) / (2 * h)
            dphi = (Psi(r, phi + h, th) - Psi(r, phi - h, th)) / (2 * h * math.sinh(r))
            dth = (Psi(r, phi, th + h) - Psi(r, phi, th - h)) / (
                2 * h * math.sinh(r) * math.sin(phi)
            )
            assert c_r == pytest.approx(dr, abs=1e-8, rel=1e-6)
            assert c_phi == pytest.approx(dphi, abs=1e-8, rel=1e-6)
            assert c_theta == pytest.approx(dth, abs=1e-8, rel=1e-6)

    def test_center_limits(self):
        for ell, m in ((0, 0), (2, 1), (5, -3)):
            assert covector_at(unit_mode(ell, m), 0.0, 0.4, 1.0) == (0.0, 0.0, 0.0)
        # each degree-one mode has |omega(0)| = 1/sqrt(3 pi), any direction
        for m in (-1, 0, 1):
            c = covector_at(unit_mode(1, m), 0.0, 0.9, 2.0)
            assert math.hypot(*c) == pytest.approx(1.0 / math.sqrt(THREE_PI), rel=1e-12)

    def test_center_approached_continuously(self):
        for m in (-1, 0, 1):
            far = covector_at(unit_mode(1, m), 1e-8, 0.9, 2.0)
            lim = covector_at(unit_mode(1, m), 0.0, 0.9, 2.0)
            for a, b in zip(far, lim):
                assert a == pytest.approx(b, abs=1e-12)

    def test_pointwise_norm_identity(self):
        # 3 pi |omega_10|^2 = (9/4)((psi_1' cos phi)^2 + (psi_1 sin phi / sinh r)^2)
        for r, phi in ((0.4, 0.3), (1.3, 0.9), (2.6, 2.1)):
            c_r, c_phi, c_theta = covector_at(unit_mode(1, 0), r, phi, 0.3)
            lhs = THREE_PI * (c_r**2 + c_phi**2 + c_theta**2)
            rhs = 2.25 * (
                (dpsi(1, r) * math.cos(phi)) ** 2
                + (psi(1, r) * math.sin(phi) / math.sinh(r)) ** 2
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestQuadrature:
    def test_degree_one_mode_reproduces_nu(self):
        exp = HarmonicExpansion({(1, 0): math.sqrt(THREE_PI)}, truncation=1)
        got = ball_l2_norm_sq(exp, 1.0)
        assert got == pytest.approx(nu(1.0), rel=1e-8)

    def test_grid_and_pointwise_paths_agree(self):
        fast = ball_l2_norm_sq(unit_mode(2, 1), 0.8, order=8)
        slow = pointwise_l2_norm_sq(unit_mode(2, 1), 0.8, order=8)
        assert fast == pytest.approx(slow, rel=1e-13)

    def test_mixed_expansion_matches_pointwise_oracle(self):
        # cross terms between modes of different degree, the ell = 0 term
        # (no differential) and a zero coefficient all pass through the Gram form
        exp = HarmonicExpansion({(0, 0): 5.0, (1, -1): 0.7, (2, 0): 0.0, (2, 2): -1.3,
                                 (3, 1): 0.4}, truncation=3)
        fast = ball_l2_norm_sq(exp, 1.1, order=6)
        assert fast == pytest.approx(pointwise_l2_norm_sq(exp, 1.1, order=6), rel=1e-13)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        exp = random_expansion(rng, 4)
        direct = ball_l2_norm_sq(exp, 1.3)
        by_modes = sum(a * a * mode_norm(ell, 1.3) for (ell, m), a in exp.items())
        assert direct == pytest.approx(by_modes, rel=1e-6)

    def test_cross_term_by_polarization(self):
        f = unit_mode(1, 0)
        g = unit_mode(2, 1)
        plus = HarmonicExpansion({(1, 0): 1.0, (2, 1): 1.0}, truncation=2)
        minus = HarmonicExpansion({(1, 0): 1.0, (2, 1): -1.0}, truncation=2)
        inner = 0.25 * (ball_l2_norm_sq(plus, 1.0) - ball_l2_norm_sq(minus, 1.0))
        assert abs(inner) < 1e-8
        # sanity: the same polarization recovers a diagonal entry
        norm_f = ball_l2_norm_sq(f, 1.0)
        assert norm_f == pytest.approx(mode_norm(1, 1.0), rel=1e-9)
        assert ball_l2_norm_sq(g, 1.0) == pytest.approx(mode_norm(2, 1.0), rel=1e-9)

    def test_nonfinite_norm_raises(self):
        # sinh^2 overflows at the outer radial nodes, so the Gram form is not finite
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="nonfinite L2 norm"):
            ball_l2_norm_sq(unit_mode(1, 0), 800.0, order=4)

    def test_underflow_raises(self):
        # returned 0.0, where check_df_bound raises on the same expansion and radius
        with pytest.raises(ValueError, match="float range"):
            check_df_bound(unit_mode(1, 0), 1e-120)
        with pytest.raises(ValueError, match="underflows to 0.0"):
            ball_l2_norm_sq(unit_mode(1, 0), 1e-120, order=8)

    def test_rejects_other_types(self):
        # the expansion itself is the input; its coefficient dict or a pointwise field is not
        for field in (dict(unit_mode(1, 0).coefficients), lambda r, phi, theta: (0.0, 0.0, 0.0)):
            with pytest.raises(TypeError, match="needs a HarmonicExpansion"):
                ball_l2_norm_sq(field, 1.0, order=4)

    def test_zero_expansion(self):
        assert ball_l2_norm_sq(HarmonicExpansion({(0, 0): 1.0}, 1), 1.0) == 0.0
        with pytest.raises(ValueError):
            ball_l2_norm_sq(HarmonicExpansion({}, 1), 1.0, order=2)

    def test_argument_validation(self):
        f = unit_mode(1, 0)
        with pytest.raises(ValueError):
            ball_l2_norm_sq(f, 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ball_l2_norm_sq(f, bad)
        with pytest.raises(ValueError):
            ball_l2_norm_sq(f, 1.0, order=2)


class TestOrthogonality:
    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_scalar_modes_orthogonal(self, r):
        modes, G = psi_gram(3, r)
        scale = np.sqrt(np.outer(np.diag(G), np.diag(G)))
        off = np.abs(G - np.diag(np.diag(G))) / scale
        assert off.max() < 1e-8

    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_gradient_modes_orthogonal(self, r):
        modes, G = omega_gram(3, r)
        scale = np.sqrt(np.outer(np.diag(G), np.diag(G)))
        off = np.abs(G - np.diag(np.diag(G))) / scale
        assert off.max() < 1e-8

    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_gradient_diagonal_is_mode_norm(self, r):
        modes, G = omega_gram(3, r)
        for i, (ell, m) in enumerate(modes):
            assert G[i, i] == pytest.approx(mode_norm(ell, r), rel=1e-10)


def _gram_gap(G, oracle):
    # largest entry difference relative to the diagonal scale sqrt(G_ii G_jj)
    d = np.sqrt(np.diag(oracle))
    return float((np.abs(G - oracle) / np.outer(d, d)).max())


class TestSeparableGram:
    # the (lmax, order) shapes of the fields benchmark
    @pytest.mark.parametrize("lmax,order", [(4, 24), (6, 36), (8, 48)])
    @pytest.mark.parametrize("r", [0.2, 1.3, 3.0])
    def test_matches_full_mesh_oracle(self, lmax, order, r):
        modes, G = omega_gram(lmax, r, order=order)
        assert _gram_gap(G, full_mesh_omega_gram(modes, r, order)) <= 1e-13
        pmodes, P = psi_gram(lmax, r, order=order)
        omodes, O = full_mesh_psi_gram(lmax, r, order)
        assert pmodes == omodes
        assert _gram_gap(P, O) <= 1e-13

    @pytest.mark.parametrize("r", [0.2, 2.1])
    def test_mode_list_without_low_degrees(self, r):
        modes = mode_indices(5, lmin=3)
        G = _gram(modes, r, 30, True)
        assert _gram_gap(G, full_mesh_omega_gram(modes, r, 30)) <= 1e-13

    @pytest.mark.parametrize("gram, lmax", [(omega_gram, 0), (omega_gram, 41),
                                            (psi_gram, -1), (psi_gram, 41)])
    def test_degree_range(self, gram, lmax):
        # omega_gram takes 1 <= lmax <= 40, psi_gram 0 <= lmax <= 40
        with pytest.raises(ValueError, match="lmax"):
            gram(lmax, 1.0, order=4)

    @pytest.mark.parametrize("gram", [omega_gram, psi_gram])
    @pytest.mark.parametrize("lmax", [True, 2.5, 2.0], ids=["bool", "float", "whole-float"])
    def test_degree_is_an_integer(self, gram, lmax):
        with pytest.raises(ValueError, match="integer"):
            gram(lmax, 1.0, order=4)

    @pytest.mark.parametrize("lmax, lmin", [(True, 0), (2.5, 0), (2.0, 0), (2, True), (2, 1.0)],
                             ids=["bool-lmax", "float-lmax", "whole-float-lmax", "bool-lmin",
                                  "whole-float-lmin"])
    def test_mode_indices_are_integers(self, lmax, lmin):
        # mode_indices(True) listed the degree-1 modes; 2.5 reached range() as a TypeError
        with pytest.raises(ValueError, match="integer"):
            mode_indices(lmax, lmin=lmin)

    @pytest.mark.parametrize("call", [lambda: omega_gram(1, 1e-200, order=4),
                                      lambda: psi_gram(1, 1e-200, order=4),
                                      lambda: omega_gram(8, 1e-30, order=48)])
    def test_underflowed_diagonal_raises(self, call):
        # all-zero matrices, or zero diagonal entries, came back for a positive radius
        with pytest.raises(ValueError, match="underflows to 0.0"):
            call()

    def test_tiny_diagonal_stays(self):
        # the smallest diagonal entry is about 1e-264, far below 1 but not 0.0
        _, G = omega_gram(40, 0.001, order=256)
        assert 0.0 < np.diagonal(G).min() < 1e-260

    @pytest.mark.parametrize("gram", [omega_gram, psi_gram])
    def test_past_sinh_overflow_raises(self, gram):
        # sinh^2 of the outer radial nodes overflows; nan/inf entries used to come back
        with pytest.raises(ValueError, match="nonfinite"):
            gram(1, 800.0, order=4)


class TestAngularCache:
    """The angular factor is built once per (mode list, order) and shared read-only."""

    @staticmethod
    def grams(rng, lmax, order, r):
        expansion = random_expansion(rng, lmax)
        return (omega_gram(lmax, r, order)[1], psi_gram(lmax, r, order)[1],
                ball_l2_norm_sq(expansion, r, order))

    @staticmethod
    def assert_same(a, b):
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]

    def test_cached_equals_rebuilt_and_uncached(self, monkeypatch):
        rng = np.random.default_rng(28)
        shapes = [(int(rng.integers(1, 7)), int(rng.integers(4, 40)), float(rng.uniform(0.1, 4)))
                  for _ in range(6)]
        for lmax, order, r in shapes:
            seed = int(rng.integers(2**31))
            first = self.grams(np.random.default_rng(seed), lmax, order, r)
            hit = self.grams(np.random.default_rng(seed), lmax, order, r)
            _angular_grams.cache_clear()
            rebuilt = self.grams(np.random.default_rng(seed), lmax, order, r)
            with monkeypatch.context() as m:
                m.setattr(ballfield, "_angular_grams", _angular_grams.__wrapped__)
                uncached = self.grams(np.random.default_rng(seed), lmax, order, r)
            for other in (hit, rebuilt, uncached):
                self.assert_same(first, other)

    def test_built_once_across_radii(self):
        _angular_grams.cache_clear()
        for r in (0.3, 1.1, 2.7):
            omega_gram(3, r, order=20)
        info = _angular_grams.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_psi_gram_builds_one_entry_across_radii(self):
        _angular_grams.cache_clear()
        for r in (0.3, 1.1, 2.7):
            psi_gram(3, r, order=20)
        info = _angular_grams.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        A, B = _angular_grams(tuple(mode_indices(3)), 20)
        for cached in (A, B):
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 1.0

    def test_cached_arrays_are_read_only(self):
        A, B = _angular_grams(tuple(mode_indices(2, lmin=1)), 24)
        for cached in (A, B):
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 1.0
        G = omega_gram(2, 1.0, order=24)[1]  # a caller's Gram is its own
        G[0, 0] = 0.0

    def test_size_is_bounded(self):
        for lmax in range(1, 5):
            for order in range(4, 9):
                omega_gram(lmax, 0.7, order=order)
        assert _angular_grams.cache_info().currsize <= 16

    @pytest.mark.parametrize("call", [
        lambda: omega_gram(2, 1.0, order=24.0),
        lambda: psi_gram(2, 1.0, order=24.0),
        lambda: ball_l2_norm_sq(unit_mode(2, 1), 1.0, order=24.0),
    ], ids=["omega_gram", "psi_gram", "ball_l2_norm_sq"])
    def test_float_order_raises_before_the_cache(self, call):
        _angular_grams.cache_clear()
        with pytest.raises(ValueError, match="quadrature order"):
            call()
        assert _angular_grams.cache_info().misses == 0

    @pytest.mark.parametrize("order", [4, 24, 48, 256])
    def test_legendre_table_matches_the_oracle(self, order):
        x = np.cos(gauss_legendre(0.0, math.pi, order)[0])
        table = _legendre_table(41, x)
        assert all(np.array_equal(table[ell, m], _assoc(ell, m, x))
                   for ell in range(42) for m in range(43))


class TestDfBound:
    def test_pure_degree_one_saturates(self):
        for r in (0.3, 1.0, 3.0):
            rep = check_df_bound(
                HarmonicExpansion({(1, 0): 0.7, (1, 1): -1.2, (1, -1): 0.4}, truncation=1), r
            )
            assert abs(rep.ratio - 1.0) <= 1e-9

    @pytest.mark.parametrize("r", [1e-3, 0.3, 1.0, 1.5, 3.0, 3.5, 40.0])
    @pytest.mark.parametrize("mode", [(1, -1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("a", [1.0, -0.7, 3e5])
    def test_single_degree_one_coefficient_saturates_exactly(self, a, mode, r):
        # ratio = sqrt(a^2 N_1 / (a^2 N_1)), one product on both sides
        rep = check_df_bound(HarmonicExpansion({mode: a}, truncation=1), r)
        assert rep.ratio == 1.0

    @pytest.mark.parametrize(
        "coeffs",
        [{(1, 0): 1e200}, {(2, 1): 1e200}, {(1, 0): 1.0, (3, 0): 1e160}, {(1, 0): 1e-200}],
    )
    def test_squared_norms_past_float_range_raise(self, coeffs):
        # a^2 overflows or underflows: no (inf, inf, nan) or (0, 0, 0) report
        with pytest.raises(ValueError, match="float range"):
            check_df_bound(HarmonicExpansion(coeffs, truncation=3), 1.0)

    def test_higher_modes_only_dilute(self):
        rng = np.random.default_rng(17)
        for r in (0.3, 1.0, 3.0):
            for _ in range(50):
                rep = check_df_bound(random_expansion(rng, 4), r)
                assert rep.ratio <= 1.0 + 1e-9

    def test_ratio_formula(self):
        exp = HarmonicExpansion({(1, 0): 1.0, (2, 0): 2.0}, truncation=2)
        rep = check_df_bound(exp, 1.5)
        assert rep.df_at_center == pytest.approx(1.0 / math.sqrt(THREE_PI), rel=1e-14)
        # against the quadrature definitions of N_ell and nu
        l2 = math.sqrt(mode_norm_quad(1, 1.5) + 4.0 * mode_norm_quad(2, 1.5))
        assert rep.l2_norm == pytest.approx(l2, rel=1e-10)
        assert rep.ratio == pytest.approx(rep.df_at_center * math.sqrt(nu_quad(1.5)) / l2, rel=1e-10)

    def test_df_at_center_ignores_higher_modes(self):
        a = check_df_bound(HarmonicExpansion({(1, 1): 2.0}, truncation=1), 1.0)
        b = check_df_bound(
            HarmonicExpansion({(1, 1): 2.0, (3, -2): 5.0, (0, 0): 9.0}, truncation=3), 1.0
        )
        assert a.df_at_center == b.df_at_center
        assert b.l2_norm > a.l2_norm

    def test_zero_expansion(self):
        rep = check_df_bound(HarmonicExpansion({}, truncation=2), 1.0)
        assert rep == type(rep)(0.0, 0.0, 0.0)

    def test_nonfinite_coefficient_raises(self):
        # the expansion itself rejects it, so no ratio = nan comes back
        with pytest.raises(ValueError):
            check_df_bound(HarmonicExpansion({(1, 0): math.nan}, truncation=1), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_df_bound(HarmonicExpansion({(0, 0): 1.0}, truncation=0), 1.0)
        with pytest.raises(ValueError):
            check_df_bound(HarmonicExpansion({(1, 0): 1.0}, truncation=1), 0.0)

    @pytest.mark.parametrize("coeffs", [{}, {(0, 0): 1.0}, {(1, 0): 1.0}])
    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_nonfinite_radius_raises(self, coeffs, r):
        # an expansion with no ell >= 1 terms never reaches mode_norm
        with pytest.raises(ValueError, match="finite"):
            check_df_bound(HarmonicExpansion(coeffs, truncation=2), r)
