"""Ball fields: harmonic convention anchors, quadrature, orthogonality, df bound.

The spherical-harmonic values pinned here were computed by hand from the
convention in the module docstring (real, orthonormal, no Condon-Shortley
phase); derivative checks use finite differences of eval_Psi, which only
relies on the scalar evaluation being right.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import lpmv

from hypnorms.ballfield import (
    BallField,
    BallPoint,
    CovectorFrame,
    HarmonicExpansion,
    ball_l2_norm_sq,
    check_df_bound,
    eval_Psi,
    eval_omega,
    expansion_field,
    mode_indices,
    omega_field,
    omega_gram,
    psi_gram,
    sph_harm,
    sph_harm_dphi,
    sph_harm_dtheta_over_sin,
    _omega_gram,
    _quad_nodes,
)
from hypnorms.radial import dpsi, mode_norm, nu, psi
from quad_oracles import full_mesh_omega_gram, full_mesh_psi_gram, mode_norm_quad, nu_quad

THREE_PI = 3.0 * math.pi


def random_expansion(rng, lmax, lmin=1):
    coeffs = {idx: rng.normal() for idx in mode_indices(lmax, lmin=lmin)}
    return HarmonicExpansion(coeffs, truncation=lmax)


def pointwise_l2_norm_sq(field, r, order):
    """Oracle for ball_l2_norm_sq: the same tensor grid, sampled point by point."""
    r_nodes, r_w, phi_nodes, phi_w, theta_nodes, theta_w = _quad_nodes(r, order)
    total = 0.0
    for ri, wr in zip(r_nodes, r_w):
        for phij, wphi in zip(phi_nodes, phi_w):
            weight = wr * math.sinh(ri) ** 2 * wphi * math.sin(phij) * theta_w
            for thetak in theta_nodes:
                total += weight * field(BallPoint(ri, phij, thetak)).norm() ** 2
    return total


class TestSphHarm:
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

    def test_index_validation(self):
        with pytest.raises(ValueError):
            sph_harm(1, 2, 0.3, 0.3)
        with pytest.raises(ValueError):
            sph_harm_dphi(2, -3, 0.3, 0.3)
        with pytest.raises(ValueError):
            sph_harm_dtheta_over_sin(0, 1, 0.3, 0.3)

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


class TestBallPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            BallPoint(-0.1, 0.5, 0.5)
        with pytest.raises(ValueError):
            BallPoint(1.0, 3.2, 0.5)
        with pytest.raises(ValueError):
            BallPoint(1.0, 0.5, 6.5)
        BallPoint(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_nonfinite_coordinates(self, slot, bad):
        coords = [1.0, 0.5, 0.5]
        coords[slot] = bad
        with pytest.raises(ValueError):
            BallPoint(*coords)

    def test_frame_norm(self):
        assert CovectorFrame(3.0, 4.0, 0.0).norm() == 5.0


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

    def test_coefficient_lookup(self):
        e = HarmonicExpansion({(1, -1): 2.5}, truncation=3)
        assert e.coefficient(1, -1) == 2.5
        assert e.coefficient(2, 0) == 0.0


class TestEvalOmega:
    def test_matches_finite_differences_of_Psi(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(40):
            ell = int(rng.integers(1, 5))
            m = int(rng.integers(-ell, ell + 1))
            r = rng.uniform(0.2, 3.0)
            phi = rng.uniform(0.2, math.pi - 0.2)
            th = rng.uniform(0.1, 2 * math.pi - 0.1)
            f = eval_omega(ell, m, BallPoint(r, phi, th))
            dr = (eval_Psi(ell, m, BallPoint(r + h, phi, th)) - eval_Psi(ell, m, BallPoint(r - h, phi, th))) / (2 * h)
            dphi = (eval_Psi(ell, m, BallPoint(r, phi + h, th)) - eval_Psi(ell, m, BallPoint(r, phi - h, th))) / (
                2 * h * math.sinh(r)
            )
            dth = (eval_Psi(ell, m, BallPoint(r, phi, th + h)) - eval_Psi(ell, m, BallPoint(r, phi, th - h))) / (
                2 * h * math.sinh(r) * math.sin(phi)
            )
            assert f.c_r == pytest.approx(dr, abs=1e-8, rel=1e-6)
            assert f.c_phi == pytest.approx(dphi, abs=1e-8, rel=1e-6)
            assert f.c_theta == pytest.approx(dth, abs=1e-8, rel=1e-6)

    def test_center_limits(self):
        p0 = BallPoint(0.0, 0.4, 1.0)
        assert eval_omega(0, 0, p0) == CovectorFrame(0.0, 0.0, 0.0)
        assert eval_omega(2, 1, p0) == CovectorFrame(0.0, 0.0, 0.0)
        assert eval_omega(5, -3, p0) == CovectorFrame(0.0, 0.0, 0.0)
        # each degree-one mode has |omega(0)| = 1/sqrt(3 pi), any direction
        for m in (-1, 0, 1):
            f = eval_omega(1, m, BallPoint(0.0, 0.9, 2.0))
            assert f.norm() == pytest.approx(1.0 / math.sqrt(THREE_PI), rel=1e-12)

    def test_center_approached_continuously(self):
        for m in (-1, 0, 1):
            far = eval_omega(1, m, BallPoint(1e-8, 0.9, 2.0))
            lim = eval_omega(1, m, BallPoint(0.0, 0.9, 2.0))
            for a, b in zip(far, lim):
                assert a == pytest.approx(b, abs=1e-12)

    def test_pointwise_norm_identity(self):
        # 3 pi |omega_10|^2 = (9/4)((psi_1' cos phi)^2 + (psi_1 sin phi / sinh r)^2)
        for r, phi in ((0.4, 0.3), (1.3, 0.9), (2.6, 2.1)):
            f = eval_omega(1, 0, BallPoint(r, phi, 0.3))
            lhs = THREE_PI * (f.c_r**2 + f.c_phi**2 + f.c_theta**2)
            rhs = 2.25 * (
                (dpsi(1, r) * math.cos(phi)) ** 2
                + (psi(1, r) * math.sin(phi) / math.sinh(r)) ** 2
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(
        ell=st.integers(min_value=1, max_value=4),
        r=st.floats(min_value=0.05, max_value=4.0),
        phi=st.floats(min_value=0.0, max_value=math.pi),
        theta=st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_mode_field_matches_eval(self, ell, r, phi, theta):
        m = -ell + 1 if ell > 1 else 0
        p = BallPoint(r, phi, theta)
        direct = eval_omega(ell, m, p)
        via_field = omega_field(ell, m)(p)
        for a, b in zip(direct, via_field):
            assert a == pytest.approx(b, rel=1e-14, abs=1e-300)


class TestQuadrature:
    def test_degree_one_mode_reproduces_nu(self):
        fld = expansion_field(
            HarmonicExpansion({(1, 0): math.sqrt(THREE_PI)}, truncation=1)
        )
        got = ball_l2_norm_sq(fld, 1.0)
        assert got == pytest.approx(nu(1.0), rel=1e-8)

    def test_grid_and_pointwise_paths_agree(self):
        f = omega_field(2, 1)
        fast = ball_l2_norm_sq(f, 0.8, order=8)
        slow = pointwise_l2_norm_sq(f, 0.8, order=8)
        assert fast == pytest.approx(slow, rel=1e-13)

    def test_mixed_expansion_matches_pointwise_oracle(self):
        # cross terms between modes of different degree, the ell = 0 term
        # (no differential) and a zero coefficient all pass through the Gram form
        exp = HarmonicExpansion({(0, 0): 5.0, (1, -1): 0.7, (2, 0): 0.0, (2, 2): -1.3,
                                 (3, 1): 0.4}, truncation=3)
        f = expansion_field(exp)
        fast = ball_l2_norm_sq(f, 1.1, order=6)
        assert fast == pytest.approx(pointwise_l2_norm_sq(f, 1.1, order=6), rel=1e-13)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        exp = random_expansion(rng, 4)
        fld = expansion_field(exp)
        direct = ball_l2_norm_sq(fld, 1.3)
        by_modes = sum(a * a * mode_norm(ell, 1.3) for (ell, m), a in exp.items())
        assert direct == pytest.approx(by_modes, rel=1e-6)

    def test_cross_term_by_polarization(self):
        f = omega_field(1, 0)
        g = omega_field(2, 1)
        plus = expansion_field(HarmonicExpansion({(1, 0): 1.0, (2, 1): 1.0}, truncation=2))
        minus = expansion_field(HarmonicExpansion({(1, 0): 1.0, (2, 1): -1.0}, truncation=2))
        inner = 0.25 * (ball_l2_norm_sq(plus, 1.0) - ball_l2_norm_sq(minus, 1.0))
        assert abs(inner) < 1e-8
        # sanity: the same polarization recovers a diagonal entry
        norm_f = ball_l2_norm_sq(f, 1.0)
        assert norm_f == pytest.approx(mode_norm(1, 1.0), rel=1e-9)
        assert ball_l2_norm_sq(g, 1.0) == pytest.approx(mode_norm(2, 1.0), rel=1e-9)

    def test_nonfinite_norm_raises(self):
        # sinh^2 overflows at the outer radial nodes, so the Gram form is not finite
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="nonfinite L2 norm"):
            ball_l2_norm_sq(omega_field(1, 0), 800.0, order=4)

    def test_rejects_plain_callable(self):
        f = omega_field(1, 0)
        with pytest.raises(TypeError):
            ball_l2_norm_sq(lambda p: f(p), 1.0, order=4)

    def test_zero_expansion(self):
        assert ball_l2_norm_sq(expansion_field(HarmonicExpansion({(0, 0): 1.0}, 1)), 1.0) == 0.0
        with pytest.raises(ValueError):
            ball_l2_norm_sq(expansion_field(HarmonicExpansion({}, 1)), 1.0, order=2)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            ball_l2_norm_sq(omega_field(1, 0), 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ball_l2_norm_sq(omega_field(1, 0), bad)
        with pytest.raises(ValueError):
            ball_l2_norm_sq(omega_field(1, 0), 1.0, order=2)


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
        G = _omega_gram(modes, r, 30)
        assert _gram_gap(G, full_mesh_omega_gram(modes, r, 30)) <= 1e-13

    @pytest.mark.parametrize("gram, lmax", [(omega_gram, 0), (omega_gram, 41),
                                            (psi_gram, -1), (psi_gram, 41)])
    def test_degree_range(self, gram, lmax):
        # omega_gram takes 1 <= lmax <= 40, psi_gram 0 <= lmax <= 40
        with pytest.raises(ValueError, match="lmax"):
            gram(lmax, 1.0, order=4)

    @pytest.mark.parametrize("gram", [omega_gram, psi_gram])
    def test_past_sinh_overflow_raises(self, gram):
        # sinh^2 of the outer radial nodes overflows; nan/inf entries used to come back
        with pytest.raises(ValueError, match="nonfinite"):
            gram(1, 800.0, order=4)


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
