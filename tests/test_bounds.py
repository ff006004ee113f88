"""Bounds engine: sandwich records, branch constants, exact polytope duality.

polytope_gauge reads the facets that the exact double description finds;
dual_norm takes the max over the vertices.  The polytope-duality oracles here
deliberately avoid that vertex-max shortcut: boundary points are produced by
the facet-form gauge in sampled directions, so agreement is evidence and not
circularity.  The HiGHS gauge LP and the qhull hulls appear only here, as
independent oracles for the facet form and the sup ball.
"""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from hypnorms import bounds
from hypnorms.bounds import (
    SANDWICH_REL_TOL,
    MainBounds,
    NormDatum,
    PolytopeNorm,
    branch_constant,
    dual_norm,
    inf_of_duals_check,
    polytope_gauge,
    supnorm_factor,
    thm_main_bounds,
)
from hypnorms.radial import nu

DIAMOND = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def boundary_point(p, direction):
    direction = np.asarray(direction, dtype=float)
    return direction / polytope_gauge(p, direction)


def sampled_dual(p, psi, n=720):
    """Dual norm as a sup of <psi, x> over densely sampled ball points.

    Two sampling families, both genuine ball points so the max is always a
    lower bound on the true dual value:

    - gauge-LP boundary points along sampled rays (fully independent of
      dual_norm, but a ray pierces a facet, never a vertex, so the gap at
      a vertex optimum is first order in the angular resolution);
    - spiky Dirichlet convex combinations of the vertices, which place a
      tail of samples within machine precision of each vertex and close
      that gap.
    """
    rng = np.random.default_rng(5)
    if p.dim == 2:
        dirs = [(math.cos(t), math.sin(t)) for t in np.linspace(0, 2 * math.pi, n, endpoint=False)]
    else:
        dirs = rng.normal(size=(n, p.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    psi = np.asarray(psi, dtype=float)
    best = max(float(psi @ boundary_point(p, u)) for u in dirs)
    verts = np.array(p.vertices, dtype=float)
    weights = rng.dirichlet([0.05] * len(verts), size=n)
    best_mix = float(((weights @ verts) @ psi).max())
    return max(best, best_mix)


def facet_dual(p, psi):
    """Dual norm as an LP over the H-representation of the ball (facet form)."""
    eq = ConvexHull(np.array(p.vertices, dtype=float)).equations
    res = linprog(
        c=-np.asarray(psi, dtype=float),
        A_ub=eq[:, :-1],
        b_ub=-eq[:, -1],
        bounds=(None, None),
        method="highs",
    )
    assert res.success
    return -float(res.fun)


def conditioned_polytope(rng, dim, count):
    """Symmetric rational polytope whose vertex normal cones are all wide.

    Near-equal radii keep every generated point extreme with a fat normal
    cone, so direction sampling lands on each vertex exactly; random integer
    polytopes (arbitrarily thin cones) are exercised against the facet LP
    oracle instead.
    """
    if dim == 2:
        angles = np.linspace(0, math.pi, count, endpoint=False) + rng.uniform(
            -0.1, 0.1, size=count
        )
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        pts = pts * rng.uniform(1.9, 2.0, size=(len(pts), 1))
    else:
        # rotated, radius-jittered cross-polytope: each vertex cone covers
        # about 1/(2 dim) of the sphere, far above the sampling resolution
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        radii = rng.uniform(1.9, 2.0, size=dim)
        pts = q.T * radii[:, None]
    sym = np.vstack([pts, -pts])
    hull = ConvexHull(sym)
    verts = [
        tuple(Fraction(round(c * 10**6), 10**6) for c in sym[i]) for i in hull.vertices
    ]
    return PolytopeNorm(verts)


def _gauge_lp(vertex_array, x):
    """gauge(x) = min sum(lam) s.t. V^T lam = x, lam >= 0, by HiGHS.

    HiGHS drops components below its feasibility tolerance (about 1e-6), so
    the oracle is trusted only on vectors whose components all exceed 1e-3.
    """
    res = linprog(
        c=np.ones(vertex_array.shape[0]),
        A_eq=vertex_array.T,
        b_eq=np.asarray(x, dtype=float),
        bounds=(0.0, None),
        method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


def hull_sup_support(norms, psi):
    """Support function of the sup ball, from a qhull halfspace intersection."""
    halfspaces = np.vstack([ConvexHull(np.array(p.vertices, dtype=float)).equations
                            for p in norms])
    ball = HalfspaceIntersection(halfspaces, np.zeros(norms[0].dim)).intersections
    return float(np.max(ball @ np.asarray(psi, dtype=float)))


@st.composite
def integer_hulls(draw, dim):
    """Symmetric hull of a few spanning integer points in [-5, 5]^dim."""
    count = draw(st.integers(dim, dim + 4))
    coord = st.integers(-5, 5)
    pts = np.array(draw(st.lists(st.tuples(*[coord] * dim), min_size=count, max_size=count)))
    assume(np.linalg.matrix_rank(pts) == dim)
    sym = np.vstack([pts, -pts])
    return PolytopeNorm([tuple(int(c) for c in sym[i]) for i in ConvexHull(sym).vertices])


def query_vectors(dim):
    """Vectors of random sign whose components all have size in [1e-3, 10]."""
    comp = st.builds(lambda sign, size: sign * size, st.sampled_from((1.0, -1.0)),
                     st.floats(min_value=1e-3, max_value=10.0))
    return st.lists(comp, min_size=dim, max_size=dim)


class TestNormDatum:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            NormDatum(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            NormDatum(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            NormDatum(1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            NormDatum(1.0, 1.0, 1.0, harmonic=-2.0)

    def test_consistency_gate(self):
        NormDatum(1.0, 1.0, 1.0, harmonic=5.0)
        NormDatum(1.0, 1.0, 1.0, harmonic=math.pi)  # boundary value passes
        with pytest.raises(ValueError, match="sandwich"):
            NormDatum(1.0, 1.0, 1.0, harmonic=100.0)
        with pytest.raises(ValueError, match="sandwich"):
            NormDatum(1.0, 1.0, 1.0, harmonic=1.0)

    @pytest.mark.parametrize("vol, inj, th", [(2.0, 0.5, 3.0), (0.7, 0.013, 1.9), (76.4, 0.3, 2.6)])
    def test_gate_edges_are_the_main_bounds(self, vol, inj, th):
        # the gate admits exactly [lower, upper] of thm_main_bounds widened by
        # the relative slack SANDWICH_REL_TOL on each side
        lower, upper, _ = thm_main_bounds(NormDatum(vol, inj, th))
        lo, hi = lower * (1 - SANDWICH_REL_TOL), upper * (1 + SANDWICH_REL_TOL)
        for edge in (lower, upper, lo, hi):
            assert NormDatum(vol, inj, th, harmonic=edge).harmonic == edge
        for outside in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf),
                        lower * (1 - 2 * SANDWICH_REL_TOL), upper * (1 + 2 * SANDWICH_REL_TOL)):
            with pytest.raises(ValueError, match="sandwich"):
                NormDatum(vol, inj, th, harmonic=outside)

    @pytest.mark.parametrize("field", ["vol", "inj", "thurston", "harmonic"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, field, bad):
        fields = dict(vol=1.0, inj=1.0, thurston=1.0, harmonic=None)
        fields[field] = bad
        with pytest.raises(ValueError, match="finite"):
            NormDatum(**fields)


class TestMainBounds:
    def test_unit_inputs(self):
        got = thm_main_bounds(NormDatum(1.0, 1.0, 1.0))
        assert got == MainBounds(math.pi, 10.0 * math.pi, False)

    def test_homogeneous_in_thurston(self):
        base = thm_main_bounds(NormDatum(2.0, 0.5, 1.0))
        scaled = thm_main_bounds(NormDatum(2.0, 0.5, 7.0))
        assert scaled.lower == pytest.approx(7.0 * base.lower, rel=1e-15)
        assert scaled.upper == pytest.approx(7.0 * base.upper, rel=1e-15)

    def test_flag_on_nongeometric_data(self):
        got = thm_main_bounds(NormDatum(0.001, 1.0, 1.0))
        assert got.flagged
        assert got.lower > got.upper

    def test_zero_class_rejected(self):
        with pytest.raises(ValueError):
            thm_main_bounds(NormDatum(1.0, 1.0, 0.0))

    def test_rounding_at_inj_equal_100_vol(self):
        # inj = 100 vol in floats, and rounding puts lower one ulp above upper
        d = NormDatum(vol=76.37982415147164, inj=7637.982415147164, thurston=2.6251833548202748)
        got = thm_main_bounds(d)
        assert got.flagged == (got.lower > got.upper)
        assert got.lower == pytest.approx(got.upper, rel=1e-15)

    @given(
        vol=st.floats(min_value=1e-3, max_value=1e4),
        inj=st.floats(min_value=1e-4, max_value=10.0),
        th=st.floats(min_value=1e-6, max_value=1e6),
    )
    # at inj = 100 vol rounding can put lower one ulp above upper
    @example(vol=0.06550770429955353, inj=6.550770429955353, th=788723.3511357245)
    def test_ordered_whenever_geometric(self, vol, inj, th):
        got = thm_main_bounds(NormDatum(vol, inj, th))
        assert got.flagged == (got.lower > got.upper)
        if inj <= 100.0 * vol:
            assert got.lower <= got.upper * (1.0 + 1e-15)


class TestSupnormFactor:
    def test_thick_case(self):
        got = supnorm_factor(1.0, True)
        assert got == pytest.approx(1.0 / math.sqrt(nu(1.0)), rel=1e-14)
        assert got <= 3.5 < 5.0

    def test_thin_case(self):
        got = supnorm_factor(0.01, True)
        assert abs(got - 47.8) < 0.1 * 10  # 4.78 +- 0.01 per 1/sqrt(inj) unit
        assert abs(got * math.sqrt(0.01) - 4.78) < 0.01
        assert got <= 5.0 / math.sqrt(0.01)

    def test_branch_formula_identity(self):
        # the displayed identity: 1/sqrt(nu(0.145)) = sqrt(0.29/nu(0.145))/sqrt(0.29)
        lhs = 1.0 / math.sqrt(nu(0.145))
        rhs = math.sqrt(0.29 / nu(0.145)) / math.sqrt(0.29)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_branch_constant_is_computed_once(self, monkeypatch):
        first = branch_constant()
        monkeypatch.setattr(bounds, "nu", None)  # a recomputation would call None
        assert branch_constant() == first
        assert supnorm_factor(0.01, True) == first / math.sqrt(0.01)

    def test_branch_constant_is_the_thin_side_constant(self):
        # the nu table's branch-constant check and the thin branch read one expression
        assert branch_constant() == math.sqrt(0.29 / nu(0.145))
        for inj in (0.01, 1e-6, math.nextafter(0.145, 0.0)):
            assert supnorm_factor(inj, True) == branch_constant() / math.sqrt(inj)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the two branches do not meet at inj = mu/2: the thin-side formula "
            "sqrt(mu/nu(mu/2))/sqrt(inj) is exactly sqrt(2) times the thick-side "
            "1/sqrt(nu(inj)) there, because it pays a factor for covering "
            "multiplicity.  The jump is pinned in the test below."
        ),
    )
    def test_continuity_at_switch(self):
        below = supnorm_factor(0.145 - 1e-12, True)
        at = supnorm_factor(0.145, True)
        assert below == pytest.approx(at, rel=1e-12)

    def test_switch_jump_is_exactly_sqrt2(self):
        below = supnorm_factor(0.145 - 1e-12, True)
        at = supnorm_factor(0.145, True)
        assert below / at == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_cap_on_log_grid(self):
        for inj in np.geomspace(1e-6, 10.0, 50):
            assert supnorm_factor(inj, True) <= 5.0 / math.sqrt(inj)

    def test_vacuous_without_betti(self):
        with pytest.warns(RuntimeWarning, match="vacuous"):
            assert supnorm_factor(1.0, False) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            supnorm_factor(0.0, True)
        with pytest.raises(ValueError):
            supnorm_factor(-0.29, True)


class TestNonfiniteScalars:
    """Each scalar bound rejects nan and +-inf with ValueError."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda x: supnorm_factor(x, True), id="supnorm_factor-inj"),
        ],
    )
    def test_rejected(self, call, bad):
        with pytest.raises(ValueError, match="finite"):
            call(bad)


class TestPolytopeNorm:
    def test_construction_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            PolytopeNorm([(1, 0), (0, 1)])
        with pytest.raises(ValueError, match="span"):
            PolytopeNorm([(1, 0), (-1, 0)])
        with pytest.raises(ValueError, match="unit sphere"):
            PolytopeNorm(DIAMOND + [(Fraction(1, 2), 0), (Fraction(-1, 2), 0)])
        with pytest.raises(ValueError):
            PolytopeNorm([])
        with pytest.raises(ValueError, match="dimension"):
            PolytopeNorm([(1, 0), (-1, 0), (0, 1, 3)])

    def test_exact_vertex_storage(self):
        p = PolytopeNorm([("1/3", 0), (0, 1), ("-1/3", 0), (0, -1)])
        assert p.vertices[0][0] == Fraction(1, 3)

    def test_dual_square_example(self):
        p = PolytopeNorm(DIAMOND)
        assert dual_norm(p, [3, 4]) == 4.0
        assert dual_norm(p, [0, 0]) == 0.0

    def test_dimension_mismatch(self):
        p = PolytopeNorm(DIAMOND)
        with pytest.raises(ValueError):
            dual_norm(p, [1, 2, 3])
        with pytest.raises(ValueError):
            polytope_gauge(p, [1.0])

    def test_gauge_values(self):
        p = PolytopeNorm(DIAMOND)  # L1 ball
        assert polytope_gauge(p, [0.5, 0.5]) == pytest.approx(1.0, rel=1e-9)
        assert polytope_gauge(p, [3.0, -4.0]) == pytest.approx(7.0, rel=1e-9)

    def test_gauge_keeps_small_components(self):
        # the gauge LP dropped the 2.2e-07 component, below its feasibility
        # tolerance, and came back 8e-8 relative too small
        scale = (Fraction(1, 4), Fraction(6, 5), Fraction(3))
        cross = PolytopeNorm([tuple(sign * s if j == i else 0 for j in range(3))
                              for i, s in enumerate(scale) for sign in (1, -1)])
        x = (-0.45185812212845794, 0.035372658639590715, 2.2e-07)
        exact = float(sum(abs(Fraction(c)) / s for c, s in zip(x, scale)))
        assert abs(polytope_gauge(cross, x) - exact) <= 1e-15 * exact

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PolytopeNorm([(math.inf, 0.0), (-math.inf, 0.0), (0, 1), (0, -1)])
        p = PolytopeNorm(DIAMOND)
        for bad in ([math.nan, 1.0], [1.0, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                polytope_gauge(p, bad)
            with pytest.raises(ValueError, match="finite"):
                dual_norm(p, bad)

    @pytest.mark.parametrize("bad", [True, None, 1j, "x", "1/0"])
    def test_vertex_coordinate_rule(self, bad):
        # True built the diamond; None and 1j raised TypeError
        with pytest.raises(ValueError, match="^vertex coordinate must be a finite rational"):
            PolytopeNorm([(bad, 0), (0, 1), (-1, 0), (0, -1)])

    @pytest.mark.parametrize("c", [10**400, Fraction(1, 10**400), 5e-324],
                             ids=["10^400", "10^-400", "subnormal"])
    def test_coordinate_past_float_range(self, c):
        # each raised OverflowError "integer division result too large for a float", from
        # a vertex row (10^400) or from a facet row (the others)
        with pytest.raises(ValueError, match=r"^vertex coordinate must be .* 2\^1024\), got "):
            PolytopeNorm([(c, 0), (-c, 0), (0, 1), (0, -1)])

    @pytest.mark.parametrize("c", [2.0**-1022, 2.0**1023, sys.float_info.max])
    def test_coordinate_at_float_range_edge(self, c):
        p = PolytopeNorm([(c, 0), (-c, 0), (0, 1), (0, -1)])
        # the facet row holds 1/c, a subnormal float for c past 2^1022
        assert polytope_gauge(p, (c, 0.0)) == pytest.approx(1.0, rel=1e-14)
        assert dual_norm(p, (1.0, 0.0)) == c

    def test_flat_polytope_past_float_range(self):
        # every coordinate a normal float, but the facet through (1, 0) and
        # (2^1000, 2^-1022) has a normal of size ~2^2022: OverflowError from a facet row
        with pytest.raises(ValueError, match="leaves the float range"):
            PolytopeNorm([(1, 0), (-1, 0), (2**1000, 2.0**-1022), (-(2**1000), -(2.0**-1022))])

    def test_exact_coordinates_accepted(self):
        # ints, Fractions, rational strings and finite floats are read exactly
        p = PolytopeNorm([(Fraction(1, 2), "0"), (0.0, 1), ("-1/2", 0), (0, -1.0)])
        assert p.vertices[0] == (Fraction(1, 2), 0) and p.vertices[2] == (Fraction(-1, 2), 0)
        assert PolytopeNorm([(np.int64(1), 0), (0, 1), (-1, 0), (0, -1)]) == PolytopeNorm(DIAMOND)

    @pytest.mark.parametrize(
        "bad",
        [np.ones((2, 1)), 3.0, "12", b"12", {3.0, 4.0}, {0: 3.0, 1: 4.0}, [1.0],
         [1.0, 2.0, 3.0], [math.nan, 1.0], (1.0, -math.inf)],
        ids=["nested", "scalar", "string", "bytes", "set", "mapping", "short", "long", "nan",
             "inf"],
    )
    @pytest.mark.parametrize(
        "query",
        [
            pytest.param(polytope_gauge, id="gauge"),
            pytest.param(dual_norm, id="dual"),
            pytest.param(lambda p, x: inf_of_duals_check(
                [p, PolytopeNorm([(2, 0), (0, 2), (-2, 0), (0, -2)])], [x]), id="sup-ball"),
        ],
    )
    def test_query_vector_rejected(self, query, bad):
        # "12" must not be read as the vector (1, 2), b"12" as (49, 50), nor a
        # mapping as its keys
        with pytest.raises(ValueError):
            query(PolytopeNorm(DIAMOND), bad)

    def test_dual_of_dual_recovers_norm(self):
        # polar of the L1 ball is the sup ball; bipolar gives L1 back
        p = PolytopeNorm(DIAMOND)
        cube = PolytopeNorm([(1, 1), (1, -1), (-1, 1), (-1, -1)])
        for psi in ([3.0, 4.0], [1.0, 0.0], [-2.0, 5.0]):
            assert dual_norm(p, psi) == pytest.approx(
                max(abs(psi[0]), abs(psi[1])), rel=1e-12
            )
            assert dual_norm(cube, psi) == pytest.approx(
                polytope_gauge(p, psi), rel=1e-9
            )

    def test_dual_against_sampling_oracle_2d(self):
        rng = np.random.default_rng(23)
        for count in (5, 8, 11):
            p = conditioned_polytope(rng, 2, count)
            psi = rng.normal(size=2)
            assert dual_norm(p, psi) == pytest.approx(sampled_dual(p, psi), rel=1e-3)

    def test_dual_against_sampling_oracle_4d(self):
        # exact pair first: L1 and sup balls in dimension 4
        cross = PolytopeNorm(
            [tuple(int(i == j) * s for j in range(4)) for i in range(4) for s in (1, -1)]
        )
        psi = [3.0, -1.0, 4.0, 1.5]
        assert dual_norm(cross, psi) == 4.0  # max-abs coordinate
        import itertools

        cube = PolytopeNorm(list(itertools.product((1, -1), repeat=4)))
        assert dual_norm(cube, psi) == pytest.approx(sum(abs(x) for x in psi), rel=1e-12)
        # then a random conditioned instance against dense sampling
        rng = np.random.default_rng(29)
        p = conditioned_polytope(rng, 4, 8)
        psi4 = rng.normal(size=4)
        got = dual_norm(p, psi4)
        approx = sampled_dual(p, psi4, n=4000)
        assert approx <= got * (1 + 1e-9)
        assert got == pytest.approx(approx, rel=1e-3)

    def test_dual_against_facet_lp_oracle(self):
        # sharp-vertex integer polytopes, where sampling is cone-limited but
        # the facet LP is exact: the stronger route check, rel 1e-9
        rng = np.random.default_rng(31)
        for dim in (2, 4):
            for _ in range(3):
                pts = rng.integers(-5, 6, size=(dim + 4, dim))
                pts = pts[np.any(pts != 0, axis=1)]
                sym = np.vstack([pts, -pts])
                hull = ConvexHull(sym)
                verts = [tuple(int(c) for c in sym[i]) for i in hull.vertices]
                p = PolytopeNorm(verts)
                psi = rng.normal(size=dim)
                assert dual_norm(p, psi) == pytest.approx(facet_dual(p, psi), rel=1e-9)


class TestFacetFormAgainstOracles:
    """Random symmetric integer hulls in dimensions 2 to 4."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from((2, 3, 4)), data=st.data())
    def test_gauge_matches_lp_oracle(self, dim, data):
        p = data.draw(integer_hulls(dim))
        x = data.draw(query_vectors(dim))
        lp = _gauge_lp(np.array(p.vertices, dtype=float), x)
        assert polytope_gauge(p, x) == pytest.approx(lp, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from((2, 3, 4)), data=st.data())
    def test_gauge_is_a_norm(self, dim, data):
        p = data.draw(integer_hulls(dim))
        x = np.array(data.draw(query_vectors(dim)))
        y = np.array(data.draw(query_vectors(dim)))
        # scales that keep c * x clear of the subnormal range
        c = data.draw(st.sampled_from((1.0, -1.0))) * data.draw(st.floats(min_value=1e-6, max_value=1e3))
        gx, gy = polytope_gauge(p, x), polytope_gauge(p, y)
        assert gx > 0.0
        assert polytope_gauge(p, c * x) == pytest.approx(abs(c) * gx, rel=1e-12)
        assert polytope_gauge(p, x + y) <= (gx + gy) * (1 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from((2, 3, 4)), data=st.data())
    def test_inf_of_duals_matches_hull_oracle(self, dim, data):
        norms = data.draw(st.lists(integer_hulls(dim), min_size=2, max_size=3))
        psi = data.draw(query_vectors(dim))
        rhs = min(dual_norm(p, psi) for p in norms)
        gap = abs(hull_sup_support(norms, psi) - rhs) / rhs
        assume(not 1e-10 < gap < 1e-8)  # too close to the 1e-9 line for qhull to decide
        assert inf_of_duals_check(norms, [psi]) == (gap <= 1e-9)


class TestInfOfDuals:
    def test_single_norm_trivially_true(self):
        p = PolytopeNorm(DIAMOND)
        assert inf_of_duals_check([p], [[1.0, 0.2], [3.0, 4.0], [0.0, 0.0]])

    def test_scaled_family_true(self):
        p = PolytopeNorm(DIAMOND)
        half = PolytopeNorm([(Fraction(1, 2), 0), (0, Fraction(1, 2)),
                             (Fraction(-1, 2), 0), (0, Fraction(-1, 2))])
        assert dual_norm(half, [3, 4]) == pytest.approx(dual_norm(p, [3, 4]) / 2.0, rel=1e-12)
        assert inf_of_duals_check([p, half], [[1.0, 0.2], [3.0, 4.0], [-1.0, 1.0]])

    def test_crossing_family_is_honest_false(self):
        # diamond and a large axis square genuinely cross; the sup ball is an
        # octagon whose support at (1, 0.2) undercuts both duals
        diamond = PolytopeNorm(DIAMOND)
        s = Fraction(707, 1000)
        square = PolytopeNorm([(s, s), (-s, s), (s, -s), (-s, -s)])
        assert not inf_of_duals_check([diamond, square], [[1.0, 0.2]])
        # dense oracle confirms the gap is real, not numerical
        lhs = 0.0
        for t in np.linspace(0, 2 * math.pi, 4000, endpoint=False):
            u = np.array([math.cos(t), math.sin(t)])
            g = max(polytope_gauge(diamond, u), polytope_gauge(square, u))
            lhs = max(lhs, float(np.array([1.0, 0.2]) @ (u / g)))
        rhs = min(dual_norm(diamond, [1.0, 0.2]), dual_norm(square, [1.0, 0.2]))
        assert lhs < rhs - 0.05

    def test_one_dimensional_family(self):
        wide = PolytopeNorm([(2,), (-2,)])
        narrow = PolytopeNorm([(Fraction(1, 3),), (Fraction(-1, 3),)])
        assert inf_of_duals_check([wide, narrow], [[1.0], [-2.5]])

    def test_crossing_family_true_on_symmetric_vectors(self):
        diamond = PolytopeNorm(DIAMOND)
        s = Fraction(707, 1000)
        square = PolytopeNorm([(s, s), (-s, s), (s, -s), (-s, -s)])
        assert inf_of_duals_check([diamond, square], [[1.0, 1.0], [1.0, -1.0]])

    def test_tolerance_is_fixed(self):
        p = PolytopeNorm(DIAMOND)
        with pytest.raises(TypeError):
            inf_of_duals_check([p], [[1.0, 0.2]], rel_tol=1e-9)
        with pytest.raises(TypeError):
            inf_of_duals_check([p], [[1.0, 0.2]], 1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            inf_of_duals_check([], [[1.0, 0.0]])
        p = PolytopeNorm(DIAMOND)
        q = PolytopeNorm([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
        with pytest.raises(ValueError):
            inf_of_duals_check([p, q], [[1.0, 0.0]])
