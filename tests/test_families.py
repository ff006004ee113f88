"""Cover, filling, and gluing family models and their asymptotic laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypnorms.bounds import NormDatum, thm_main_bounds
from hypnorms.families import (
    CoverFamilyParams,
    FillingFamilyParams,
    FillingPoint,
    GluingFamilyParams,
    GluingPoint,
    cover_family,
    filling_family,
    gluing_family,
)
from hypnorms.homalg import GROWTH_RATE, fbar_power
from hypnorms.tubefield import TubeChart, tube_form_norm

BASE = NormDatum(vol=1.0, inj=1.0, thurston=1.0, harmonic=4.0)


class TestCoverParams:
    def test_needs_harmonic(self):
        with pytest.raises(ValueError):
            CoverFamilyParams(NormDatum(1.0, 1.0, 1.0), (1, 2))

    def test_degrees_must_start_at_one(self):
        with pytest.raises(ValueError):
            CoverFamilyParams(BASE, (2, 3))
        with pytest.raises(ValueError):
            CoverFamilyParams(BASE, ())

    def test_degrees_strictly_increasing(self):
        with pytest.raises(ValueError):
            CoverFamilyParams(BASE, (1, 3, 3))
        with pytest.raises(ValueError):
            CoverFamilyParams(BASE, (1, 5, 2))

    @pytest.mark.parametrize("degrees", [(1, 2.7), (1, 2.0), (True, 2), (1, "2"), (1, None)])
    def test_degrees_must_be_ints(self, degrees):
        # int() would truncate 2.7 to degree 2 and read True as degree 1
        with pytest.raises(ValueError, match="must be an int"):
            CoverFamilyParams(BASE, degrees)


class TestCoverFamily:
    def test_degree_one_is_base(self):
        fam = cover_family(CoverFamilyParams(BASE, (1,)))
        assert fam[0] == BASE

    def test_degree_four_scaling(self):
        # the ungated unit example: harmonic exactly halves the lower bound,
        # so the gate is turned off and the ratio invariance checked raw
        base = NormDatum(1.0, 1.0, 1.0, harmonic=1.0, check_consistency=False)
        fam = cover_family(CoverFamilyParams(base, (1, 4)))
        assert fam[1].vol == 4.0
        assert fam[1].thurston == 4.0
        assert fam[1].harmonic == 2.0
        ratio = fam[1].thurston / (fam[1].harmonic * math.sqrt(fam[1].vol))
        assert ratio == pytest.approx(1.0, rel=1e-15)

    def test_ratio_invariance(self):
        fam = cover_family(CoverFamilyParams(BASE, (1, 2, 3, 5, 8, 13, 21, 100)))
        ratios = [d.thurston / (d.harmonic * math.sqrt(d.vol)) for d in fam]
        assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-12)

    def test_inj_carried_over(self):
        fam = cover_family(CoverFamilyParams(BASE, (1, 7)))
        assert all(d.inj == BASE.inj for d in fam)

    def test_consistency_inherited_from_base(self):
        # every emitted datum passes the two-sided comparison when the base
        # does: construction would raise otherwise, and the flags agree
        fam = cover_family(CoverFamilyParams(BASE, (1, 2, 4, 64)))
        for d in fam:
            bounds = thm_main_bounds(d)
            assert not bounds.flagged
            assert bounds.lower <= d.harmonic <= bounds.upper

    @given(st.integers(2, 10_000))
    @settings(max_examples=60)
    def test_ratio_invariance_any_degree(self, d):
        fam = cover_family(CoverFamilyParams(BASE, (1, d)))
        r0 = fam[0].thurston / (fam[0].harmonic * math.sqrt(fam[0].vol))
        r1 = fam[1].thurston / (fam[1].harmonic * math.sqrt(fam[1].vol))
        assert r1 == pytest.approx(r0, rel=1e-12)


class TestFillingParams:
    def test_positivity(self):
        with pytest.raises(ValueError):
            FillingFamilyParams(th_alpha=0.0)
        with pytest.raises(ValueError):
            FillingFamilyParams(c2=-1.0)
        with pytest.raises(ValueError):
            FillingFamilyParams(vol_w=0.0)

    def test_defaults(self):
        p = FillingFamilyParams()
        assert p.vol_w == pytest.approx(9.67280773079, abs=0)
        assert p.c1 == p.c2 == 1.0


class TestFillingFamily:
    def test_model_fields(self):
        p = FillingFamilyParams()
        pt = filling_family(p, 10)
        assert isinstance(pt, FillingPoint)
        assert pt.datum.thurston == pytest.approx(10.0 + 1.0 - 2.0, abs=0)
        assert pt.datum.inj * 10**2 == pytest.approx(p.c1, abs=0)
        assert pt.datum.vol == p.vol_w
        assert pt.ratio == pytest.approx(pt.harmonic_lower / pt.datum.thurston, rel=1e-15)

    def test_harmonic_lower_is_tube_bound(self):
        p = FillingFamilyParams(c1=2.0, c2=3.0)
        n = 25
        pt = filling_family(p, n)
        chart = TubeChart(epsilon=2.0 * p.c1 / n**2, R=math.asinh(p.c2 * n))
        assert pt.harmonic_lower == pytest.approx(tube_form_norm(chart), rel=1e-12)

    def test_thurston_domain_error(self):
        with pytest.raises(ValueError):
            filling_family(FillingFamilyParams(), 1)  # thurston = 0 exactly
        with pytest.raises(ValueError):
            filling_family(FillingFamilyParams(th_alpha=0.1, th_beta=0.5), 10)

    def test_sqrt_log_band(self):
        # frozen band for the default constants; limiting value is sqrt(pi)
        p = FillingFamilyParams()
        grid = np.unique(np.geomspace(100, 10**6, 25).astype(int))
        band = [
            filling_family(p, int(n)).ratio / math.sqrt(math.log(n)) for n in grid
        ]
        assert min(band) >= 1.75
        assert max(band) <= 1.82

    def test_ratio_eventually_increasing(self):
        p = FillingFamilyParams()
        grid = np.unique(np.geomspace(100, 10**6, 25).astype(int))
        ratios = [filling_family(p, int(n)).ratio for n in grid]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_upper_sandwich_consistency(self):
        # certified lower bound never exceeds the upper comparison line
        p = FillingFamilyParams()
        for n in (2, 10, 100, 10**4, 10**6):
            pt = filling_family(p, n)
            upper = 10.0 * math.pi * pt.datum.thurston / math.sqrt(pt.datum.inj)
            assert pt.harmonic_lower <= upper
            assert not thm_main_bounds(pt.datum).flagged


class TestGluingParams:
    def test_defaults(self):
        p = GluingFamilyParams()
        assert p.vol_block == pytest.approx(7.51768989647, abs=0)
        assert p.lam == pytest.approx(GROWTH_RATE, abs=0)
        assert p.th_unit == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GluingFamilyParams(vol_block=0.0)
        with pytest.raises(ValueError):
            GluingFamilyParams(lam=1.0)
        with pytest.raises(ValueError):
            GluingFamilyParams(th_unit=0.0)


class TestGluingFamily:
    def test_volume_linear(self):
        p = GluingFamilyParams()
        assert gluing_family(p, 7).vol == pytest.approx(7 * p.vol_block, rel=1e-15)

    def test_log_norm_from_exact_entries(self):
        p = GluingFamilyParams()
        pt = gluing_family(p, 3)
        coeffs = fbar_power(3)
        assert pt.log_th_lower == pytest.approx(
            math.log(coeffs.a + coeffs.c), rel=1e-15
        )
        assert isinstance(pt, GluingPoint)

    def test_th_unit_shifts_log(self):
        a = gluing_family(GluingFamilyParams(), 40).log_th_lower
        b = gluing_family(GluingFamilyParams(th_unit=math.e), 40).log_th_lower
        assert b - a == pytest.approx(1.0, rel=1e-12)

    def test_rate_ln_at_100(self):
        pt = gluing_family(GluingFamilyParams(), 100)
        assert abs(pt.rate_ln - 0.128) <= 0.002
        assert pt.rate_ln == pytest.approx(
            math.log(GROWTH_RATE) / 7.51768989647, rel=1e-2
        )

    def test_rate_paper(self):
        pt = gluing_family(GluingFamilyParams(), 100)
        assert abs(pt.rate_paper - 0.348) <= 0.001
        assert pt.rate_paper == pytest.approx(0.34824979811673484, rel=1e-12)

    def test_increment_tends_to_log_stretch(self):
        p = GluingFamilyParams()
        d = gluing_family(p, 61).log_th_lower - gluing_family(p, 60).log_th_lower
        assert abs(d - math.log(GROWTH_RATE)) <= 1e-6

    def test_offset_uniformly_bounded(self):
        # log_th_lower(n) - n*ln(lam) converges to log((lam+1)/sqrt 5)
        p = GluingFamilyParams()
        lam = GROWTH_RATE
        offsets = [
            gluing_family(p, n).log_th_lower - n * math.log(lam)
            for n in range(10, 121)
        ]
        assert max(offsets) - min(offsets) < 1e-8
        assert offsets[-1] == pytest.approx(math.log((lam + 1.0) / math.sqrt(5.0)), rel=1e-12)

    def test_big_n_stays_exact(self):
        # 84-digit integer coefficients never pass through a float
        pt = gluing_family(GluingFamilyParams(), 200)
        assert math.isfinite(pt.log_th_lower)
        assert pt.log_th_lower == pytest.approx(200 * math.log(GROWTH_RATE) + 0.48121182506, rel=1e-10)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            gluing_family(GluingFamilyParams(), 0)

    def test_n_capped_at_ten_to_the_fifth(self):
        # the exact power at n has ~0.42 n digits; past the cap it is refused
        assert math.isfinite(gluing_family(GluingFamilyParams(), 10**5).log_th_lower)
        for n in (10**5 + 1, 2**63 - 1):
            with pytest.raises(ValueError, match=r"10\^5"):
                gluing_family(GluingFamilyParams(), n)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
    def test_n_must_be_an_int(self, bad):
        # 2.5 once reached IntMat.power as a TypeError, True answered for n = 1
        with pytest.raises(ValueError, match="must be an int"):
            gluing_family(GluingFamilyParams(), bad)
