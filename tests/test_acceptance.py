"""End-to-end acceptance gate: one test per shipped numeric guarantee.

Each criterion below is a user-facing promise of the package, run at its
stated tolerance and wall-clock budget.  Tests print one PASS/FAIL line so a
plain `pytest -v -s tests/test_acceptance.py` reads as a checklist.  Two
sub-criteria are mathematically unattainable as stated and are kept as
strict xfails with the honest numbers in the reason rather than loosened:
the large-radius density ratio at r = 30 (test_criterion_01b) and the
n-th-root growth tolerance at n = 60 (test_criterion_07b).  Each has a
passing companion pinning what is actually true.
"""

import math
import time

import numpy as np
import pytest

from hypnorms.ballfield import (
    HarmonicExpansion,
    ball_l2_norm_sq,
    check_df_bound,
    mode_indices,
    omega_gram,
    psi_gram,
)
from hypnorms.bounds import NormDatum
from hypnorms.families import (
    CoverFamilyParams,
    FillingFamilyParams,
    GluingFamilyParams,
    cover_family,
    filling_family,
    gluing_family,
)
from hypnorms.fibering import (
    Word,
    X064_RELATOR,
    brown_status,
    exponent_sums,
    fibered_characters,
)
from hypnorms.homalg import (
    GROWTH_RATE,
    MONODROMY,
    SYMPLECTIC_FORM,
    fbar_power,
    mv_generator,
    mv_intersection,
    symplectic_check,
    twist_word_matrix,
)
from hypnorms.radial import mode_norm, nu
from hypnorms.tubefield import (
    TubeChart,
    competitor_norm_sq,
    remark_ratio,
    tube_form_norm,
    tube_l2_norm_sq,
    tube_volume,
)


def report(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


class Budget:
    """Wall-clock cap for one criterion."""

    def __init__(self, seconds: float):
        self.cap = seconds
        self.start = time.monotonic()

    def check(self, name: str) -> None:
        elapsed = time.monotonic() - self.start
        assert elapsed < self.cap, f"{name} took {elapsed:.2f}s, budget {self.cap}s"


def test_criterion_01a_density_small_radius():
    budget = Budget(1.0)
    r = 1e-3
    ratio = nu(r) / (4.0 * math.pi / 3.0 * r**3)
    report("criterion-1a", abs(ratio - 1.0) <= 0.01, f"nu(1e-3)/cubic model = {ratio:.6f} (tol 0.01)")
    budget.check("criterion-1a")


@pytest.mark.xfail(
    strict=True,
    reason="nu(30) = 6*pi*29 to machine precision: the large-radius behaviour is "
    "nu(r) = 6*pi*(r-1) + o(1), so nu(30)/(6*pi*30) = 29/30 = 0.9667, off by "
    "3.3e-2 against the 1e-2 tolerance.  The linear-in-r comparison only reaches "
    "1e-2 beyond r ~ 100.  Kept failing rather than moving the goalpost; "
    "test_criterion_01b_companion pins the exact offset form.",
)
def test_criterion_01b_density_large_radius():
    budget = Budget(1.0)
    ratio = nu(30.0) / (6.0 * math.pi * 30.0)
    budget.check("criterion-1b")
    report("criterion-1b", abs(ratio - 1.0) <= 0.01, f"nu(30)/(6 pi 30) = {ratio:.6f} (tol 0.01)")


def test_criterion_01b_companion_offset_form():
    budget = Budget(1.0)
    rel = abs(nu(30.0) / (6.0 * math.pi * 29.0) - 1.0)
    report("criterion-1b-companion", rel <= 1e-9, f"nu(30) = 6 pi (30-1) to rel {rel:.2e} (tol 1e-9)")
    budget.check("criterion-1b-companion")


def test_criterion_02_branch_constants():
    budget = Budget(1.0)
    c = math.sqrt(0.29 / nu(0.145))
    grid = np.geomspace(0.145, 50.0, 200)
    sup = max(math.sqrt(e / nu(e)) for e in grid)
    ok = abs(c - 4.78) <= 0.01 and sup < 3.5
    report("criterion-2", ok, f"sqrt(0.29/nu(0.145)) = {c:.4f} (4.78 +- 0.01); sup sqrt(eps/nu) = {sup:.4f} < 3.5")
    budget.check("criterion-2")


def test_criterion_03_gradient_bound_sharpness():
    budget = Budget(30.0)
    worst_pure = 0.0
    for r in (0.3, 1.0, 3.0):
        pure = HarmonicExpansion({(1, 0): 1.3}, truncation=1)
        worst_pure = max(worst_pure, abs(check_df_bound(pure, r).ratio - 1.0))
    modes = mode_indices(4, lmin=1)
    rng = np.random.default_rng(0)
    worst_mixed = 0.0
    for _ in range(200):
        coeffs = {mode: float(c) for mode, c in zip(modes, rng.normal(size=len(modes)))}
        worst_mixed = max(worst_mixed, check_df_bound(HarmonicExpansion(coeffs, truncation=4), 1.0).ratio)
    ok = worst_pure <= 1e-9 and worst_mixed <= 1.0 + 1e-9
    report(
        "criterion-3", ok,
        f"pure-mode |ratio-1| = {worst_pure:.2e} (tol 1e-9); worst of 200 random L=4 ratios = {worst_mixed:.6f} <= 1+1e-9",
    )
    budget.check("criterion-3")


def test_criterion_04_orthogonality_and_parseval():
    budget = Budget(60.0)
    worst_offdiag = 0.0
    for make_gram in (psi_gram, omega_gram):
        for r in (0.5, 2.0):
            _, gram = make_gram(3, r)
            diag = np.sqrt(np.diag(gram))
            normalized = gram / np.outer(diag, diag)
            np.fill_diagonal(normalized, 0.0)
            worst_offdiag = max(worst_offdiag, float(np.abs(normalized).max()))
    rng = np.random.default_rng(3)
    modes = mode_indices(3, lmin=1)
    coeffs = {mode: float(c) for mode, c in zip(modes, rng.normal(size=len(modes)))}
    exp = HarmonicExpansion(coeffs, truncation=3)
    r = 1.5
    quad = ball_l2_norm_sq(exp, r, order=32)
    exact = sum(a * a * mode_norm(ell, r) for (ell, _), a in exp.items())
    parseval = abs(quad / exact - 1.0)
    ok = worst_offdiag < 1e-8 and parseval < 1e-6
    report(
        "criterion-4", ok,
        f"worst normalized off-diagonal = {worst_offdiag:.2e} (tol 1e-8); Parseval rel err = {parseval:.2e} (tol 1e-6)",
    )
    budget.check("criterion-4")


def test_criterion_05_tube_closed_forms_and_competitors():
    budget = Budget(30.0)
    worst = 0.0
    worst_margin = math.inf
    for eps in (0.05, 0.3, 1.0):
        for R in (0.4, 1.2, 2.5):
            t = TubeChart(eps, R)
            vol_quad = tube_l2_norm_sq(t, lambda r, th, z: (0.0, 0.0, np.cosh(r)))
            worst = max(worst, abs(vol_quad / tube_volume(t) - 1.0))
            form_quad = math.sqrt(tube_l2_norm_sq(t, lambda r, th, z: (0.0, 0.0, 1.0 / t.epsilon)))
            worst = max(worst, abs(form_quad / tube_form_norm(t) - 1.0))
            base = tube_form_norm(t) ** 2
            for s in (-0.1, -0.01, 0.01, 0.1):
                worst_margin = min(worst_margin, (competitor_norm_sq(t, s) - base) / base)
    ok = worst <= 1e-9 and worst_margin >= -1e-9
    report(
        "criterion-5", ok,
        f"closed-form rel err = {worst:.2e} on 3x3 grid (tol 1e-9); worst competitor margin = {worst_margin:+.2e} >= -1e-9",
    )
    budget.check("criterion-5")


def test_criterion_06_remark_ratio_band_and_trend():
    budget = Budget(1.0)
    grid = np.geomspace(1e-6, 1e-2, 25)
    quotients = []
    ratios = []
    for eps in grid:
        rr = remark_ratio(float(eps))
        quotients.append(rr.ratio / rr.predicted)
        ratios.append(rr.ratio)
    banded = 0.3 <= min(quotients) and max(quotients) <= 3.0
    trend = all(b > a for a, b in zip(quotients, quotients[1:])) and all(
        b < a for a, b in zip(ratios, ratios[1:])
    )
    report(
        "criterion-6", banded and trend,
        f"ratio/predicted in [{min(quotients):.3f}, {max(quotients):.3f}] within [0.3, 3.0]; "
        "quotient strictly increasing and raw ratio strictly decreasing over [1e-6, 1e-2]",
    )
    budget.check("criterion-6")


def test_criterion_07a_homology_action_exactness():
    budget = Budget(10.0)
    sympl = symplectic_check(MONODROMY, SYMPLECTIC_FORM)
    twist = twist_word_matrix() == MONODROMY
    mv_ok = True
    for n in range(61):
        gen = mv_generator(n)
        a, _, c, _ = gen
        if math.gcd(a, c) != 1 or mv_intersection(n) != (gen,):
            mv_ok = False
            break
    ok = sympl and twist and mv_ok
    report(
        "criterion-7a", ok,
        f"BtJB=J: {sympl}; twist word = monodromy: {twist}; MV rank-1 coprime generators n<=60: {mv_ok}",
    )
    budget.check("criterion-7a")


@pytest.mark.xfail(
    strict=True,
    reason="a_n = K lam^n + O(lam^-n) with K = (3 - 1/lam)/(lam - 1/lam) ~ 1.17082, "
    "so (a_n)^(1/n) - lam ~ lam log(K)/n: the error is 6.89e-3 at n = 60 and still "
    "2.07e-3 at n = 200.  A 1e-6 tolerance at n = 60 is off by four orders of "
    "magnitude; first n with error < 1e-6 is ~4.1e5.  Kept failing rather than "
    "loosened; test_criterion_07b_companion pins the attainable consecutive-ratio form.",
)
def test_criterion_07b_nth_root_growth():
    budget = Budget(10.0)
    a60 = fbar_power(60).a
    root = a60 ** (1.0 / 60.0)
    budget.check("criterion-7b")
    report("criterion-7b", abs(root - GROWTH_RATE) <= 1e-6, f"(a_60)^(1/60) = {root:.9f} vs {GROWTH_RATE:.9f} (tol 1e-6)")


def test_criterion_07b_companion_consecutive_ratio():
    budget = Budget(10.0)
    a60, a61 = fbar_power(60).a, fbar_power(61).a
    rel = abs(a61 / a60 / GROWTH_RATE - 1.0)
    root = a60 ** (1.0 / 60.0)
    ok = rel <= 1e-12 and abs(root / 2.62492431089795 - 1.0) <= 1e-9
    report(
        "criterion-7b-companion", ok,
        f"a_61/a_60 = (3+sqrt 5)/2 to rel {rel:.2e} (tol 1e-12); (a_60)^(1/60) pinned at {root:.14f}",
    )
    budget.check("criterion-7b-companion")


def test_criterion_08_fibering():
    budget = Budget(5.0)
    sums = exponent_sums(X064_RELATOR)
    found = fibered_characters(X064_RELATOR, 10)
    rng = np.random.default_rng(8)
    letters = (1, -1, 2, -2)
    mismatches = 0
    for _ in range(100):
        word = Word(tuple(int(rng.choice(letters)) for _ in range(int(rng.integers(1, 21)))))
        if not word.cyc_reduce().letters:
            continue
        p, q = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
        if (p, q) == (0, 0):
            p = 1
        k = int(rng.integers(0, len(word.letters)))
        rotated = Word(word.letters[k:] + word.letters[:k])
        if brown_status(word, (p, q)) is not brown_status(rotated, (p, q)):
            mismatches += 1
    ok = sums == (0, 0) and len(found) > 0 and mismatches == 0
    report(
        "criterion-8", ok,
        f"relator sums = {sums}; fibered characters at bound 10: {len(found)}; cyclic mismatches in 100 random words: {mismatches}",
    )
    budget.check("criterion-8")


def test_criterion_09_families():
    budget = Budget(10.0)
    base = NormDatum(vol=1.0, inj=1.0, thurston=1.0, harmonic=4.0)
    fam = cover_family(CoverFamilyParams(base, (1, 2, 4, 8, 16, 32)))
    ratios = [d.thurston / (d.harmonic * math.sqrt(d.vol)) for d in fam]
    cover_spread = max(ratios) / min(ratios) - 1.0

    fp = FillingFamilyParams()
    n_grid = np.unique(np.geomspace(100, 1_000_000, 25).astype(int))
    band = []
    raw = []
    for n in n_grid:
        pt = filling_family(fp, int(n))
        band.append(pt.ratio / math.sqrt(math.log(n)))
        raw.append(pt.ratio)
    banded = 1.75 <= min(band) and max(band) <= 1.82
    increasing = all(b > a for a, b in zip(raw, raw[1:]))

    gp = gluing_family(GluingFamilyParams(), 100)
    rate_ok = abs(gp.rate_ln - 0.128) <= 0.002 and abs(gp.rate_paper - 0.348) <= 0.001
    discrepancy = gp.rate_paper - gp.rate_ln

    ok = cover_spread <= 1e-12 and banded and increasing and rate_ok and discrepancy > 0.2
    report(
        "criterion-9", ok,
        f"cover ratio spread = {cover_spread:.2e} (tol 1e-12); filling band [{min(band):.4f}, {max(band):.4f}] "
        f"in [1.75, 1.82], increasing: {increasing}; gluing rate_ln = {gp.rate_ln:.6f} (0.128 +- 0.002) vs "
        f"rate_paper = {gp.rate_paper:.6f} (0.348 +- 0.001), discrepancy {discrepancy:+.4f} from the lam vs ln(lam) "
        "numerator convention, reported side by side",
    )
    budget.check("criterion-9")


def test_criterion_10_global_sandwich():
    budget = Budget(5.0)
    data = []
    base = NormDatum(vol=1.0, inj=1.0, thurston=1.0, harmonic=4.0)
    data.extend(cover_family(CoverFamilyParams(base, (1, 2, 4, 8, 16))))
    fp = FillingFamilyParams()
    for n in np.unique(np.geomspace(100, 1_000_000, 15).astype(int)):
        data.append(filling_family(fp, int(n)).datum)
    worst_low = math.inf
    worst_high = math.inf
    for d in data:
        low = math.pi * d.thurston / math.sqrt(d.vol)
        high = 10.0 * math.pi * d.thurston / math.sqrt(d.inj)
        worst_low = min(worst_low, d.harmonic - low)
        worst_high = min(worst_high, high - d.harmonic)
    ok = worst_low >= 0.0 and worst_high >= 0.0
    report(
        "criterion-10", ok,
        f"{len(data)} family data: min(harmonic - pi th/sqrt(vol)) = {worst_low:.3e} >= 0, "
        f"min(10 pi th/sqrt(inj) - harmonic) = {worst_high:.3e} >= 0",
    )
    budget.check("criterion-10")
