"""Named invariant suites shared by the command-line front end and tests.

Each suite function runs a fixed list of checks and returns Check records
carrying a self-describing anchor string, the computed value, the
tolerance it was held to, and the verdict.  Tolerances can be overridden
per check name; randomized sweeps draw from a seeded generator so a fixed
configuration reproduces byte-identical reports.  The float suites (ball,
tube, dfbound) import numpy and the array modules when they run, so the
exact suites (homalg, bns) run without numpy.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass

from .fibering import (
    X064_RELATOR,
    Word,
    brown_status,
    exponent_sums,
    fibered_characters,
)
from .homalg import (
    GROWTH_RATE,
    MONODROMY,
    SYMPLECTIC_FORM,
    fbar_power,
    mv_generator,
    mv_intersection,
    symplectic_check,
    twist_word_matrix,
)
from .radial import mode_norm

__all__ = ["Check", "SUITES", "SUITE_KNOBS", "run_suite"]


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    value: float
    tol: float
    passed: bool


def _tol(overrides: dict[str, float] | None, name: str, default: float) -> float:
    return float(overrides.get(name, default)) if overrides else default


def suite_ball(order: int = 24, seed: int = 0, tol: dict | None = None) -> list[Check]:
    """Orthogonality of the scalar and covector mode families, plus Parseval."""
    import numpy as np

    from .ballfield import (
        HarmonicExpansion,
        ball_l2_norm_sq,
        expansion_field,
        mode_indices,
        omega_gram,
        psi_gram,
    )

    checks = []
    for r in (0.5, 2.0):
        for label, gram in (("psi", psi_gram), ("omega", omega_gram)):
            _, g = gram(3, r, order=order)
            scale = np.sqrt(np.outer(np.diag(g), np.diag(g)))
            off = np.abs(g / scale - np.eye(len(g))).max()
            name = f"{label}-orthogonality-r={r}"
            t = _tol(tol, name, 1e-8)
            checks.append(
                Check(name, f"distinct {label} modes orthogonal in L2(B_{r})",
                      float(off), t, bool(off <= t))
            )
    modes, g = omega_gram(3, 1.0, order=order)
    rel = max(
        abs(g[i, i] / mode_norm(ell, 1.0) - 1.0) for i, (ell, m) in enumerate(modes)
    )
    t = _tol(tol, "omega-diagonal", 1e-9)
    checks.append(
        Check("omega-diagonal", "diag gram = radial mode norm N_ell(1)",
              float(rel), t, bool(rel <= t))
    )
    rng = np.random.default_rng(seed)
    coeffs = {mode: float(rng.normal()) for mode in mode_indices(3, lmin=1)}
    exp = HarmonicExpansion(coeffs, truncation=3)
    quad = ball_l2_norm_sq(expansion_field(exp), 1.5, order=max(order, 24))
    exact = sum(a * a * mode_norm(ell, 1.5) for (ell, m), a in coeffs.items())
    rel = abs(quad / exact - 1.0)
    t = _tol(tol, "parseval", 1e-6)
    checks.append(
        Check("parseval", "quadrature norm = sum a_lm^2 N_ell (r=1.5)",
              float(rel), t, bool(rel <= t))
    )
    return checks


def suite_tube(order: int = 24, tol: dict | None = None) -> list[Check]:
    """Closed tube forms against 3D quadrature, and the competitor margin.

    The competitors also run on the charts of the filling family,
    eps = 2/n^2 and R = asinh n, which is what certifies its harmonic
    lower bounds.
    """
    import numpy as np

    from .tubefield import (
        TubeChart,
        competitor_norm_sq,
        tube_form_norm,
        tube_l2_norm_sq,
        tube_volume,
    )

    charts = [
        TubeChart(epsilon=e, R=R)
        for e in (0.05, 0.3, 1.0)
        for R in (0.4, 1.2, 2.5)
    ]
    filling = [TubeChart(epsilon=2.0 / n**2, R=math.asinh(n)) for n in (10, 10**3, 10**6)]
    vol_err = 0.0
    norm_err = 0.0
    margin = math.inf
    for t_ in charts:
        unit = lambda r, th, z: (0.0, 0.0, np.cosh(r))
        vol_err = max(vol_err, abs(tube_l2_norm_sq(t_, unit, order=order) / tube_volume(t_) - 1.0))
        core = lambda r, th, z: (0.0, 0.0, 1.0 / t_.epsilon)
        q = math.sqrt(tube_l2_norm_sq(t_, core, order=order))
        norm_err = max(norm_err, abs(q / tube_form_norm(t_) - 1.0))
    for t_ in charts + filling:
        base_sq = tube_form_norm(t_) ** 2
        for s in (0.1, -0.1, 0.01, -0.01):
            margin = min(margin, (competitor_norm_sq(t_, s) - base_sq) / base_sq)
    out = []
    t = _tol(tol, "tube-volume", 1e-9)
    out.append(Check("tube-volume", "quadrature = pi eps sinh^2 R (3x3 grid)",
                     float(vol_err), t, bool(vol_err <= t)))
    t = _tol(tol, "tube-form-norm", 1e-9)
    out.append(Check("tube-form-norm", "quadrature = sqrt((2 pi/eps) log cosh R)",
                     float(norm_err), t, bool(norm_err <= t)))
    t = _tol(tol, "tube-competitor", 1e-9)
    out.append(Check("tube-competitor", "perturbed competitors never beat the core form",
                     float(margin), t, bool(margin >= -t)))
    return out


def suite_dfbound(seed: int = 0, tol: dict | None = None) -> list[Check]:
    """Sharpness of the center-gradient bound on pure and random expansions."""
    import numpy as np

    from .ballfield import HarmonicExpansion, check_df_bound, mode_indices

    radii = (0.3, 1.0, 3.0)
    pure = HarmonicExpansion({(1, 0): 1.0}, truncation=1)
    pure_dev = max(abs(check_df_bound(pure, r).ratio - 1.0) for r in radii)
    rng = np.random.default_rng(seed)
    modes = mode_indices(4, lmin=1)
    worst = 0.0
    for _ in range(200):
        coeffs = {mode: float(rng.normal()) for mode in modes}
        exp = HarmonicExpansion(coeffs, truncation=4)
        worst = max(worst, max(check_df_bound(exp, r).ratio for r in radii))
    t1 = _tol(tol, "dfbound-sharp", 1e-9)
    t2 = _tol(tol, "dfbound-never-exceeded", 1e-9)
    return [
        Check("dfbound-sharp", "pure degree-1 mode saturates df sqrt(nu) = |f|",
              float(pure_dev), t1, bool(pure_dev <= t1)),
        Check("dfbound-never-exceeded", "200 random L=4 expansions stay below 1",
              float(worst), t2, bool(worst <= 1.0 + t2)),
    ]


def suite_homalg(tol: dict | None = None) -> list[Check]:
    """Exact integer identities: symplectic form, twist word, MV generators."""
    sympl = symplectic_check(MONODROMY, SYMPLECTIC_FORM)
    word = twist_word_matrix() == MONODROMY
    failures = 0
    for n in range(61):
        phi = mv_generator(n)
        meet = mv_intersection(n)
        if meet.rank != 1 or meet.basis != (phi,):
            failures += 1
        if math.gcd(phi[0], phi[2]) != 1:
            failures += 1
    ratio = fbar_power(61).a / fbar_power(60).a
    growth = abs(ratio / GROWTH_RATE - 1.0)
    t = _tol(tol, "homalg-growth", 1e-12)
    return [
        Check("homalg-symplectic", "BtJB=J", float(not sympl), 0.0, sympl),
        Check("homalg-twist-word", "composed transvections = monodromy matrix",
              float(not word), 0.0, word),
        Check("homalg-mv-generators", "rank-1 generators with coprime entries, n <= 60",
              float(failures), 0.0, failures == 0),
        Check("homalg-growth", "a(61)/a(60) = (3+sqrt 5)/2",
              float(growth), t, bool(growth <= t)),
    ]


def suite_bns(seed: int = 0, tol: dict | None = None) -> list[Check]:
    """Fibering data for the census relator plus cyclic-invariance sweep."""
    sums = exponent_sums(X064_RELATOR)
    found = fibered_characters(X064_RELATOR, 10)
    rng = random.Random(seed)
    mismatches = 0
    tried = 0
    while tried < 100:
        letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 20)))
        w = Word(letters).cyc_reduce()
        if not w.letters:
            continue
        tried += 1
        p = rng.randint(-5, 5)
        q = rng.randint(-5, 5)
        if p == 0 and q == 0:
            p = 1
        k = rng.randrange(len(w.letters))
        rotated = Word(w.letters[k:] + w.letters[:k])
        if brown_status(w, (p, q)) is not brown_status(rotated, (p, q)):
            mismatches += 1
    return [
        Check("bns-exponent-sums", "census relator abelianizes to (0,0)",
              float(abs(sums[0]) + abs(sums[1])), 0.0, sums == (0, 0)),
        Check("bns-fibered-characters", "primitive fibered characters exist, bound 10",
              float(len(found)), 1.0, len(found) >= 1),
        Check("bns-cyclic-invariance", "status equal on 100 random cyclic rotations",
              float(mismatches), 0.0, mismatches == 0),
    ]


SUITES = {
    "ball": suite_ball,
    "tube": suite_tube,
    "dfbound": suite_dfbound,
    "homalg": suite_homalg,
    "bns": suite_bns,
}


# a suite takes as parameters only the knobs it reads (order, seed), so the
# front end can refuse a knob where it has no effect
SUITE_KNOBS = {
    name: frozenset(inspect.signature(suite).parameters) - {"tol"}
    for name, suite in SUITES.items()
}


def run_suite(name: str, tol: dict | None = None, **knobs) -> list[Check]:
    """Run one suite with tol and the knobs given; ValueError for one it does not take."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    unread = sorted(knobs.keys() - SUITE_KNOBS[name])
    if unread:
        raise ValueError(f"suite {name!r} does not read {', '.join(unread)}")
    return SUITES[name](tol=tol, **knobs)
