"""Named invariant suites shared by the command-line front end and tests.

Each suite function runs a fixed list of checks and returns Check records
carrying a self-describing anchor string, the computed value, its default
tolerance and the rule that judges the value against a tolerance.  A suite
takes as parameters exactly the knobs it reads (order, seed), and the front
end refuses any other: `verify NAME` calls SUITES[NAME] with the flags
given, then applies any --tol override to the returned records.  Randomized
sweeps draw from a seeded generator so a fixed configuration reproduces
byte-identical reports.  The float suites (ball, tube, dfbound) import numpy
and the field modules when they run, so the exact suites (homalg, bns) run
without numpy.
"""

from __future__ import annotations

import math
import operator
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from .families import filling_chart
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

__all__ = ["Check", "SUITES"]


@dataclass(frozen=True)
class Check:
    """One invariant: value held to tol by the verdict rule ok, value <= tol unless given.

    A fixed check keeps its tolerance, so no --tol may name it.  The rule
    takes no part in equality or repr, so two runs of a suite compare equal.
    """

    name: str
    anchor: str
    value: float
    tol: float
    ok: Callable[[float, float], bool] = field(default=operator.le, compare=False, repr=False)
    fixed: bool = False

    @property
    def passed(self) -> bool:
        return bool(self.ok(self.value, self.tol))


def suite_ball(order: int = 24, seed: int = 0) -> list[Check]:
    """Orthogonality of the scalar and covector mode families, plus Parseval."""
    import numpy as np

    from .ballfield import (
        HarmonicExpansion,
        ball_l2_norm_sq,
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
            checks.append(
                Check(f"{label}-orthogonality-r={r}",
                      f"distinct {label} modes orthogonal in L2(B_{r})", float(off), 1e-8)
            )
    modes, g = omega_gram(3, 1.0, order=order)
    rel = max(
        abs(g[i, i] / mode_norm(ell, 1.0) - 1.0) for i, (ell, m) in enumerate(modes)
    )
    checks.append(
        Check("omega-diagonal", "diag gram = radial mode norm N_ell(1)", float(rel), 1e-9)
    )
    rng = np.random.default_rng(seed)
    coeffs = {mode: float(rng.normal()) for mode in mode_indices(3, lmin=1)}
    exp = HarmonicExpansion(coeffs, truncation=3)
    quad = ball_l2_norm_sq(exp, 1.5, order=max(order, 24))
    exact = sum(a * a * mode_norm(ell, 1.5) for (ell, m), a in coeffs.items())
    rel = abs(quad / exact - 1.0)
    checks.append(
        Check("parseval", "quadrature norm = sum a_lm^2 N_ell (r=1.5)", float(rel), 1e-6)
    )
    return checks


def suite_tube(order: int = 24) -> list[Check]:
    """Closed tube forms against 3D quadrature, and the competitor margin.

    The competitors also run on the charts of the filling family
    (families.filling_chart), which is what certifies its harmonic lower
    bounds.
    """
    import numpy as np

    from .tubefield import (
        TubeChart,
        competitor_margin,
        tube_form_norm,
        tube_l2_norm_sq,
        tube_volume,
    )

    charts = [
        TubeChart(epsilon=e, R=R)
        for e in (0.05, 0.3, 1.0)
        for R in (0.4, 1.2, 2.5)
    ]
    filling = [filling_chart(n) for n in (10, 10**3, 10**6)]
    vol_err = 0.0
    norm_err = 0.0
    for t_ in charts:
        unit = lambda r, th, z: (0.0, 0.0, np.cosh(r))
        vol_err = max(vol_err, abs(tube_l2_norm_sq(t_, unit, order=order) / tube_volume(t_) - 1.0))
        core = lambda r, th, z: (0.0, 0.0, 1.0 / t_.epsilon)
        q = math.sqrt(tube_l2_norm_sq(t_, core, order=order))
        norm_err = max(norm_err, abs(q / tube_form_norm(t_) - 1.0))
    margin = min(competitor_margin(t_, 48) for t_ in charts + filling)
    return [
        Check("tube-volume", "quadrature = pi eps sinh^2 R (3x3 grid)", float(vol_err), 1e-9),
        Check("tube-form-norm", "quadrature = sqrt((2 pi/eps) log cosh R)",
              float(norm_err), 1e-9),
        Check("tube-competitor", "perturbed competitors never beat the core form",
              float(margin), 1e-9, lambda v, t: v >= -t),
    ]


def suite_dfbound(seed: int = 0) -> list[Check]:
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
    return [
        Check("dfbound-sharp", "pure degree-1 mode saturates df sqrt(nu) = |f|",
              float(pure_dev), 1e-9),
        Check("dfbound-never-exceeded", "200 random L=4 expansions stay below 1",
              float(worst), 1e-9, lambda v, t: v <= 1.0 + t),
    ]


def suite_homalg() -> list[Check]:
    """Exact integer identities: symplectic form, twist word, MV generators."""
    sympl = symplectic_check(MONODROMY, SYMPLECTIC_FORM)
    word = twist_word_matrix() == MONODROMY
    failures = 0
    for n in range(61):
        phi = mv_generator(n)
        if mv_intersection(n) != (phi,):
            failures += 1
        if math.gcd(phi[0], phi[2]) != 1:
            failures += 1
    ratio = fbar_power(61).a / fbar_power(60).a
    growth = abs(ratio / GROWTH_RATE - 1.0)
    return [
        Check("homalg-symplectic", "BtJB=J", float(not sympl), 0.0, fixed=True),
        Check("homalg-twist-word", "composed transvections = monodromy matrix",
              float(not word), 0.0, fixed=True),
        Check("homalg-mv-generators", "rank-1 generators with coprime entries, n <= 60",
              float(failures), 0.0, fixed=True),
        Check("homalg-growth", "a(61)/a(60) = (3+sqrt 5)/2", float(growth), 1e-12),
    ]


def suite_bns(seed: int = 0) -> list[Check]:
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
              float(abs(sums[0]) + abs(sums[1])), 0.0, fixed=True),
        Check("bns-fibered-characters", "primitive fibered characters exist, bound 10",
              float(len(found)), 1.0, operator.ge, fixed=True),
        Check("bns-cyclic-invariance", "status equal on 100 random cyclic rotations",
              float(mismatches), 0.0, fixed=True),
    ]


SUITES = {
    "ball": suite_ball,
    "tube": suite_tube,
    "dfbound": suite_dfbound,
    "homalg": suite_homalg,
    "bns": suite_bns,
}
