"""The `exact` workload: polytope norms, integer twist algebra and fibering.

Same shape as fields.py: make_round(seed, k) lists (kind, inputs) pairs and
KINDS[kind] holds the run function and the check for each kind.  No
quadrature runs here; the work is one HiGHS LP per gauge and per vertex,
Fraction conversion, Hermite normal forms and word walks.  The batch both
builds norms and queries them, so cost moved from one to the other shows in
the same workload.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import refs
from hypnorms.bounds import (
    NormDatum,
    PolytopeNorm,
    dual_norm,
    inf_of_duals_check,
    polytope_gauge,
    supnorm_factor,
    thm_main_bounds,
)
from hypnorms.families import (
    CoverFamilyParams,
    GluingFamilyParams,
    cover_family,
    gluing_family,
)
from hypnorms.fibering import X064_RELATOR, Word, brown_status, fibered_characters
from hypnorms.homalg import (
    MONODROMY,
    SYMPLECTIC_FORM,
    IntMat,
    fbar_power,
    mv_generator,
    symplectic_check,
    transvection,
    twist_word_matrix,
)
from refs import Verdict

TOL_LP = 1e-9  # HiGHS gauges; observed <= 4e-16 against the closed forms
TOL_FLOAT = 1e-12
TOL_QUAD = 1e-10  # supnorm_factor goes through nu, a quadrature with epsrel 1e-10
# The census relator as published; the reference walks its own parse of it.
X064_TEXT = "a^2bab^-2a^-1b^2a^-1ba^-1b^-2"
GLUING_BLOCK_VOLUME = 7.51768989647
GOLDEN_SQUARED = (3 + math.sqrt(5)) / 2
MU = 0.29  # default thick-part constant of supnorm_factor
DIAMOND = ((1, 0), (0, 1), (-1, 0), (0, -1))
CROSSING_SQUARE = Fraction(707, 1000)


def _scale(rng: random.Random, d: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(d))


def _box(scale) -> tuple:
    return tuple(tuple(e * s for e, s in zip(signs, scale))
                 for signs in itertools.product((1, -1), repeat=len(scale)))


def _cross(scale) -> tuple:
    d = len(scale)
    return tuple(tuple(sign * s if j == i else Fraction(0) for j in range(d))
                 for i, s in enumerate(scale) for sign in (1, -1))


def _rank(vectors) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@functools.cache
def _sphere_shells(d: int) -> dict[int, list[tuple[int, ...]]]:
    """Integer points of [-4, 4]^d by squared length, one of each +-pair.

    Points on one sphere are all extreme points of their hull, so any
    symmetric subset that spans is a valid vertex list.
    """
    shells: dict[int, list[tuple[int, ...]]] = {}
    for v in itertools.product(range(-4, 5), repeat=d):
        if v > tuple(-x for x in v):
            shells.setdefault(sum(x * x for x in v), []).append(v)
    return {k: vs for k, vs in sorted(shells.items()) if len(vs) >= d + 2 and _rank(vs) == d}


def _hull(rng: random.Random, d: int) -> tuple:
    shells = _sphere_shells(d)
    points = shells[rng.choice(sorted(shells))]
    while True:
        half = rng.sample(points, d + 2)
        if _rank(half) == d:
            return tuple(half) + tuple(tuple(-x for x in v) for v in half)


def _vector(rng: random.Random, d: int) -> tuple[float, ...]:
    """Components of random sign within two decades of each other, all >= 1e-3.

    polytope_gauge silently drops components below about 1e-6 (the HiGHS
    feasibility tolerance), which fails the 1e-9 gauge check on rare draws;
    CHANGES.md records it as FOUND, and the draws here stay clear of it.
    """
    size = 10 ** rng.uniform(-1, 1)
    return tuple(rng.choice((1, -1)) * size * 10 ** rng.uniform(-1, 1) for _ in range(d))


def _word(rng: random.Random) -> tuple[int, ...]:
    while True:
        letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(6, 20)))
        if refs.cyclic_reduce(letters):
            return letters


def _killing_character(rng: random.Random, letters) -> tuple[int, int]:
    """A primitive character that vanishes on the word, so the walk closes up."""
    sa = sum((x > 0) - (x < 0) for x in letters if abs(x) == 1)
    sb = sum((x > 0) - (x < 0) for x in letters if abs(x) == 2)
    if (sa, sb) == (0, 0):
        while True:
            p, q = rng.randint(-5, 5), rng.randint(-5, 5)
            if math.gcd(p, q) == 1:
                return p, q
    g = math.gcd(sa, sb)
    return sb // g, -sa // g


def _primitive_class(rng: random.Random) -> tuple[int, ...]:
    while True:
        gamma = tuple(rng.randint(-2, 2) for _ in range(4))
        if any(gamma) and math.gcd(*gamma) == 1:
            return gamma


def make_round(seed: int, k: int) -> list[tuple[str, object]]:
    """The operations of round k for this seed, as (kind, inputs) pairs."""
    rng = random.Random(f"exact:{seed}:{k}")
    ops: list[tuple[str, object]] = []
    for d in (2, 3, 4):
        for kind, scale in (("box", (Fraction(1),) * d), ("cross", (Fraction(1),) * d),
                            ("box", _scale(rng, d)), ("cross", _scale(rng, d))):
            verts = _box(scale) if kind == "box" else _cross(scale)
            ops.append(("norm", (kind, scale, verts, _queries(rng, d, verts))))
        verts = _hull(rng, d)
        ops.append(("norm", ("hull", None, verts, _queries(rng, d, verts))))
    ops.append(("crossing", None))
    for d in (2, 3):
        kind, scale = rng.choice(("box", "cross")), _scale(rng, d)
        shrink = Fraction(rng.randint(1, 4), 5)
        ops.append(("nested", (kind, scale, shrink, tuple(_vector(rng, d) for _ in range(3)))))
    base = (rng.uniform(1.0, 10.0), math.exp(rng.uniform(math.log(0.02), math.log(2.0))),
            float(rng.randint(1, 5)), rng.uniform(0.1, 0.9))
    degrees = tuple(sorted({1, *rng.sample(range(2, 13), 4)}))
    ops.append(("covers", (base, degrees)))
    ops.append(("gluing", tuple((rng.randint(1, 200), math.exp(rng.uniform(math.log(0.02), 0.7)))
                                for _ in range(4))))
    ops.append(("powers", tuple(rng.randint(0, 400) for _ in range(6))))
    ops.append(("mv", tuple(rng.randint(0, 60) for _ in range(2))))
    ops.append(("twist", None))
    for perturb in (False, True):
        twists = tuple((_primitive_class(rng), rng.choice((1, -1))) for _ in range(4))
        entry = (rng.randrange(4), rng.randrange(4)) if perturb else None
        ops.append(("symplectic", (twists, entry)))
    ops.append(("fibered", rng.randint(15, 30)))
    for _ in range(6):
        letters = _word(rng)
        n = len(letters)
        ops.append(("brown", (letters, _killing_character(rng, letters),
                              (rng.randrange(1, n), rng.randrange(1, n)))))
    return ops


def _queries(rng: random.Random, d: int, verts) -> dict:
    xs = tuple(_vector(rng, d) for _ in range(6))
    return {
        "x": xs,
        "y": tuple(_vector(rng, d) for _ in range(6)),
        "vertices": tuple(rng.sample(verts, 2)),
        "scaled": tuple((rng.choice((-3.0, -0.5, 0.25, 2.0, 7.0)), x) for x in xs[:2]),
        "sums": ((xs[2], xs[3]), (xs[4], xs[5])),
    }


def warm_up() -> None:
    """One call to every entry point the workload uses."""
    square = PolytopeNorm(DIAMOND)
    polytope_gauge(square, (1.0, 0.5)), dual_norm(square, (1.0, 0.5))
    inf_of_duals_check([square, PolytopeNorm(_box((Fraction(1),) * 2))], [(1.0, 0.0)])
    datum = NormDatum(vol=1.0, inj=1.0, thurston=1.0, harmonic=4.0)
    thm_main_bounds(datum), supnorm_factor(0.5, True)
    cover_family(CoverFamilyParams(datum, (1, 2))), gluing_family(GluingFamilyParams(), 2)
    fbar_power(3), mv_generator(3)
    symplectic_check(twist_word_matrix() @ transvection((1, 0, 0, 0), 1), SYMPLECTIC_FORM)
    fibered_characters(X064_RELATOR, 1), brown_status(Word((1, 2, -1, -2)), (1, 0))


# -- polytope norms ----------------------------------------------------------


def _as_floats(v) -> tuple[float, ...]:
    return tuple(float(c) for c in v)


def run_norm(tr, inp):
    kind, scale, verts, q = inp
    p = tr.call("bounds.PolytopeNorm", PolytopeNorm, verts)

    def gauge(x):
        return tr.call("bounds.polytope_gauge", polytope_gauge, p, x)

    return {
        "x": [gauge(x) for x in q["x"]],
        "y": [tr.call("bounds.dual_norm", dual_norm, p, y) for y in q["y"]],
        "vertices": [gauge(_as_floats(v)) for v in q["vertices"]],
        "scaled": [gauge(tuple(c * xi for xi in x)) for c, x in q["scaled"]],
        "sums": [gauge(tuple(a + b for a, b in zip(x, y))) for x, y in q["sums"]],
    }


def check_norm(inp, out) -> Verdict:
    kind, scale, verts, q = inp
    v = Verdict()
    closed = {"box": (refs.box_gauge, refs.box_dual), "cross": (refs.cross_gauge, refs.cross_dual)}
    for y, value in zip(q["y"], out["y"]):
        v.close("bounds", value, refs.vertex_dual(verts, y), TOL_FLOAT)
    if kind in closed:
        gauge_ref, dual_ref = closed[kind]
        for x, value in zip(q["x"], out["x"]):
            v.close("bounds", value, gauge_ref(scale, x), TOL_LP)
        for y, value in zip(q["y"], out["y"]):
            v.close("bounds", value, dual_ref(scale, y), TOL_FLOAT)
    for value in out["vertices"]:
        v.close("bounds", value, 1.0, TOL_LP)
    g = dict(zip(q["x"], out["x"]))
    for (c, x), value in zip(q["scaled"], out["scaled"]):
        v.close("bounds", value, abs(c) * g[x], TOL_LP)
    for (x, y), value in zip(q["sums"], out["sums"]):
        v.require(value <= (g[x] + g[y]) * (1 + TOL_LP))
    for x in q["x"]:  # <x, y> <= gauge(x) dual(y)
        for y, dual in zip(q["y"], out["y"]):
            v.require(sum(a * b for a, b in zip(x, y)) <= g[x] * dual * (1 + TOL_LP))
    return v


def run_crossing(tr, inp):
    """The diamond and the 0.707 square cross; the identity fails at (1, 0.2)."""
    s = CROSSING_SQUARE
    norms = [tr.call("bounds.PolytopeNorm", PolytopeNorm, DIAMOND),
             tr.call("bounds.PolytopeNorm", PolytopeNorm, ((s, s), (-s, s), (s, -s), (-s, -s)))]
    return (tr.call("bounds.inf_of_duals_check", inf_of_duals_check, norms, [(1.0, 0.2)]),
            tr.call("bounds.inf_of_duals_check", inf_of_duals_check, norms,
                    [(1.0, 1.0), (1.0, -1.0)]))


def check_crossing(inp, out) -> Verdict:
    v = Verdict()
    v.require(out == (False, True))
    return v


def run_nested(tr, inp):
    """A norm and its shrunken copy: the sup ball is the smaller one, so the identity holds."""
    kind, scale, shrink, vectors = inp
    make = _box if kind == "box" else _cross
    norms = [tr.call("bounds.PolytopeNorm", PolytopeNorm, make(scale)),
             tr.call("bounds.PolytopeNorm", PolytopeNorm, make(tuple(shrink * s for s in scale)))]
    return tr.call("bounds.inf_of_duals_check", inf_of_duals_check, norms, vectors)


def check_nested(inp, out) -> Verdict:
    v = Verdict()
    v.require(out is True)
    return v


# -- sandwich bounds on family rows --------------------------------------------


def _check_sandwich(v: Verdict, datum, bounds, factor) -> None:
    lower = math.pi * datum.thurston / math.sqrt(datum.vol)
    upper = 10 * math.pi * datum.thurston / math.sqrt(datum.inj)
    v.close("bounds", bounds.lower, lower, TOL_FLOAT)
    v.close("bounds", bounds.upper, upper, TOL_FLOAT)
    v.require(bounds.flagged == (lower > upper))
    v.close("bounds", factor, refs.supnorm_factor_ref(datum.inj, MU), TOL_QUAD)
    v.require(factor <= 5 / math.sqrt(datum.inj))


def run_covers(tr, inp):
    (vol, inj, thurston, where), degrees = inp
    lo = math.pi * thurston / math.sqrt(vol)
    hi = 10 * math.pi * thurston / math.sqrt(inj)
    base = tr.call("bounds.NormDatum", NormDatum, vol=vol, inj=inj, thurston=thurston,
                   harmonic=lo + where * (hi - lo))
    params = tr.call("families.CoverFamilyParams", CoverFamilyParams, base, degrees)
    rows = tr.call("families.cover_family", cover_family, params)
    return base, [(row, tr.call("bounds.thm_main_bounds", thm_main_bounds, row),
                   tr.call("bounds.supnorm_factor", supnorm_factor, row.inj, True))
                  for row in rows]


def check_covers(inp, out) -> Verdict:
    _, degrees = inp
    base, rows = out
    v = Verdict()
    v.require(len(rows) == len(degrees))
    for d, (row, bounds, factor) in zip(degrees, rows):
        v.close("families", row.vol, base.vol * d, TOL_FLOAT)
        v.close("families", row.thurston, base.thurston * d, TOL_FLOAT)
        v.close("families", row.harmonic, base.harmonic * math.sqrt(d), TOL_FLOAT)
        v.require(row.inj == base.inj)
        _check_sandwich(v, row, bounds, factor)
    return v


def run_gluing(tr, inp):
    params = tr.call("families.GluingFamilyParams", GluingFamilyParams)
    out = []
    for n, inj in inp:
        point = tr.call("families.gluing_family", gluing_family, params, n)
        datum = tr.call("bounds.NormDatum", NormDatum, vol=point.vol, inj=inj,
                        thurston=math.exp(point.log_th_lower))
        out.append((point, datum, tr.call("bounds.thm_main_bounds", thm_main_bounds, datum),
                    tr.call("bounds.supnorm_factor", supnorm_factor, inj, True)))
    return out


def check_gluing(inp, out) -> Verdict:
    v = Verdict()
    for (n, _), (point, datum, bounds, factor) in zip(inp, out):
        a, _, c, _ = refs.block_power(n)
        log_th = math.log(a + c)
        v.close("families", point.vol, n * GLUING_BLOCK_VOLUME, TOL_FLOAT)
        v.close("families", point.log_th_lower, log_th, TOL_FLOAT)
        v.close("families", point.rate_ln, log_th / (n * GLUING_BLOCK_VOLUME), TOL_FLOAT)
        v.close("families", point.rate_paper, GOLDEN_SQUARED / GLUING_BLOCK_VOLUME, TOL_FLOAT)
        _check_sandwich(v, datum, bounds, factor)
    return v


# -- integer homology algebra -------------------------------------------------


def run_powers(tr, inp):
    return [tr.call("homalg.fbar_power", fbar_power, n) for n in inp]


def check_powers(inp, out) -> Verdict:
    v = Verdict()
    v.require([tuple(p) for p in out] == [refs.block_power(n) for n in inp])
    return v


def run_mv(tr, inp):
    return [tr.call("homalg.mv_generator", mv_generator, n) for n in inp]


def check_mv(inp, out) -> Verdict:
    v = Verdict()
    for n, gen in zip(inp, out):
        a, _, c, _ = refs.block_power(n)
        v.require(tuple(gen) == (a, 0, c, 0))
    return v


def run_twist(tr, inp):
    m = tr.call("homalg.twist_word_matrix", twist_word_matrix)
    return m, tr.call("homalg.symplectic_check", symplectic_check, m, SYMPLECTIC_FORM)


def check_twist(inp, out) -> Verdict:
    m, verdict = out
    v = Verdict()
    v.require(m == MONODROMY and verdict is True)
    v.require(refs.is_symplectic(m.rows, SYMPLECTIC_FORM.rows))
    return v


def run_symplectic(tr, inp):
    twists, entry = inp
    m = IntMat.identity(4)
    for gamma, sign in twists:
        m = m @ tr.call("homalg.transvection", transvection, gamma, sign)
    if entry is not None:
        i, j = entry
        m = IntMat([[x + (r == i and c == j) for c, x in enumerate(row)]
                    for r, row in enumerate(m.rows)])
    return m, tr.call("homalg.symplectic_check", symplectic_check, m, SYMPLECTIC_FORM)


def check_symplectic(inp, out) -> Verdict:
    twists, entry = inp
    m, verdict = out
    v = Verdict()
    expected = refs.is_symplectic(m.rows, SYMPLECTIC_FORM.rows)
    v.require(verdict is expected and (expected or entry is not None))
    return v


# -- fibering ----------------------------------------------------------------------


def run_fibered(tr, inp):
    return tr.call("fibering.fibered_characters", fibered_characters, X064_RELATOR, inp)


def check_fibered(inp, out) -> Verdict:
    v = Verdict()
    found = [(c.p, c.q) for c in out]
    v.require(len(found) == len(set(found)))
    v.require(set(found) == refs.fibered_ref(refs.word_letters(X064_TEXT), inp))
    return v


def _rotate(letters, k):
    return letters[k:] + letters[:k]


def run_brown(tr, inp):
    letters, chi, (k1, k2) = inp
    variants = (letters, _rotate(letters, k1), _rotate(letters, k2),
                tuple(-x for x in reversed(letters)))
    return [tr.call("fibering.brown_status", brown_status,
                    tr.call("fibering.Word", Word, w), chi).value for w in variants]


def check_brown(inp, out) -> Verdict:
    letters, (p, q), _ = inp
    v = Verdict()
    v.require(out == [refs.brown_ref(letters, p, q)] * 4)
    return v


KINDS = {
    "norm": (run_norm, check_norm, "bounds"),
    "crossing": (run_crossing, check_crossing, "bounds"),
    "nested": (run_nested, check_nested, "bounds"),
    "covers": (run_covers, check_covers, "families"),
    "gluing": (run_gluing, check_gluing, "families"),
    "powers": (run_powers, check_powers, "homalg"),
    "mv": (run_mv, check_mv, "homalg"),
    "twist": (run_twist, check_twist, "homalg"),
    "symplectic": (run_symplectic, check_symplectic, "homalg"),
    "fibered": (run_fibered, check_fibered, "fibering"),
    "brown": (run_brown, check_brown, "fibering"),
}
PROBES: tuple[str, ...] = ()
