"""The inequality engine: sandwiches, sup-norm factors, and polytope duality.

Numeric bounds are plain records; empirically inconsistent inputs produce
flagged results rather than exceptions, because the same engine runs on model
data where a tripped flag is the interesting output.  Polytope norms are kept
in exact vertex form (rationals).  Their facet inequalities are found once per
norm, exactly, by double description in integer arithmetic; the gauge is then
max_i a_i.x over the facets and the dual norm max_j v_j.psi over the
vertices, so the only rounding is in those final float dot products.  The same
exact routine gives the vertices of the sup ball of a family of norms.  The
module runs on the standard library alone: a few dozen float rows are no
array workload.

The sup-norm factor has two regimes split at inj = mu/2 (mu = 0.29, which
needs positive first Betti number): an embedded ball of radius inj for
large injectivity radius, and a degree-counted ball of radius mu/2 below it.
The two formulas do NOT meet at the switch: the small-inj branch is exactly
sqrt(2) larger there (it pays for covering multiplicity), and the factor is
therefore upper semicontinuous only.  Both branches stay below 5/sqrt(inj).
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational, Real
from operator import mul
from typing import NamedTuple, Sequence

from ._args import _shown, checked_real
from .radial import nu

__all__ = [
    "MainBounds",
    "NormDatum",
    "PolytopeNorm",
    "branch_constant",
    "dual_norm",
    "inf_of_duals_check",
    "polytope_gauge",
    "supnorm_factor",
    "thm_main_bounds",
]

MU = 0.29  # the thick-part constant of supnorm_factor
DUALS_REL_TOL = 1e-9  # relative gap at which inf_of_duals_check reports False
SANDWICH_REL_TOL = 1e-9  # relative slack of NormDatum's consistency gate


class MainBounds(NamedTuple):
    lower: float
    upper: float
    flagged: bool


def _sandwich(thurston: float, vol: float, inj: float) -> tuple[float, float]:
    # the two sides pi th/sqrt(vol) and 10 pi th/sqrt(inj) of the main comparison
    return math.pi * thurston / math.sqrt(vol), 10.0 * math.pi * thurston / math.sqrt(inj)


@dataclass(frozen=True)
class NormDatum:
    """Geometric data of one manifold-and-class pair.

    harmonic is optional; when present it must sit inside the two-sided
    comparison pi th/sqrt(vol) <= harmonic <= 10 pi th/sqrt(inj) up to the
    relative slack SANDWICH_REL_TOL, the consistency gate for measured data.
    """

    vol: float
    inj: float
    thurston: float
    harmonic: float | None = None

    def __post_init__(self):
        put = object.__setattr__
        put(self, "vol", checked_real(self.vol, what="vol", gt=0))
        put(self, "inj", checked_real(self.inj, what="inj", gt=0))
        put(self, "thurston", checked_real(self.thurston, what="thurston", ge=0))
        if self.harmonic is not None:
            put(self, "harmonic", checked_real(self.harmonic, what="harmonic", ge=0))
            lo, hi = _sandwich(self.thurston, self.vol, self.inj)
            if not lo * (1 - SANDWICH_REL_TOL) <= self.harmonic <= hi * (1 + SANDWICH_REL_TOL):
                raise ValueError(
                    f"harmonic norm {self.harmonic} outside the sandwich "
                    f"[{lo}, {hi}] for this datum"
                )


def thm_main_bounds(d: NormDatum) -> MainBounds:
    """Two-sided comparison pi th/sqrt(vol) <= ||phi|| <= 10 pi th/sqrt(inj).

    flagged signals lower > upper, which happens exactly when inj > 100 vol,
    up to rounding at inj = 100 vol; no hyperbolic manifold does that, so a
    tripped flag means the input datum is not geometric.
    """
    if d.thurston <= 0:
        raise ValueError("thm_main_bounds needs a nonzero class (thurston > 0)")
    lower, upper = _sandwich(d.thurston, d.vol, d.inj)
    return MainBounds(lower, upper, lower > upper)


@functools.cache
def branch_constant() -> float:
    """sqrt(MU / nu(MU/2)) = 4.78, supnorm_factor's constant below inj = MU/2.

    Computed on the first call and kept, not at import.
    """
    return math.sqrt(MU / nu(MU / 2.0))


def supnorm_factor(inj: float, b1_positive: bool) -> float:
    """Pointwise-over-L2 factor for harmonic 1-forms: |alpha| <= factor ||alpha||.

    The thick-part constant MU = 0.29 needs b1_positive; a False guard makes
    the bound vacuous (returns 0 and warns).  The factor stays <= 5/sqrt(inj).
    """
    inj = checked_real(inj, what="inj", gt=0)
    if not b1_positive:
        warnings.warn(
            "sup-norm factor is vacuous without positive first Betti number, "
            "which the constant mu = 0.29 needs",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    if inj >= MU / 2.0:
        return 1.0 / math.sqrt(nu(inj))
    return branch_constant() / math.sqrt(inj)


def _vertex_coordinate(c) -> Fraction:
    """c exactly: an int (not a bool), a Rational, a finite float or a rational string,
    0 or rounding to a normal float, so that the float rows of c and of 1/c are finite."""
    x = c
    try:
        # a Fraction is already exact; Fraction(x) would only rebuild it
        if type(x) is not Fraction and type(x) is not bool and isinstance(x, (Rational, float, str)):
            x = Fraction(x)  # a float's exact binary value
        if type(x) is Fraction and (not x or abs(float(x)) >= 2.0**-1022):
            return x
    except (ValueError, OverflowError, ZeroDivisionError):  # nan, +-inf, "x", "1/0", 10**400
        pass
    raise ValueError("vertex coordinate must be a finite rational number, 0 or of magnitude "
                     f"in [2^-1022, 2^1024), got {_shown(c)}")


def _integer_row(v: tuple[Fraction, ...]) -> tuple[int, ...]:
    """The rational point v as integers (q_1, ..., q_d, m) with v = q/m, m > 0."""
    m = math.lcm(*(c.denominator for c in v))
    return tuple(c.numerator * (m // c.denominator) for c in v) + (m,)


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _float_rows(rows) -> tuple[tuple[float, ...], ...]:
    """One of each pair of integer rows (+-q..., m), as q/m correctly rounded.

    The row sets here are centrally symmetric and a float dot product is odd
    in the row, so max |a.x| over the kept rows is max a.x over all of them.
    Raises ValueError when a row leaves the float range, as a facet of a very
    flat polytope can.
    """
    try:
        return tuple(tuple(c / r[-1] for c in r[:-1]) for r in rows if next(filter(None, r)) > 0)
    except OverflowError:
        raise ValueError("a facet or vertex of the polytope leaves the float range") from None


def _initial_cone(rows: list[tuple[int, ...]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """The first n independent rows B and the extreme rays of {y : B y <= 0}.

    Ray i is the integer multiple of -(B^-1 e_i): tight on every chosen row
    but row i.  Raises ValueError when the rows span less than the space.
    """
    n = len(rows[0])
    chosen: list[int] = []
    echelon: list[tuple[int, list[Fraction]]] = []
    for k, row in enumerate(rows):
        r = [Fraction(c) for c in row]
        for pivot, e in echelon:
            if r[pivot]:
                f = r[pivot] / e[pivot]
                r = [a - f * b for a, b in zip(r, e)]
        pivot = next((j for j, c in enumerate(r) if c), None)
        if pivot is not None:
            chosen.append(k)
            echelon.append((pivot, r))
            if len(chosen) == n:
                break
    else:
        raise ValueError("the points do not span the space, so their polar is unbounded")
    # Gauss-Jordan on [B | -I] leaves [I | -B^-1], whose columns are the rays
    a = [[Fraction(c) for c in rows[k]] + [Fraction(-(i == j)) for j in range(n)]
         for i, k in enumerate(chosen)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if a[i][col])
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    rays = []
    for j in range(n, 2 * n):
        col = [a[i][j] for i in range(n)]
        m = math.lcm(*(c.denominator for c in col))
        ray = [c.numerator * (m // c.denominator) for c in col]
        g = math.gcd(*ray)
        rays.append(tuple(c // g for c in ray))
    return chosen, rays


def _polar_vertices(points: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Vertices of the polar {a : p.a <= 1 for every point p}, exactly.

    Points and vertices are integer rows (q..., m) standing for q/m, m > 0.
    The points must be centrally symmetric and span the space, so that the
    polar is a bounded polytope; ValueError when they do not span.  The
    polar is the slice t = 1 of the cone {(a, t) : q.a <= m t, t >= 0},
    whose extreme rays come from double description (Motzkin et al. 1953):
    insert one inequality at a time, keep the rays on its feasible side, and
    join each adjacent pair it separates.  Two rays are adjacent exactly
    when no third ray is tight on every inequality tight at both (Fukuda and
    Prodon 1996); tight sets are bitmasks over the inequalities.  The facets
    of the hull of the points are the polar's vertices, and the vertices of
    an intersection of such hulls are the polar of the union of their facets.
    """
    n = len(points[0])
    rows = [(0,) * (n - 1) + (-1,)] + [p[:-1] + (-p[-1],) for p in points]
    chosen, rays = _initial_cone(rows)
    masks = [sum(1 << k for k in chosen if k != chosen[i]) for i in range(n)]
    done = set(chosen)
    for k, h in enumerate(rows):
        if k in done:
            continue
        bit = 1 << k
        vals = [_dot(h, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        joined, joined_masks = [], []
        for i in pos:
            for j in neg:
                common = masks[i] & masks[j]
                if common.bit_count() < n - 2 or any(
                    masks[l] & common == common for l in range(len(rays)) if l != i and l != j
                ):
                    continue
                ray = tuple(vals[i] * b - vals[j] * a for a, b in zip(rays[i], rays[j]))
                g = math.gcd(*ray)
                joined.append(tuple(c // g for c in ray))
                joined_masks.append(common | bit)
        keep = [i for i, v in enumerate(vals) if v <= 0]
        rays = [rays[i] for i in keep] + joined
        masks = [masks[i] | bit if vals[i] == 0 else masks[i] for i in keep] + joined_masks
    return rays


@dataclass(frozen=True)
class PolytopeNorm:
    """A polytope norm, stored as the exact vertex set of its unit ball.

    The vertex set must be centrally symmetric, span the space, and consist
    of genuine unit vectors of the induced gauge (no vertex strictly inside
    the hull of the others); all three are validated on construction.  The
    constructor also finds the facets a_i.x <= 1 of the ball exactly, and
    checks that every listed vertex has gauge max_i a_i.v exactly 1.
    Equality and hashing go by the vertices alone.
    """

    vertices: tuple[tuple[Fraction, ...], ...]
    _facets: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _facet_rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    _vertex_rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __init__(self, vertices):
        vecs = tuple(tuple(map(_vertex_coordinate, v)) for v in vertices)
        object.__setattr__(self, "vertices", vecs)
        if not vecs:
            raise ValueError("vertex list must be nonempty")
        dim = len(vecs[0])
        if any(len(v) != dim for v in vecs):
            raise ValueError("vertices must share one dimension")
        vset = set(vecs)
        for v in vecs:
            if tuple(-c for c in v) not in vset:
                raise ValueError(f"vertex set not centrally symmetric: missing -{v}")
        unique = list(dict.fromkeys(vecs))
        points = [_integer_row(v) for v in unique]
        facets = tuple(_polar_vertices(points))
        for v, (*q, m) in zip(unique, points):
            # gauge(v) = max over facets of a.q / (t m), exactly 1 iff this max is 0
            if max(_dot(a, q) - a[-1] * m for a in facets) != 0:
                g = max(Fraction(_dot(a, q), a[-1] * m) for a in facets)
                raise ValueError(f"listed vertex {v} has gauge {g}, not on the unit sphere")
        object.__setattr__(self, "_facets", facets)
        object.__setattr__(self, "_facet_rows", _float_rows(facets))
        object.__setattr__(self, "_vertex_rows", _float_rows(points))

    @property
    def dim(self) -> int:
        return len(self.vertices[0])


def _max_dot(rows, x, dim: int) -> float:
    """max a.x over all rows a (of _float_rows); ValueError unless x is dim finite reals."""
    # a string, a set or a mapping iterates to something other than its components;
    # plain floats and ints skip the slower Real check
    ordered = type(x) in (tuple, list) or not isinstance(x, (str, bytes, bytearray, Set, Mapping))
    try:
        v = tuple(x) if ordered else ()
        if len(v) == dim and ({float, int}.issuperset(map(type, v))
                              or all(isinstance(c, Real) for c in v)):
            v = tuple(map(float, v))
            if all(map(math.isfinite, v)):
                return max(abs(sum(map(mul, a, v))) for a in rows)
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"expected a finite vector of {dim} real numbers, got {x!r}")


def polytope_gauge(p: PolytopeNorm, x) -> float:
    """The norm of x under p (Minkowski gauge of the unit ball): max over facets of a_i.x."""
    return _max_dot(p._facet_rows, x, p.dim)


def dual_norm(p: PolytopeNorm, psi) -> float:
    """sup over the unit ball of <psi, .>, attained at a vertex."""
    return _max_dot(p._vertex_rows, psi, p.dim)


def inf_of_duals_check(norms: Sequence[PolytopeNorm], test_vectors: Sequence) -> bool:
    """Does (sup_n x_n)* equal inf_n x_n* on the given test vectors?

    The left side is computed from the exact vertex description of the
    sup-norm unit ball (the intersection of the family's balls), and the two
    sides agree when they differ by at most DUALS_REL_TOL relative.  The
    answer is reported honestly: the identity can genuinely fail pointwise
    (the inf of duals need not be convex), and False is a meaningful result,
    not an error.
    """
    if len(norms) == 0:
        raise ValueError("need at least one norm in the family")
    dim = norms[0].dim
    if any(p.dim != dim for p in norms):
        raise ValueError("all norms must share one dimension")
    # the sup ball is cut out by every facet of every norm: the polar of their union
    facets = list(dict.fromkeys(a for p in norms for a in p._facets))
    ball = _float_rows(_polar_vertices(facets))
    for psi in test_vectors:
        lhs = _max_dot(ball, psi, dim)
        rhs = min(dual_norm(p, psi) for p in norms)
        if abs(lhs - rhs) > DUALS_REL_TOL * max(abs(rhs), 1e-30):
            return False
    return True
