"""The inequality engine: sandwiches, sup-norm factors, and polytope duality.

Numeric bounds are plain records; empirically inconsistent inputs produce
flagged results rather than exceptions, because the same engine runs on model
data where a tripped flag is the interesting output.  Polytope norms are kept
in exact vertex form (rationals).  Their facet inequalities are found once per
norm, exactly, by double description in integer arithmetic; the gauge is then
max_i a_i.x over the facets and the dual norm max_j v_j.psi over the
vertices, so the only rounding is in those final float dot products.  The same
exact routine gives the vertices of the sup ball of a family of norms.

The sup-norm factor has two regimes split at inj = mu/2 (default mu = 0.29,
which needs positive first Betti number): an embedded ball of radius inj for
large injectivity radius, and a degree-counted ball of radius mu/2 below it.
The two formulas do NOT meet at the switch: the small-inj branch is exactly
sqrt(2) larger there (it pays for covering multiplicity), and the factor is
therefore upper semicontinuous only.  Both branches stay below 5/sqrt(inj).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple, Sequence

import numpy as np

from .radial import nu

__all__ = [
    "Bracket",
    "MainBounds",
    "NormDatum",
    "PolytopeNorm",
    "area_norm_bounds",
    "bsv_bounds",
    "bsv_witness",
    "degree_bound",
    "dual_norm",
    "inf_of_duals_check",
    "km_lower",
    "polytope_gauge",
    "split_lower_bound",
    "supnorm_factor",
    "thm_main_bounds",
]

MU_DEFAULT = 0.29


class Bracket(NamedTuple):
    lower: float
    upper: float


class MainBounds(NamedTuple):
    lower: float
    upper: float
    flagged: bool


@dataclass(frozen=True)
class NormDatum:
    """Geometric data of one manifold-and-class pair.

    harmonic is optional; when present (and check_consistency is left on) it
    must sit inside the two-sided comparison pi th/sqrt(vol) <= harmonic <=
    10 pi th/sqrt(inj) up to tol, the consistency gate for measured data.
    """

    vol: float
    inj: float
    thurston: float
    harmonic: float | None = None
    check_consistency: bool = True
    tol: float = 1e-9

    def __post_init__(self):
        for name in ("vol", "inj", "thurston", "harmonic"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.vol <= 0:
            raise ValueError(f"volume must be positive, got {self.vol}")
        if self.inj <= 0:
            raise ValueError(f"injectivity radius must be positive, got {self.inj}")
        if self.thurston < 0:
            raise ValueError(f"Thurston norm must be nonnegative, got {self.thurston}")
        if self.harmonic is not None:
            if self.harmonic < 0:
                raise ValueError(f"harmonic norm must be nonnegative, got {self.harmonic}")
            if self.check_consistency:
                lo = math.pi * self.thurston / math.sqrt(self.vol)
                hi = 10.0 * math.pi * self.thurston / math.sqrt(self.inj)
                if not lo * (1 - self.tol) <= self.harmonic <= hi * (1 + self.tol):
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
    lower = math.pi * d.thurston / math.sqrt(d.vol)
    upper = 10.0 * math.pi * d.thurston / math.sqrt(d.inj)
    return MainBounds(lower, upper, lower > upper)


def bsv_bounds(d: NormDatum, C1: float, C2: float) -> Bracket:
    """Cover-stable form: C1 th/vol <= ||phi|| <= C2 th with caller constants."""
    if not (0 < C1 < math.inf and 0 < C2 < math.inf):
        raise ValueError(f"constants must be finite and positive, got C1={C1}, C2={C2}")
    return Bracket(C1 * d.thurston / d.vol, C2 * d.thurston)


def bsv_witness(d: NormDatum) -> tuple[float, float]:
    """Constants making bsv_bounds reproduce thm_main_bounds for this datum."""
    return math.pi * math.sqrt(d.vol), 10.0 * math.pi / math.sqrt(d.inj)


def supnorm_factor(inj: float, b1_positive: bool, mu: float | None = None) -> float:
    """Pointwise-over-L2 factor for harmonic 1-forms: |alpha| <= factor ||alpha||.

    mu = None selects the default thick-part constant 0.29, which is only
    available when b1_positive; in that case a False guard makes the bound
    vacuous (returns 0 and warns).  Passing mu explicitly (e.g. the
    unconditional 0.1) computes the same two-branch formula for that value,
    but the <= 5/sqrt(inj) contract is calibrated to the default only.
    """
    if not 0 < inj < math.inf:
        raise ValueError(f"injectivity radius must be finite and positive, got {inj}")
    if mu is None:
        if not b1_positive:
            warnings.warn(
                "sup-norm factor is vacuous without positive first Betti number; "
                "pass mu=0.1 for the unconditional constant",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0.0
        mu = MU_DEFAULT
    if not 0 < mu < math.inf:
        raise ValueError(f"thick-part constant must be finite and positive, got {mu}")
    if inj >= mu / 2.0:
        return 1.0 / math.sqrt(nu(inj))
    return math.sqrt(mu / nu(mu / 2.0)) / math.sqrt(inj)


def degree_bound(mu: float, inj: float) -> float:
    """Max sheet count of a radius-mu/2 ball: mu/min(inj, mu/2), so always >= 2."""
    if not (0 < mu < math.inf and 0 < inj < math.inf):
        raise ValueError(f"need finite mu, inj > 0, got mu={mu}, inj={inj}")
    return mu / min(inj, mu / 2.0)


def area_norm_bounds(thurston: float) -> Bracket:
    """pi th <= ||phi||_A <= 2 pi th (the least-area sandwich)."""
    if not 0 <= thurston < math.inf:
        raise ValueError(f"Thurston norm must be finite and nonnegative, got {thurston}")
    return Bracket(math.pi * thurston, 2.0 * math.pi * thurston)


def km_lower(vol: float, thurston: float) -> float:
    """Scalar-curvature lower bound 2 pi th/(3 sqrt(vol)); 2/3 of the main one."""
    if not 0 < vol < math.inf:
        raise ValueError(f"volume must be finite and positive, got {vol}")
    if not 0 <= thurston < math.inf:
        raise ValueError(f"Thurston norm must be finite and nonnegative, got {thurston}")
    return 2.0 * math.pi * thurston / (3.0 * math.sqrt(vol))


def split_lower_bound(piece_norms: Sequence[float]) -> float:
    """Sum of per-piece norms, a lower bound for the glued manifold's norm."""
    if len(piece_norms) == 0:
        raise ValueError("need at least one piece")
    if not all(0 <= x < math.inf for x in piece_norms):
        raise ValueError(f"piece norms must be finite and nonnegative, got {piece_norms}")
    return float(sum(piece_norms))


def _as_fraction_vector(v) -> tuple[Fraction, ...]:
    out = []
    for c in v:
        if isinstance(c, (Rational, int, str)):
            out.append(Fraction(c))
        elif isinstance(c, float):
            if not math.isfinite(c):
                raise ValueError(f"vertex coordinate {c!r} is not finite")
            out.append(Fraction(c))  # exact binary value
        else:
            raise TypeError(f"vertex coordinate {c!r} is not rational-convertible")
    return tuple(out)


def _integer_row(v: tuple[Fraction, ...]) -> tuple[int, ...]:
    """The rational point v as integers (q_1, ..., q_d, m) with v = q/m, m > 0."""
    m = math.lcm(*(c.denominator for c in v))
    return tuple(c.numerator * (m // c.denominator) for c in v) + (m,)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _float_rows(rows) -> np.ndarray:
    """Integer rows (q..., m) as the float points q/m, each correctly rounded."""
    return np.array([[c / r[-1] for c in r[:-1]] for r in rows])


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
    _facet_array: np.ndarray = field(init=False, repr=False, compare=False)
    _vertex_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, vertices):
        vecs = tuple(_as_fraction_vector(v) for v in vertices)
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
        facet_array = _float_rows(facets)
        vertex_array = np.array([[float(c) for c in v] for v in vecs])
        facet_array.flags.writeable = vertex_array.flags.writeable = False
        object.__setattr__(self, "_facets", facets)
        object.__setattr__(self, "_facet_array", facet_array)
        object.__setattr__(self, "_vertex_array", vertex_array)

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def float_vertices(self) -> np.ndarray:
        return self._vertex_array.copy()


def _max_dot(p: PolytopeNorm, rows: np.ndarray, x) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (p.dim,):
        raise ValueError(f"vector of dimension {x.shape} against {p.dim}-dim norm")
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError(f"vector must be finite, got {x}")
    return float((rows @ x).max())


def polytope_gauge(p: PolytopeNorm, x) -> float:
    """The norm of x under p (Minkowski gauge of the unit ball): max over facets of a_i.x."""
    return _max_dot(p, p._facet_array, x)


def dual_norm(p: PolytopeNorm, psi) -> float:
    """sup over the unit ball of <psi, .>, attained at a vertex."""
    return _max_dot(p, p._vertex_array, psi)


def _sup_ball_vertices(norms: Sequence[PolytopeNorm]) -> np.ndarray:
    # unit ball of sup_n x_n = intersection of the unit balls, cut out by
    # every facet of every norm; its vertices are the polar of those facets
    facets = list(dict.fromkeys(a for p in norms for a in p._facets))
    return _float_rows(_polar_vertices(facets))


def inf_of_duals_check(
    norms: Sequence[PolytopeNorm], test_vectors: Sequence, rel_tol: float = 1e-9
) -> bool:
    """Does (sup_n x_n)* equal inf_n x_n* on the given test vectors?

    The left side is computed from the exact vertex description of the
    sup-norm unit ball (the intersection of the family's balls).  The answer
    is reported honestly: the identity can genuinely fail pointwise (the inf
    of duals need not be convex), and False is a meaningful result, not an
    error.
    """
    if len(norms) == 0:
        raise ValueError("need at least one norm in the family")
    dim = norms[0].dim
    if any(p.dim != dim for p in norms):
        raise ValueError("all norms must share one dimension")
    ball = _sup_ball_vertices(norms)
    for psi in test_vectors:
        psi = np.asarray(psi, dtype=float)
        if psi.shape != (dim,):
            raise ValueError(f"test vector of dimension {psi.shape} against {dim}")
        lhs = float(np.max(ball @ psi))
        rhs = min(dual_norm(p, psi) for p in norms)
        if abs(lhs - rhs) > rel_tol * max(abs(rhs), 1e-30):
            return False
    return True
