"""Parametric models of the three norm-growth example families.

Each family emits geometric data (volume, injectivity radius, Thurston
norm, harmonic norm or a certified lower bound for it) along a parameter
sweep, wired so the asymptotic law the family exists to exhibit can be
checked numerically:

* covering towers scale (vol, thurston) by the degree and the harmonic
  norm by its square root, so thurston/(harmonic*sqrt(vol)) is constant;
* the cusped filling model drives the injectivity radius to zero like
  1/n^2 while the harmonic-to-Thurston ratio grows like sqrt(log n);
* the twist-glued tower grows log(thurston) linearly in volume, with the
  slope read off exact integer data.

Volumes and the length constants in the filling model are limit-model
placeholders, not finite-n corrections; see the field docstrings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from ._args import checked_int, checked_ints, checked_real
from .bounds import NormDatum
from .homalg import GROWTH_RATE, MAX_POWER, fbar_power

__all__ = [
    "CoverFamilyParams",
    "FillingFamilyParams",
    "GluingFamilyParams",
    "FillingPoint",
    "GluingPoint",
    "cover_family",
    "filling_chart",
    "filling_family",
    "gluing_family",
]


@dataclass(frozen=True)
class CoverFamilyParams:
    """A base datum with measured harmonic norm, and the cover degrees."""

    base: NormDatum
    degrees: tuple[int, ...]

    def __init__(self, base: NormDatum, degrees):
        # a tuple or a list goes on to the checks that name one degree; checked_ints
        # reads any other iterable of ints and refuses the rest
        if not isinstance(degrees, (tuple, list)):
            degrees = checked_ints(degrees, "cover degrees")
        degrees = tuple(checked_int(d, 1, what="cover degree") for d in degrees)
        if base.harmonic is None:
            raise ValueError("cover base needs a harmonic norm")
        if not degrees or degrees[0] != 1:
            raise ValueError("degree list must start at 1")
        if any(a >= b for a, b in zip(degrees, degrees[1:])):
            raise ValueError("degrees must be strictly increasing")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "degrees", degrees)


def cover_family(p: CoverFamilyParams) -> list[NormDatum]:
    """Data along a tower of degree-d covers of the base.

    vol and thurston scale by d, harmonic by sqrt(d); inj is carried over
    unchanged as a lower bound (the true injectivity radius only grows up
    a cover).  The ratio thurston/(harmonic*sqrt(vol)) is then the same
    for every entry.
    """
    b = p.base
    return [
        NormDatum(
            vol=b.vol * d,
            inj=b.inj,
            thurston=b.thurston * d,
            harmonic=b.harmonic * math.sqrt(d),
        )
        for d in p.degrees
    ]


@dataclass(frozen=True)
class FillingFamilyParams:
    """Constants of the filling model.

    th_alpha and th_beta are the Thurston norms of the two fibered classes
    being combined; c1 and c2 are existence constants (core length scale
    and tube depth scale) with no computed values, so they default to 1;
    vol_w is the limiting volume of the unfilled manifold, used for every
    n in place of the unknown finite-n correction.
    """

    th_alpha: float = 1.0
    th_beta: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    vol_w: float = 9.67280773079

    def __post_init__(self):
        for name in ("th_alpha", "th_beta", "c1", "c2", "vol_w"):
            object.__setattr__(self, name, checked_real(getattr(self, name), what=name, gt=0))


class FillingPoint(NamedTuple):
    """One filling-family row.

    harmonic_lower is tube-certified: it is the closed-form norm of dz/eps
    on the tube chart, and the tube suite checks on charts of the filling
    shape that no perturbed competitor falls below it.
    """

    datum: NormDatum
    harmonic_lower: float
    ratio: float


def filling_chart(p: FillingFamilyParams, n: int):
    """The tube about the short geodesic of the n-th filling, as a TubeChart.

    Its core length eps = 2*c1/n^2 is twice the injectivity radius, and its
    depth is arcsinh(c2*n).  n < 2^63.
    """
    from .tubefield import TubeChart  # only filling rows load the tube module

    checked_int(n, 1, 2**63 - 1, what="n")
    return TubeChart(epsilon=2.0 * (p.c1 / float(n) ** 2), R=math.asinh(p.c2 * n))


def filling_family(p: FillingFamilyParams, n: int) -> FillingPoint:
    """One filled manifold: datum, tube-certified harmonic lower bound, ratio.

    thurston = n*th_alpha + th_beta - 2 (must be positive), and the tube
    about the short geodesic is filling_chart(p, n), with inj half its core
    length.  harmonic_lower is the closed-form tube norm tube_form_norm of
    that chart; the perturbed competitors that certify it as a lower bound
    are integrated on these charts by the tube suite (verify tube), not on
    every row.  The harmonic norm entry of the datum is the lower bound
    itself, so the datum passes the two-sided consistency gate only when
    the model is in range, which is the point.  ratio =
    harmonic_lower/thurston grows like sqrt(log n).  n < 2^63.
    """
    from .tubefield import tube_form_norm

    chart = filling_chart(p, n)  # first, as it refuses an n that is not an int in [1, 2^63)
    thurston = n * p.th_alpha + p.th_beta - 2.0
    if thurston <= 0:
        raise ValueError(f"model needs n*th_alpha + th_beta > 2, got n = {n}")
    harmonic_lower = tube_form_norm(chart)
    datum = NormDatum(vol=p.vol_w, inj=chart.epsilon / 2.0, thurston=thurston,
                      harmonic=harmonic_lower)
    return FillingPoint(datum, harmonic_lower, harmonic_lower / thurston)


@dataclass(frozen=True)
class GluingFamilyParams:
    """Constants of the twist-glued tower.

    vol_block is the volume of one glued block (the mapping-torus piece),
    lam its homological stretch factor ((3+sqrt 5)/2 for the frozen twist
    word; `lambda` is a keyword, hence the short name), and th_unit the
    norm-equivalence scale on the invariant line, a free model parameter
    defaulting to 1.
    """

    vol_block: float = 7.51768989647
    lam: float = GROWTH_RATE
    th_unit: float = 1.0

    def __post_init__(self):
        for name, lo in (("vol_block", 0), ("lam", 1), ("th_unit", 0)):
            object.__setattr__(self, name, checked_real(getattr(self, name), what=name, gt=lo))


class GluingPoint(NamedTuple):
    vol: float
    log_th_lower: float
    rate_ln: float
    rate_paper: float


def gluing_family(p: GluingFamilyParams, n: int) -> GluingPoint:
    """Volume and log-Thurston growth after n gluings.

    log_th_lower = log(th_unit * |a_n| + th_unit * |c_n|) with (a_n, c_n)
    the exact integer generator coefficients, computed as
    log(th_unit) + log(a_n + c_n) so the 84-digit entries at n = 200 never
    pass through a float.  Two candidate growth rates are reported side by
    side: rate_ln = log_th_lower/vol (what the integer data gives, tending
    to ln(lam)/vol_block) and rate_paper = lam/vol_block (the displayed
    constant it is usually quoted as); the toolkit does not adjudicate.
    Raises ValueError when vol or a rate leaves the float range, as for
    vol_block = 1e-320.
    """
    power = fbar_power(checked_int(n, 1, MAX_POWER, what="n"))
    vol = n * p.vol_block
    log_th_lower = math.log(p.th_unit) + math.log(abs(power.a) + abs(power.c))
    point = GluingPoint(
        vol=vol,
        log_th_lower=log_th_lower,
        rate_ln=log_th_lower / vol,
        rate_paper=p.lam / p.vol_block,
    )
    if not all(map(math.isfinite, point)):
        raise ValueError(f"gluing row n = {n} leaves the float range: {point}")
    return point
