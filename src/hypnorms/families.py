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

from .bounds import NormDatum
from .homalg import GROWTH_RATE, fbar_power

__all__ = [
    "CoverFamilyParams",
    "FillingFamilyParams",
    "GluingFamilyParams",
    "FillingPoint",
    "GluingPoint",
    "cover_family",
    "filling_family",
    "gluing_family",
]


@dataclass(frozen=True)
class CoverFamilyParams:
    """A base datum with measured harmonic norm, and the cover degrees."""

    base: NormDatum
    degrees: tuple[int, ...]

    def __init__(self, base: NormDatum, degrees):
        degrees = tuple(degrees)
        if any(type(d) is not int for d in degrees):  # int() reads 2.7 as 2, True as 1
            raise ValueError(f"each cover degree must be an int, got {degrees!r}")
        if base.harmonic is None:
            raise ValueError("cover base needs a harmonic norm")
        if not degrees or degrees[0] != 1:
            raise ValueError("degree list must start at 1")
        if any(d <= 0 for d in degrees) or any(
            a >= b for a, b in zip(degrees, degrees[1:])
        ):
            raise ValueError("degrees must be strictly increasing positive integers")
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
            check_consistency=b.check_consistency,
            tol=b.tol,
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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class FillingPoint(NamedTuple):
    """One filling-family row.

    harmonic_lower is tube-certified: it is the closed-form norm of dz/eps
    on the tube chart, and the tube suite checks on charts of the filling
    shape that no perturbed competitor falls below it.
    """

    datum: NormDatum
    harmonic_lower: float
    ratio: float


def filling_family(p: FillingFamilyParams, n: int) -> FillingPoint:
    """One filled manifold: datum, tube-certified harmonic lower bound, ratio.

    thurston = n*th_alpha + th_beta - 2 (must be positive), the core of the
    short geodesic has length 2*inj = 2*c1/n^2, and the embedded tube about
    it has depth arcsinh(c2*n).  harmonic_lower is the closed-form tube norm
    tube_form_norm of that chart; the perturbed competitors that certify it
    as a lower bound are integrated on charts of this shape by the tube
    suite (verify tube), not on every row.  The harmonic norm entry of the
    datum is the lower bound itself, so the datum passes the two-sided
    consistency gate only when the model is in range, which is the point.
    ratio = harmonic_lower/thurston grows like sqrt(log n).
    """
    from .tubefield import TubeChart, tube_form_norm  # numpy stays off the exact families

    thurston = n * p.th_alpha + p.th_beta - 2.0
    if thurston <= 0:
        raise ValueError(f"model needs n*th_alpha + th_beta > 2, got n = {n}")
    inj = p.c1 / float(n) ** 2
    chart = TubeChart(epsilon=2.0 * inj, R=math.asinh(p.c2 * n))
    harmonic_lower = tube_form_norm(chart)
    datum = NormDatum(vol=p.vol_w, inj=inj, thurston=thurston, harmonic=harmonic_lower)
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
        if self.vol_block <= 0:
            raise ValueError("block volume must be positive")
        if self.lam <= 1:
            raise ValueError("stretch factor must exceed 1")
        if self.th_unit <= 0:
            raise ValueError("norm scale must be positive")


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
    n outside [1, 10^5] raises ValueError: the exact power has ~0.42 n digits,
    a few hundredths of a second of work at the cap and over a second at 10^6.
    So does an n that is not an int (a float, a bool).
    """
    if type(n) is not int or not 1 <= n <= 10**5:
        raise ValueError(f"n must be an int in [1, 10^5], got {n!r}")
    power = fbar_power(n)
    vol = n * p.vol_block
    log_th_lower = math.log(p.th_unit) + math.log(abs(power.a) + abs(power.c))
    return GluingPoint(
        vol=vol,
        log_th_lower=log_th_lower,
        rate_ln=log_th_lower / vol,
        rate_paper=p.lam / p.vol_block,
    )
