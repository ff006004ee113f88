"""Models of the three norm-growth example families.

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

The filling and gluing models have fixed constants, so their rows depend
on n alone; their two volumes are limit-model placeholders, not finite-n
corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from ._args import checked_int, checked_ints
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
    """A base datum with measured harmonic norm, and the cover degrees (each < 2^63)."""

    base: NormDatum
    degrees: tuple[int, ...]

    def __init__(self, base: NormDatum, degrees):
        # a tuple or a list goes on to the checks that name one degree; checked_ints
        # reads any other iterable of ints and refuses the rest
        if not isinstance(degrees, (tuple, list)):
            degrees = checked_ints(degrees, "cover degrees")
        degrees = tuple(checked_int(d, 1, 2**63 - 1, what="cover degree") for d in degrees)
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
    """The filling model's constant; it takes no arguments.

    vol_w is the limiting volume of the unfilled manifold, used for every
    n.  The two combined fibered classes have Thurston norm 1 each, and the
    core length and tube depth scales (existence constants) are 1.
    """

    vol_w: float = field(default=9.67280773079, init=False)


class FillingPoint(NamedTuple):
    """One filling-family row.

    harmonic_lower is tube-certified: it is the closed-form norm of dz/eps
    on the tube chart, and the tube suite checks on charts of the filling
    shape that no perturbed competitor falls below it.
    """

    datum: NormDatum
    harmonic_lower: float
    ratio: float


def filling_chart(n: int):
    """The tube about the short geodesic of the n-th filling, as a TubeChart.

    Its core length eps = 2/n^2 is twice the injectivity radius, and its
    depth is arcsinh(n).  n < 2^63.
    """
    from .tubefield import TubeChart  # only filling rows load the tube module

    checked_int(n, 1, 2**63 - 1, what="n")
    return TubeChart(epsilon=2.0 / float(n) ** 2, R=math.asinh(n))


def filling_family(p: FillingFamilyParams, n: int) -> FillingPoint:
    """One filled manifold: datum, tube-certified harmonic lower bound, ratio.

    thurston = n + 1 - 2, rounded once, and inj is half the core length of
    filling_chart(n); 2 <= n < 2^63.  harmonic_lower is the closed-form
    tube norm tube_form_norm of that chart; the tube suite (verify tube),
    not every row, integrates the perturbed competitors that certify it.
    The datum's harmonic norm is the lower bound itself, so it passes the
    two-sided consistency gate only when the model is in range, which is
    the point.  ratio = harmonic_lower/thurston grows like sqrt(log n).
    """
    from .tubefield import tube_form_norm

    chart = filling_chart(n)  # first, as it refuses an n that is not an int in [1, 2^63)
    if n < 2:
        raise ValueError("model needs n >= 2")
    thurston = float(n - 1)
    harmonic_lower = tube_form_norm(chart)
    datum = NormDatum(vol=p.vol_w, inj=chart.epsilon / 2.0, thurston=thurston,
                      harmonic=harmonic_lower)
    return FillingPoint(datum, harmonic_lower, harmonic_lower / thurston)


@dataclass(frozen=True)
class GluingFamilyParams:
    """The twist-glued tower's constant; it takes no arguments.

    vol_block is the volume of one glued block (the mapping-torus piece).
    Its homological stretch factor is homalg.GROWTH_RATE, and the
    norm-equivalence scale on the invariant line is 1.
    """

    vol_block: float = field(default=7.51768989647, init=False)


class GluingPoint(NamedTuple):
    vol: float
    log_th_lower: float
    rate_ln: float
    rate_paper: float


def gluing_family(p: GluingFamilyParams, n: int) -> GluingPoint:
    """Volume and log-Thurston growth after n gluings.

    log_th_lower = log(|a_n| + |c_n|) with (a_n, c_n) the exact integer
    generator coefficients, so the 84-digit entries at n = 200 never pass
    through a float.  Two candidate growth rates are reported side by side:
    rate_ln = log_th_lower/vol (what the integer data gives, tending to
    ln(GROWTH_RATE)/vol_block) and rate_paper = GROWTH_RATE/vol_block (the
    displayed constant it is usually quoted as); the toolkit does not
    adjudicate.  n <= 10^5, so every value is a finite float.
    """
    power = fbar_power(checked_int(n, 1, MAX_POWER, what="n"))
    vol = n * p.vol_block
    log_th_lower = math.log(abs(power.a) + abs(power.c))
    return GluingPoint(vol, log_th_lower, log_th_lower / vol, GROWTH_RATE / p.vol_block)
