"""Tube geometry in cylindrical coordinates and the invariant harmonic form.

A tube chart carries the metric dr^2 + sinh^2(r) dtheta^2 + cosh^2(r) dz^2
with z in [0, epsilon] (core geodesic length) and r in [0, R] (depth); the
volume element is sinh(r) cosh(r) dr dtheta dz.  The unique invariant harmonic
1-form with unit period around the core is omega = dz/epsilon:

    Vol            = pi epsilon sinh^2(R)
    ||omega||^2    = (2 pi / epsilon) log cosh(R)
    |omega|(r)     = 1/(epsilon cosh r), maximal at the core.

tube_lower_bound returns ||omega|| as the minimum over closed-and-coclosed
competitors with the same period, and on every call checks minimality
numerically, through competitor_margin, on the perturbation family
dz/epsilon + s d(bump(r) g(z)): the cross term integrates to zero over a
z-period, so the squared norm can only gain s^2 times a positive amount.  The bump sin^3(pi (r - 0.1 R)/(0.8 R)) is
C^2 and vanishes near the core and the boundary, exercising both boundary
conditions of the averaging argument without implementing the averaging
itself.

The closed forms (TubeChart, tube_volume, tube_form_norm, remark_ratio)
use math alone, so importing this module loads no numpy; tube_l2_norm_sq
and the competitors import it when they run, on the grids of quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from ._args import checked_real
from .quadrature import gauss_legendre, theta_grid

__all__ = [
    "TubeChart",
    "RemarkRatio",
    "competitor_margin",
    "competitor_norm_sq",
    "remark_ratio",
    "tube_form_norm",
    "tube_l2_norm_sq",
    "tube_lower_bound",
    "tube_volume",
]

@dataclass(frozen=True)
class TubeChart:
    """Cylindrical chart of a tube: core length and depth."""

    epsilon: float
    R: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", checked_real(self.epsilon, what="epsilon", gt=0))
        object.__setattr__(self, "R", checked_real(self.R, what="R", gt=0))


# Past this depth e^(-2R) is below an ulp, so log cosh R = R + log1p(e^(-2R))
# - log 2 agrees with log(cosh R) to the last bit and stays finite as cosh R
# overflows.  Below it the direct form is kept, because the closed form
# cancels at small R (1.6e-15 relative at 0.4).
_DEEP = 20.0
# Below this depth log(cosh R) cancels (4.4e-5 relative at R = 1e-6, and cosh R
# rounds to 1 from 1e-8 down) and log1p(2 sinh^2(R/2)) keeps every digit.  Above
# it the direct form stays, so the CLI's charts (all R >= 0.4) keep their bits.
_SHALLOW = 0.25


def tube_volume(t: TubeChart) -> float:
    """pi epsilon sinh^2(R); ValueError once that overflows or underflows to zero."""
    # the square of sqrt(pi) sqrt(eps) 2 sinh(R/2) cosh(R/2): a subnormal eps
    # keeps its digits under sqrt, and the half-angle factors stay finite
    # wherever the volume does
    try:
        half = 0.5 * t.R
        root = 2.0 * math.sqrt(math.pi) * math.sqrt(t.epsilon) * math.sinh(half) * math.cosh(half)
    except OverflowError:
        root = math.inf
    vol = root * root
    if not (math.isfinite(vol) and vol > 0.0):
        raise ValueError(f"tube volume pi eps sinh^2 R leaves the float range at {t}")
    return vol


def tube_form_norm(t: TubeChart) -> float:
    """L^2 norm of dz/epsilon over the tube: sqrt((2 pi/epsilon) log cosh R).

    Raises ValueError when the squared norm leaves the normal float range:
    past the largest float, or below sys.float_info.min, where a subnormal
    keeps only a few digits.
    """
    if t.R < _SHALLOW:
        log_cosh = math.log1p(2.0 * math.sinh(0.5 * t.R) ** 2)
    elif t.R < _DEEP:
        log_cosh = math.log(math.cosh(t.R))
    else:
        log_cosh = t.R + math.log1p(math.exp(-2.0 * t.R)) - math.log(2.0)
    norm_sq = 2.0 * math.pi / t.epsilon * log_cosh
    if not sys.float_info.min <= norm_sq < math.inf:
        raise ValueError(f"tube form norm leaves the float range at {t}")
    return math.sqrt(norm_sq)


def tube_l2_norm_sq(
    t: TubeChart,
    field: Callable[..., tuple],
    order: int = 24,
) -> float:
    """integral over the tube of |field|^2 dVol, tensor quadrature.

    Gauss-Legendre in r and z with `order` nodes each.  field(r, theta, z)
    is called once, on broadcast arrays of shapes (order, 1, 1),
    (1, 2*order, 1) and (1, 1, order), and returns coordinate components
    (w_r, w_theta, w_z) that broadcast to the grid; a constant such as 0.0
    is fine, so field must use numpy operations rather than math functions.
    The theta weight is 2 pi over the theta length of their broadcast shape:
    the trapezoid rule on the 2*order angles when some component depends on
    theta, and one angle of weight 2 pi, exact, when none does.  The squared
    pointwise norm is w_r^2 + w_theta^2/sinh^2 + w_z^2/cosh^2.  A nonfinite
    result (a nonfinite field value, or sinh r overflowing past r ~ 710)
    raises ValueError.
    """
    import numpy as np

    r_nodes, r_w = gauss_legendre(0.0, t.R, order)
    z_nodes, z_w = gauss_legendre(0.0, t.epsilon, order)
    theta_nodes, _ = theta_grid(order)
    with np.errstate(all="ignore"):  # the result check below reports any overflow or nan
        grid = r_nodes[:, None, None], theta_nodes[None, :, None], z_nodes[None, None, :]
        components = field(*grid)
        try:
            a, b, c = (np.asarray(w, dtype=float) for w in components)
        except OverflowError:  # an int past the float range
            raise ValueError(f"nonfinite L2 norm on the tube {t} at quadrature order {order}: "
                             "a field value overflows a float") from None
        n_theta = np.broadcast_shapes((1, 1, 1), a.shape, b.shape, c.shape)[1]
        sh = np.sinh(r_nodes)[:, None, None]
        ch = np.cosh(r_nodes)[:, None, None]
        sq = a * a + (b / sh) ** 2 + (c / ch) ** 2
        weight = (r_w * (2.0 * math.pi / n_theta))[:, None, None] * z_w[None, None, :] * (sh * ch)
        value = float(np.sum(sq * weight))
    if not math.isfinite(value):
        raise ValueError(f"nonfinite L2 norm {value} on the tube {t} at quadrature order {order}")
    return value


def _bump(r, R):
    """The bump sin^3(pi u), u = (r - 0.1 R)/(0.8 R), zero off 0 < u < 1, and its r-derivative."""
    import numpy as np

    u = (np.asarray(r, dtype=float) - 0.1 * R) / (0.8 * R)
    inside = (u > 0.0) & (u < 1.0)
    pu = math.pi * np.clip(u, 0.0, 1.0)
    sin_u, cos_u = np.sin(pu), np.cos(pu)
    bump = np.where(inside, sin_u**3, 0.0)
    return bump, np.where(inside, 3.0 * math.pi / (0.8 * R) * sin_u**2 * cos_u, 0.0)


def competitor_norm_sq(t: TubeChart, s: float, order: int = 48) -> float:
    """||dz/eps + s d(bump(r) sin(2 pi z/eps))||^2 through tube_l2_norm_sq.

    With g(z) = sin(2 pi z/eps) the form has components
    (s bump'(r) g(z), 0, 1/eps + s bump(r) g'(z)).  None depends on theta,
    so tube_l2_norm_sq integrates the circle exactly (one angle of weight
    2 pi) and Gauss-Legendre with `order` nodes in r and in z.
    """
    import numpy as np

    s = checked_real(s, what="s")

    def field(r, theta, z):
        bump, dbump = _bump(r, t.R)
        g = np.sin(2.0 * math.pi * z / t.epsilon)
        dg = (2.0 * math.pi / t.epsilon) * np.cos(2.0 * math.pi * z / t.epsilon)
        return s * dbump * g, 0.0, 1.0 / t.epsilon + s * bump * dg

    return tube_l2_norm_sq(t, field, order=order)


def competitor_margin(t: TubeChart, order: int) -> float:
    """Worst relative margin (competitor_norm_sq - base^2) / base^2 over s in {+-0.1, +-0.01}.

    base = tube_form_norm(t); a negative margin means a perturbed competitor
    came out below the core form.
    """
    base_sq = tube_form_norm(t) ** 2
    return min((competitor_norm_sq(t, s, order=order) - base_sq) / base_sq
               for s in (0.1, -0.1, 0.01, -0.01))


def tube_lower_bound(t: TubeChart, *, order: int = 48) -> float:
    """Certified lower bound for the tube norm of any unit-period competitor.

    Equals tube_form_norm(t).  Every call integrates the perturbed family
    through competitor_margin at the given quadrature order and raises if
    any competitor comes out below the bound by more than 1e-9 relative,
    guarding the quadrature and the sign conventions.
    """
    margin = competitor_margin(t, order)
    if margin < -1e-9:
        raise RuntimeError(f"a competitor fell below the certified bound on {t}: "
                           f"relative margin {margin}")
    return tube_form_norm(t)


@dataclass(frozen=True)
class RemarkRatio:
    """sup/L^2 comparison for the volume-1 tube at core length epsilon."""

    sup_norm: float
    l2_norm: float
    ratio: float
    predicted: float


def remark_ratio(epsilon: float) -> RemarkRatio:
    """sup and L^2 norms of dz/epsilon on the tube of volume 1.

    Requires 0 < epsilon < 1/pi so the volume-1 tube exists with positive
    depth R = arcsinh(1/sqrt(pi epsilon)); predicted is the asymptotic scale
    (epsilon log(1/epsilon))^(-1/2) of the ratio, accurate up to a bounded
    constant (1/sqrt(pi) in the epsilon -> 0 limit).
    """
    epsilon = checked_real(epsilon, what="epsilon", gt=0, lt=1.0 / math.pi)
    R = math.asinh(1.0 / math.sqrt(math.pi * epsilon))
    t = TubeChart(epsilon, R)
    sup_norm = 1.0 / epsilon
    l2 = tube_form_norm(t)
    return RemarkRatio(
        sup_norm=sup_norm,
        l2_norm=l2,
        ratio=sup_norm / l2,
        predicted=1.0 / math.sqrt(epsilon * math.log(1.0 / epsilon)),
    )
