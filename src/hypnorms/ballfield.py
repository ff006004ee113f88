"""Harmonic basis fields on geodesic balls in hyperbolic 3-space.

The ball B_r carries spherical coordinates (r, phi, theta) with colatitude phi
and the metric dr^2 + sinh^2(r)(dphi^2 + sin^2(phi) dtheta^2); the volume
element is sinh^2(r) sin(phi) dr dphi dtheta.  The basis harmonic functions are
Psi_lm = psi_ell(r) Y_lm(phi, theta) and their differentials omega_lm = d Psi_lm
have orthonormal-coframe components

    ( Y_lm psi_ell',   psi_ell/sinh(r) dY_lm/dphi,
      psi_ell/(sinh(r) sin(phi)) dY_lm/dtheta ).

Spherical harmonic convention (fixed here once): real, orthonormal on the unit
sphere, WITHOUT the Condon-Shortley phase,

    Y_l0     = N_l0 P_l(cos phi)
    Y_{l,m}  = sqrt(2) N_lm Pbar_l^m(cos phi) cos(m theta)     (m > 0)
    Y_{l,-m} = sqrt(2) N_lm Pbar_l^m(cos phi) sin(m theta)     (m > 0)

with N_lm = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!) and
Pbar_l^m(x) = (1-x^2)^(m/2) d^m P_l/dx^m (all positive near x = 1; this is
(-1)^m times scipy's lpmv).  Only orthonormality is contractual.

Pbar_l^m comes from the standard upward recurrence in l, started at
Pbar_m^m = (2m-1)!! sin^m(phi): one sweep per m fills a table of every
Pbar_l^m a Gram needs.  Angular derivatives never divide by sin(phi); they
read that table through the exact rewrites

    d/dphi Pbar_l^0      = -Pbar_l^1,
    d/dphi Pbar_l^m      = ((l+m)(l-m+1) Pbar_l^(m-1) - Pbar_l^(m+1)) / 2,
    Pbar_l^m / sin(phi)  = (Pbar_(l-1)^(m+1) + (l+m-1)(l+m) Pbar_(l-1)^(m-1)) / (2m)

for m >= 1, so every value is accurate up to and at the poles.

An expansion's differential is integrated, never sampled: ball_l2_norm_sq
reads the L^2 norm off the Gram matrix of its modes.

Every Gram is a radial factor times an angular factor, and the angular
factor does not depend on r.  psi_gram, omega_gram and ball_l2_norm_sq all
go through _gram: its angular pair (A, B) is built once per (mode list,
quadrature order) and kept read-only in a cache of 16 entries; an entry
holds 16 n^2 bytes for n <= 1681 modes, about 1.7 MB for all 16 at lmax = 8
and at most about 720 MB at lmax = MAX_ELL.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._args import checked_int, checked_ints, checked_real
from .radial import MAX_ELL, profiles
from .quadrature import gauss_legendre, theta_grid

__all__ = [
    "DfBoundReport",
    "HarmonicExpansion",
    "ball_l2_norm_sq",
    "check_df_bound",
    "mode_indices",
    "omega_gram",
    "psi_gram",
]


@dataclass(frozen=True)
class HarmonicExpansion:
    """Truncated coefficient table a_lm of a harmonic function on a ball.

    coefficients maps (ell, m) to a finite real a_lm; truncation >= 0 and
    every stored index has |m| <= ell <= truncation.
    Tail estimation is the caller's business.
    """

    coefficients: Mapping[tuple[int, int], float]
    truncation: int

    def __post_init__(self):
        checked_int(self.truncation, 0, what="truncation")
        coefficients = {}
        for key, a in self.coefficients.items():
            # a pair goes on to the checks that name ell and m; any other key stops here
            if type(key) is not tuple or len(key) != 2:
                key = checked_ints(key, "coefficient index", 2)
            ell = checked_int(key[0], 0, self.truncation, what="ell")
            m = checked_int(key[1], -ell, ell, what="m")
            coefficients[ell, m] = checked_real(a, what=f"coefficient a_({ell},{m})")
        object.__setattr__(self, "coefficients", coefficients)

    def items(self):
        return sorted(self.coefficients.items())


def mode_indices(lmax: int, lmin: int = 0) -> list[tuple[int, int]]:
    """All (ell, m) with lmin <= ell <= lmax, |m| <= ell, in lexicographic order.

    Raises ValueError unless 0 <= lmin <= lmax <= MAX_ELL, the highest
    degree radial.profile evaluates.
    """
    checked_int(lmax, checked_int(lmin, 0, MAX_ELL, what="lmin"), MAX_ELL, what="lmax")
    return [(ell, m) for ell in range(lmin, lmax + 1) for m in range(-ell, ell + 1)]


def _norm_const(ell: int, m: int) -> float:
    m = abs(m)
    return math.sqrt(
        (2 * ell + 1) / (4.0 * math.pi) * math.factorial(ell - m) / math.factorial(ell + m)
    )


def _trig(m: int, theta):
    if m == 0:
        return np.ones_like(np.asarray(theta, dtype=float))
    if m > 0:
        return math.sqrt(2.0) * np.cos(m * np.asarray(theta, dtype=float))
    return math.sqrt(2.0) * np.sin(-m * np.asarray(theta, dtype=float))


def _dtrig(m: int, theta):
    # derivative of the theta factor
    th = np.asarray(theta, dtype=float)
    if m == 0:
        return np.zeros_like(th)
    if m > 0:
        return -m * math.sqrt(2.0) * np.sin(m * th)
    return -m * math.sqrt(2.0) * np.cos(-m * th)


# The identity, kept only because benchmark/fields.py calls ball_l2_norm_sq
# through it; ROADMAP item 2 deletes it together with that call.
def expansion_field(expansion: HarmonicExpansion) -> HarmonicExpansion:
    return expansion


def _weighted_gram(rows, weights):
    # sum_k w_k rows[a, k] rows[b, k]
    return (rows * weights) @ rows.T


def _legendre_table(lmax: int, x):
    """Pbar_l^m(x) at [l, m] for 0 <= l <= lmax and 0 <= m <= lmax + 1; zero for m > l."""
    table = np.zeros((lmax + 1, lmax + 2, len(x)))
    # (2m-1)!! (1 - x^2)^(m/2), with 1 - x^2 factored to keep digits near x = +-1
    s = np.sqrt((1.0 - x) * (1.0 + x))
    for m in range(lmax + 1):
        table[m, m] = float(math.prod(range(1, 2 * m, 2))) * s ** m
        if m < lmax:
            table[m + 1, m] = (2 * m + 1) * x * table[m, m]
        for n in range(m + 2, lmax + 1):
            table[n, m] = ((2 * n - 1) * x * table[n - 1, m]
                           - (n + m - 1) * table[n - 2, m]) / (n - m)
    return table


def _phi_factors(pbar, ell: int, am: int):
    # N_lm times Pbar_l^am, d/dphi Pbar_l^am and Pbar_l^am / sin(phi) (zero
    # for am = 0), by the rewrites in the module docstring
    n = _norm_const(ell, am)
    value = n * pbar[ell, am]
    if am == 0:
        return value, n * -pbar[ell, 1], np.zeros(pbar.shape[-1])
    dphi = 0.5 * ((ell + am) * (ell - am + 1) * pbar[ell, am - 1] - pbar[ell, am + 1])
    over_sin = (pbar[ell - 1, am + 1]
                + (ell + am - 1) * (ell + am) * pbar[ell - 1, am - 1]) / (2 * am)
    return value, n * dphi, n * over_sin


@functools.lru_cache(maxsize=16)
def _angular_grams(modes: tuple, order: int):
    """Angular Gram matrices (A, B) of the modes on the (phi, theta) grid of order.

    A_ab = int Y_a Y_b and B_ab = int (dY_a/dphi dY_b/dphi + (1/sin^2 phi)
    dY_a/dtheta dY_b/dtheta) against sin(phi) dphi dtheta.  Each Y_lm is a
    phi factor N_lm Pbar_l^|m| times a theta factor trig_m, so every
    integral over the tensor grid is the entrywise product of a phi-Gram and
    a theta-Gram.  The phi factors are read off one Legendre table, once per
    (ell, |m|).

    Neither matrix depends on r, so the pair is built once per key and kept
    read-only; every entry holds both, psi_gram's too.  Callers pass modes
    as a tuple and an order that gauss_legendre has checked, since 24.0
    would share the key of 24.  One entry holds 16 n^2 bytes for
    n = len(modes) <= 1681, so the 16 entries hold at most about 720 MB at
    lmax = MAX_ELL; at lmax = 8, the most any caller uses, they hold about
    1.7 MB.
    """
    phi_nodes, phi_w = gauss_legendre(0.0, math.pi, order)
    theta_nodes, theta_w = theta_grid(order)
    x = np.cos(phi_nodes)
    pbar = _legendre_table(max(ell for ell, _ in modes), x)
    phi_tabs = {}
    for ell, m in modes:
        if (ell, abs(m)) not in phi_tabs:
            phi_tabs[ell, abs(m)] = _phi_factors(pbar, ell, abs(m))
    w_phi = phi_w * np.sin(phi_nodes)
    T = np.array([_trig(m, theta_nodes) for _, m in modes])
    dT = np.array([_dtrig(m, theta_nodes) for _, m in modes])
    theta_gram = _weighted_gram(T, theta_w)
    P, dP, S = map(np.array, zip(*(phi_tabs[ell, abs(m)] for ell, m in modes)))
    A = _weighted_gram(P, w_phi) * theta_gram
    B = (_weighted_gram(dP, w_phi) * theta_gram
         + _weighted_gram(S, w_phi) * _weighted_gram(dT, theta_w))
    A.flags.writeable = B.flags.writeable = False
    return A, B


def _radial_weights(r_nodes, r_w, r: float, order: int):
    # volume weights r_w sinh^2; they overflow for r past ~355
    with np.errstate(over="ignore"):
        w_sinh = r_w * np.sinh(r_nodes) ** 2
    if not np.all(np.isfinite(w_sinh)):
        raise ValueError(
            f"nonfinite L2 norm on B_{r} at quadrature order {order}: "
            "the sinh^2 volume weights overflow"
        )
    return w_sinh


def _radial_tables(modes, r_nodes):
    # psi_ell and psi_ell' at the nodes, one row per distinct ell from one
    # profiles call per node, and the row of each mode
    ells = sorted({ell for ell, _ in modes})
    tables = np.array([profiles(ells[-1], rr)[:2] for rr in r_nodes])[:, :, ells]
    idx = np.searchsorted(ells, [ell for ell, _ in modes])
    return tables[:, 0].T, tables[:, 1].T, idx


def _radial_gram(table, idx, weights):
    # sum_k w_k table[ell_a, k] table[ell_b, k], expanded from ell rows to modes
    return _weighted_gram(table, weights)[np.ix_(idx, idx)]


def _positive_diagonal(name: str, lmax: int, r: float, order: int, G):
    # a Gram matrix is positive definite, so a 0.0 on its diagonal is underflow
    if not np.diagonal(G).all():
        raise ValueError(f"{name}({lmax}, {r}) at quadrature order {order} underflows to 0.0")
    return G


def _gram(modes, r: float, order: int, omega: bool):
    # the Gram matrix of the Psi_lm of the modes, or with omega of their
    # omega_lm (all ell >= 1), on ball_l2_norm_sq's grid; checks r, then
    # order, before the cache
    r_nodes, r_w = gauss_legendre(0.0, checked_real(r, what="r", gt=0), order)
    w_sinh = _radial_weights(r_nodes, r_w, r, order)
    A, B = _angular_grams(tuple(modes), order)
    psi_tab, dpsi_tab, idx = _radial_tables(modes, r_nodes)
    if not omega:
        return _radial_gram(psi_tab, idx, w_sinh) * A
    return _radial_gram(dpsi_tab, idx, w_sinh) * A + _radial_gram(psi_tab, idx, r_w) * B


def psi_gram(lmax: int, r: float, order: int = 48):
    """Gram matrix of the Psi_lm, ell <= lmax, in L^2(B_r).

    Returns (modes, matrix).  On the tensor grid of ball_l2_norm_sq the
    integral of Psi_a Psi_b separates into a radial Gram of psi_ell against
    sinh^2 r dr (one profiles ladder per radial node; after omega_gram at
    the same lmax, r and an order up to 64 these are cache hits) times the
    angular Gram of the Y_lm.  Raises ValueError for lmax outside [0,
    MAX_ELL], when the sinh^2 weights overflow (r past ~355) and when a
    diagonal entry underflows to 0.0 (tiny r).
    """
    modes = mode_indices(lmax)
    return modes, _positive_diagonal("psi_gram", lmax, r, order, _gram(modes, r, order, False))


def omega_gram(lmax: int, r: float, order: int = 48):
    """Gram matrix of the omega_lm, 1 <= ell <= lmax, in L^2 Omega^1(B_r).

    Returns (modes, matrix).  With the coframe components of omega_lm the
    integrand separates, so the matrix is R1 * A + R0 * B: radial Grams of
    psi_ell' against sinh^2 r dr and of psi_ell against dr, one profiles
    ladder per radial node (kept in its cache, which psi_gram at the same
    lmax, r and an order up to 64 reads), times the angular Grams A of the
    Y_lm and B of their gradients, each assembled from phi- and
    theta-factor Grams.  Raises ValueError for lmax outside [1, MAX_ELL],
    when the sinh^2 weights overflow (r past ~355) and when a diagonal
    entry underflows to 0.0 (tiny r).
    """
    modes = mode_indices(lmax, lmin=1)
    return modes, _positive_diagonal("omega_gram", lmax, r, order, _gram(modes, r, order, True))


def ball_l2_norm_sq(expansion: HarmonicExpansion, r: float, order: int = 48) -> float:
    """integral over B_r of |d Psi|^2 dVol for the expansion Psi, by tensor quadrature.

    Gauss-Legendre in r and phi, uniform (trapezoid on the periodic circle)
    in theta with 2*order points.  The integral is the quadratic form
    a^T G a of the expansion's nonzero coefficients a_lm (ell >= 1) in the
    Gram matrix G of their modes on that grid, assembled from per-ell radial
    and per-factor angular Grams as in omega_gram; a nonfinite result
    raises ValueError, as does a result that underflows to 0.0 (G is
    positive definite, so only the zero expansion has norm 0).
    """
    if not isinstance(expansion, HarmonicExpansion):
        raise TypeError(
            f"ball_l2_norm_sq needs a HarmonicExpansion, got {type(expansion).__name__}")
    terms = [((ell, m), a) for (ell, m), a in expansion.items() if a != 0.0 and ell >= 1]
    if not terms:
        gauss_legendre(0.0, checked_real(r, what="r", gt=0), order)  # checks r, then order
        return 0.0
    modes = [mode for mode, _ in terms]
    coeffs = np.array([a for _, a in terms])
    value = float(coeffs @ _gram(modes, r, order, True) @ coeffs)
    if not math.isfinite(value):
        raise ValueError(f"nonfinite L2 norm {value} on B_{r} at quadrature order {order}")
    if value == 0.0:
        raise ValueError(f"L2 norm on B_{r} at quadrature order {order} underflows to 0.0")
    return value


@dataclass(frozen=True)
class DfBoundReport:
    """Pointwise value at the center vs the L^2 budget of an expansion."""

    df_at_center: float
    l2_norm: float
    ratio: float


def check_df_bound(expansion: HarmonicExpansion, r: float) -> DfBoundReport:
    """Sharp gradient bound at the ball center for a harmonic expansion.

    df_at_center = |df(0)| comes from the degree-1 coefficients alone (the
    three degree-1 frame covectors at the center are orthogonal with length
    1/sqrt(3 pi) each); l2_norm^2 = sum a_lm^2 N_ell(r) by mode orthogonality,
    every N_ell = psi_ell times the flux from one radial.profiles call;
    ratio = df_at_center sqrt(nu(r)) / l2_norm = sqrt(df^2 N_1 / l2_norm^2)
    with df^2 = sum over ell = 1 of a_lm^2 and nu = 3 pi N_1, so ratio <= 1,
    with equality exactly on pure degree-1 expansions.  Raises ValueError
    when df^2 or l2_norm^2 leaves the float range: it overflows, or it
    underflows to zero while some coefficient of degree >= 1 is not zero.
    """
    if expansion.truncation < 1:
        raise ValueError("expansion must allow degree 1 (truncation >= 1)")
    r = checked_real(r, what="r", gt=0)
    terms = [(ell, a) for (ell, _), a in expansion.items() if ell >= 1]
    p, _, flux = profiles(max((ell for ell, _ in terms), default=1), r)
    df_sq = sum(a * a for ell, a in terms if ell == 1)
    l2_sq = sum(a * a * (p[ell] * flux[ell]) for ell, a in terms)
    if not (math.isfinite(df_sq) and math.isfinite(l2_sq)) or (
        l2_sq == 0.0 and any(a != 0.0 for _, a in terms)
    ):
        raise ValueError(
            f"squared norms df^2 = {df_sq}, l2^2 = {l2_sq} on B_{r} leave the float range"
        )
    df_at_center = math.sqrt(df_sq / (3.0 * math.pi))
    if l2_sq == 0.0:
        return DfBoundReport(df_at_center, 0.0, 0.0)
    ratio = math.sqrt(df_sq * (p[1] * flux[1]) / l2_sq)
    return DfBoundReport(df_at_center, math.sqrt(l2_sq), ratio)
