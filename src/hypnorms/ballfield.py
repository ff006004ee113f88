"""Harmonic basis fields on geodesic balls in hyperbolic 3-space.

Points carry spherical coordinates (r, phi, theta) with colatitude phi and the
metric dr^2 + sinh^2(r)(dphi^2 + sin^2(phi) dtheta^2); the volume element is
sinh^2(r) sin(phi) dr dphi dtheta.  The basis harmonic functions are
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
Pbar_m^m = (2m-1)!! sin^m(phi).  Angular derivatives never divide by
sin(phi); they use the exact rewrites

    d/dphi Pbar_l^0      = -Pbar_l^1,
    d/dphi Pbar_l^m      = ((l+m)(l-m+1) Pbar_l^(m-1) - Pbar_l^(m+1)) / 2,
    Pbar_l^m / sin(phi)  = (Pbar_(l-1)^(m+1) + (l+m-1)(l+m) Pbar_(l-1)^(m-1)) / (2m)

for m >= 1, so every value is accurate up to and at the poles.  At exact
poles the (phi, theta) frame itself is singular; components are returned as
the fixed-theta limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np
from numpy.polynomial import legendre as npleg

from .radial import MAX_ELL, profile, profiles, psi

__all__ = [
    "BallPoint",
    "BallField",
    "CovectorFrame",
    "DfBoundReport",
    "HarmonicExpansion",
    "ball_l2_norm_sq",
    "check_df_bound",
    "eval_Psi",
    "eval_omega",
    "expansion_field",
    "mode_indices",
    "omega_field",
    "omega_gram",
    "psi_gram",
    "sph_harm",
    "sph_harm_dphi",
    "sph_harm_dtheta_over_sin",
]

@dataclass(frozen=True)
class BallPoint:
    """Spherical coordinates on a ball: geodesic radius, colatitude, longitude."""

    r: float
    phi: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ValueError(f"radius must be finite and nonnegative, got {self.r}")
        if not 0.0 <= self.phi <= math.pi:
            raise ValueError(f"colatitude must lie in [0, pi], got {self.phi}")
        if not 0.0 <= self.theta < 2.0 * math.pi:
            raise ValueError(f"longitude must lie in [0, 2 pi), got {self.theta}")


class CovectorFrame(NamedTuple):
    """Components of a 1-form against the orthonormal coframe at a point."""

    c_r: float
    c_phi: float
    c_theta: float

    def norm(self) -> float:
        return math.sqrt(self.c_r**2 + self.c_phi**2 + self.c_theta**2)


@dataclass(frozen=True)
class HarmonicExpansion:
    """Truncated coefficient table a_lm of a harmonic function on a ball.

    coefficients maps (ell, m) to a finite real a_lm; every stored index must
    satisfy |m| <= ell <= truncation.  Tail estimation is the caller's
    business.
    """

    coefficients: Mapping[tuple[int, int], float]
    truncation: int

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")
        object.__setattr__(self, "coefficients", dict(self.coefficients))
        for (ell, m), a in self.coefficients.items():
            if not (0 <= ell <= self.truncation and abs(m) <= ell):
                raise ValueError(f"index ({ell}, {m}) violates |m| <= ell <= {self.truncation}")
            if not math.isfinite(a):
                raise ValueError(f"coefficient a_({ell},{m}) must be finite, got {a}")

    def coefficient(self, ell: int, m: int) -> float:
        return self.coefficients.get((ell, m), 0.0)

    def items(self):
        return sorted(self.coefficients.items())


def mode_indices(lmax: int, lmin: int = 0) -> list[tuple[int, int]]:
    """All (ell, m) with lmin <= ell <= lmax, |m| <= ell, in lexicographic order.

    Raises ValueError unless lmin <= lmax <= MAX_ELL, the highest degree
    radial.profile evaluates.
    """
    if not lmin <= lmax <= MAX_ELL:
        raise ValueError(f"lmax must lie in [{lmin}, {MAX_ELL}], got {lmax}")
    return [(ell, m) for ell in range(lmin, lmax + 1) for m in range(-ell, ell + 1)]


def _norm_const(ell: int, m: int) -> float:
    m = abs(m)
    return math.sqrt(
        (2 * ell + 1) / (4.0 * math.pi) * math.factorial(ell - m) / math.factorial(ell + m)
    )


def _assoc(ell: int, m: int, x):
    """Pbar_ell^m(x), m >= 0, without the Condon-Shortley phase; 0 for m > ell."""
    x = np.asarray(x, dtype=float)
    if m > ell:
        return np.zeros_like(x)
    # (2m-1)!! (1 - x^2)^(m/2), with 1 - x^2 factored to keep digits near x = +-1
    p_prev = float(math.prod(range(1, 2 * m, 2))) * np.sqrt((1.0 - x) * (1.0 + x)) ** m
    if ell == m:
        return p_prev
    p = (2 * m + 1) * x * p_prev
    for n in range(m + 2, ell + 1):
        p, p_prev = ((2 * n - 1) * x * p - (n + m - 1) * p_prev) / (n - m), p
    return p


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


def _maybe_scalar(value, *inputs):
    if all(np.isscalar(x) or np.asarray(x).ndim == 0 for x in inputs):
        return float(value)
    return value


def _dphi_factor(ell: int, am: int, x):
    # d/dphi Pbar_ell^am(cos phi)
    if am == 0:
        return -_assoc(ell, 1, x)
    return 0.5 * ((ell + am) * (ell - am + 1) * _assoc(ell, am - 1, x) - _assoc(ell, am + 1, x))


def _over_sin_factor(ell: int, am: int, x):
    # Pbar_ell^am(cos phi) / sin phi for am >= 1, without dividing by sin phi
    return (
        _assoc(ell - 1, am + 1, x) + (ell + am - 1) * (ell + am) * _assoc(ell - 1, am - 1, x)
    ) / (2 * am)


def sph_harm(ell: int, m: int, phi, theta):
    """Real orthonormal spherical harmonic (convention in module docstring)."""
    if abs(m) > ell:
        raise ValueError(f"need |m| <= ell, got (ell, m) = ({ell}, {m})")
    x = np.cos(np.asarray(phi, dtype=float))
    val = _norm_const(ell, m) * _assoc(ell, abs(m), x) * _trig(m, theta)
    return _maybe_scalar(val, phi, theta)


def sph_harm_dphi(ell: int, m: int, phi, theta):
    """d Y_lm / d phi."""
    if abs(m) > ell:
        raise ValueError(f"need |m| <= ell, got (ell, m) = ({ell}, {m})")
    x = np.cos(np.asarray(phi, dtype=float))
    val = _norm_const(ell, m) * _dphi_factor(ell, abs(m), x) * _trig(m, theta)
    return _maybe_scalar(val, phi, theta)


def sph_harm_dtheta_over_sin(ell: int, m: int, phi, theta):
    """(1/sin phi) dY_lm/dtheta, the theta frame factor; finite at the poles."""
    if abs(m) > ell:
        raise ValueError(f"need |m| <= ell, got (ell, m) = ({ell}, {m})")
    phi_arr = np.asarray(phi, dtype=float)
    if m == 0:
        val = np.zeros(np.broadcast(phi_arr, np.asarray(theta, dtype=float)).shape)
        return _maybe_scalar(val, phi, theta)
    x = np.cos(phi_arr)
    val = _norm_const(ell, m) * _over_sin_factor(ell, abs(m), x) * _dtrig(m, theta)
    return _maybe_scalar(val, phi, theta)


def eval_Psi(ell: int, m: int, p: BallPoint) -> float:
    """psi_ell(r) Y_lm(phi, theta)."""
    return psi(ell, p.r) * sph_harm(ell, m, p.phi, p.theta)


def eval_omega(ell: int, m: int, p: BallPoint) -> CovectorFrame:
    """Orthonormal-frame components of d Psi_lm at p.

    At r = 0 the degree-1 fields have a genuine covector limit (psi_1/sinh r
    and psi_1' both tend to 2/3); degree 0 gives the zero covector and degree
    >= 2 vanishes to order ell - 1.  profile() returns psi' at r = 0 as that
    limit, 2/3 for ell = 1 and 0 above, so it stands in for psi/sinh r there.
    """
    if abs(m) > ell:
        raise ValueError(f"need |m| <= ell, got (ell, m) = ({ell}, {m})")
    if ell == 0:
        return CovectorFrame(0.0, 0.0, 0.0)
    psi_r, dpsi_r, _ = profile(ell, p.r)
    over_sinh = psi_r / math.sinh(p.r) if p.r > 0 else dpsi_r
    return CovectorFrame(
        dpsi_r * sph_harm(ell, m, p.phi, p.theta),
        over_sinh * sph_harm_dphi(ell, m, p.phi, p.theta),
        over_sinh * sph_harm_dtheta_over_sin(ell, m, p.phi, p.theta),
    )


class BallField:
    """The differential of a finite harmonic expansion, as a covector field.

    Callable point by point; ball_l2_norm_sq integrates it through the Gram
    matrix of its modes.
    """

    def __init__(self, expansion: HarmonicExpansion):
        self.expansion = expansion

    def __call__(self, p: BallPoint) -> CovectorFrame:
        cr = cphi = ctheta = 0.0
        for (ell, m), a in self.expansion.items():
            if a == 0.0 or ell == 0:
                continue
            f = eval_omega(ell, m, p)
            cr += a * f.c_r
            cphi += a * f.c_phi
            ctheta += a * f.c_theta
        return CovectorFrame(cr, cphi, ctheta)


def omega_field(ell: int, m: int) -> BallField:
    """The single-mode field omega_lm."""
    return BallField(HarmonicExpansion({(ell, m): 1.0}, truncation=ell))


def expansion_field(expansion: HarmonicExpansion) -> BallField:
    return BallField(expansion)


def _quad_nodes(r: float, order: int):
    if order < 4:
        raise ValueError(f"quadrature order must be >= 4, got {order}")
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"ball radius must be finite and positive, got {r}")
    x, w = npleg.leggauss(order)
    r_nodes = 0.5 * r * (x + 1.0)
    r_weights = 0.5 * r * w
    phi_nodes = 0.5 * math.pi * (x + 1.0)
    phi_weights = 0.5 * math.pi * w
    n_theta = 2 * order
    theta_nodes = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    theta_weight = 2.0 * math.pi / n_theta
    return r_nodes, r_weights, phi_nodes, phi_weights, theta_nodes, theta_weight


def _weighted_gram(rows, weights):
    # sum_k w_k rows[a, k] rows[b, k]
    return (rows * weights) @ rows.T


def _angular_grams(modes, phi_nodes, phi_w, theta_nodes, theta_w):
    """Angular Gram matrices (A, B) of the modes on the (phi, theta) grid.

    A_ab = int Y_a Y_b and B_ab = int (dY_a/dphi dY_b/dphi + (1/sin^2 phi)
    dY_a/dtheta dY_b/dtheta) against sin(phi) dphi dtheta.  Each Y_lm is a
    phi factor N_lm Pbar_l^|m| times a theta factor trig_m, so every
    integral over the tensor grid is the entrywise product of a phi-Gram and
    a theta-Gram; each table is built once per (ell, |m|) or per m.
    """
    x = np.cos(phi_nodes)
    phi_tabs = {}
    for ell, m in modes:
        am = abs(m)
        if (ell, am) not in phi_tabs:
            n = _norm_const(ell, am)
            over_sin = n * _over_sin_factor(ell, am, x) if am else np.zeros_like(x)
            phi_tabs[ell, am] = (n * _assoc(ell, am, x), n * _dphi_factor(ell, am, x), over_sin)
    theta_tabs = {m: (_trig(m, theta_nodes), _dtrig(m, theta_nodes)) for _, m in modes}
    P, dP, S = (np.array([phi_tabs[ell, abs(m)][i] for ell, m in modes]) for i in range(3))
    T, dT = (np.array([theta_tabs[m][i] for _, m in modes]) for i in range(2))
    w_phi = phi_w * np.sin(phi_nodes)
    theta_gram = _weighted_gram(T, theta_w)
    A = _weighted_gram(P, w_phi) * theta_gram
    B = (_weighted_gram(dP, w_phi) * theta_gram
         + _weighted_gram(S, w_phi) * _weighted_gram(dT, theta_w))
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


def psi_gram(lmax: int, r: float, order: int = 48):
    """Gram matrix of the Psi_lm, ell <= lmax, in L^2(B_r).

    Returns (modes, matrix).  On the tensor grid of ball_l2_norm_sq the
    integral of Psi_a Psi_b separates into a radial Gram of psi_ell against
    sinh^2 r dr (one profiles call per radial node) times the angular Gram
    of the Y_lm.  Raises ValueError for lmax outside [0, MAX_ELL] and when the
    sinh^2 weights overflow (r past ~355).
    """
    modes = mode_indices(lmax)
    r_nodes, r_w, phi_nodes, phi_w, theta_nodes, theta_w = _quad_nodes(r, order)
    w_sinh = _radial_weights(r_nodes, r_w, r, order)
    A, _ = _angular_grams(modes, phi_nodes, phi_w, theta_nodes, theta_w)
    psi_tab, _, idx = _radial_tables(modes, r_nodes)
    return modes, _radial_gram(psi_tab, idx, w_sinh) * A


def _omega_gram(modes, r: float, order: int):
    # Gram matrix of the omega_lm over the given (ell, m), all ell >= 1
    r_nodes, r_w, phi_nodes, phi_w, theta_nodes, theta_w = _quad_nodes(r, order)
    w_sinh = _radial_weights(r_nodes, r_w, r, order)
    A, B = _angular_grams(modes, phi_nodes, phi_w, theta_nodes, theta_w)
    psi_tab, dpsi_tab, idx = _radial_tables(modes, r_nodes)
    R1 = _radial_gram(dpsi_tab, idx, w_sinh)
    R0 = _radial_gram(psi_tab, idx, r_w)
    return R1 * A + R0 * B


def omega_gram(lmax: int, r: float, order: int = 48):
    """Gram matrix of the omega_lm, 1 <= ell <= lmax, in L^2 Omega^1(B_r).

    Returns (modes, matrix).  With the coframe components of omega_lm the
    integrand separates, so the matrix is R1 * A + R0 * B: radial Grams of
    psi_ell' against sinh^2 r dr and of psi_ell against dr, one profiles
    call per radial node, times the angular Grams A of the Y_lm and B of their
    gradients, each assembled from phi- and theta-factor Grams.  Raises
    ValueError for lmax outside [1, MAX_ELL] and when the sinh^2 weights
    overflow (r past ~355).
    """
    modes = mode_indices(lmax, lmin=1)
    return modes, _omega_gram(modes, r, order)


def ball_l2_norm_sq(field: BallField, r: float, order: int = 48) -> float:
    """integral over B_r of |field|^2 dVol, by tensor-product quadrature.

    Gauss-Legendre in r and phi, uniform (trapezoid on the periodic circle)
    in theta with 2*order points.  The integral is the quadratic form
    a^T G a of the expansion's nonzero coefficients a_lm (ell >= 1) in the
    Gram matrix G of their modes on that grid, assembled from per-ell radial
    and per-factor angular Grams as in omega_gram; a nonfinite result
    raises ValueError.
    """
    if not isinstance(field, BallField):
        raise TypeError(f"ball_l2_norm_sq needs a BallField, got {type(field).__name__}")
    terms = [((ell, m), a) for (ell, m), a in field.expansion.items() if a != 0.0 and ell >= 1]
    if not terms:
        _quad_nodes(r, order)  # validates r and order
        return 0.0
    modes = [mode for mode, _ in terms]
    coeffs = np.array([a for _, a in terms])
    value = float(coeffs @ _omega_gram(modes, r, order) @ coeffs)
    if not math.isfinite(value):
        raise ValueError(f"nonfinite L2 norm {value} on B_{r} at quadrature order {order}")
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
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"ball radius must be finite and positive, got {r}")
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
