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
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np
from numpy.polynomial import legendre as npleg

from .radial import dpsi, mode_norm, nu, psi

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
        if self.r < 0:
            raise ValueError(f"radius must be nonnegative, got {self.r}")
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

    coefficients maps (ell, m) to a real a_lm; every stored index must satisfy
    |m| <= ell <= truncation.  Tail estimation is the caller's business.
    """

    coefficients: Mapping[tuple[int, int], float]
    truncation: int

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative")
        object.__setattr__(self, "coefficients", dict(self.coefficients))
        for (ell, m) in self.coefficients:
            if not (0 <= ell <= self.truncation and abs(m) <= ell):
                raise ValueError(f"index ({ell}, {m}) violates |m| <= ell <= {self.truncation}")

    def coefficient(self, ell: int, m: int) -> float:
        return self.coefficients.get((ell, m), 0.0)

    def items(self):
        return sorted(self.coefficients.items())


def mode_indices(lmax: int, lmin: int = 0) -> list[tuple[int, int]]:
    """All (ell, m) with lmin <= ell <= lmax, |m| <= ell, in lexicographic order."""
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
    am = abs(m)
    x = np.cos(np.asarray(phi, dtype=float))
    if am == 0:
        dfac = -_assoc(ell, 1, x)
    else:
        dfac = 0.5 * (
            (ell + am) * (ell - am + 1) * _assoc(ell, am - 1, x) - _assoc(ell, am + 1, x)
        )
    val = _norm_const(ell, m) * dfac * _trig(m, theta)
    return _maybe_scalar(val, phi, theta)


def sph_harm_dtheta_over_sin(ell: int, m: int, phi, theta):
    """(1/sin phi) dY_lm/dtheta, the theta frame factor; finite at the poles."""
    if abs(m) > ell:
        raise ValueError(f"need |m| <= ell, got (ell, m) = ({ell}, {m})")
    am = abs(m)
    phi_arr = np.asarray(phi, dtype=float)
    if am == 0:
        val = np.zeros(np.broadcast(phi_arr, np.asarray(theta, dtype=float)).shape)
        return _maybe_scalar(val, phi, theta)
    x = np.cos(phi_arr)
    over_sin = (
        _assoc(ell - 1, am + 1, x) + (ell + am - 1) * (ell + am) * _assoc(ell - 1, am - 1, x)
    ) / (2 * am)
    val = _norm_const(ell, m) * over_sin * _dtrig(m, theta)
    return _maybe_scalar(val, phi, theta)


def eval_Psi(ell: int, m: int, p: BallPoint) -> float:
    """psi_ell(r) Y_lm(phi, theta)."""
    return psi(ell, p.r) * sph_harm(ell, m, p.phi, p.theta)


def eval_omega(ell: int, m: int, p: BallPoint) -> CovectorFrame:
    """Orthonormal-frame components of d Psi_lm at p.

    At r = 0 the degree-1 fields have a genuine covector limit (psi_1/sinh r
    and psi_1' both tend to 2/3); degree 0 gives the zero covector and degree
    >= 2 vanishes to order ell - 1, so zero is returned there too.
    """
    if abs(m) > ell:
        raise ValueError(f"need |m| <= ell, got (ell, m) = ({ell}, {m})")
    if ell == 0:
        return CovectorFrame(0.0, 0.0, 0.0)
    if p.r == 0.0:
        if ell >= 2:
            return CovectorFrame(0.0, 0.0, 0.0)
        lim = 2.0 / 3.0  # psi_1'(0) = lim psi_1/sinh
        return CovectorFrame(
            lim * sph_harm(1, m, p.phi, p.theta),
            lim * sph_harm_dphi(1, m, p.phi, p.theta),
            lim * sph_harm_dtheta_over_sin(1, m, p.phi, p.theta),
        )
    over_sinh = psi(ell, p.r) / math.sinh(p.r)
    return CovectorFrame(
        dpsi(ell, p.r) * sph_harm(ell, m, p.phi, p.theta),
        over_sinh * sph_harm_dphi(ell, m, p.phi, p.theta),
        over_sinh * sph_harm_dtheta_over_sin(ell, m, p.phi, p.theta),
    )


class BallField:
    """The differential of a finite harmonic expansion, as a covector field.

    Callable point by point; the quadrature below also uses the vectorized
    grid evaluation, which exploits that every mode separates into a radial
    profile times an angular factor.
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

    def _frame_grid(self, r_nodes, phi_nodes, theta_nodes):
        shape = (len(r_nodes), len(phi_nodes), len(theta_nodes))
        cr = np.zeros(shape)
        cphi = np.zeros(shape)
        ctheta = np.zeros(shape)
        phi2, theta2 = np.meshgrid(phi_nodes, theta_nodes, indexing="ij")
        sinh_r = np.sinh(r_nodes)
        for (ell, m), a in self.expansion.items():
            if a == 0.0 or ell == 0:
                continue
            dpsi_vec = np.array([dpsi(ell, r) for r in r_nodes])
            over_sinh = np.array(
                [psi(ell, r) / sh if r > 0 else dpsi(ell, r) for r, sh in zip(r_nodes, sinh_r)]
            )
            Y = sph_harm(ell, m, phi2, theta2)
            dY = sph_harm_dphi(ell, m, phi2, theta2)
            G = sph_harm_dtheta_over_sin(ell, m, phi2, theta2)
            cr += a * dpsi_vec[:, None, None] * Y[None, :, :]
            cphi += a * over_sinh[:, None, None] * dY[None, :, :]
            ctheta += a * over_sinh[:, None, None] * G[None, :, :]
        return cr, cphi, ctheta


def omega_field(ell: int, m: int) -> BallField:
    """The single-mode field omega_lm."""
    return BallField(HarmonicExpansion({(ell, m): 1.0}, truncation=ell))


def expansion_field(expansion: HarmonicExpansion) -> BallField:
    return BallField(expansion)


def _quad_nodes(r: float, order: int):
    if order < 4:
        raise ValueError(f"quadrature order must be >= 4, got {order}")
    if r <= 0:
        raise ValueError(f"ball radius must be positive, got {r}")
    xr, wr = npleg.leggauss(order)
    r_nodes = 0.5 * r * (xr + 1.0)
    r_weights = 0.5 * r * wr
    xphi, wphi = npleg.leggauss(order)
    phi_nodes = 0.5 * math.pi * (xphi + 1.0)
    phi_weights = 0.5 * math.pi * wphi
    n_theta = 2 * order
    theta_nodes = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    theta_weight = 2.0 * math.pi / n_theta
    return r_nodes, r_weights, phi_nodes, phi_weights, theta_nodes, theta_weight


def ball_l2_norm_sq(
    field: Callable[[BallPoint], CovectorFrame], r: float, order: int = 48
) -> float:
    """integral over B_r of |field|^2 dVol, by tensor-product quadrature.

    Gauss-Legendre in r and phi, uniform (trapezoid on the periodic circle)
    in theta with 2*order points.  BallField instances are evaluated on the
    whole grid at once; any other callable is sampled point by point.
    """
    r_nodes, r_w, phi_nodes, phi_w, theta_nodes, theta_w = _quad_nodes(r, order)
    if isinstance(field, BallField):
        cr, cphi, ctheta = field._frame_grid(r_nodes, phi_nodes, theta_nodes)
        sq = cr * cr + cphi * cphi + ctheta * ctheta
        bad = ~np.isfinite(sq)
        if bad.any():
            i, j, k = np.argwhere(bad)[0]
            raise ValueError(
                "nonfinite field sample at "
                f"BallPoint(r={r_nodes[i]}, phi={phi_nodes[j]}, theta={theta_nodes[k]})"
            )
        weight = (
            (r_w * np.sinh(r_nodes) ** 2)[:, None, None]
            * (phi_w * np.sin(phi_nodes))[None, :, None]
            * theta_w
        )
        return float(np.sum(sq * weight))
    total = 0.0
    for i, ri in enumerate(r_nodes):
        wi = r_w[i] * math.sinh(ri) ** 2
        for j, phij in enumerate(phi_nodes):
            wj = phi_w[j] * math.sin(phij)
            for thetak in theta_nodes:
                f = field(BallPoint(ri, phij, thetak))
                sq = f.c_r**2 + f.c_phi**2 + f.c_theta**2
                if not math.isfinite(sq):
                    raise ValueError(
                        f"nonfinite field sample at BallPoint(r={ri}, phi={phij}, theta={thetak})"
                    )
                total += wi * wj * theta_w * sq
    return total


def _angular_tables(modes, phi_nodes, theta_nodes):
    phi2, theta2 = np.meshgrid(phi_nodes, theta_nodes, indexing="ij")
    Y = np.array([sph_harm(ell, m, phi2, theta2) for ell, m in modes])
    dY = np.array([sph_harm_dphi(ell, m, phi2, theta2) for ell, m in modes])
    G = np.array([sph_harm_dtheta_over_sin(ell, m, phi2, theta2) for ell, m in modes])
    return Y, dY, G


def psi_gram(lmax: int, r: float, order: int = 48):
    """Gram matrix of the Psi_lm, ell <= lmax, in L^2(B_r).

    Returns (modes, matrix).  The tensor quadrature factors exactly through
    the radial/angular separation of each mode, which is what is exploited
    here; the arithmetic agrees with the full 3D sum.
    """
    modes = mode_indices(lmax)
    r_nodes, r_w, phi_nodes, phi_w, theta_nodes, theta_w = _quad_nodes(r, order)
    Y, _, _ = _angular_tables(modes, phi_nodes, theta_nodes)
    wang = (phi_w * np.sin(phi_nodes))[:, None] * theta_w
    A = np.einsum("aij,bij,ij->ab", Y, Y, wang)
    psi_vals = np.array([[psi(ell, rr) for rr in r_nodes] for ell, _ in modes])
    wrad = r_w * np.sinh(r_nodes) ** 2
    R = np.einsum("ak,bk,k->ab", psi_vals, psi_vals, wrad)
    return modes, R * A


def omega_gram(lmax: int, r: float, order: int = 48):
    """Gram matrix of the omega_lm, 1 <= ell <= lmax, in L^2 Omega^1(B_r)."""
    modes = mode_indices(lmax, lmin=1)
    r_nodes, r_w, phi_nodes, phi_w, theta_nodes, theta_w = _quad_nodes(r, order)
    Y, dY, G = _angular_tables(modes, phi_nodes, theta_nodes)
    wang = (phi_w * np.sin(phi_nodes))[:, None] * theta_w
    A = np.einsum("aij,bij,ij->ab", Y, Y, wang)
    B = np.einsum("aij,bij,ij->ab", dY, dY, wang) + np.einsum("aij,bij,ij->ab", G, G, wang)
    dpsi_vals = np.array([[dpsi(ell, rr) for rr in r_nodes] for ell, _ in modes])
    psi_vals = np.array([[psi(ell, rr) for rr in r_nodes] for ell, _ in modes])
    wrad_sinh = r_w * np.sinh(r_nodes) ** 2
    R1 = np.einsum("ak,bk,k->ab", dpsi_vals, dpsi_vals, wrad_sinh)
    R0 = np.einsum("ak,bk,k->ab", psi_vals, psi_vals, r_w)
    return modes, R1 * A + R0 * B


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
    1/sqrt(3 pi) each); l2_norm^2 = sum a_lm^2 N_ell(r) by mode orthogonality;
    ratio = df_at_center sqrt(nu(r)) / l2_norm <= 1, with equality exactly on
    pure degree-1 expansions.
    """
    if expansion.truncation < 1:
        raise ValueError("expansion must allow degree 1 (truncation >= 1)")
    if r <= 0:
        raise ValueError(f"ball radius must be positive, got {r}")
    df_sq = sum(
        a * a for (ell, _), a in expansion.items() if ell == 1
    )
    df_at_center = math.sqrt(df_sq / (3.0 * math.pi))
    l2_sq = sum(
        a * a * mode_norm(ell, r) for (ell, _), a in expansion.items() if ell >= 1
    )
    l2_norm = math.sqrt(l2_sq)
    if l2_norm == 0.0:
        return DfBoundReport(df_at_center, 0.0, 0.0)
    ratio = df_at_center * math.sqrt(nu(r)) / l2_norm
    return DfBoundReport(df_at_center, l2_norm, ratio)
