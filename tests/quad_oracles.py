"""Direct quadrature routes and independent radial evaluators, kept as test oracles.

The library reads N_ell and nu = 3 pi N_1 off one float Legendre-Q ladder in
ell as boundary flux (Green's identity turns the interior integral into
it).  nu_quad and mode_norm_quad are the integrals themselves, by adaptive
quadrature, so agreement tests compare two independent routes;
nu_integrand is the elementary degree-one integrand, with its own Taylor
branch below NU_TAYLOR_SWITCH.  series_profile sums the defining 2F1
series and q_ladder_profile runs the ladder in mpmath at raised precision.
int_counter_backward is the library's float backward ladder as it was
before its loop read float coefficients from a table, kept to pin that
rewrite bit for bit.

The library assembles its ball Gram matrices from factor Grams and
evaluates tube fields on one broadcast grid.  full_mesh_psi_gram,
full_mesh_omega_gram and pointwise_tube_l2_norm_sq sum the same tensor
grids without any factoring: full (phi, theta) meshes with one radial
profile row per mode, and one field call per tube node.  The library
integrates the tube competitors through its general tube quadrature;
rz_competitor_norm_sq is their own (r, z) sum, with the bump and its
derivative written out and the theta integral taken as an exact 2 pi.

The library integrates an expansion's differential only through Gram
matrices and never evaluates it at a point.  The pointwise evaluator lives
here: sph_harm, sph_harm_dphi and sph_harm_dtheta_over_sin are the real
spherical harmonics of the ballfield convention on scalars or meshes.  Their
phi factors come from _assoc, one upward recurrence in ell per call, and the
library's rewrites of d/dphi and 1/sin(phi), so they stay independent of the
library's one Legendre table; their theta factors are the library's.
covector_at gives the coframe components of d Psi at one point (r, phi,
theta); and pointwise_l2_norm_sq sums their squares over ball_l2_norm_sq's
grid, one point at a time.
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from hypnorms.ballfield import _dtrig, _norm_const, _trig, mode_indices
from hypnorms.quadrature import gauss_legendre, theta_grid
from hypnorms.radial import MAX_ELL, dpsi, profiles, psi

QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-10, limit=200)

# Below this radius nu_integrand is its Taylor polynomial, whose
# coefficients on rho^2, rho^4, ..., rho^12 are exact rationals
# (sympy-derived); the raw hyperbolic form cancels as rho -> 0.
NU_TAYLOR_SWITCH = 0.15
_NU_INTEGRAND_TAYLOR = (2 / 3, -2 / 9, 4 / 75, -2 / 189, 2764 / 1488375, -4 / 13365)


def nu_integrand(rho: float) -> float:
    """The 6pi-normalized integrand of nu (Taylor branch below NU_TAYLOR_SWITCH).

    nu(r) = 6 pi int_0^r [ coth^2 + 2 csch^2 - 6 rho coth csch^2
                           + rho^2 csch^2 (2 coth^2 + csch^2) ] d rho
    """
    if rho < NU_TAYLOR_SWITCH:
        return sum(c * rho ** (2 * k + 2) for k, c in enumerate(_NU_INTEGRAND_TAYLOR))
    c = 1.0 / math.tanh(rho)
    s = 1.0 / math.sinh(rho) ** 2
    return c * c + 2.0 * s - 6.0 * rho * c * s + rho * rho * s * (2.0 * c * c + s)


def nu_quad(r: float) -> float:
    """nu(r) by adaptive quadrature, split at the Taylor switch."""
    head, _ = quad(nu_integrand, 0.0, min(r, NU_TAYLOR_SWITCH), **QUAD_OPTS)
    if r <= NU_TAYLOR_SWITCH:
        return 6.0 * math.pi * head
    tail, _ = quad(nu_integrand, NU_TAYLOR_SWITCH, r, **QUAD_OPTS)
    return 6.0 * math.pi * (head + tail)


def mode_norm_quad(ell: int, r: float) -> float:
    """N_ell(r) = int_0^r [ (psi_ell')^2 sinh^2 + ell(ell+1) psi_ell^2 ] d rho."""
    ll1 = ell * (ell + 1)

    def integrand(rho: float) -> float:
        return dpsi(ell, rho) ** 2 * math.sinh(rho) ** 2 + ll1 * psi(ell, rho) ** 2

    val, _ = quad(integrand, 0.0, r, **QUAD_OPTS)
    return val


def series_profile(ell: int, r: float, max_terms: int = 500) -> tuple[float, float, float]:
    """(psi, psi', sinh^2 psi') from the Gamma-prefactored 2F1 series.

    psi_ell = pref t^ell sum_k c_k x^k with t = tanh(r/2), x = t^2, and
    psi_ell' = pref t^(ell-1) sum_k c_k (ell + 2k) x^k dt/dr.  One ratio
    recursion feeds both sums; each stops on its own once its next term
    drops below 1e-16 of its partial sum, capped at max_terms.  The terms
    fall like k^-3 tanh^(2k)(r/2), so the cap is a genuine truncation past
    r ~ 4.5 unless the caller raises it.
    """
    t = math.tanh(r / 2.0)
    x = t * t
    pref = math.gamma(1.5) * math.gamma(ell + 2) / math.gamma(ell + 1.5)
    a, b, c = -0.5, float(ell), ell + 1.5
    term = 1.0
    total, dtotal = 1.0, float(ell)
    psi_done = dpsi_done = False
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * x
        if not psi_done:
            total += term
            psi_done = abs(term) < 1e-16 * abs(total)
        if not dpsi_done:
            dterm = term * (ell + 2 * k + 2)
            dtotal += dterm
            dpsi_done = abs(dterm) < 1e-16 * abs(dtotal)
        if psi_done and dpsi_done:
            break
    d = pref * t ** (ell - 1) * dtotal * (1.0 - x) / 2.0
    return pref * t**ell * total, d, d * math.sinh(r) ** 2


def q_ladder_profile(ell: int, r: float):
    """psi_ell, psi_ell' and N_ell at r > 0 from the Legendre-Q ladder in mpmath.

    With x = coth r, Q_0 = r and Q_1 = r x - 1, and (n + 1) Q_(n+1) =
    (2n + 1) x Q_n - n Q_(n-1) runs forward to Q_ell.  Forward is the
    unstable direction for this minimal solution, losing about
    (2 ell + 1) log10 coth(r/2) digits, so the working precision is 40
    digits plus that loss.  Then psi_ell = ell (Q_(ell-1) - x Q_ell),
    sinh^2(r) psi_ell' = ell (ell + 1) Q_ell and N_ell = psi_ell times
    that flux.
    """
    lost = (2 * ell + 1) * math.log10(1.0 / math.tanh(r / 2.0)) + math.log10(ell * (r + 1.0))
    with mp.workdps(40 + int(lost)):
        r = mp.mpf(r)
        x = mp.coth(r)
        q_prev, q = r, r * x - 1
        for n in range(1, ell):
            q_prev, q = q, ((2 * n + 1) * x * q - n * q_prev) / (n + 1)
        p = ell * (q_prev - x * q)
        flux = ell * (ell + 1) * q
        return float(p), float(flux / mp.sinh(r) ** 2), float(p * flux)


def int_counter_backward(lmax: int, r: float) -> tuple[list, list, list]:
    """profiles(lmax, r) for 0 <= r < 3.5 from the backward ladder with int counters.

    The library's Miller loop reads n, 2n + 1 and n + 1 as floats from a
    table; this copy of the loop it replaced mixes the int counters into
    every step instead.  Python converts those small ints to float exactly,
    so the two must agree bit for bit.
    """
    t = math.tanh(r)
    t2 = t * t
    depth = 20.0 / math.log1p(2.0 / math.expm1(r)) if r > 0 else 0.0
    sigma = [0.0] * (lmax + 1)
    s = 0.0
    for n in range(MAX_ELL + 10 + int(depth), 0, -1):
        s = n / ((2 * n + 1) - (n + 1) * t2 * s)
        if n <= lmax:
            sigma[n] = s
    sh = math.sinh(r)
    scale = (r / sh) * (t / sh) if r > 0 else 1.0
    psi_, dpsi_, flux = [1.0], [0.0], [0.0]
    q, v = r, 1.0
    for ell in range(1, lmax + 1):
        c = ell * (ell + 1)
        u = v * sigma[ell]
        psi_.append(ell * (q * (1.0 - sigma[ell])))
        q = q * (t * sigma[ell])
        dpsi_.append(c * (scale * u))
        flux.append(c * q)
        v = u * t
    return psi_, dpsi_, flux


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


def _grid(r, order):
    # ball_l2_norm_sq's tensor grid: r, phi and theta nodes with their weights
    return (*gauss_legendre(0.0, r, order), *gauss_legendre(0.0, math.pi, order),
            *theta_grid(order))


def sph_harm(ell, m, phi, theta):
    """Real orthonormal Y_lm (ballfield convention), |m| <= ell."""
    return _norm_const(ell, m) * _assoc(ell, abs(m), np.cos(phi)) * _trig(m, theta)


def sph_harm_dphi(ell, m, phi, theta):
    """d Y_lm / d phi."""
    return _norm_const(ell, m) * _dphi_factor(ell, abs(m), np.cos(phi)) * _trig(m, theta)


def sph_harm_dtheta_over_sin(ell, m, phi, theta):
    """(1/sin phi) d Y_lm / d theta, finite at the poles."""
    if m == 0:
        return np.zeros(np.broadcast(phi, theta).shape)
    return _norm_const(ell, m) * _over_sin_factor(ell, abs(m), np.cos(phi)) * _dtrig(m, theta)


def covector_at(expansion, r, phi, theta):
    """Orthonormal-coframe components (c_r, c_phi, c_theta) of d Psi at one point.

    Mode (ell, m) adds a_lm (psi_ell' Y_lm, psi_ell/sinh(r) dY_lm/dphi,
    psi_ell/(sinh(r) sin(phi)) dY_lm/dtheta).  At r = 0 psi_ell/sinh r is
    its limit psi_ell'(0), 2/3 for ell = 1 and 0 above, so degree 1 has a
    genuine covector there.  At the poles the components are the
    fixed-theta limits.
    """
    p, dp, _ = profiles(expansion.truncation, r)
    c_r = c_phi = c_theta = 0.0
    for (ell, m), a in expansion.items():
        over_sinh = p[ell] / math.sinh(r) if r > 0 else dp[ell]
        c_r += a * dp[ell] * sph_harm(ell, m, phi, theta)
        c_phi += a * over_sinh * sph_harm_dphi(ell, m, phi, theta)
        c_theta += a * over_sinh * sph_harm_dtheta_over_sin(ell, m, phi, theta)
    return c_r, c_phi, c_theta


def pointwise_l2_norm_sq(expansion, r, order):
    """ball_l2_norm_sq on the same tensor grid, sampled point by point."""
    r_nodes, r_w, phi_nodes, phi_w, theta_nodes, theta_w = _grid(r, order)
    total = 0.0
    for ri, wr in zip(r_nodes, r_w):
        for phij, wphi in zip(phi_nodes, phi_w):
            weight = wr * math.sinh(ri) ** 2 * wphi * math.sin(phij) * theta_w
            for thetak in theta_nodes:
                total += weight * sum(c * c for c in covector_at(expansion, ri, phij, thetak))
    return total


def _mesh_tables(modes, phi_nodes, theta_nodes):
    phi2, theta2 = np.meshgrid(phi_nodes, theta_nodes, indexing="ij")
    Y = np.array([sph_harm(ell, m, phi2, theta2) for ell, m in modes])
    dY = np.array([sph_harm_dphi(ell, m, phi2, theta2) for ell, m in modes])
    G = np.array([sph_harm_dtheta_over_sin(ell, m, phi2, theta2) for ell, m in modes])
    return Y, dY, G


def full_mesh_psi_gram(lmax, r, order):
    """Gram matrix of the Psi_lm, ell <= lmax, summed over the full 3-D grid."""
    modes = mode_indices(lmax)
    r_nodes, r_w, phi_nodes, phi_w, theta_nodes, theta_w = _grid(r, order)
    Y, _, _ = _mesh_tables(modes, phi_nodes, theta_nodes)
    wang = (phi_w * np.sin(phi_nodes))[:, None] * theta_w
    A = np.einsum("aij,bij,ij->ab", Y, Y, wang)
    psi_vals = np.array([[psi(ell, rr) for rr in r_nodes] for ell, _ in modes])
    wrad = r_w * np.sinh(r_nodes) ** 2
    R = np.einsum("ak,bk,k->ab", psi_vals, psi_vals, wrad)
    return modes, R * A


def full_mesh_omega_gram(modes, r, order):
    """Gram matrix of the omega_lm over the given modes (ell >= 1), full 3-D grid."""
    r_nodes, r_w, phi_nodes, phi_w, theta_nodes, theta_w = _grid(r, order)
    Y, dY, G = _mesh_tables(modes, phi_nodes, theta_nodes)
    wang = (phi_w * np.sin(phi_nodes))[:, None] * theta_w
    A = np.einsum("aij,bij,ij->ab", Y, Y, wang)
    B = np.einsum("aij,bij,ij->ab", dY, dY, wang) + np.einsum("aij,bij,ij->ab", G, G, wang)
    dpsi_vals = np.array([[dpsi(ell, rr) for rr in r_nodes] for ell, _ in modes])
    psi_vals = np.array([[psi(ell, rr) for rr in r_nodes] for ell, _ in modes])
    wrad_sinh = r_w * np.sinh(r_nodes) ** 2
    R1 = np.einsum("ak,bk,k->ab", dpsi_vals, dpsi_vals, wrad_sinh)
    R0 = np.einsum("ak,bk,k->ab", psi_vals, psi_vals, r_w)
    return R1 * A + R0 * B


def pointwise_tube_l2_norm_sq(t, field, order=24):
    """tube_l2_norm_sq on the same grid, one scalar field call per node."""
    r_nodes, r_w = gauss_legendre(0.0, t.R, order)
    z_nodes, z_w = gauss_legendre(0.0, t.epsilon, order)
    theta_nodes, theta_w = theta_grid(order)
    total = 0.0
    for r, wr in zip(r_nodes, r_w):
        sh, ch = math.sinh(r), math.cosh(r)
        for theta in theta_nodes:
            for z, wz in zip(z_nodes, z_w):
                a, b, c = field(r, theta, z)
                sq = a * a + (b / sh) ** 2 + (c / ch) ** 2
                total += wr * theta_w * wz * sq * sh * ch
    return total


def _rz_bump(r, R):
    u = (np.asarray(r, dtype=float) - 0.1 * R) / (0.8 * R)
    inside = (u > 0.0) & (u < 1.0)
    return np.where(inside, np.sin(math.pi * np.clip(u, 0.0, 1.0)) ** 3, 0.0)


def _rz_dbump(r, R):
    u = (np.asarray(r, dtype=float) - 0.1 * R) / (0.8 * R)
    inside = (u > 0.0) & (u < 1.0)
    uc = np.clip(u, 0.0, 1.0)
    return np.where(
        inside,
        3.0 * math.pi / (0.8 * R) * np.sin(math.pi * uc) ** 2 * np.cos(math.pi * uc),
        0.0,
    )


def rz_competitor_norm_sq(t, s, order=48):
    """||dz/eps + s d(bump(r) sin(2 pi z/eps))||^2 as 2 pi times an (r, z) sum."""
    r_nodes, r_w = gauss_legendre(0.0, t.R, order)
    z_nodes, z_w = gauss_legendre(0.0, t.epsilon, order)
    sh, ch = np.sinh(r_nodes), np.cosh(r_nodes)
    B, dB = _rz_bump(r_nodes, t.R), _rz_dbump(r_nodes, t.R)
    g = np.sin(2.0 * math.pi * z_nodes / t.epsilon)
    dg = (2.0 * math.pi / t.epsilon) * np.cos(2.0 * math.pi * z_nodes / t.epsilon)
    w_r = (s * dB)[:, None] * g[None, :]
    w_z = 1.0 / t.epsilon + s * B[:, None] * dg[None, :]
    sq = w_r**2 + w_z**2 / ch[:, None] ** 2
    weight = (r_w * sh * ch)[:, None] * z_w[None, :]
    return 2.0 * math.pi * float(np.sum(sq * weight))
