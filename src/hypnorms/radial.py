"""Radial special functions for harmonic analysis on balls in hyperbolic 3-space.

The degree-ell radial profile of a harmonic function on H^3 (regular at the
center, normalized so psi_ell(r) -> 1 as r -> infinity) is

    psi_ell(r) = Gamma(3/2) Gamma(ell+2) / Gamma(ell+3/2)
                 * tanh^ell(r/2) * 2F1(-1/2, ell; ell+3/2; tanh^2(r/2))

with psi_0 == 1 and the elementary special case

    psi_1(r) = coth(r) - r csch^2(r),     psi_1'(r) = 2 (r coth r - 1) / sinh^2 r.

The squared L^2 norm of the (unit-normalized) degree-ell gradient field over a
ball of radius r is

    N_ell(r) = int_0^r [ (psi_ell'(rho))^2 sinh^2(rho)
                         + ell(ell+1) psi_ell(rho)^2 ] d rho,

and the sharp constant in the pointwise gradient bound for harmonic functions
is nu(r) = 3 pi N_1(r).  Because psi_ell Y is harmonic, Green's identity
collapses N_ell to boundary flux, N_ell(r) = psi_ell(r) psi_ell'(r) sinh^2(r),
so N_ell and nu are read off the ladder below; the quadrature definitions
are kept in the test suite as oracles.

The Legendre ladder.  With x = coth r the radial equation becomes
u'' = ell(ell+1)/(x^2 - 1) u, and with Q_n the Legendre functions of the
second kind (Q_0(x) = r, Q_1(x) = r x - 1, (n+1) Q_(n+1) = (2n+1) x Q_n -
n Q_(n-1)) every profile is two neighbouring rungs:

    psi_ell = ell (Q_(ell-1) - x Q_ell),    sinh^2(r) psi_ell' = ell(ell+1) Q_ell.

profiles(lmax, r) climbs that ladder once per radius for every
ell <= lmax <= MAX_ELL = 40; profile, psi, dpsi and mode_norm read it.
Q is the minimal solution of the recurrence, so the direction depends on r
alone:

    r < 3.5    backward (Miller): the ratios sigma_n = Q_n / (t Q_(n-1)),
               t = tanh r, from sigma = 0 at depth MAX_ELL + 10 +
               20/ln coth(r/2), scaled by Q_0 = r.  A ratio error shrinks
               by coth(r/2)^-2 per step, so the start costs e^-40.
    r >= 3.5   forward, on psi and the flux: psi_1 = x - r s and
               flux_1 = 2(r x - 1) with s = csch^2 r, then
               psi_(n+1) = x psi_n - s flux_n / n,
               flux_(n+1) = (n+2)/n x flux_n - (n+2) psi_n, psi' = s flux.
               Rounding grows by at most coth(r/2)^(2 ell + 1), 133 at
               r = 3.5 and ell = 40, and tends to 1 as r grows.

Measured against the same ladder run forward in mpmath with 40 digits to
spare (tests/quad_oracles.py, checked there against the 2F1 form), over
6,000 radii in [1e-3, 354] and [2.5, 5.5] and every ell <= 40, the worst
relative errors are 3.9e-14 for psi, 6.3e-14 for psi' and 8.9e-14 for
N_ell, all at ell = 40 next to the switch; a switch at 3.0, 3.25, 3.75, 4.0
or 4.5 makes them larger.  From the float below the switch to the switch,
psi steps down by up to 3.4e-15 relative (8 of the 40 degrees).
Every closed form writes coth and csch^2 through q = exp(-2r),
coth r = (1+q)/(1-q) and csch^2 r = 4q/(1-q)^2, and sinh^2 is never formed
past the switch, so the profiles stay finite past the overflow of sinh^2
near r = 355; the flux ~ ell(ell+1) r itself leaves the float range near
r = 1e305, and there profiles raises ValueError.  nu(r) = 6 pi psi_1 (flux_1/2)
is the degree-one rung: past the switch that is the closed form
6 pi (coth r - r csch^2 r)(r coth r - 1) term for term, and below it the
backward ratios give psi_1 and flux_1 without the csch^2 cancellation that
costs the closed form ~2 log10(1/r) digits as r -> 0.  Against that closed
form at 120 digits, over 5,000 log-uniform radii in [1e-6, 700], the worst
relative error of nu is 2.2e-15.
"""

from __future__ import annotations

import math

__all__ = [
    "MAX_ELL",
    "dpsi",
    "mode_norm",
    "nu",
    "nu_closed",
    "profile",
    "profiles",
    "psi",
]

#: Highest mode degree profiles() evaluates.
MAX_ELL = 40

# Below this radius the ladder runs backward, from it on forward.
_SEAM = 3.5


def _require_nonneg(r: float) -> None:
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {r}")


def _coth_csch2(r: float) -> tuple[float, float]:
    # coth r = (1 + q)/(1 - q) and csch^2 r = 4q/(1 - q)^2 with q = exp(-2r):
    # finite for every r > 0, where sinh(r)**2 overflows near r = 355
    q = math.exp(-2.0 * r)
    one_minus_q = -math.expm1(-2.0 * r)
    return (1.0 + q) / one_minus_q, 4.0 * q / one_minus_q**2


def _backward(lmax: int, r: float) -> tuple[list, list, list]:
    # Miller's method on the ratios sigma_n = Q_n / (t Q_(n-1)), t = tanh r:
    # sigma_n = n / ((2n + 1) - (n + 1) t^2 sigma_(n+1)) from sigma = 0 at a
    # depth where its error has decayed by e^-40 (it shrinks by
    # coth(r/2)^-2 per step), then Q_0 = r fixes the scale.
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
    scale = (r / sh) * (t / sh) if r > 0 else 1.0  # r t / sinh^2 r, 1 at r = 0
    psi, dpsi, flux = [1.0], [0.0], [0.0]
    # q = Q_(ell-1) and v = t^(ell-1) sigma_1 ... sigma_(ell-1) = q / r, kept
    # apart so that psi' keeps its digits where r t underflows
    q, v = r, 1.0
    for ell in range(1, lmax + 1):
        c = ell * (ell + 1)
        u = v * sigma[ell]
        psi.append(ell * (q * (1.0 - sigma[ell])))
        q = q * (t * sigma[ell])
        dpsi.append(c * (scale * u))
        flux.append(c * q)
        v = u * t
    return psi, dpsi, flux


def _forward(lmax: int, r: float) -> tuple[list, list, list]:
    # psi_(n+1) = x psi_n - s flux_n / n and
    # flux_(n+1) = (n + 2)/n x flux_n - (n + 2) psi_n, x = coth r, s = csch^2 r
    x, s = _coth_csch2(r)
    p, f = x - r * s, 2.0 * (r * x - 1.0)
    psi, dpsi, flux = [1.0, p], [0.0, s * f], [0.0, f]
    for n in range(1, lmax):
        p, f = x * p - s * f / n, (n + 2) / n * x * f - (n + 2) * p
        psi.append(p)
        dpsi.append(s * f)
        flux.append(f)
    return psi[: lmax + 1], dpsi[: lmax + 1], flux[: lmax + 1]


def profiles(lmax: int, r: float) -> tuple[list, list, list]:
    """psi_ell(r), psi_ell'(r) and sinh^2(r) psi_ell'(r) for ell = 0..lmax.

    One Legendre-Q ladder in ell, run backward below r = 3.5 and forward
    from there on (module docstring); a value at a given ell does not
    depend on lmax.  r = 0 gives the limits.  Raises ValueError for lmax
    outside [0, MAX_ELL], for r not finite and nonnegative, and when a
    value would leave the float range (the flux ~ ell(ell+1) r overflows
    near r = 1e305).
    """
    if not 0 <= lmax <= MAX_ELL:
        raise ValueError(f"mode index must lie in [0, {MAX_ELL}], got {lmax}")
    _require_nonneg(r)
    out = (_backward if r < _SEAM else _forward)(lmax, r)
    if not all(math.isfinite(v) for values in out for v in values):
        raise ValueError(f"radial profiles up to degree {lmax} at r = {r} exceed the float range")
    return out


def profile(ell: int, r: float) -> tuple[float, float, float]:
    """(psi_ell(r), psi_ell'(r), sinh^2(r) psi_ell'(r)), read from profiles()."""
    psi_, dpsi_, flux = profiles(ell, r)
    return psi_[ell], dpsi_[ell], flux[ell]


def psi(ell: int, r: float) -> float:
    """psi_ell(r), read from profile()."""
    return profile(ell, r)[0]


def dpsi(ell: int, r: float) -> float:
    """d psi_ell / dr, read from profile()."""
    return profile(ell, r)[1]


def mode_norm(ell: int, r: float) -> float:
    """Squared L^2(B_r) norm N_ell(r) of the unit degree-ell gradient field.

    By Green's identity (the degree-ell field is the differential of a
    harmonic function) the integral of (psi')^2 sinh^2 + ell(ell+1) psi^2
    over [0, r] is the boundary flux psi_ell(r) sinh^2(r) psi_ell'(r) =
    ell(ell+1) psi_ell(r) Q_ell(coth r), both factors read from profile().
    No sinh^2 is formed, so N_ell(r) ~ ell(ell+1) r stays finite until the
    flux leaves the float range, where ValueError is raised.
    """
    if ell < 1:
        raise ValueError("mode_norm needs ell >= 1; the ell = 0 field vanishes")
    if r == 0:
        raise ValueError(f"radius must be positive, got {r}")
    p, _, flux = profile(ell, r)
    return p * flux


def nu(r: float) -> float:
    """The sharp gradient-bound constant nu(r) = 3 pi N_1(r), read from profile().

    nu = 6 pi psi_1 (flux_1 / 2), the boundary flux of the degree-one mode;
    from r = 3.5 on this is 6 pi (coth r - r csch^2 r)(r coth r - 1) with
    coth and csch^2 written through q = exp(-2r).  nu(0) = 0; strictly
    increasing, except that from the float below 3.5 to 3.5 the value
    steps down by 2.1e-15 relative as the ladder changes direction (psi's
    step, module docstring); ~ 4 pi r^3 / 3 as r -> 0 and 6 pi (r - 1) +
    o(1) as r -> infinity.  Finite for every r up to ~9e306, where 6 pi r
    leaves the float range and ValueError is raised.
    """
    p, _, flux = profile(1, r)
    value = 6.0 * math.pi * p * (flux / 2.0)
    if math.isinf(value):
        raise ValueError(f"nu({r}) exceeds the float range")
    return value


# An alias of nu, kept only because benchmark/fields.py imports it; ROADMAP
# item 1 deletes the alias together with that import.
nu_closed = nu
