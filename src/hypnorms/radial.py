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
which yields the closed form

    nu(r) = 6 pi (coth r - r csch^2 r)(r coth r - 1).

Both are evaluated here in closed form; the quadrature definitions are
kept in the test suite as oracles.

Routes.  profile(ell, r) picks one route per (ell, r) and returns psi_ell,
psi_ell' and the flux sinh^2(r) psi_ell' from one pass of it; psi, dpsi and
mode_norm read its values.  ell is validated up to MAX_ELL = 40.

    ell = 0    any r                  psi = 1, psi' = 0
    ell = 1    r < TAYLOR_SWITCH      Taylor polynomials of psi_1 and psi_1'
               r >= TAYLOR_SWITCH     the elementary form above
    ell >= 2   r < seam(ell)          hypergeometric series
               r >= seam(ell)         Legendre route

with seam(ell) = 2 + max(0, ell - 10)/15: 2 up to ell = 10, 4 at ell = 40.

Numerical notes.  The hypergeometric series converges like
k^-3 tanh^(2k)(r/2): fast for r <= 2, still within 4e-15 of mpmath up to
r = 4.25 for every ell <= 40, and cut short by its 500-term cap past
r = 4.5 (1e-10 at r = 5, 1e-6 at r = 6).  From the seam on, evaluation
switches to an exact elementary route: with x = coth r the radial ODE
becomes u'' = ell(ell+1)/(x^2-1) u, whose regular solution is
(1-x^2) Q_ell'(x), and log((x+1)/(x-1)) = 2r makes the Legendre Q_ell
elementary.  That route cancels catastrophically as r -> 0 (terms ~ r^-ell;
at r = 2 it is off by 5.5e-12 at ell = 20 and 4e-8 at ell = 40), which is
why the seam moves out with ell; from the seam on it stays within 5e-13 of
mpmath.  The raw hyperbolic expressions for psi_1, psi_1' and nu lose
~2 log10(1/r) digits to csch^2 cancellation as r -> 0 and are replaced
below TAYLOR_SWITCH by 6-term Taylor polynomials (exact rational
coefficients; error at the switch ~ 4e-12 relative, while the raw forms are
still good to ~3e-13 there, so both sides of the switch stay well inside
the 1e-10 cross-check tolerances).  Every closed form writes coth and
csch^2 through q = exp(-2r), coth r = (1+q)/(1-q) and
csch^2 r = 4q/(1-q)^2, and sinh^2 is formed only below the seam, so psi,
dpsi, mode_norm and nu all stay finite past the overflow of sinh^2 near
r = 355.
"""

from __future__ import annotations

import math

__all__ = [
    "MAX_ELL",
    "TAYLOR_SWITCH",
    "dpsi",
    "mode_norm",
    "nu",
    "nu_closed",
    "profile",
    "psi",
]

# Exact Taylor coefficients (sympy-derived, frozen).  psi_1 on odd powers
# r, r^3, ..., r^11; its derivative on even powers 1, r^2, ..., r^10; the
# 6pi-normalized nu integrand on rho^2, ..., rho^12 (nu is its termwise
# integral).
_PSI1_TAYLOR = (2 / 3, -4 / 45, 4 / 315, -8 / 4725, 4 / 18711, -5528 / 212837625)
_DPSI1_TAYLOR = (2 / 3, -4 / 15, 4 / 63, -8 / 675, 4 / 2079, -5528 / 19348875)
_NU_INTEGRAND_TAYLOR = (2 / 3, -2 / 9, 4 / 75, -2 / 189, 2764 / 1488375, -4 / 13365)

#: Radius below which the small-r Taylor branches replace the raw hyperbolic
#: expressions (see module docstring for the error budget).
TAYLOR_SWITCH = 0.15

#: Highest mode degree whose routes are validated against mpmath.
MAX_ELL = 40


def _seam(ell: int) -> float:
    # crossover from the series to the Legendre route: 2 up to ell = 10,
    # then later as the Legendre route's cancellation grows, 4 at ell = 40
    return 2.0 + max(0, ell - 10) / 15.0


def _require_nonneg(r: float) -> None:
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {r}")


def _series(ell: int, r: float, max_terms: int = 500) -> tuple[float, float, float]:
    """(psi, psi', sinh^2 psi') from the Gamma-prefactored 2F1 series.

    psi_ell = pref t^ell sum_k c_k x^k with t = tanh(r/2), x = t^2, and
    psi_ell' = pref t^(ell-1) sum_k c_k (ell + 2k) x^k dt/dr.  One ratio
    recursion feeds both sums; each stops on its own once its next term
    drops below 1e-16 of its partial sum, capped at max_terms.  The cap is
    generous below the seam and a genuine truncation far beyond it.
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


def _legendre_trio(ell: int, x: float) -> tuple[list, list, list]:
    """P_0..P_ell and first two derivatives at x, by the standard recurrences."""
    P = [1.0, x]
    dP = [0.0, 1.0]
    ddP = [0.0, 0.0]
    for n in range(1, ell + 1):
        P.append(((2 * n + 1) * x * P[n] - n * P[n - 1]) / (n + 1))
        dP.append(((2 * n + 1) * (P[n] + x * dP[n]) - n * dP[n - 1]) / (n + 1))
        ddP.append(((2 * n + 1) * (2 * dP[n] + x * ddP[n]) - n * ddP[n - 1]) / (n + 1))
    return P, dP, ddP


def _coth_csch2(r: float) -> tuple[float, float]:
    # coth r = (1 + q)/(1 - q) and csch^2 r = 4q/(1 - q)^2 with q = exp(-2r):
    # finite for every r > 0, where sinh(r)**2 overflows near r = 355
    q = math.exp(-2.0 * r)
    one_minus_q = -math.expm1(-2.0 * r)
    return (1.0 + q) / one_minus_q, 4.0 * q / one_minus_q**2


def _legendre(ell: int, r: float) -> tuple[float, float, float]:
    # with x = coth r, s = csch^2 r and W = sum_{k=1}^{ell} P_{k-1} P_{ell-k} / k
    # (the polynomial part of Q_ell):
    #   psi_ell          = P_ell - s (r P_ell' - W')
    #   sinh^2 psi_ell'  = -2 P_ell' + 2x (r P_ell' - W') + s (r P_ell'' - W'')
    x, s = _coth_csch2(r)
    P, dP, ddP = _legendre_trio(ell, x)
    Wp = sum((dP[k - 1] * P[ell - k] + P[k - 1] * dP[ell - k]) / k for k in range(1, ell + 1))
    Wpp = sum(
        (ddP[k - 1] * P[ell - k] + 2 * dP[k - 1] * dP[ell - k] + P[k - 1] * ddP[ell - k]) / k
        for k in range(1, ell + 1)
    )
    flux = -2.0 * dP[ell] + 2.0 * x * (r * dP[ell] - Wp) + s * (r * ddP[ell] - Wpp)
    return P[ell] - s * (r * dP[ell] - Wp), s * flux, flux


def _poly_eval_even(coeffs, r: float, lead_power: int) -> float:
    # sum coeffs[k] * r^(lead_power + 2k)
    r2 = r * r
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * r2 + c
    return acc * r**lead_power if lead_power else acc


def _degree_one(r: float) -> tuple[float, float, float]:
    # psi_1 = coth r - r csch^2 r and sinh^2 psi_1' = 2 (r coth r - 1)
    if r < TAYLOR_SWITCH:
        d = _poly_eval_even(_DPSI1_TAYLOR, r, 0)
        return _poly_eval_even(_PSI1_TAYLOR, r, 1), d, d * math.sinh(r) ** 2
    c, s = _coth_csch2(r)
    flux = 2.0 * (r * c - 1.0)
    return c - r * s, flux * s, flux


def profile(ell: int, r: float) -> tuple[float, float, float]:
    """(psi_ell(r), psi_ell'(r), sinh^2(r) psi_ell'(r)) from one route.

    The route is chosen once per (ell, r), as in the module docstring's
    table: ell = 0 is the constant 1; ell = 1 the elementary form (Taylor
    below TAYLOR_SWITCH); other ell the series below the seam
    2 + max(0, ell - 10)/15 and the Legendre route from there on.  The
    values on the two sides of each switch agree to better than 1e-12
    relative (asserted in the test suite).  Raises ValueError for ell
    outside [0, MAX_ELL] and for r not finite and nonnegative.
    """
    if not 0 <= ell <= MAX_ELL:
        raise ValueError(f"mode index must lie in [0, {MAX_ELL}], got {ell}")
    _require_nonneg(r)
    if ell == 0:
        return 1.0, 0.0, 0.0
    if ell == 1:
        return _degree_one(r)
    if r < _seam(ell):
        return _series(ell, r)
    return _legendre(ell, r)


def psi(ell: int, r: float) -> float:
    """psi_ell(r), read from profile()."""
    return profile(ell, r)[0]


def dpsi(ell: int, r: float) -> float:
    """d psi_ell / dr, read from profile()."""
    return profile(ell, r)[1]


def mode_norm(ell: int, r: float) -> float:
    """Squared L^2(B_r) norm N_ell(r) of the unit degree-ell gradient field.

    Closed form: by Green's identity (the degree-ell field is the
    differential of a harmonic function) the integral of
    (psi')^2 sinh^2 + ell(ell+1) psi^2 over [0, r] is the boundary flux
    psi_ell(r) psi_ell'(r) sinh^2(r), both factors from profile().  Past the
    Taylor and series ranges the flux is evaluated in a form without
    sinh^2, so N_ell(r) ~ ell(ell+1) r stays finite past the overflow of
    sinh^2 near r = 355.
    """
    if ell < 1:
        raise ValueError("mode_norm needs ell >= 1; the ell = 0 field vanishes")
    if r == 0:
        raise ValueError(f"radius must be positive, got {r}")
    p, _, flux = profile(ell, r)
    return p * flux


def _nu_taylor_integral(r: float) -> float:
    # exact termwise integral of the Taylor integrand: sum c_k r^(2k+3)/(2k+3)
    coeffs = tuple(c / (2 * k + 3) for k, c in enumerate(_NU_INTEGRAND_TAYLOR))
    return _poly_eval_even(coeffs, r, 3)


def nu(r: float) -> float:
    """The sharp gradient-bound constant nu(r) = 3 pi N_1(r), in closed form.

    nu(r) = 6 pi (coth r - r csch^2 r)(r coth r - 1), the boundary flux of
    the degree-one mode; below TAYLOR_SWITCH the termwise integral of the
    integrand's Taylor polynomial.  nu(0) = 0; strictly increasing;
    ~ 4 pi r^3 / 3 as r -> 0 and 6 pi (r - 1) + o(1) as r -> infinity.
    With q = exp(-2r), coth r = (1 + q)/(1 - q) and csch^2 r = 4q/(1 - q)^2,
    so the value is finite for every r up to ~9e306, where 6 pi r leaves
    the float range and ValueError is raised.
    """
    _require_nonneg(r)
    if r < TAYLOR_SWITCH:
        return 6.0 * math.pi * _nu_taylor_integral(r)
    c, s = _coth_csch2(r)
    value = 6.0 * math.pi * (c - r * s) * (r * c - 1.0)
    if math.isinf(value):
        raise ValueError(f"nu({r}) exceeds the float range")
    return value


# Kept for callers that name the closed form explicitly (benchmark/fields.py).
nu_closed = nu
