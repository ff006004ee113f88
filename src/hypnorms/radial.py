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

Numerical notes.  The hypergeometric series converges like k^-3 tanh^(2k)(r/2),
fast for r <= 2 but uselessly slow near r = 10; for r >= 2 evaluation switches
to an exact elementary route: with x = coth r the radial ODE becomes
u'' = ell(ell+1)/(x^2-1) u, whose regular solution is (1-x^2) Q_ell'(x), and
log((x+1)/(x-1)) = 2r makes the Legendre Q_ell elementary.  That route
cancels catastrophically as r -> 0 (terms ~ r^-ell), so it is used only at
large r; conversely the raw hyperbolic expressions for psi_1, psi_1' and nu
lose ~2 log10(1/r) digits to csch^2 cancellation as r -> 0 and are replaced
below TAYLOR_SWITCH by 5-term Taylor polynomials (exact rational
coefficients; error at the switch ~ 4e-12 relative, while the raw forms are
still good to ~3e-13 there, so both sides of the switch stay well inside
the 1e-10 cross-check tolerances).  Every closed form writes coth and
csch^2 through q = exp(-2r), coth r = (1+q)/(1-q) and csch^2 r =
4q/(1-q)^2, and mode_norm never forms sinh^2 past r = 2, so psi, dpsi,
mode_norm and nu all stay finite past the overflow of sinh^2 near r = 355.
"""

from __future__ import annotations

import math

__all__ = [
    "TAYLOR_SWITCH",
    "dpsi",
    "mode_norm",
    "nu",
    "nu_closed",
    "psi",
    "psi_series",
    "dpsi_series",
]

# Exact Taylor coefficients (sympy-derived, frozen).  psi_1 on odd powers
# r, r^3, ..., r^9; its derivative on even powers 1, r^2, ..., r^8; the
# 6pi-normalized nu integrand on rho^2, ..., rho^10 (nu is its termwise
# integral).
_PSI1_TAYLOR = (2 / 3, -4 / 45, 4 / 315, -8 / 4725, 4 / 18711, -5528 / 212837625)
_DPSI1_TAYLOR = (2 / 3, -4 / 15, 4 / 63, -8 / 675, 4 / 2079, -5528 / 19348875)
_NU_INTEGRAND_TAYLOR = (2 / 3, -2 / 9, 4 / 75, -2 / 189, 2764 / 1488375, -4 / 13365)

#: Radius below which the small-r Taylor branches replace the raw hyperbolic
#: expressions (see module docstring for the error budget).
TAYLOR_SWITCH = 0.15

# Crossover from the hypergeometric series to the Legendre route; the series
# needs ~60 terms here, the Legendre route has no cancellation this far out.
_SERIES_MAX_R = 2.0


def _require_nonneg(r: float) -> None:
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"radius must be finite and nonnegative, got {r}")


def psi_series(ell: int, r: float, max_terms: int = 500) -> float:
    """Gamma-prefactored tanh^ell(r/2) * 2F1 series for psi_ell.

    Terms are generated by ratio recursion and summed until the next term
    drops below 1e-16 of the partial sum, capped at max_terms.  The cap is
    generous for r <= 2 (geometric ratio tanh^2(r/2) <= 0.58) and a genuine
    truncation for r >> 2; callers needing large radii go through psi(),
    which switches evaluation route instead of raising the cap.
    """
    if ell < 0:
        raise ValueError(f"mode index must be nonnegative, got {ell}")
    _require_nonneg(r)
    if ell == 0:
        return 1.0
    t = math.tanh(r / 2.0)
    x = t * t
    pref = math.gamma(1.5) * math.gamma(ell + 2) / math.gamma(ell + 1.5)
    a, b, c = -0.5, float(ell), ell + 1.5
    term = 1.0
    total = 1.0
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * x
        total += term
        if abs(term) < 1e-16 * abs(total):
            break
    return pref * t**ell * total


def dpsi_series(ell: int, r: float, max_terms: int = 500) -> float:
    """Termwise derivative of psi_series (same recursion, same cap)."""
    if ell < 0:
        raise ValueError(f"mode index must be nonnegative, got {ell}")
    _require_nonneg(r)
    if ell == 0:
        return 0.0
    t = math.tanh(r / 2.0)
    x = t * t
    pref = math.gamma(1.5) * math.gamma(ell + 2) / math.gamma(ell + 1.5)
    if t == 0.0:
        # only the leading t^(ell-1) term survives, and only for ell = 1
        return 0.5 * pref if ell == 1 else 0.0
    dtdr = (1.0 - x) / 2.0
    a, b, c = -0.5, float(ell), ell + 1.5
    # d/dr [ t^ell sum_k c_k x^k ] = t^(ell-1) sum_k c_k (ell+2k) x^k * dt/dr;
    # coeff accumulates c_k x^k exactly as in psi_series.
    coeff = 1.0
    total = float(ell)
    for k in range(1, max_terms + 1):
        coeff *= (a + k - 1) * (b + k - 1) / ((c + k - 1) * k) * x
        term = coeff * (ell + 2 * k)
        total += term
        if abs(term) < 1e-16 * abs(total):
            break
    return pref * t ** (ell - 1) * total * dtdr


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


def _psi_large(ell: int, r: float) -> float:
    # psi_ell = P_ell(coth r) - csch^2 r (r P_ell'(coth r) - W'(coth r)),
    # W = sum_{k=1}^{ell} P_{k-1} P_{ell-k} / k  (the polynomial part of Q_ell).
    x, s = _coth_csch2(r)
    P, dP, _ = _legendre_trio(ell, x)
    Wp = sum((dP[k - 1] * P[ell - k] + P[k - 1] * dP[ell - k]) / k for k in range(1, ell + 1))
    return P[ell] - s * (r * dP[ell] - Wp)


def _flux_large(ell: int, r: float) -> float:
    # sinh^2(r) psi_ell'(r) = -2 P' + 2x (r P' - W') + csch^2 r (r P'' - W'')
    x, s = _coth_csch2(r)
    P, dP, ddP = _legendre_trio(ell, x)
    Wp = sum((dP[k - 1] * P[ell - k] + P[k - 1] * dP[ell - k]) / k for k in range(1, ell + 1))
    Wpp = sum(
        (ddP[k - 1] * P[ell - k] + 2 * dP[k - 1] * dP[ell - k] + P[k - 1] * ddP[ell - k]) / k
        for k in range(1, ell + 1)
    )
    return -2.0 * dP[ell] + 2.0 * x * (r * dP[ell] - Wp) + s * (r * ddP[ell] - Wpp)


def _dpsi_large(ell: int, r: float) -> float:
    return _coth_csch2(r)[1] * _flux_large(ell, r)


def _poly_eval_odd(coeffs, r: float) -> float:
    # sum coeffs[k] * r^(2k+1)
    r2 = r * r
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * r2 + c
    return acc * r


def _poly_eval_even(coeffs, r: float, lead_power: int) -> float:
    # sum coeffs[k] * r^(lead_power + 2k)
    r2 = r * r
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * r2 + c
    return acc * r**lead_power if lead_power else acc


def _psi1_closed(r: float) -> float:
    if r < TAYLOR_SWITCH:
        return _poly_eval_odd(_PSI1_TAYLOR, r)
    c, s = _coth_csch2(r)
    return c - r * s


def _dpsi1_closed(r: float) -> float:
    if r < TAYLOR_SWITCH:
        return _poly_eval_even(_DPSI1_TAYLOR, r, 0)
    c, s = _coth_csch2(r)
    return 2.0 * (r * c - 1.0) * s


def psi(ell: int, r: float) -> float:
    """psi_ell(r), with the evaluation route chosen for accuracy.

    ell = 0 is the constant 1; ell = 1 uses the elementary form (Taylor below
    TAYLOR_SWITCH); other ell use the series for r < 2 and the Legendre route
    beyond.  All routes agree to better than 1e-12 relative on their overlaps
    (asserted in the test suite).
    """
    if ell < 0:
        raise ValueError(f"mode index must be nonnegative, got {ell}")
    _require_nonneg(r)
    if ell == 0:
        return 1.0
    if ell == 1:
        return _psi1_closed(r)
    if r < _SERIES_MAX_R:
        return psi_series(ell, r)
    return _psi_large(ell, r)


def dpsi(ell: int, r: float) -> float:
    """d psi_ell / dr, same route selection as psi()."""
    if ell < 0:
        raise ValueError(f"mode index must be nonnegative, got {ell}")
    _require_nonneg(r)
    if ell == 0:
        return 0.0
    if ell == 1:
        return _dpsi1_closed(r)
    if r < _SERIES_MAX_R:
        return dpsi_series(ell, r)
    return _dpsi_large(ell, r)


def _flux(ell: int, r: float) -> float:
    # sinh^2(r) psi_ell'(r); past the Taylor and series ranges in the
    # closed forms, which never form sinh^2
    if ell == 1 and r >= TAYLOR_SWITCH:
        return 2.0 * (r * _coth_csch2(r)[0] - 1.0)
    if ell >= 2 and r >= _SERIES_MAX_R:
        return _flux_large(ell, r)
    return dpsi(ell, r) * math.sinh(r) ** 2


def mode_norm(ell: int, r: float) -> float:
    """Squared L^2(B_r) norm N_ell(r) of the unit degree-ell gradient field.

    Closed form: by Green's identity (the degree-ell field is the
    differential of a harmonic function) the integral of
    (psi')^2 sinh^2 + ell(ell+1) psi^2 over [0, r] is the boundary flux
    psi_ell(r) psi_ell'(r) sinh^2(r).  psi_ell' sinh^2 is evaluated in a
    form without sinh^2, so N_ell(r) ~ ell(ell+1) r stays finite past the
    overflow of sinh^2 near r = 355.
    """
    if ell < 1:
        raise ValueError("mode_norm needs ell >= 1; the ell = 0 field vanishes")
    _require_nonneg(r)
    if r == 0:
        raise ValueError(f"radius must be positive, got {r}")
    return psi(ell, r) * _flux(ell, r)


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
