"""Quadrature definitions of nu and N_ell, kept as test oracles.

The library evaluates both in closed form (Green's identity turns the
interior integral into boundary flux).  These are the integrals themselves,
by adaptive quadrature, so agreement tests compare two independent routes.
"""

import math

from scipy.integrate import quad

from hypnorms.radial import TAYLOR_SWITCH, dpsi, psi

QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-10, limit=200)

# Taylor coefficients of nu_integrand on rho^2, rho^4, ..., rho^12 (exact
# rationals, sympy-derived); the raw hyperbolic form cancels as rho -> 0.
_NU_INTEGRAND_TAYLOR = (2 / 3, -2 / 9, 4 / 75, -2 / 189, 2764 / 1488375, -4 / 13365)


def nu_integrand(rho: float) -> float:
    """The 6pi-normalized integrand of nu (Taylor branch below TAYLOR_SWITCH).

    nu(r) = 6 pi int_0^r [ coth^2 + 2 csch^2 - 6 rho coth csch^2
                           + rho^2 csch^2 (2 coth^2 + csch^2) ] d rho
    """
    if rho < TAYLOR_SWITCH:
        return sum(c * rho ** (2 * k + 2) for k, c in enumerate(_NU_INTEGRAND_TAYLOR))
    c = 1.0 / math.tanh(rho)
    s = 1.0 / math.sinh(rho) ** 2
    return c * c + 2.0 * s - 6.0 * rho * c * s + rho * rho * s * (2.0 * c * c + s)


def nu_quad(r: float) -> float:
    """nu(r) by adaptive quadrature, split at the Taylor switch."""
    head, _ = quad(nu_integrand, 0.0, min(r, TAYLOR_SWITCH), **QUAD_OPTS)
    if r <= TAYLOR_SWITCH:
        return 6.0 * math.pi * head
    tail, _ = quad(nu_integrand, TAYLOR_SWITCH, r, **QUAD_OPTS)
    return 6.0 * math.pi * (head + tail)


def mode_norm_quad(ell: int, r: float) -> float:
    """N_ell(r) = int_0^r [ (psi_ell')^2 sinh^2 + ell(ell+1) psi_ell^2 ] d rho."""
    ll1 = ell * (ell + 1)

    def integrand(rho: float) -> float:
        return dpsi(ell, rho) ** 2 * math.sinh(rho) ** 2 + ll1 * psi(ell, rho) ** 2

    val, _ = quad(integrand, 0.0, r, **QUAD_OPTS)
    return val
