"""The Gauss-Legendre rule and the circle grid of the ball and tube quadratures.

numpy loads only when a rule or a grid is built.
"""

import functools
import math

from ._args import checked_int

__all__ = ["MAX_ORDER", "gauss_legendre", "theta_grid"]

# The largest Gauss-Legendre order: its rule is a dense order x order
# eigenproblem, and a theta-dependent tube field makes 2 order^3 doubles per
# temporary array, about 270 MB at 256.  No caller uses more than 48.
MAX_ORDER = 256


@functools.cache
def _rule(order: int):
    # the Gauss-Legendre rule on [-1, 1], built once per order and read-only
    from numpy.polynomial import legendre as npleg

    x, w = npleg.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(a: float, b: float, order: int):
    """Gauss-Legendre nodes a + (b - a)(x + 1)/2 and weights (b - a) w/2 on [a, b].

    Raises ValueError unless order is an integer in [4, MAX_ORDER].
    """
    x, w = _rule(checked_int(order, 4, MAX_ORDER, what="quadrature order"))
    return a + 0.5 * (b - a) * (x + 1.0), 0.5 * (b - a) * w


def theta_grid(order: int):
    """2*order equal angles on the circle and their trapezoid weight; order as gauss_legendre's."""
    import numpy as np

    n = 2 * checked_int(order, 4, MAX_ORDER, what="quadrature order")
    return np.arange(n) * (2.0 * math.pi / n), 2.0 * math.pi / n
