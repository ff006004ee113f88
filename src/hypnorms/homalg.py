"""Exact integer homology algebra for the twist-glued manifold family.

Everything here is arbitrary-precision integer arithmetic over Z^4, the
first homology of a genus-2 surface: the symplectic intersection form,
Dehn-twist transvections, the homology action of the composed twist word
driving the gluing construction, and the rank-1 Mayer-Vietoris meets,
read off the integer kernel of one 2x2 matrix, whose generators grow
like powers of (3+sqrt 5)/2.

Conventions:

* Matrices act on column vectors, so a product in word order has the
  rightmost factor acting first (ordinary function composition).
* A positive twist about a primitive class c sends x to x + <x, c> c
  with <x, c> = x^T J c.
* Integer arguments follow the package's integer rule (README, Conventions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, NamedTuple

from ._args import checked_int, checked_ints

__all__ = [
    "IntMat",
    "FbarPower",
    "SYMPLECTIC_FORM",
    "MONODROMY",
    "COHOMOLOGY_ACTION",
    "INVARIANT_BLOCK",
    "GROWTH_RATE",
    "TWIST_WORD",
    "TWIST_CLASSES",
    "MAX_POWER",
    "MAX_MV_INDEX",
    "symplectic_check",
    "transvection",
    "fbar_power",
    "mv_intersection",
    "mv_generator",
    "twist_word_matrix",
]


@dataclass(frozen=True)
class IntMat:
    """Immutable square integer matrix with exact arithmetic."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(checked_ints(row, "IntMat row") for row in rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("IntMat requires a nonempty square array")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        checked_int(n, 1, what="n")
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def transpose(self) -> "IntMat":
        return IntMat(tuple(zip(*self.rows)))

    def __matmul__(self, other: "IntMat") -> "IntMat":
        if not isinstance(other, IntMat):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("matrix size mismatch")
        cols = tuple(zip(*other.rows))
        return IntMat(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def vec(self, v: Iterable[int]) -> tuple[int, ...]:
        v = checked_ints(v, "vector", self.n)
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def power(self, k: int) -> "IntMat":
        """Exact k-th power by binary exponentiation, k >= 0."""
        checked_int(k, 0, what="k")
        result = IntMat.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result


# Intersection form on H_1 of the genus-2 surface in the working basis.
SYMPLECTIC_FORM = IntMat(((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0)))

# Action of the composed twist word (see TWIST_WORD below) on H_1.
MONODROMY = IntMat(((3, 0, 1, 0), (1, 0, 0, -1), (-1, 0, 0, 0), (1, 1, 1, 3)))

# Induced action on H^1; preserves the plane spanned by coordinates 0 and 2.
COHOMOLOGY_ACTION = MONODROMY.transpose()

# Restriction of COHOMOLOGY_ACTION to that invariant plane, in its own basis.
INVARIANT_BLOCK = IntMat(((3, -1), (1, 0)))

# Dominant eigenvalue of INVARIANT_BLOCK; root of t^2 - 3t + 1.
GROWTH_RATE = (3.0 + math.sqrt(5.0)) / 2.0

MAX_POWER, MAX_MV_INDEX = 10**5, 10**4  # caps on n: ~0.02 s and ~3 ms of work there


def symplectic_check(mat: IntMat, form: IntMat) -> bool:
    """True iff mat^T form mat equals form, all exact."""
    if mat.n != form.n:
        raise ValueError("matrix and form sizes differ")
    return mat.transpose() @ form @ mat == form


def transvection(gamma: Iterable[int], sign: int) -> IntMat:
    """Matrix of x -> x + sign * <x, gamma> * gamma, with <x, c> = x^T SYMPLECTIC_FORM c.

    gamma must be a nonzero primitive integer vector; the result is always
    symplectic, and is even in gamma.
    """
    n = SYMPLECTIC_FORM.n
    gamma = checked_ints(gamma, "gamma", n)
    if not any(gamma):
        raise ValueError("twist curve class must be nonzero")
    if math.gcd(*gamma) != 1:
        raise ValueError("twist curve class must be primitive")
    if not checked_int(sign, -1, 1, what="sign"):
        raise ValueError("twist sign must be +1 or -1")
    fg = SYMPLECTIC_FORM.vec(gamma)
    return IntMat(
        tuple(
            tuple(int(i == j) + sign * gamma[i] * fg[j] for j in range(n))
            for i in range(n)
        )
    )


class FbarPower(NamedTuple):
    """Entries of the n-th power of INVARIANT_BLOCK, row-major."""

    a: int
    b: int
    c: int
    d: int


def fbar_power(n: int) -> FbarPower:
    """Exact entries of INVARIANT_BLOCK**n.

    The top-left and bottom-left entries satisfy the three-term recurrence
    x_{n+1} = 3 x_n - x_{n-1} and stay coprime for every n (the power is
    unimodular, so its columns are primitive).  n <= MAX_POWER.
    """
    m = INVARIANT_BLOCK.power(checked_int(n, 0, MAX_POWER, what="n"))
    return FbarPower(m.rows[0][0], m.rows[0][1], m.rows[1][0], m.rows[1][1])


_E1 = (1, 0, 0, 0)
_E4 = (0, 0, 0, 1)


def mv_intersection(n: int) -> tuple[tuple[int, ...], ...]:
    """Basis of the invariant plane <e1, e3> meet F^n <e1, e4>, F = COHOMOLOGY_ACTION.

    F is unimodular, so w1 = F^n e1 and w4 = F^n e4 are a basis of the
    pushed lattice, and the meet is {x w1 + y w4 : M (x, y)^T = 0} for the
    2x2 matrix M = [[p, q], [r, s]] of their coordinates 1 and 3 (0-based).
    It has rank 2 - rank M: no vector when M is invertible, (w1, w4) when
    M = 0, and otherwise the one generator x w1 + y w4 from the primitive
    kernel vector (x, y), signed so that its first nonzero entry is
    positive.  n <= MAX_MV_INDEX.
    """
    fn = COHOMOLOGY_ACTION.power(checked_int(n, 0, MAX_MV_INDEX, what="n"))
    w1, w4 = fn.vec(_E1), fn.vec(_E4)
    (p, q), (r, s) = (w1[1], w4[1]), (w1[3], w4[3])
    if p * s != q * r:
        return ()
    if not (p or q or r or s):
        return (w1, w4)
    if not (p or q):
        p, q = r, s
    g = math.gcd(p, q)
    v = tuple((q * a - p * b) // g for a, b in zip(w1, w4))
    return (v if next(filter(None, v)) > 0 else tuple(-a for a in v),)


def mv_generator(n: int) -> tuple[int, int, int, int]:
    """Generator a_n e1 + c_n e3 of the rank-1 intersection mv_intersection(n).

    The coefficients are the left column of INVARIANT_BLOCK**n, read off
    fbar_power alone; that they are coprime and span the intersection is
    checked by suite_homalg and the test suite, not here.
    """
    p = fbar_power(n)
    return (p.a, 0, p.c, 0)


# The composed twist word, leftmost letter = leftmost matrix factor.
TWIST_WORD = (("a", 1), ("d", -1), ("c", 1), ("b", -1), ("d", 1), ("c", -1), ("e", -1))

# Homology classes of the twist curves a..e in the basis e1..e4, found by
# scripts/derive_twist_classes.py: an exhaustive search over class vectors
# with entries in {-1, 0, 1} in the 5-chain intersection pattern (adjacent
# curves pair to +-1, others to 0), over both twist handednesses and both
# composition orders.  A transvection does not see the sign of its curve, so
# each class is normalized to a positive first nonzero entry.  The search
# also finds a second, non-chain-geometric solution under the reversed order;
# only f_* = MONODROMY is contractual, and this is the geometric chain.
TWIST_CLASSES = MappingProxyType({
    "a": (1, 0, 0, 0),
    "b": (0, 1, 0, 0),
    "c": (1, 0, -1, 0),
    "d": (0, 0, 0, 1),
    "e": (0, 0, 1, 0),
})


def twist_word_matrix() -> IntMat:
    """Homology action of TWIST_WORD on TWIST_CLASSES; equals MONODROMY."""
    result = IntMat.identity(SYMPLECTIC_FORM.n)
    for name, expo in TWIST_WORD:
        result = result @ transvection(TWIST_CLASSES[name], expo)
    return result
