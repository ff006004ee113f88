"""Exact integer homology algebra for the twist-glued manifold family.

Everything here is arbitrary-precision integer arithmetic over Z^4, the
first homology of a genus-2 surface: the symplectic intersection form,
Dehn-twist transvections, the homology action of the composed twist word
driving the gluing construction, and the rank-1 Mayer-Vietoris
intersection lattices whose generators grow like powers of (3+sqrt 5)/2.

Conventions:

* Matrices act on column vectors, so a product in word order has the
  rightmost factor acting first (ordinary function composition).
* A positive twist about a primitive class c sends x to x + <x, c> c
  with <x, c> = x^T J c.
* Lattices are canonicalized in column-style Hermite normal form: basis
  vectors ordered by pivot position, pivots positive, off-pivot entries
  in each pivot row reduced into [0, pivot).  Equality of lattices is
  then equality of bases.
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
    "Lattice",
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
    "lattice_intersection",
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

MAX_POWER, MAX_MV_INDEX = 10**5, 10**4  # caps on n: ~0.02 s and ~0.2 s of work there


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


def _row_hnf(rows: Iterable[Iterable[int]]) -> list[list[int]]:
    """Row-style Hermite normal form; zero rows dropped.

    Pivots positive, entries above each pivot reduced into [0, pivot).
    Only unimodular row operations are used, so the nonzero rows span the
    same lattice as the input rows.
    """
    work = [list(r) for r in rows]
    m = len(work)
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pivot_found = False
        while True:
            nz = [i for i in range(r, m) if work[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(work[i][c]))
            if i0 != r:
                work[r], work[i0] = work[i0], work[r]
            if work[r][c] < 0:
                work[r] = [-x for x in work[r]]
            pivot = work[r][c]
            clean = True
            for i in range(r + 1, m):
                if work[i][c]:
                    q = work[i][c] // pivot
                    work[i] = [x - q * y for x, y in zip(work[i], work[r])]
                    if work[i][c]:
                        clean = False
            if clean:
                pivot_found = True
                break
        if pivot_found:
            pivot = work[r][c]
            for i in range(r):
                q = work[i][c] // pivot
                if q:
                    work[i] = [x - q * y for x, y in zip(work[i], work[r])]
            r += 1
    return work[:r]


@dataclass(frozen=True)
class Lattice:
    """Sublattice of Z^dim, stored in canonical Hermite-reduced form.

    Accepts any generating set (dependent or redundant vectors collapse);
    two lattices are equal iff their canonical bases are equal.
    """

    basis: tuple[tuple[int, ...], ...]
    dim: int

    def __init__(self, vectors: Iterable[Iterable[int]], dim: int | None = None):
        vecs = [checked_ints(v, "lattice vector") for v in vectors]
        if dim is None:
            if not vecs:
                raise ValueError("an empty generating set needs an explicit dim")
            dim = len(vecs[0])
        checked_int(dim, 1, what="dim")
        if any(len(v) != dim for v in vecs):
            raise ValueError("generating vectors of mixed dimension")
        basis = tuple(tuple(row) for row in _row_hnf(vecs))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "dim", dim)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vector: Iterable[int]) -> bool:
        """Exact membership test by back-substitution on the echelon basis."""
        v = checked_ints(vector, "vector", self.dim)
        for b in self.basis:
            p = next(i for i, x in enumerate(b) if x)
            if v[p] % b[p]:
                return False
            q = v[p] // b[p]
            if q:
                v = [x - q * y for x, y in zip(v, b)]
        return not any(v)


def lattice_intersection(first: Lattice, second: Lattice) -> Lattice:
    """Exact intersection of two sublattices of the same Z^dim.

    A vector lies in the intersection iff it is U x = W y for integer
    coefficient vectors x, y, i.e. (x, y) is in the integer kernel of the
    stacked matrix [U | -W].  The kernel is read off the Hermite form of
    that matrix's transpose augmented with an identity block: rows whose
    left block vanishes carry kernel coefficients in the right block.
    """
    if first.dim != second.dim:
        raise ValueError("lattices live in different ambient dimensions")
    if not first.basis or not second.basis:
        return Lattice((), dim=first.dim)
    r1 = first.rank
    stacked = [list(u) for u in first.basis] + [[-x for x in w] for w in second.basis]
    k = len(stacked)
    aug = [list(stacked[i]) + [int(i == j) for j in range(k)] for i in range(k)]
    gens = []
    for row in _row_hnf(aug):
        if any(row[: first.dim]):
            continue
        coeffs = row[first.dim : first.dim + r1]
        gens.append(
            tuple(
                sum(c * b[j] for c, b in zip(coeffs, first.basis))
                for j in range(first.dim)
            )
        )
    return Lattice(gens, dim=first.dim)


_E1 = (1, 0, 0, 0)
_E3 = (0, 0, 1, 0)
_E4 = (0, 0, 0, 1)


def mv_intersection(n: int) -> Lattice:
    """Invariant plane <e1, e3> meet the n-th pushforward of <e1, e4>, n <= MAX_MV_INDEX."""
    fn = COHOMOLOGY_ACTION.power(checked_int(n, 0, MAX_MV_INDEX, what="n"))
    return lattice_intersection(
        Lattice((_E1, _E3)),
        Lattice((fn.vec(_E1), fn.vec(_E4))),
    )


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
