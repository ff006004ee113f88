"""Search for homology classes of the five twist curves.

The composed twist word  t_a t_d^-1 t_c t_b^-1 t_d t_c^-1 t_e^-1  (homalg's
TWIST_WORD) must act on H_1 of the genus-2 surface as the matrix MONODROMY.
The figure the word comes from does not pin down orientations, twist
handedness, or the composition order, so we search:

  * class vectors for a..e with entries in {-1, 0, 1} (a transvection does
    not see the sign of its curve class, so vectors are enumerated up to
    sign),
  * constrained to the 5-chain intersection pattern
    |<a,b>| = |<b,c>| = |<c,d>| = |<d,e>| = 1, all other pairs 0,
    which is what a standard chain of twist curves on a genus-2 surface
    produces,
  * both handedness conventions (positive twist = T_{+} or T_{-}),
  * both composition orders (apply leftmost twist first or last).

Writes every solution found to stdout; the first one is frozen into
homalg.TWIST_CLASSES by hand.  If the chain search found nothing we would
fall back to an unconstrained meet-in-the-middle sweep, but it does not
come to that (see output).

Run from the repository root with the package importable:

    PYTHONPATH=src python scripts/derive_twist_classes.py
"""

from functools import cache
from itertools import product

from hypnorms.homalg import MONODROMY, SYMPLECTIC_FORM, TWIST_WORD, IntMat, transvection


@cache
def pairing(x, y):
    return sum(a * b for a, b in zip(x, SYMPLECTIC_FORM.vec(y)))


def candidates():
    seen = set()
    for v in product((-1, 0, 1), repeat=4):
        if v == (0, 0, 0, 0):
            continue
        if tuple(-x for x in v) in seen:
            continue
        seen.add(v)
        yield v


CANDS = list(candidates())

# the search composes the same 80 (class, sign) transvections over and over
twist = cache(transvection)


def compose(classes, handedness, reverse):
    named = dict(zip("abcde", classes))
    word = TWIST_WORD[::-1] if reverse else TWIST_WORD
    M = IntMat.identity(4)
    for name, expo in word:
        M = M @ twist(named[name], handedness * expo)
    return M


def main():
    chain_tuples = []
    for a in CANDS:
        for b in CANDS:
            if abs(pairing(a, b)) != 1:
                continue
            for c in CANDS:
                if pairing(a, c) != 0 or abs(pairing(b, c)) != 1:
                    continue
                for d in CANDS:
                    if (
                        pairing(a, d) != 0
                        or pairing(b, d) != 0
                        or abs(pairing(c, d)) != 1
                    ):
                        continue
                    for e in CANDS:
                        if (
                            pairing(a, e) != 0
                            or pairing(b, e) != 0
                            or pairing(c, e) != 0
                            or abs(pairing(d, e)) != 1
                        ):
                            continue
                        chain_tuples.append((a, b, c, d, e))
    print(f"chain-pattern tuples: {len(chain_tuples)}")

    solutions = []
    for classes in chain_tuples:
        for handedness in (+1, -1):
            for reverse in (False, True):
                if compose(classes, handedness, reverse) == MONODROMY:
                    solutions.append((classes, handedness, reverse))
    print(f"solutions: {len(solutions)}")
    for classes, handedness, reverse in solutions[:20]:
        names = "abcde"
        desc = ", ".join(f"{n}={v}" for n, v in zip(names, classes))
        order = (
            "reversed product (leftmost twist acts first)"
            if reverse
            else "product in word order (rightmost twist acts first)"
        )
        print(f"  handedness={handedness:+d} order={order}: {desc}")


if __name__ == "__main__":
    main()
