"""The integer rule (README, Conventions): every integer argument of the
library is a Python int, not a bool, in a stated range [lo, hi]; anything
else raises ValueError naming the argument.

One table lists every entry point that reads an integer, with the argument
its message names and its range (None: no limit on that side).  Each entry
is fed a bool, a float, a whole float, a string, lo - 1 and hi + 1, and
-10**5000 and 10**5000, ints too long for repr.  Entries with no range read
rows of integers (matrix rows, vectors, characters).
"""

import math
import re

import pytest

from hypnorms import ballfield, families, fibering, homalg, quadrature, radial
from hypnorms.bounds import NormDatum

BASE = NormDatum(vol=1.0, inj=1.0, thurston=1.0, harmonic=4.0)
E1 = (1, 0, 0, 0)
X064 = fibering.X064_RELATOR
HUGE = 10**5000  # past the 4300 digits repr() prints

# (entry point, call with the integer x in place, the name its message gives, lo, hi)
ENTRY_POINTS = [
    ("radial.profiles", lambda x: radial.profiles(x, 1.0), "lmax", 0, 40),
    ("radial.mode_norm", lambda x: radial.mode_norm(x, 1.0), "ell", 1, 40),
    ("HarmonicExpansion.truncation", lambda x: ballfield.HarmonicExpansion({}, x), "truncation", 0, None),
    ("HarmonicExpansion.ell", lambda x: ballfield.HarmonicExpansion({(x, 0): 1.0}, 3), "ell", 0, 3),
    ("HarmonicExpansion.m", lambda x: ballfield.HarmonicExpansion({(1, x): 1.0}, 3), "m", -1, 1),
    ("mode_indices.lmax", lambda x: ballfield.mode_indices(x), "lmax", 0, 40),
    ("mode_indices.lmin", lambda x: ballfield.mode_indices(40, lmin=x), "lmin", 0, 40),
    ("quadrature.gauss_legendre", lambda x: quadrature.gauss_legendre(0.0, 1.0, x),
     "quadrature order", 4, 256),
    ("quadrature.theta_grid", quadrature.theta_grid, "quadrature order", 4, 256),
    ("CoverFamilyParams", lambda x: families.CoverFamilyParams(BASE, (1, x)), "cover degree", 1,
     2**63 - 1),
    ("gluing_family", lambda x: families.gluing_family(families.GluingFamilyParams(), x), "n", 1, 10**5),
    ("filling_family", lambda x: families.filling_family(families.FillingFamilyParams(), x),
     "n", 1, 2**63 - 1),
    ("Word", lambda x: fibering.Word((1, x)), "letters", None, None),
    ("Character", lambda x: fibering.Character(x, 0), "character", None, None),
    ("brown_status", lambda x: fibering.brown_status(X064, (1, x)), "character", None, None),
    ("fibered_characters", lambda x: fibering.fibered_characters(X064, x), "bound", 1, 400),
    ("IntMat", lambda x: homalg.IntMat(((x, 0), (0, 1))), "IntMat row", None, None),
    ("IntMat.identity", lambda x: homalg.IntMat.identity(x), "n", 1, None),
    ("IntMat.power", lambda x: homalg.INVARIANT_BLOCK.power(x), "k", 0, None),
    ("IntMat.vec", lambda x: homalg.MONODROMY.vec((x, 0, 0, 0)), "vector", None, None),
    ("transvection.gamma", lambda x: homalg.transvection((1, x, 0, 0), 1), "gamma", None, None),
    ("transvection.sign", lambda x: homalg.transvection(E1, x), "sign", -1, 1),
    ("fbar_power", homalg.fbar_power, "n", 0, 10**5),
    ("mv_generator", homalg.mv_generator, "n", 0, 10**5),
    ("mv_intersection", homalg.mv_intersection, "n", 0, 10**4),
]


def _cases():
    for entry, call, what, lo, hi in ENTRY_POINTS:
        bad = [True, 2.5, 1.0, "1"]
        bad += [] if lo is None else [lo - 1, -HUGE]
        bad += [] if hi is None else [hi + 1, HUGE]
        for x in bad:
            label = "10**5000" if x == HUGE else "-10**5000" if x == -HUGE else repr(x)
            yield pytest.param(call, what, x, id=f"{entry}-{label}")


@pytest.mark.parametrize("call, what, bad", _cases())
def test_rule(call, what, bad):
    # fbar_power(True) answered for n = 1, fbar_power(2.5) raised TypeError from `&`,
    # fibered_characters(X064, 401) scanned 644,809 characters without a word,
    # fbar_power(10**5000) raised a ValueError from repr() naming no argument
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be "):
        call(bad)


@pytest.mark.parametrize("entry, call, what, lo, hi", ENTRY_POINTS, ids=[e[0] for e in ENTRY_POINTS])
def test_range_ends_are_admitted(entry, call, what, lo, hi):
    # the caps themselves are admitted; only fibered_characters at 400 takes long (~1 s)
    for x in {lo, hi} - {None}:
        if entry in ("CoverFamilyParams", "filling_family") and x == 1:
            continue  # degrees (1, 1) do not increase, and n = 1 is out of the filling model
        call(x)


def test_message_states_the_range():
    with pytest.raises(ValueError, match=re.escape("n must be an integer in [0, 10^5], got True")):
        homalg.fbar_power(True)
    with pytest.raises(ValueError, match=re.escape("quadrature order must be an integer in [4, 256], got 3")):
        quadrature.gauss_legendre(0.0, 1.0, 3)


@pytest.mark.parametrize("chi", [5, (1, 2, 3), (1,), "ab", None])
def test_character_must_be_a_pair(chi):
    # brown_status(X064, 5) raised TypeError "cannot unpack"
    with pytest.raises(ValueError, match="character"):
        fibering.brown_status(X064, chi)


@pytest.mark.parametrize("call, what", [
    (lambda: ballfield.HarmonicExpansion({5: 1.0}, 3), "coefficient index"),
    (lambda: ballfield.HarmonicExpansion({(1, 0, 0): 1.0}, 3), "coefficient index"),
    (lambda: ballfield.HarmonicExpansion({"ab": 1.0}, 3), "coefficient index"),
    (lambda: families.CoverFamilyParams(BASE, 4), "cover degrees"),
    (lambda: homalg.MONODROMY.vec((HUGE,)), "vector"),
], ids=["int-key", "triple-key", "string-key", "int-degrees", "short-vector-of-10**5000"])
def test_rows_must_be_rows(call, what):
    # {5: 1.0} raised TypeError "cannot unpack", {(1, 0, 0): 1.0} a ValueError "too many
    # values to unpack" naming nothing, CoverFamilyParams(base, 4) TypeError "not iterable"
    with pytest.raises(ValueError, match=f"^{what} must be "):
        call()


class TestFillingRange:
    """filling_family reads n in [1, 2^63 - 1], the 64-bit rule of the CLI grids."""

    @pytest.mark.parametrize("n", [10**160, 10**400, 2**63], ids=["10^160", "10^400", "2^63"])
    def test_past_64_bits_refused(self, n):
        # 10**160 and 10**400 ended in OverflowError from float(n) ** 2
        with pytest.raises(ValueError, match="must be an int"):
            families.filling_family(families.FillingFamilyParams(), n)

    def test_last_64_bit_n_is_a_row(self):
        pt = families.filling_family(families.FillingFamilyParams(), 2**63 - 1)
        assert pt.datum.thurston == 2.0**63 and math.isfinite(pt.ratio)

    @pytest.mark.parametrize("n", [2.5, 1e3])
    def test_float_refused(self, n):
        # filling_family(p, 2.5) returned a row
        with pytest.raises(ValueError, match="must be an int"):
            families.filling_family(families.FillingFamilyParams(), n)
