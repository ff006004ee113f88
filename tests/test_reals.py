"""The real-number rule (README, Conventions): every real argument of the
library is an int (not a bool), a float, a Fraction or another
numbers.Real, finite and in a stated range, and is read as a Python float;
anything else raises ValueError naming the argument.

One table lists every entry point that reads a real, with the argument its
message names, its range (gt: > bound, ge: >= bound, lt: < bound) and a value
inside it.  Each entry is fed a bool, a string, a complex, nan, +-inf, an
int past the float range, one too long for repr, the float just past each
bound, and None where None is not the argument's default.

The filling and gluing families' model parameters are fixed constants: each
value the rule once fed them, and one it admitted, is refused at the
constructor, so no value reaches a row unchecked.
"""

import dataclasses
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest

from hypnorms import ballfield, bounds, families, radial, tubefield

ONE = ballfield.HarmonicExpansion({(1, 0): 1.0}, 1)
CHART = tubefield.TubeChart(0.3, 1.2)
HUGE = 10**5000  # past the 4300 digits repr() prints


def datum(**field):
    fields = dict(vol=1.0, inj=1.0, thurston=1.0, harmonic=None)
    return bounds.NormDatum(**{**fields, **field})


def datum_with_harmonic(x):
    # the sandwich gate admits [pi/2, 5 pi] for a class of norm 1/2, and only 0
    # for the zero class
    return datum(thurston=0.5 if x else 0.0, harmonic=x)


# (entry point, call with the real x in place, the name its message gives, range, a value inside)
ENTRY_POINTS = [
    ("radial.profiles", lambda x: radial.profiles(3, x), "r", {"ge": 0}, 1.5),
    ("radial.profile", lambda x: radial.profile(2, x), "r", {"ge": 0}, 1.5),
    ("radial.psi", lambda x: radial.psi(2, x), "r", {"ge": 0}, 1.5),
    ("radial.dpsi", lambda x: radial.dpsi(2, x), "r", {"ge": 0}, 1.5),
    ("radial.nu", radial.nu, "r", {"ge": 0}, 1.5),
    ("radial.mode_norm", lambda x: radial.mode_norm(2, x), "r", {"gt": 0}, 1.5),
    ("HarmonicExpansion.coefficient", lambda x: ballfield.HarmonicExpansion({(1, 0): x}, 1),
     "coefficient a_(1,0)", {}, -2.5),
    ("psi_gram", lambda x: ballfield.psi_gram(1, x, order=4), "r", {"gt": 0}, 1.5),
    ("omega_gram", lambda x: ballfield.omega_gram(1, x, order=4), "r", {"gt": 0}, 1.5),
    ("ball_l2_norm_sq", lambda x: ballfield.ball_l2_norm_sq(ONE, x, order=4), "r", {"gt": 0},
     1.5),
    ("ball_l2_norm_sq.zero", lambda x: ballfield.ball_l2_norm_sq(
        ballfield.HarmonicExpansion({}, 1), x, order=4), "r", {"gt": 0}, 1.5),
    ("check_df_bound", lambda x: ballfield.check_df_bound(ONE, x), "r", {"gt": 0}, 1.5),
    ("TubeChart.epsilon", lambda x: tubefield.TubeChart(x, 1.0), "epsilon", {"gt": 0}, 0.5),
    ("TubeChart.R", lambda x: tubefield.TubeChart(0.5, x), "R", {"gt": 0}, 0.5),
    ("competitor_norm_sq", lambda x: tubefield.competitor_norm_sq(CHART, x, order=8), "s", {},
     0.5),
    ("remark_ratio", tubefield.remark_ratio, "epsilon", {"gt": 0, "lt": 1 / math.pi}, 0.25),
    ("NormDatum.vol", lambda x: datum(vol=x), "vol", {"gt": 0}, 2.0),
    ("NormDatum.inj", lambda x: datum(inj=x), "inj", {"gt": 0}, 2.0),
    ("NormDatum.thurston", lambda x: datum(thurston=x), "thurston", {"ge": 0}, 2.0),
    ("NormDatum.harmonic", datum_with_harmonic, "harmonic", {"ge": 0}, 2.0),
    ("supnorm_factor.inj", lambda x: bounds.supnorm_factor(x, True), "inj", {"gt": 0}, 2.0),
]
IDS = [e[0] for e in ENTRY_POINTS]
OPTIONAL = {"NormDatum.harmonic"}  # None is its documented default


def _past(bounds_):
    # the first float outside each bound
    out = []
    if "gt" in bounds_:
        out.append(float(bounds_["gt"]))
    if "ge" in bounds_:
        out.append(math.nextafter(bounds_["ge"], -math.inf))
    if "lt" in bounds_:
        out.append(float(bounds_["lt"]))
    return out


def _cases():
    for entry, call, what, bounds_, _ in ENTRY_POINTS:
        bad = [True, "1", 1 + 0j, math.nan, math.inf, -math.inf, 10**400, HUGE, *_past(bounds_)]
        bad += [] if entry in OPTIONAL else [None]
        for x in bad:
            label = "10**5000" if x == HUGE else repr(x)
            yield pytest.param(call, what, x, id=f"{entry}-{label}"[:60])


@pytest.mark.parametrize("call, what, bad", _cases())
def test_rule(call, what, bad):
    # nu(True) answered for r = 1, nu("1") raised TypeError from math, nu(10**400)
    # OverflowError, and nu(10**5000) a ValueError from repr() naming no argument
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be a finite real"):
        call(bad)


@pytest.mark.parametrize("entry, call, what, bounds_, good", ENTRY_POINTS, ids=IDS)
def test_closed_ends_are_admitted(entry, call, what, bounds_, good):
    # radius 0 in profiles and nu, thurston 0 and harmonic 0
    if "ge" in bounds_:
        call(bounds_["ge"])


@pytest.mark.parametrize("entry, call, what, bounds_, good", ENTRY_POINTS, ids=IDS)
def test_other_reals_read_as_floats(entry, call, what, bounds_, good):
    # an int, a Fraction or a float32 answers exactly as its float value does
    expected = pickle.dumps(call(good))
    others = [Fraction(good), np.float32(good), np.float64(good)]
    others += [int(good)] if good == int(good) else []
    for x in others:
        assert pickle.dumps(call(x)) == expected, x


# (constructor, former parameter, the range its validator enforced)
FIXED = [(families.FillingFamilyParams, name, {"gt": 0})
         for name in ("th_alpha", "th_beta", "c1", "c2", "vol_w")]
FIXED += [(families.GluingFamilyParams, "vol_block", {"gt": 0}),
          (families.GluingFamilyParams, "lam", {"gt": 1}),
          (families.GluingFamilyParams, "th_unit", {"gt": 0})]


def _fixed_cases():
    for cls, name, bounds_ in FIXED:
        for x in [True, "1", 1 + 0j, math.nan, math.inf, -math.inf, 10**400, HUGE,
                  *_past(bounds_), None, 2.0]:
            label = "10**5000" if x == HUGE else repr(x)
            yield pytest.param(cls, name, x, id=f"{cls.__name__}.{name}-{label}"[:60])


@pytest.mark.parametrize("cls, name, x", _fixed_cases())
def test_fixed_model_constant_admits_no_value(cls, name, x):
    # the validators went with the parameters; GluingFamilyParams(vol_block=nan)
    # was once accepted, and no value may now get past the constructor
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        cls(**{name: x})


@pytest.mark.parametrize("cls, name", [(families.FillingFamilyParams, "vol_w"),
                                       (families.GluingFamilyParams, "vol_block")])
def test_fixed_volume_cannot_be_reassigned(cls, name):
    p = cls()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(p, name, math.nan)
    assert type(getattr(p, name)) is float and math.isfinite(getattr(p, name))


def test_message_states_the_range():
    with pytest.raises(ValueError, match=re.escape("epsilon must be a finite real > 0 and < "
                                                   f"{1 / math.pi}, got 0.5")):
        tubefield.remark_ratio(0.5)
    with pytest.raises(ValueError, match=re.escape("s must be a finite real, got 'x'")):
        tubefield.competitor_norm_sq(CHART, "x")


def test_records_store_python_floats():
    chart = tubefield.TubeChart(Fraction(1, 3), 2)
    assert (type(chart.epsilon), type(chart.R)) == (float, float)
    assert chart.epsilon == 1 / 3 and chart.R == 2.0
    d = datum(vol=np.float32(0.1), inj=Fraction(1, 10), thurston=0)
    assert [type(v) for v in (d.vol, d.inj, d.thurston)] == [float] * 3
    assert d.vol == float(np.float32(0.1)) and d.harmonic is None
    e = ballfield.HarmonicExpansion({(1, 0): 2, (1, 1): Fraction(1, 4)}, 1)
    assert e.coefficients == {(1, 0): 2.0, (1, 1): 0.25}
    assert {type(a) for a in e.coefficients.values()} == {float}


def test_narrow_float_keeps_float64_digits():
    # nu(np.float32(1.5)) returned an np.float32 that kept 7 digits
    value = radial.nu(np.float32(1.5))
    assert type(value) is float and value == radial.nu(1.5)
    assert type(radial.psi(3, np.float32(0.25))) is float
