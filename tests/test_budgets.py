"""Error budgets: the float checks of `verify ball`, `verify tube` and
`verify dfbound`, held far below their CLI tolerances.

The CLI tolerances (1e-9 to 1e-6 relative) sit 6-9 orders of magnitude above
the values the checks print, so a quadrature or recurrence regression of up
to the tolerance would still pass `verify`.  Here each value, over quadrature
orders 20-128 and seeds 0-4, is held to BUDGET, about 100 times the worst
seen (1.0e-14, `tube-volume` at order 128), which leaves room for last-ulp
differences between CPUs.  The competitor margin is held above MARGIN_FLOOR,
just below its value 5.04854e-4 at every order.  A rule whose weights are off
by 1 + 1e-10 fails the budget and still passes the CLI, which shows that the
budget bites where the CLI does not.

`verify dfbound` allows 1e-9 on `dfbound-sharp` and 1 + 1e-9 on
`dfbound-never-exceeded`.  Over seeds 0-4 the first is held to BUDGET (it
reads 0.0) and the second to 1.0 with no slack (it reads 0.9915-0.9981),
since the bound it checks is sharp only on pure degree-1 expansions.
"""

import pytest

from hypnorms import quadrature
from hypnorms.ballfield import _angular_grams
from hypnorms.families import filling_chart
from hypnorms.tubefield import TubeChart, competitor_margin
from hypnorms.verify import suite_ball, suite_dfbound, suite_tube

ORDERS = (20, 24, 32, 48, 64, 128)
SEEDS = range(5)
BUDGET = 1e-12
MARGIN_FLOOR = 5.0485e-4
# the checks that a uniform weight error reaches; the orthogonality checks
# divide it out
WEIGHT_SENSITIVE = ("omega-diagonal", "parseval", "tube-volume", "tube-form-norm")

CHARTS = [TubeChart(e, R) for e in (0.05, 0.3, 1.0) for R in (0.4, 1.2, 2.5)]
CHARTS += [filling_chart(n) for n in (10, 10**3, 10**6)]


def by_name(checks):
    return {c.name: c.value for c in checks}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("order", ORDERS)
def test_ball_checks_within_budget(order, seed):
    values = by_name(suite_ball(order, seed))
    assert len(values) == 6
    assert max(values.values()) <= BUDGET, values


@pytest.mark.parametrize("order", ORDERS)
def test_tube_checks_within_budget(order):
    values = by_name(suite_tube(order))
    margin = values.pop("tube-competitor")
    assert set(values) == {"tube-volume", "tube-form-norm"}
    assert max(values.values()) <= BUDGET, values
    assert margin >= MARGIN_FLOOR


@pytest.mark.parametrize("order", ORDERS)
def test_competitor_margin_above_floor(order):
    assert min(competitor_margin(t, order) for t in CHARTS) >= MARGIN_FLOOR


@pytest.mark.parametrize("seed", SEEDS)
def test_dfbound_checks_within_budget(seed):
    values = by_name(suite_dfbound(seed))
    assert set(values) == {"dfbound-sharp", "dfbound-never-exceeded"}
    assert values["dfbound-sharp"] <= BUDGET, values
    assert values["dfbound-never-exceeded"] <= 1.0, values


@pytest.fixture
def fresh_angular_cache():
    # the perturbed rule must reach the cached angular Grams, and must not stay in them
    _angular_grams.cache_clear()
    yield
    _angular_grams.cache_clear()


@pytest.mark.usefixtures("fresh_angular_cache")
def test_weights_off_by_one_in_ten_billion_fail_the_budget(monkeypatch):
    exact = quadrature._rule

    def perturbed(order):
        x, w = exact(order)
        return x, w * (1.0 + 1e-10)

    monkeypatch.setattr(quadrature, "_rule", perturbed)
    checks = suite_ball(24, 0) + suite_tube(24)
    assert all(c.passed for c in checks)
    values = by_name(checks)
    for name in WEIGHT_SENSITIVE:
        assert values[name] > BUDGET, name
