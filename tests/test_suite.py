"""The programs of ``programs/suite`` against the closed forms that their
header comments derive, for x, y >= 0."""

from fractions import Fraction

import pytest

import _corpus
import _reference_semantics as reference
from pcfr.bounds import bound_program
from pcfr.semantics import mdp_sup_truncated
from pcfr.syntax import pv

X, Y = pv("x"), pv("y")

# name -> supremum over schedulers of the expected runtime from (x, y),
# or None where it is infinite (for x >= 1)
RUNTIME = {
    "sequential_loops": lambda x, y: Fraction(2 + 2 * x + y),
    "nested_loops": lambda x, y: Fraction(1 + 2 * x + x * (x + 1) // 2),
    "biased_walk": lambda x, y: Fraction(1 + 3 * x),
    "coin_or_step": lambda x, y: Fraction(1 + 2 * x),
    "geometric_loop": lambda x, y: Fraction(3 if x > 0 else 1),
    "coupon_collector_2": lambda x, y: Fraction(3),
    "coupon_collector_3": lambda x, y: Fraction(11, 2),
    "symmetric_walk": None,
}
FINITE = [name for name, runtime in RUNTIME.items() if runtime is not None]

# the deterministic programs: name -> (most steps of any run, failing cover group)
SUITE = {
    "sequential_loops": (lambda x, y: 2 + 3 * x + y, "{t3}"),
    "nested_loops": (lambda x, y: 1 + 2 * x + x * (x + 1) // 2, "{t1, t2, t3}"),
}

# enough for h = 1,000 on the walks, whose levels grow by one node every
# second step
STATE_CAP = 1_000_000


def _start(p, x, y):
    """The start state (x, y), restricted to the program's variables; the
    coupon collectors' c starts at x."""
    return {v: {"x": x, "y": y, "c": x}[v.name] for v in p.program_vars}


@pytest.mark.parametrize("name", RUNTIME)
def test_suite_mdp_sup_matches_reference(name):
    p = _corpus.load(f"suite/{name}.pip")
    for x in (0, 1, 5, 12):
        for y in (0, 3):
            sigma0 = _start(p, x, y)
            for horizon in (0, 9, 40):
                assert mdp_sup_truncated(p, sigma0, horizon, (1,)) == (
                    reference.mdp_sup_truncated(p, sigma0, horizon, (1,))
                ), (x, y, horizon)


@pytest.mark.parametrize("name", SUITE)
def test_suite_mdp_sup_rises_to_closed_form(name):
    p = _corpus.load(f"suite/{name}.pip")
    runtime, (steps, _) = RUNTIME[name], SUITE[name]
    for x, y in ((1, 2), (4, 0), (6, 3)):
        sigma0, exact, longest = _start(p, x, y), runtime(x, y), steps(x, y)
        values = [mdp_sup_truncated(p, sigma0, h, (1,)) for h in range(longest + 3)]
        assert values == sorted(values)
        assert max(values) <= exact
        assert values[longest - 1] < exact
        assert values[longest:] == [exact] * 3, (x, y)


@pytest.mark.parametrize("name", FINITE)
def test_suite_mdp_sup_comes_within_1e_6_of_closed_form(name):
    """The values rise with h, never exceed the closed form, and are less
    than 1e-6 below it at h = 1,000."""
    p = _corpus.load(f"suite/{name}.pip")
    for x, y in ((1, 2), (4, 0), (10, 3)):
        sigma0, exact = _start(p, x, y), RUNTIME[name](x, y)
        values = [
            mdp_sup_truncated(p, sigma0, h, (1,), STATE_CAP) for h in (0, 10, 100, 300, 1000)
        ]
        assert values == sorted(values)
        assert values[-1] <= exact
        assert exact - values[-1] < Fraction(1, 10**6), (x, y)


@pytest.mark.parametrize("name", SUITE)
def test_suite_bound_names_failing_group(name):
    report = bound_program(_corpus.load(f"suite/{name}.pip"))
    assert not report.ok
    assert report.failures == (f"{SUITE[name][1]}: no constant or affine ranking certificate",)


@pytest.mark.parametrize("name", ["biased_walk", "coin_or_step"])
def test_suite_bound_is_the_closed_form(name):
    p = _corpus.load(f"suite/{name}.pip")
    report = bound_program(p)
    assert report.ok, report.failures
    for x in (0, 1, 7, 30):
        assert report.bound.evaluate_total(_start(p, x, 0)) == RUNTIME[name](x, 0)


def test_geometric_loop_bound_is_exact_up_to_one():
    """``bound_program`` finds ``1 + 2*x``, the closed form for x <= 1 and
    above it from x = 2 on, where no affine certificate is tighter."""
    p = _corpus.load("suite/geometric_loop.pip")
    report = bound_program(p)
    assert report.ok, report.failures
    assert report.bound.render_total() == "1 + 2*x"
    for x in (0, 1, 2, 7, 30):
        bound = report.bound.evaluate_total(_start(p, x, 0))
        exact = RUNTIME["geometric_loop"](x, 0)
        assert bound >= exact
        assert (bound == exact) == (x <= 1), x


@pytest.mark.parametrize(
    "name,total,ranking",
    [("coupon_collector_2", "3", "4 - 2*c"), ("coupon_collector_3", "7", "9 - 3*c")],
)
def test_coupon_collector_bounds(name, total, ranking):
    """``bound_program`` finds 3 for two coupons, which is exact, and 7 for
    three, above 11/2, through one affine value at l1 (its header argues
    why no affine certificate does better)."""
    p = _corpus.load(f"suite/{name}.pip")
    report = bound_program(p)
    assert report.ok, report.failures
    assert report.bound.render_total() == total
    (loop,) = [e for e in report.bound.entries if e.targets != ("t0",)]
    assert loop.plrf.of(p.location("l1")).render() == ranking
    assert report.bound.evaluate_total(_start(p, 0, 0)) >= RUNTIME[name](0, 0)


def test_symmetric_walk_has_no_finite_bound_and_unbounded_values():
    """The expected runtime is infinite from x = 1: no certificate bounds
    it, and the truncated value at h = 1,000 passes 50.  The Fraction
    reference gives 50.450036356721604 there (as a float), in about 6 s,
    so the value is checked against that number rather than recomputed."""
    p = _corpus.load("suite/symmetric_walk.pip")
    report = bound_program(p)
    assert not report.ok
    assert report.failures == ("{step}: no constant or affine ranking certificate",)
    value = mdp_sup_truncated(p, _start(p, 1, 0), 1000, (1,), STATE_CAP)
    assert value > 50
    assert float(value) == 50.450036356721604
