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

# name -> (expected runtime, most steps of any run, failing cover group)
SUITE = {
    "sequential_loops": (
        lambda x, y: Fraction(2 + 2 * x + y), lambda x, y: 2 + 3 * x + y, "{t3}",
    ),
    "nested_loops": (
        lambda x, y: Fraction(1 + 2 * x + x * (x + 1) // 2),
        lambda x, y: 1 + 2 * x + x * (x + 1) // 2,
        "{t1, t2, t3}",
    ),
}


@pytest.mark.parametrize("name", SUITE)
def test_suite_mdp_sup_matches_reference(name):
    p = _corpus.load(f"suite/{name}.pip")
    for x in (0, 1, 5, 12):
        for y in (0, 3):
            sigma0 = {X: x, Y: y}
            for horizon in (0, 9, 40):
                assert mdp_sup_truncated(p, sigma0, horizon, (1,)) == (
                    reference.mdp_sup_truncated(p, sigma0, horizon, (1,))
                ), (x, y, horizon)


@pytest.mark.parametrize("name", SUITE)
def test_suite_mdp_sup_rises_to_closed_form(name):
    p = _corpus.load(f"suite/{name}.pip")
    runtime, steps, _ = SUITE[name]
    for x, y in ((1, 2), (4, 0), (6, 3)):
        sigma0, exact, longest = {X: x, Y: y}, runtime(x, y), steps(x, y)
        values = [mdp_sup_truncated(p, sigma0, h, (1,)) for h in range(longest + 3)]
        assert values == sorted(values)
        assert max(values) <= exact
        assert values[longest - 1] < exact
        assert values[longest:] == [exact] * 3, (x, y)


@pytest.mark.parametrize("name", SUITE)
def test_suite_bound_names_failing_group(name):
    report = bound_program(_corpus.load(f"suite/{name}.pip"))
    assert not report.ok
    assert report.failures == (f"{SUITE[name][2]}: no constant or affine ranking certificate",)
