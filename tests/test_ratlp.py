import random
from fractions import Fraction

import _reference_simplex
from pcfr import ratlp
from pcfr.linear import Satisfiability
from pcfr.syntax import pv

C = ratlp.LinearConstraint.of


def test_minimize_with_lower_bound():
    r = ratlp.solve_lp([C({"x": 1}, ">=", 3)], {"x": 1})
    assert r.status == ratlp.OPTIMAL
    assert r.assignment["x"] == 3
    assert r.objective == 3


def test_infeasible():
    r = ratlp.solve_lp([C({"x": 1}, "<=", -2), C({"x": 1}, ">=", 0)])
    assert r.status == ratlp.INFEASIBLE


def test_unbounded():
    r = ratlp.solve_lp([C({"x": 1}, "<=", 5)], {"x": 1})
    assert r.status == ratlp.UNBOUNDED


def test_equality_and_free_variables():
    r = ratlp.solve_lp([C({"x": 1, "y": 2}, "=", 4), C({"x": 1}, "<=", 2)], {"y": 1})
    assert r.status == ratlp.OPTIMAL
    assert r.assignment == {"x": Fraction(2), "y": Fraction(1)}


def test_negative_optimum_reachable():
    # free variables may go negative: min x st x >= -7
    r = ratlp.solve_lp([C({"x": 1}, ">=", -7)], {"x": 1})
    assert r.status == ratlp.OPTIMAL
    assert r.assignment["x"] == -7


def test_exact_fractions():
    r = ratlp.solve_lp(
        [C({"x": 3}, ">=", 1), C({"x": 7}, "<=", Fraction(7, 3))], {"x": 1}
    )
    assert r.status == ratlp.OPTIMAL
    assert r.assignment["x"] == Fraction(1, 3)


def test_beale_cycling_example_terminates():
    # Degenerate pivots cycle under naive rules; Bland's rule must terminate
    # at the known optimum -1/20 with x3 = 1.
    cons = [
        C({"x1": Fraction(1, 4), "x2": -60, "x3": Fraction(-1, 25), "x4": 9}, "<=", 0),
        C({"x1": Fraction(1, 2), "x2": -90, "x3": Fraction(-1, 50), "x4": 3}, "<=", 0),
        C({"x3": 1}, "<=", 1),
        C({"x1": -1}, "<=", 0),
        C({"x2": -1}, "<=", 0),
        C({"x3": -1}, "<=", 0),
        C({"x4": -1}, "<=", 0),
    ]
    objective = {"x1": Fraction(-3, 4), "x2": 150, "x3": Fraction(-1, 50), "x4": 6}
    r = ratlp.solve_lp(cons, objective)
    assert r.status == ratlp.OPTIMAL
    assert r.objective == Fraction(-1, 20)
    assert r.assignment["x3"] == 1


def test_redundant_equalities_are_dropped():
    r = ratlp.solve_lp(
        [C({"x": 1, "y": 1}, "=", 2), C({"x": 2, "y": 2}, "=", 4)], {"x": 1, "y": -1}
    )
    # x + y = 2 leaves x - y free to fall without bound
    assert r.status == ratlp.UNBOUNDED


def test_negative_drive_out_pivot():
    # Phase one ends at once with both artificials basic; driving the first
    # out pivots on its -1, and the second row is then redundant.
    r = ratlp.solve_lp(
        [C({"x": -1, "y": 1}, "=", 0), C({"x": 1, "y": -1}, "=", 0), C({"x": 1}, "<=", 5)],
        {"x": -1},
    )
    assert r.status == ratlp.OPTIMAL
    assert r.assignment == {"x": 5, "y": 5}
    assert r.objective == -5


def _random_lp(rng: random.Random):
    keys = ["a", "b", "c", "d"][: rng.randint(1, 4)]

    def number() -> Fraction:
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))

    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = {k: number() for k in keys if rng.random() < 0.7}
        rhs = 0 if rng.random() < 0.4 else number()  # zero sides: degenerate vertices
        rows.append(C(coeffs, rng.choice(("<=", ">=", "=")), rhs))
    for _ in range(rng.randint(0, 2)):
        # an equality scaled from another row, possibly negated: redundant
        # when that row is an equality
        base = rng.choice(rows)
        factor = Fraction(rng.choice((-3, -2, -1, 1, 2)), rng.choice((1, 2)))
        rows.insert(
            rng.randint(0, len(rows)),
            C({k: v * factor for k, v in base.coeffs}, "=", base.rhs * factor),
        )
    objective = {k: number() for k in keys if rng.random() < 0.6}
    return rows, objective, keys


def test_integer_tableau_matches_fraction_reference(monkeypatch):
    """The integer tableau takes the pivots of the Fraction simplex it
    replaced, so both return the same status, vertex and objective."""
    negative_pivots = []
    pivot = _reference_simplex._pivot

    def recording_pivot(tableau, rhs, basis, row, col):
        negative_pivots.append(tableau[row][col] < 0)  # only drive-out pivots can be
        pivot(tableau, rhs, basis, row, col)

    monkeypatch.setattr(_reference_simplex, "_pivot", recording_pivot)
    rng = random.Random(4242)
    statuses = set()
    for _ in range(600):
        rows, objective, keys = _random_lp(rng)
        want = _reference_simplex.solve_lp(rows, objective, keys)
        got = ratlp.solve_lp(rows, objective, keys)
        assert (got.status, got.assignment, got.objective) == (
            want.status, want.assignment, want.objective
        ), (rows, objective)
        statuses.add(got.status)
    assert statuses == {ratlp.OPTIMAL, ratlp.INFEASIBLE, ratlp.UNBOUNDED}
    assert any(negative_pivots)


def test_feasibility_agrees_with_elimination_engine():
    """Simplex feasibility and Fourier-Motzkin satisfiability are independent
    implementations; on the same rational rows they must agree."""
    from _reference_linear import LinearSystem, Row, is_satisfiable

    rng = random.Random(9090)
    variables = [pv("x"), pv("y"), pv("z")]
    for _ in range(120):
        n_vars = rng.randint(1, 3)
        pool = tuple(variables[:n_vars])
        rows = []
        lp_rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in pool]
            const = Fraction(rng.randint(-3, 3))
            is_eq = rng.random() < 0.3
            rows.append(Row(tuple(coeffs), const, is_eq))
            lp_rows.append(
                C(
                    {v.name: c for v, c in zip(pool, coeffs)},
                    "=" if is_eq else "<=",
                    -const,
                )
            )
        fm = is_satisfiable(LinearSystem(pool, tuple(rows)))
        lp = ratlp.solve_lp(lp_rows, extra_variables=[v.name for v in pool])
        if lp.status == ratlp.INFEASIBLE:
            assert fm is Satisfiability.UNSAT
        else:
            assert fm is Satisfiability.SAT
