import random
from fractions import Fraction

import _corpus
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


def _signed(rows, nonnegative):
    """``rows`` after a sign row ``k >= 0`` per nonnegative key, which a
    magnitude solve takes as a nonnegative column."""
    return [C({k: 1}, ">=", 0) for k in nonnegative] + list(rows)


def _sign_split(constraints):
    """The rows of ``constraints`` other than sign rows, and the keys of
    the sign rows."""
    signs = [ratlp._sign_key(con) for con in constraints]
    rows = [con for con, k in zip(constraints, signs) if k is None]
    return rows, [k for k in signs if k is not None]


def _explicit_magnitude(rows, nonnegative, keys):
    """The explicit formulation of ``min sum |k|``: a row ``k >= 0`` per
    nonnegative key, a bound ``b_k >= k``, ``b_k >= -k`` per magnitude key,
    the bounds as the objective, and every column split into x+ and x-."""
    work = _signed(rows, nonnegative)
    objective = {}
    for k in keys:
        work += [C({("abs", k): 1, k: -1}, ">=", 0), C({("abs", k): 1, k: 1}, ">=", 0)]
        objective[("abs", k)] = 1
    return work, objective


def _key_ranges(rows, nonnegative, keys, optimum):
    """(min, max) of each key over the optimal solutions of ``min sum |k|``,
    from the explicit formulation with its objective capped at ``optimum``."""
    work, objective = _explicit_magnitude(rows, nonnegative, keys)
    work.append(C(objective, "<=", optimum))
    ranges = {}
    for k in keys:
        low = ratlp.solve_lp(work, {k: 1}, keys)
        high = ratlp.solve_lp(work, {k: -1}, keys)
        ranges[k] = (low.objective, -high.objective)
    return ranges


def _compare_magnitude_solves(rows, nonnegative, keys):
    """The magnitude solve, with the sign rows ahead of ``rows``, against
    the explicit formulation: the same status and optimum, and the
    explicit vertex's key values, whether the solve proves them fixed or
    falls back to that formulation on a tie.  Returns the solve's result."""
    work, objective = _explicit_magnitude(rows, nonnegative, keys)
    want = ratlp.solve_lp(work, objective, keys)
    got = ratlp.solve_lp(_signed(rows, nonnegative), extra_variables=keys, magnitude=keys)
    assert got.status == want.status, (rows, nonnegative, keys)
    if got.status == ratlp.OPTIMAL:
        assert got.objective == want.objective
        assert all(got.assignment.get(k, 0) >= 0 for k in nonnegative)
        assert {k: got.assignment[k] for k in keys} == {
            k: want.assignment[k] for k in keys
        }, (rows, nonnegative, keys)
    return got


def _random_template_lp(rng: random.Random):
    """Rows over up to three free template keys and three nonnegative
    multipliers, with the multipliers and the keys."""
    keys = ["k0", "k1", "k2"][: rng.randint(1, 3)]
    nonnegative = [("lam", i) for i in range(rng.randint(0, 3))]
    variables = keys + nonnegative
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = {
            k: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
            for k in variables
            if rng.random() < 0.6
        }
        rhs = 0 if rng.random() < 0.4 else rng.randint(-3, 3)
        rows.append(C(coeffs, rng.choice(("<=", ">=", "=")), rhs))
    return rows, nonnegative, keys


def test_magnitude_solve_matches_explicit_formulation_on_random_lps():
    """On seeded random LPs over free template keys and nonnegative
    multipliers; where the keys are proven fixed, the explicit formulation
    with the optimum as a cap also gives every key one value."""
    rng = random.Random(2718)
    verdicts = set()
    for _ in range(300):
        rows, nonnegative, keys = _random_template_lp(rng)
        got = _compare_magnitude_solves(rows, nonnegative, keys)
        if got.fixed:
            ranges = _key_ranges(rows, nonnegative, keys, got.objective)
            assert all(low == high for low, high in ranges.values()), rows
        verdicts.add((got.status, got.fixed))
    assert verdicts == {(ratlp.INFEASIBLE, None), (ratlp.OPTIMAL, True), (ratlp.OPTIMAL, False)}


def _synthesis_lps(monkeypatch, program):
    """The (constraints, template keys) of every magnitude solve without a
    first objective that ``bound_program`` makes on ``program``."""
    from pcfr import bounds

    calls = []
    solve_lp = bounds.ratlp.solve_lp

    def recording(constraints, objective=None, extra_variables=(), **kwargs):
        if not objective and kwargs.get("magnitude"):
            calls.append((list(constraints), list(kwargs["magnitude"])))
        return solve_lp(constraints, objective, extra_variables, **kwargs)

    monkeypatch.setattr(bounds.ratlp, "solve_lp", recording)
    bounds.bound_program(program)
    monkeypatch.undo()
    return calls


def _lexicographic_runs(monkeypatch, program):
    """The (rows, objective, nonnegative keys, template keys) of every
    lexicographic run that ``bound_program`` makes on ``program``."""
    from pcfr import bounds

    calls = []
    solve_lp = bounds.ratlp.solve_lp

    def recording(constraints, objective=None, extra_variables=(), **kwargs):
        if objective and kwargs.get("magnitude"):
            rows, nonnegative = _sign_split(constraints)
            calls.append((rows, objective, nonnegative, list(extra_variables)))
        return solve_lp(constraints, objective, extra_variables, **kwargs)

    monkeypatch.setattr(bounds.ratlp, "solve_lp", recording)
    bounds.bound_program(program)
    monkeypatch.undo()
    return calls


def test_magnitude_solve_matches_explicit_formulation_on_synthesis_lps(monkeypatch, fig2):
    """The synthesis LPs of fig2 and the refined chain for k = 1, 2: the
    sign rows of the Farkas multipliers become nonnegative columns and the
    |k| bounds go, every affine solve proves its template values fixed,
    and so does every lexicographic run of a constant certificate that
    has an optimum, with the values of the explicit formulation pinned at
    its first optimum."""
    programs = [fig2, _corpus.refined_chain(1), _corpus.refined_chain(2)]
    solves = runs = 0
    for program in programs:
        for constraints, keys in _synthesis_lps(monkeypatch, program):
            rows, nonnegative = _sign_split(constraints)
            assert len(rows) + len(nonnegative) == len(constraints)
            got = _compare_magnitude_solves(rows, nonnegative, keys)
            assert got.status == ratlp.OPTIMAL and got.fixed
            solves += 1
        for rows, objective, nonnegative, keys in _lexicographic_runs(monkeypatch, program):
            got, _ = _compare_lexicographic_run(rows, objective, nonnegative, keys)
            assert got.status == ratlp.INFEASIBLE or got.fixed
            runs += got.status == ratlp.OPTIMAL
    assert solves >= 4 and runs >= 10


def test_unsat_guard_affine_lp_is_a_real_tie(monkeypatch):
    """``_UNSAT_GUARD``'s affine LP has optimal solutions that give q0
    ``-1/3*a - 1/3*b`` and ``1/3 - 1/3*b``, both of magnitude 2/3, so the
    magnitude solve must not call its keys fixed.  With the sign rows
    where the Farkas blocks put them, between the blocks, it returns the
    vertex of the explicit formulation over the rows in that order."""
    from pcfr.textfmt import parse_program
    from test_bounds import _UNSAT_GUARD

    affine = [
        (constraints, keys)
        for constraints, keys in _synthesis_lps(monkeypatch, parse_program(_UNSAT_GUARD))
        if any(key[0] == "a" for key in keys)
    ]
    assert len(affine) == 1
    rows, nonnegative = _sign_split(affine[0][0])
    keys = affine[0][1]
    got = _compare_magnitude_solves(rows, nonnegative, keys)
    assert got.status == ratlp.OPTIMAL and got.fixed is False
    ranges = _key_ranges(rows, nonnegative, keys, got.objective)
    assert ranges[("c", "q0")] == (0, Fraction(1, 3))
    assert ranges[("a", "q0", "a")] == (Fraction(-1, 3), 0)
    assert ranges[("a", "q0", "b")] == (Fraction(-1, 3), Fraction(-1, 3))
    constraints = affine[0][0]
    signs = [ratlp._sign_key(con) is not None for con in constraints]
    assert any(not before and sign for before, sign in zip(signs, signs[1:]))
    got = ratlp.solve_lp(constraints, extra_variables=keys, magnitude=keys)
    work, objective = _explicit_magnitude(constraints, [], keys)
    want = ratlp.solve_lp(work, objective, keys)
    assert got.fixed is False
    assert {k: got.assignment[k] for k in keys} == {k: want.assignment[k] for k in keys}


# --- lexicographic runs: the objective first, then sum |k| on its optimal face


def _holds(row, x) -> bool:
    value = sum(v * x.get(k, 0) for k, v in row.coeffs)
    return {"<=": value <= row.rhs, ">=": value >= row.rhs, "=": value == row.rhs}[row.rel]


def _compare_lexicographic_run(rows, objective, nonnegative, keys):
    """The lexicographic run against separate solves: the same status and
    first optimum as the objective alone, a vertex with that objective
    value and the least ``sum |k|`` among such solutions, which the
    explicit formulation pinned at that value also finds, and that
    formulation's key values, whether the run proves them fixed or falls
    back to it on a tie.  With an empty objective every feasible point is
    optimal and the solve is a plain magnitude solve, whose reported
    optimum is the least ``sum |k|``.  Returns the run's result and its
    first optimum."""
    signed = _signed(rows, nonnegative)
    got = ratlp.solve_lp(signed, objective, keys, magnitude=keys)
    alone = ratlp.solve_lp(signed, objective, keys)
    assert got.status == alone.status, (rows, objective)
    if got.status != ratlp.OPTIMAL:
        assert got.fixed is None
        return got, None
    first = got.objective if objective else Fraction(0)
    assert first == alone.objective
    x = got.assignment
    assert all(x.get(k, 0) >= 0 for k in nonnegative)
    assert all(_holds(row, x) for row in rows)
    assert sum(v * x.get(k, 0) for k, v in objective.items()) == first
    pinned = [*rows, C(objective, "=", first)]
    work, magnitude = _explicit_magnitude(pinned, nonnegative, keys)
    want = ratlp.solve_lp(work, magnitude, keys)
    assert want.status == ratlp.OPTIMAL
    assert sum(abs(x[k]) for k in keys) == want.objective
    if not objective:
        assert got.objective == want.objective
    assert {k: x[k] for k in keys} == {k: want.assignment[k] for k in keys}, (
        rows, objective
    )
    return got, first


def test_lexicographic_run_matches_separate_solves_on_random_lps():
    """On seeded random LPs with a random first objective over the keys
    and multipliers; where the keys are proven fixed, the explicit
    formulation pinned at the first optimum, with its magnitude optimum
    as a cap, also gives every key one value."""
    rng = random.Random(1618)
    verdicts = set()
    for _ in range(300):
        rows, nonnegative, keys = _random_template_lp(rng)
        objective = {
            k: Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
            for k in keys + nonnegative
            if rng.random() < 0.5
        }
        got, first = _compare_lexicographic_run(rows, objective, nonnegative, keys)
        if got.fixed:
            pinned = [*rows, C(objective, "=", first)]
            magnitude = sum(abs(got.assignment[k]) for k in keys)
            ranges = _key_ranges(pinned, nonnegative, keys, magnitude)
            assert all(low == high for low, high in ranges.values()), (rows, objective)
        verdicts.add((got.status, got.fixed))
    assert verdicts == {
        (ratlp.INFEASIBLE, None),
        (ratlp.UNBOUNDED, None),
        (ratlp.OPTIMAL, True),
        (ratlp.OPTIMAL, False),
    }


def test_lexicographic_probe_reads_only_the_optimal_face():
    """min -c - k, then min |c| + |k|, subject to 3k + 3l <= 1 and
    6c - 6k - l = -2 over a multiplier l >= 0.  The first optimum -1/3
    holds only at c = 0, k = 1/3, l = 0, so the keys are fixed.  The
    first row's slack has positive reduced cost for the first objective
    and leaves with the face; at the final vertex its magnitude reduced
    cost is 0, and moving it would trade |k| for |c|.  A probe that still
    counted it as a free column would not prove the keys fixed."""
    rows = [C({"k": 3, "l": 3}, "<=", 1), C({"c": 6, "k": -6, "l": -1}, "=", -2)]
    got, _ = _compare_lexicographic_run(rows, {"c": -1, "k": -1}, ["l"], ["c", "k"])
    assert got.objective == Fraction(-1, 3)
    assert got.assignment == {"c": 0, "k": Fraction(1, 3), "l": 0}
    assert got.fixed


# --- the presolve of magnitude solves: rules (a)-(c) of the module docstring


def _random_presolve_lp(rng: random.Random):
    """Rows over free template keys (one sometimes nonnegative),
    nonnegative multipliers and free equality multipliers, with planted
    equalities of right side 0: one-key rows, two-key rows over template
    keys, and sometimes one between a template key and a nonnegative key,
    which is no tie.  Sometimes a planted pair ``a*i + b*j = 0``, ``a*i +
    b*j = c`` with ``c != 0``, which substitution turns into ``0 = c``.
    Returns the rows, the nonnegative keys, the template keys and the free
    multipliers."""

    def number() -> Fraction:
        return Fraction(rng.choice((-2, -1, -1, 1, 1, 2)), rng.choice((1, 1, 2)))

    free_keys = [f"k{i}" for i in range(rng.randint(2, 4))]
    nonnegative = [("lam", i) for i in range(rng.randint(0, 3))]
    keys = list(free_keys)
    if rng.random() < 0.3:
        keys.append("n")
        nonnegative.append("n")
    multipliers = [("mu", i) for i in range(rng.randint(0, 3))]
    variables = free_keys + nonnegative + multipliers
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = {k: number() for k in variables if rng.random() < 0.4}
        rhs = 0 if rng.random() < 0.3 else rng.randint(-3, 3)
        rows.append(C(coeffs, rng.choice(("<=", ">=", "=")), rhs))
    for _ in range(rng.randint(0, 2)):
        rows.append(C({rng.choice(variables): number()}, "=", 0))
    for _ in range(rng.randint(0, 2)):
        i, j = rng.sample(free_keys, 2)
        rows.append(C({i: number(), j: number()}, "=", 0))
    if rng.random() < 0.3:
        nonnegative = list(dict.fromkeys([*nonnegative, ("lam", 0)]))
        rows.append(C({rng.choice(free_keys): number(), rng.choice(nonnegative): 1}, "=", 0))
    if rng.random() < 0.15:
        i, j = rng.sample(free_keys, 2)
        a, b = number(), number()
        rows += [C({i: a, j: b}, "=", 0), C({i: a, j: b}, "=", rng.choice((-2, -1, 1, 2)))]
    rng.shuffle(rows)
    return rows, nonnegative, keys, multipliers


def test_presolve_fires_every_rule_on_random_lps():
    """``ratlp._presolve`` on seeded random LPs: rule (a) eliminates only a
    key of a one-key equality of right side 0; (b) only a free template
    key tied, by a two-key equality of right side 0, to another free
    template key, never to a nonnegative one; (c) only a free key outside
    the magnitude and the objective, whose row holds every occurrence
    left.  Each rule fires, and some planted ``0 = c`` row is found."""
    rng = random.Random(31337)
    fired = {"a": 0, "b": 0, "c": 0, "infeasible": 0}
    for _ in range(300):
        rows, nonnegative, keys, multipliers = _random_presolve_lp(rng)
        objective = {k: Fraction(1) for k in multipliers if rng.random() < 0.3}
        all_keys = ratlp._keys(rows, [*objective, *keys])
        presolved = ratlp._presolve(rows, objective, set(nonnegative), keys, all_keys)
        if presolved is None:
            fired["infeasible"] += 1
            assert ratlp.solve_lp(rows, extra_variables=keys).status == ratlp.INFEASIBLE
            continue
        remaining, reduced, weights, steps = presolved
        eliminated = set()
        for rule, k, coeffs, rhs in steps:
            fired[rule] += 1
            assert k in coeffs and k not in eliminated
            assert not eliminated & set(coeffs)
            eliminated.add(k)
            if rule in "ab":
                assert not rhs and len(coeffs) == {"a": 1, "b": 2}[rule]
            if rule == "b":
                assert all(j in keys and j not in nonnegative for j in coeffs)
            if rule == "c":
                assert k in multipliers and k not in objective
        left = {k for row in remaining for k, _ in row.coeffs}
        assert not left & eliminated
        assert set(weights) == set(keys) - eliminated and all(w > 0 for w in weights.values())
        assert set(reduced) <= set(objective) - eliminated
        assert len(remaining) + len(steps) <= len(rows)
    assert all(fired.values()), fired


def test_presolved_solves_match_explicit_formulation_on_random_lps():
    """A magnitude solve and a lexicographic run of each of seeded random
    LPs that the presolve reduces: each agrees with the explicit
    formulation, its full assignment satisfies every original row
    exactly, and where its keys are proven fixed, the explicit
    formulation, capped at the optimum, gives every key one value."""
    rng = random.Random(8128)
    verdicts = set()
    for _ in range(300):
        rows, nonnegative, keys, _ = _random_presolve_lp(rng)
        objective = {
            k: Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
            for k in keys + nonnegative
            if rng.random() < 0.3
        }
        runs = [(_compare_magnitude_solves(rows, nonnegative, keys), rows, False)]
        got, first = _compare_lexicographic_run(rows, objective, nonnegative, keys)
        runs.append((got, rows if first is None else [*rows, C(objective, "=", first)], True))
        for got, pinned, lexicographic in runs:
            verdicts.add((lexicographic, got.status, got.fixed))
            if got.status != ratlp.OPTIMAL:
                continue
            x = got.assignment
            assert set(x) >= {k for row in rows for k, _ in row.coeffs} | set(keys)
            assert all(_holds(row, x) for row in rows), rows
            magnitude = sum(abs(x[k]) for k in keys)
            if got.fixed:
                ranges = _key_ranges(pinned, nonnegative, keys, magnitude)
                assert all(low == high for low, high in ranges.values()), (rows, objective)
    assert verdicts >= {
        (False, ratlp.INFEASIBLE, None),
        (False, ratlp.OPTIMAL, True),
        (False, ratlp.OPTIMAL, False),
        (True, ratlp.INFEASIBLE, None),
        (True, ratlp.UNBOUNDED, None),
        (True, ratlp.OPTIMAL, True),
    }


def test_one_probe_sends_cancelling_moves_to_the_explicit_lp(monkeypatch):
    """The affine LP of ``random_pip(Random(777))`` program 158, refined on
    every transition: its optimal face has moves of columns that change
    template values, so the one probe over their sum is unbounded, but
    those moves cancel on every key.  The keys are fixed without being
    proven so, and the solve falls back to the explicit formulation,
    whose vertex gives every key the one value that the explicit
    formulation, capped at the optimum, allows.  No solve runs more than
    the one probe."""
    rng = random.Random(777)
    for _ in range(159):
        p = _corpus.random_pip(rng)
    lps = _synthesis_lps(monkeypatch, _corpus.refinement(p).pruned)
    probes = []
    simplex, keys_fixed = ratlp._simplex, ratlp._keys_fixed

    def recording(*args):
        before = len(probes)
        fixed = keys_fixed(*args)
        assert len(probes) - before <= 1
        return fixed

    monkeypatch.setattr(ratlp, "_simplex", lambda *args: probes.append(1) or simplex(*args))
    monkeypatch.setattr(ratlp, "_keys_fixed", recording)
    cancelling = 0
    for constraints, keys in lps:
        rows, nonnegative = _sign_split(constraints)
        got = _compare_magnitude_solves(rows, nonnegative, keys)
        if got.fixed is False:
            ranges = _key_ranges(rows, nonnegative, keys, got.objective)
            if all(low == high for low, high in ranges.values()):
                cancelling += 1
                assert {k: got.assignment[k] for k in keys} == {
                    k: low for k, (low, _) in ranges.items()
                }
    assert cancelling == 1 and probes


def test_one_probe_sees_a_tie_that_raises_keys():
    """min |k0| + |k1| + |k3| subject to -k0 - 2*k1 - 2*k3 - l/2 = -1,
    -2*k0 - k1 + 2*k3 + 2*l <= 3 and k1 - k3 >= 3 over a multiplier
    l >= 0 ties: k1 from 19/15 to 7/4 with k3 = k1 - 3 all have magnitude
    3.  The vertex has k1 = 19/15, so the moves along the tie raise both
    keys; the probe over the moving columns is unbounded, and the solve
    falls back to the explicit formulation's vertex, k1 = 19/15."""
    rows = [
        C({"k0": -1, "k1": -2, "k3": -2, "l": Fraction(-1, 2)}, "=", -1),
        C({"k0": -2, "k1": -1, "k3": 2, "l": 2}, "<=", 3),
        C({"k1": 1, "k3": -1}, ">=", 3),
    ]
    keys = ["k0", "k1", "k3"]
    got = _compare_magnitude_solves(rows, ["l"], keys)
    assert got.assignment["k1"] == Fraction(19, 15) and got.fixed is False
    ranges = _key_ranges(rows, ["l"], keys, got.objective)
    assert ranges["k1"] == (Fraction(19, 15), Fraction(7, 4))
