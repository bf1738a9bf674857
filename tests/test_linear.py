import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import _reference_linear
from _reference_linear import NONLINEAR, linearize
from pcfr import linear, ratlp
from pcfr.linear import (
    Satisfiability,
    constraint_satisfiability,
    entails,
    expression_bounds,
    project,
)
from pcfr.syntax import Atom, Constraint, Polynomial, pv, tmp

W, X, Y, Z = pv("w"), pv("x"), pv("y"), pv("z")
PX, PY, PZ = Polynomial.var(X), Polynomial.var(Y), Polynomial.var(Z)
U = tmp("u")
PU = Polynomial.var(U)
PB = Polynomial.var(pv("b"))


# --- satisfiability examples ------------------------------------------------


def test_conflicting_guard_and_label_unsat():
    c = Constraint([Atom(PX, "=", 0), Atom(PX, ">", 0)])
    assert constraint_satisfiability(c) is Satisfiability.UNSAT


def test_single_inequality_sat():
    assert constraint_satisfiability(Constraint([Atom(PX, ">", 0)])) is Satisfiability.SAT


def test_three_atom_unsat_matches_brute_force():
    c = Constraint([Atom(PY, ">", 0), Atom(PX, "=", 0), Atom(PX, ">", 0)])
    assert constraint_satisfiability(c) is Satisfiability.UNSAT
    assert not any(
        c.satisfied_by({X: a, Y: b})
        for a in range(-3, 4)
        for b in range(-3, 4)
    )


def test_nonlinear_is_unknown_not_unsat():
    c = Constraint([Atom(PX * PX, "<=", 4)])
    assert linearize(c) is NONLINEAR
    assert constraint_satisfiability(c) is Satisfiability.UNKNOWN


def test_nonlinear_with_unsat_linear_part_is_unsat():
    c = Constraint([Atom(PX * PX, "<=", 4), Atom(PX, ">", 0), Atom(PX, "<", 0)])
    assert constraint_satisfiability(c) is Satisfiability.UNSAT


def test_linearize_row_counts():
    assert len(linearize(Constraint([Atom(PU, ">", 0)])).rows) == 1
    sys2 = linearize(Constraint([Atom(PY, ">", 0), Atom(PX, "=", 0)]))
    assert len(sys2.rows) == 2
    assert sum(1 for r in sys2.rows if r.is_eq) == 1


# --- entailment examples ------------------------------------------------------


def test_positive_does_not_entail_zero():
    assert not entails(Constraint([Atom(PX, ">", 0)]), Atom(PX, "=", 0))


def test_anything_entails_trivial_equality():
    assert entails(Constraint([Atom(PX, ">", 0)]), Atom(Polynomial.const(0), "=", 0))


def test_integer_normalization_recovers_decrement():
    assert entails(Constraint([Atom(PY, ">", 0)]), Atom(PY - 1, ">=", 0))


def test_unsat_premise_entails_linear_atoms():
    premise = Constraint([Atom(PX, ">", 0), Atom(PX, "<", 0)])
    assert entails(premise, Atom(PY, "=", 17))


def test_nonlinear_conclusion_never_entailed():
    premise = Constraint([Atom(PX, "=", 0)])
    assert not entails(premise, Atom(PX * PX, "<=", 0))


def test_reflexivity_on_conjuncts():
    premise = Constraint([Atom(PX + PY, "<=", 3), Atom(PY, "=", 2), Atom(PX, ">", -5)])
    for atom in premise.atoms:
        assert entails(premise, atom)


def test_monotone_under_strengthening():
    premise = Constraint([Atom(PY, ">", 0)])
    conclusion = Atom(PY, ">=", 1)
    assert entails(premise, conclusion)
    assert entails(premise & Atom(PX, "<=", 7), conclusion)


def test_expression_bounds_box():
    c = Constraint([Atom(PX, ">=", 1), Atom(PX, "<=", 5)])
    assert expression_bounds(c, PX) == (Fraction(1), Fraction(5))
    assert expression_bounds(c, 2 * PX + 1) == (Fraction(3), Fraction(11))
    lower, upper = expression_bounds(Constraint([Atom(PX, ">=", 1)]), PX)
    assert lower == Fraction(1) and upper is None


def test_project_drops_temporary():
    c = Constraint([Atom(PX, "=", PU), Atom(PU, ">", 0)])
    atoms = project(c, [X])
    assert atoms == [Atom(PX, ">=", 1)]


# --- randomized soundness against exhaustive enumeration ---------------------


def _random_constraint(rng, variables, n_atoms):
    atoms = []
    for _ in range(n_atoms):
        poly = Polynomial.const(rng.randint(-3, 3))
        for v in variables:
            poly = poly + rng.randint(-3, 3) * Polynomial.var(v)
        atoms.append(Atom(poly, rng.choice(["<", "<=", "=", ">=", ">"]), 0))
    return Constraint(atoms)


def _integer_points(variables, radius):
    for values in itertools.product(range(-radius, radius + 1), repeat=len(variables)):
        yield dict(zip(variables, values))


def test_randomized_soundness_vs_integer_box():
    rng = random.Random(20240511)
    variables = [X, Y, Z]
    unsat_confirmed = entailed_confirmed = 0
    for _ in range(300):
        n_vars = rng.randint(1, 3)
        pool = variables[:n_vars]
        premise = _random_constraint(rng, pool, rng.randint(1, 3))
        conclusion_atoms = _random_constraint(rng, pool, 1).atoms
        if constraint_satisfiability(premise) is Satisfiability.UNSAT:
            assert not any(
                premise.satisfied_by(pt) for pt in _integer_points(pool, 8)
            ), f"engine unsat but {premise} has an integer model"
            unsat_confirmed += 1
        if conclusion_atoms:
            conclusion = conclusion_atoms[0]
            if entails(premise, conclusion):
                assert all(
                    conclusion.satisfied_by(pt)
                    for pt in _integer_points(pool, 8)
                    if premise.satisfied_by(pt)
                ), f"engine claims {premise} |= {conclusion}"
                entailed_confirmed += 1
    assert unsat_confirmed > 5
    assert entailed_confirmed > 5


# --- cross-validation of entailment by Farkas multipliers (simplex) ----------


def _farkas_entails(premise, conclusion):
    """Independent duality check: nonnegative multipliers over the premise
    rows (free on equalities) whose combination dominates the conclusion."""
    system = linearize(premise)
    conc = linearize(Constraint([conclusion]))
    if system is NONLINEAR or conc is NONLINEAR or not conc.rows:
        return None
    variables = sorted(set(system.variables) | set(conc.variables))
    conc_row = conc.rows[0]
    conc_coeffs = dict(zip(conc.variables, conc_row.coeffs))
    constraints = []
    for j, v in enumerate(variables):
        combo = {}
        for i, row in enumerate(system.rows):
            if v in system.variables:
                coeff = row.coeffs[system.variables.index(v)]
                if coeff:
                    combo[("lam", i)] = coeff
        constraints.append(
            ratlp.LinearConstraint.of(combo, "=", conc_coeffs.get(v, Fraction(0)))
        )
    combo = {}
    for i, row in enumerate(system.rows):
        if row.const:
            combo[("lam", i)] = row.const
    constraints.append(ratlp.LinearConstraint.of(combo, ">=", conc_row.const))
    for i, row in enumerate(system.rows):
        if not row.is_eq:
            constraints.append(ratlp.LinearConstraint.of({("lam", i): 1}, ">=", 0))
    result = ratlp.solve_lp(constraints)
    return result.status == ratlp.OPTIMAL


def test_entailment_agrees_with_farkas_duality():
    rng = random.Random(77)
    checked = agreements = 0
    for _ in range(150):
        pool = [X, Y][: rng.randint(1, 2)]
        premise = _random_constraint(rng, pool, rng.randint(1, 2))
        if constraint_satisfiability(premise) is not Satisfiability.SAT:
            continue  # Farkas duality characterizes entailment only for sat premises
        conclusion = _random_constraint(rng, pool, 1).atoms
        if not conclusion or conclusion[0].is_eq:
            continue
        verdict = entails(premise, conclusion[0])
        dual = _farkas_entails(premise, conclusion[0])
        if dual is None:
            continue
        checked += 1
        assert verdict == dual, (premise, conclusion[0])
        agreements += 1
    assert checked > 30


# --- differential tests against the Fourier-Motzkin reference -----------------


def _random_form(rng, variables):
    poly = Polynomial.const(rng.randint(-3, 3))
    for v in variables:
        poly = poly + rng.randint(-3, 3) * Polynomial.var(v)
    return poly


def test_linear_core_matches_elimination_reference():
    """Satisfiability, entailment and both expression bounds agree with the
    Fourier-Motzkin engine on small seeded systems of 1-4 variables."""
    rng = random.Random(4404)
    seen = Counter()
    for _ in range(800):
        pool = [W, X, Y, Z][: rng.randint(1, 4)]
        premise = _random_constraint(rng, pool, rng.randint(0, 4))
        conclusion = Atom(_random_form(rng, pool), rng.choice(["<=", "="]), 0)
        sat = constraint_satisfiability(premise)
        assert sat is _reference_linear.constraint_satisfiability(premise), premise
        verdict = entails(premise, conclusion)
        if verdict != _reference_linear.entails(premise, conclusion):
            # The reference misses some contradictions (see below).
            assert sat is Satisfiability.UNSAT and verdict, (premise, conclusion)
            seen["unsat premise the reference does not see entailing"] += 1
        for poly in [a.expr for a in premise.atoms] + [_random_form(rng, pool)]:
            bounds = expression_bounds(premise, poly)
            want = _reference_linear.expression_bounds(premise, poly)
            if want is not None and None not in want and want[0] > want[1]:
                # The reference reports an empty interval, not None, when the
                # contradiction only shows once the expression's variables
                # are substituted away, and then may miss the entailment.
                assert sat is Satisfiability.UNSAT
                want = None
                seen["empty interval"] += 1
            assert bounds == want, (premise, poly)
            if bounds is not None:
                seen["finite inf"] += bounds[0] is not None
                seen["finite sup"] += bounds[1] is not None
                seen["unbounded"] += None in bounds
        seen["unsat"] += sat is Satisfiability.UNSAT
        seen["equality premise"] += any(a.is_eq for a in premise.atoms)
        seen[f"equality conclusion entailed={verdict}"] += conclusion.is_eq
    assert len(seen) == 9 and min(seen.values()) >= 5, seen


def test_unsat_premise_entails_through_the_expression():
    """The reference engine knows this premise is unsatisfiable, yet it
    does not entail ``1 <= b``: eliminating ``b`` through the expression's
    defining equality leaves the contradiction as an empty interval."""
    premise = Constraint([Atom(PB, ">=", 0), Atom(PB, "<=", -2)])
    conclusion = Atom(PB, ">=", 1)
    assert _reference_linear.constraint_satisfiability(premise) is Satisfiability.UNSAT
    assert not _reference_linear.entails(premise, conclusion)
    assert _reference_linear.expression_bounds(premise, 1 - PB) == (3, 1)
    assert entails(premise, conclusion)
    assert expression_bounds(premise, 1 - PB) is None


def test_projection_matches_elimination_on_post_images():
    """One atom plus equalities, as ``post_image_atoms`` builds them: the
    Gaussian projection returns the reference engine's atoms."""
    rng = random.Random(5505)
    primed = [pv("w__post"), pv("x__post"), pv("y__post")]
    changed = 0
    for _ in range(300):
        pool = [W, X, Y][: rng.randint(1, 3)]
        atoms = list(_random_constraint(rng, pool + [U], 1).atoms)
        for post in primed[: len(pool)]:
            image = _random_form(rng, pool + [U]) if rng.random() < 0.7 else PU
            atoms.append(Atom(Polynomial.var(post), "=", image))
        c = Constraint(atoms)
        keep = primed[: len(pool)]
        got = project(c, keep)
        assert got == _reference_linear.project(c, keep), c
        changed += got != [a for a in c.atoms if a.variables() <= set(keep)]
    assert changed > 30


# --- premises of variable-disjoint parts -------------------------------------

_SPLIT_VARIABLES = [W, X, Y, Z]


def _split_block(rng, kind, variables):
    """Atoms over ``variables`` alone, of a kind whose satisfiability is
    known: True when they have an integer model, False when they have no
    rational one."""
    p = Polynomial.var(variables[0])
    if kind == "lone inequality":
        rel = rng.choice(["<", "<=", ">=", ">"])
        return [Atom(rng.choice([-3, -1, 1, 2]) * p + rng.randint(-3, 3), rel, 0)], True
    if kind == "lone equality":
        return [Atom(rng.choice([-1, 1]) * p + rng.randint(-2, 2), "=", 0)], True
    if kind == "constant":
        return [Atom(1, "<=", 0)], False
    form = _random_form(rng, variables) + rng.randint(1, 3) * p
    if kind == "unsatisfiable pair":
        return [Atom(form, "<=", 0), Atom(form, ">=", 1)], False
    # satisfiable: atoms that hold at an integer point of the box
    point = {v: rng.randint(-2, 2) for v in variables}
    atoms = []
    for _ in range(rng.randint(2, 3)):
        form = _random_form(rng, variables)
        value = form.evaluate(point)
        rel = rng.choice(["<=", ">=", "="])
        atoms.append(Atom(form, rel, value + {"<=": 1, ">=": -1, "=": 0}[rel] * rng.randint(0, 2)))
    return atoms, True


def _split_premise(rng):
    """2-4 blocks over disjoint variables, at most four variables in all;
    the premise, its blocks and each block's known satisfiability."""
    kinds = ["lone inequality", "lone equality", "constant", "unsatisfiable pair", "satisfiable"]
    free = list(_SPLIT_VARIABLES)
    blocks = []
    for _ in range(rng.randint(2, 4)):
        kind = rng.choices(kinds, weights=[3, 2, 1, 1, 3])[0]
        if kind == "constant":
            atoms, known = _split_block(rng, kind, [X])
            blocks.append((atoms, known, []))
            continue
        width = 1 if kind.startswith("lone") else rng.randint(1, 2)
        if len(free) < width:
            break
        variables, free = free[:width], free[width:]
        atoms, known = _split_block(rng, kind, variables)
        blocks.append((atoms, known, variables))
    return Constraint(a for atoms, _, _ in blocks for a in atoms), blocks


def _counting_solves(monkeypatch):
    calls = []
    solve_lp = linear.ratlp.solve_lp

    def counting(*args, **kwargs):
        calls.append(None)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(linear.ratlp, "solve_lp", counting)
    return calls


def test_split_premise_matches_reference_and_brute_force(monkeypatch):
    """Premises joined from variable-disjoint blocks: satisfiability,
    entailment and both expression bounds agree with the Fourier-Motzkin
    engine and with integer enumeration on a box, and a refutation makes
    at most one LP per part that is not a lone atom over a variable."""
    rng = random.Random(2808)
    calls = _counting_solves(monkeypatch)
    seen = Counter()
    for _ in range(250):
        premise, blocks = _split_premise(rng)
        pool = sorted(premise.variables())
        points = [pt for pt in _integer_points(pool, 2) if premise.satisfied_by(pt)]
        calls.clear()
        sat = constraint_satisfiability(premise)
        parts = linear._parts(premise.atoms)
        lone = sum(1 for variables, atoms in parts if len(atoms) == 1 and variables)
        if len(parts) == 1:
            assert len(calls) == (0 if premise.has_trivially_false_atom() else 1)
        else:
            assert len(calls) <= len(parts) - lone, premise
        seen["only lone atoms"] += len(parts) > 1 and lone == len(parts)
        assert sat is _reference_linear.constraint_satisfiability(premise), premise
        assert sat is (Satisfiability.SAT if all(k for _, k, _ in blocks) else Satisfiability.UNSAT)
        if sat is Satisfiability.UNSAT:
            assert not points, premise
        entails.cache_clear()
        for _ in range(2):
            _, _, variables = rng.choice(blocks)
            conclusion = Atom(_random_form(rng, variables or pool), rng.choice(["<=", "="]), 0)
            verdict = entails(premise, conclusion)
            if verdict != _reference_linear.entails(premise, conclusion):
                assert sat is Satisfiability.UNSAT and verdict, (premise, conclusion)
            if verdict:
                assert all(conclusion.satisfied_by(pt) for pt in points), (premise, conclusion)
            seen[f"entailed={verdict} sat={sat}"] += 1
        for poly in [atoms[0].expr for atoms, _, _ in blocks] + [_random_form(rng, pool)]:
            bounds = expression_bounds(premise, poly)
            want = _reference_linear.expression_bounds(premise, poly)
            if want is not None and None not in want and want[0] > want[1]:
                assert sat is Satisfiability.UNSAT  # see the reference test above
                want = None
            assert bounds == want, (premise, poly)
            if bounds is None:
                assert sat is Satisfiability.UNSAT
                continue
            lower, upper = bounds
            values = [poly.evaluate(pt) for pt in points]
            assert all(
                (lower is None or lower <= v) and (upper is None or v <= upper) for v in values
            ), (premise, poly)
            seen["finite bound"] += lower is not None or upper is not None
        seen[f"{len(parts)} parts, {sat}"] += 1
    cases = ["only lone atoms", "finite bound", "entailed=True sat=unsat"]
    cases += [f"entailed={v} sat=sat" for v in (True, False)]
    cases += [f"{n} parts, {sat}" for n in (2, 3) for sat in ("sat", "unsat")]
    assert all(seen[case] >= 5 for case in cases), seen


def test_a_part_refutation_decides_the_premise(monkeypatch):
    """A bounded conclusion over a satisfiable part beside an unsatisfiable
    rest: the rest is refuted on its own, so the premise has no bounds and
    entails the conclusion, as a whole-premise refutation says too."""
    box = [Atom(PX, ">=", 0), Atom(PX, "<=", 3), Atom(PX, ">=", -1)]
    premise = Constraint(box + [Atom(PY + PZ, ">=", 1), Atom(PY + PZ, "<=", 0)])
    calls = _counting_solves(monkeypatch)
    assert constraint_satisfiability(premise) is Satisfiability.UNSAT
    assert len(calls) == 1  # the smaller part first, and it is refuted
    assert expression_bounds(Constraint(box), PX) == (0, 3)
    entails.cache_clear()
    assert entails(premise, Atom(PX, "<=", -1))
    assert expression_bounds(premise, PX) is None
    assert _reference_linear.expression_bounds(premise, PX) is None


def test_lone_atom_parts_need_no_lp(monkeypatch):
    """A premise whose parts are each one atom over a variable has a model
    without an LP; a premise of one part is refuted by one LP, as before."""
    calls = _counting_solves(monkeypatch)
    lone = Constraint([Atom(PX, ">=", 0), Atom(PY, ">=", 1)])
    assert constraint_satisfiability(lone) is Satisfiability.SAT
    assert constraint_satisfiability(lone & Atom(PZ, "=", 3)) is Satisfiability.SAT
    assert calls == []
    for one_part in (
        Constraint([Atom(PX, ">=", 0)]),
        Constraint([Atom(PX, ">=", 0), Atom(PX + PY, "<=", 1)]),
        Constraint([Atom(PX, ">=", 1), Atom(PX, "<=", 0)]),
    ):
        calls.clear()
        constraint_satisfiability(one_part)
        assert len(calls) == 1, one_part


V = pv("v")  # a variable that no split premise mentions


def _split_conclusion(rng, blocks):
    """A linear form over the variables of one or two blocks, now and then
    with a variable no premise atom mentions; constant when the blocks
    have no variables."""
    chosen = rng.sample(blocks, min(len(blocks), rng.randint(1, 2)))
    variables = [v for _, _, block_vars in chosen for v in block_vars]
    if rng.random() < 0.25:
        variables.append(V)
    return _random_form(rng, variables)


def _whole_premise_sup(premise, poly):
    """The supremum by one Farkas-dual LP over every atom of the premise."""
    lin, const = poly.linear_form()
    conclusion_vars = {v: {linear.LIT: Fraction(c)} for v, c in lin.items()}
    constraints = []
    conclusion_const = {linear.LIT: Fraction(const), "sup": -1}
    linear.farkas_block(0, premise, conclusion_vars, conclusion_const, constraints)
    result = ratlp.solve_lp(constraints, {"sup": 1})
    return result.objective if result.status == ratlp.OPTIMAL else None


def test_part_supremum_matches_the_whole_premise():
    """Suprema and entailments over premises of variable-disjoint blocks,
    among them unsatisfiable blocks and constant atoms beside the
    conclusion's blocks: ``expression_sup`` equals the whole-premise LP
    and the Fourier-Motzkin reference, and ``entails`` agrees with the
    reference and with integer enumeration on a box."""
    rng = random.Random(3303)
    seen = Counter()
    for _ in range(300):
        premise, blocks = _split_premise(rng)
        poly = _split_conclusion(rng, blocks)
        lin, _ = poly.linear_form()
        sat = constraint_satisfiability(premise)
        sup = linear.expression_sup(premise, poly)
        assert sup == _whole_premise_sup(premise, poly), (premise, poly)
        want = _reference_linear.expression_bounds(premise, poly)
        if want is None or None not in want and want[0] > want[1]:
            assert sat is Satisfiability.UNSAT  # see test_linear_core_matches_...
            want = (None, None)
        assert sup == want[1], (premise, poly)
        pool = sorted(premise.variables() | poly.variables())
        points = [pt for pt in _integer_points(pool, 2) if premise.satisfied_by(pt)]
        entails.cache_clear()
        for rel in ("<=", "="):
            conclusion = Atom(poly, rel, 0)
            verdict = entails(premise, conclusion)
            if verdict != _reference_linear.entails(premise, conclusion):
                assert sat is Satisfiability.UNSAT and verdict, (premise, conclusion)
            if verdict:
                assert all(conclusion.satisfied_by(pt) for pt in points), (premise, conclusion)
            seen[f"entailed={verdict} sat={sat}"] += 1
        in_near = [known for _, known, vs in blocks if not lin.keys().isdisjoint(vs)]
        in_rest = [known for _, known, vs in blocks if lin.keys().isdisjoint(vs)]
        seen["free variable"] += V in lin
        seen["constant conclusion"] += not lin
        seen["finite sup"] += sup is not None
        seen["satisfiable near, unsatisfiable rest"] += all(in_near) and not all(in_rest)
    cases = ["free variable", "constant conclusion", "finite sup"]
    cases += ["satisfiable near, unsatisfiable rest", "entailed=True sat=unsat"]
    cases += [f"entailed={v} sat=sat" for v in (True, False)]
    assert all(seen[case] >= 5 for case in cases), seen


def test_supremum_lp_spans_the_conclusions_parts(monkeypatch):
    """A conclusion with a variable no premise atom mentions makes no
    supremum LP.  Otherwise a supremum makes one LP, whose multipliers
    are those of the atoms in the parts that share a variable with the
    conclusion, and then at most one refutation per other part that is
    not a lone atom over a variable."""
    rng = random.Random(3304)
    lps = []  # (a supremum LP, its multiplier keys)
    solve_lp = linear.ratlp.solve_lp

    def recording(constraints, objective=None, extra_variables=()):
        keys = {k for c in constraints for k, _ in c.coeffs if k[0] == "lam"}
        lps.append((objective is not None, keys))
        return solve_lp(constraints, objective, extra_variables)

    monkeypatch.setattr(linear.ratlp, "solve_lp", recording)
    seen = Counter()
    for _ in range(300):
        premise, blocks = _split_premise(rng)
        poly = _split_conclusion(rng, blocks)
        lin, _ = poly.linear_form()
        parts = linear._parts(premise.atoms)
        near = [a for variables, atoms in parts if not variables.isdisjoint(lin) for a in atoms]
        others = [atoms for variables, atoms in parts if variables.isdisjoint(lin)]
        refutable = [atoms for atoms in others if len(atoms) > 1 or not atoms[0].variables()]
        entails.cache_clear()
        lps.clear()
        linear.expression_sup(premise, poly)
        sup_lps = lps[:]
        lps.clear()
        entails(premise, Atom(poly, "<=", 0))
        if not premise.variables().issuperset(lin):
            assert sup_lps == [], (premise, poly)
            assert not any(is_sup for is_sup, _ in lps), (premise, poly)
            seen["free variable"] += 1
            continue
        assert sup_lps[0][0] and not any(is_sup for is_sup, _ in sup_lps[1:]), (premise, poly)
        if len(parts) > 1:
            assert sup_lps[0][1] == {("lam", 0, i) for i in range(len(near))}, (premise, poly)
            assert len(sup_lps) <= 1 + len(refutable), (premise, poly)
            seen["other parts"] += bool(others)
            seen["refuted other part"] += len(sup_lps) > 1
        else:
            assert len(sup_lps) == 1, (premise, poly)
        kinds = [is_sup for is_sup, _ in lps]  # entails: one supremum, then refutations
        assert kinds[1:] == [False] * (len(lps) - 1), (premise, poly)
        assert len(lps) <= 1 + len(parts), (premise, poly)
    assert min(seen["free variable"], seen["other parts"], seen["refuted other part"]) >= 5, seen


# --- every soundness verdict is backed by checked multipliers ----------------


def test_corrupted_farkas_certificate_raises(monkeypatch):
    """A perturbed multiplier fails its check in plain arithmetic, for each
    verdict soundness rests on: entailed, unsat and a finite supremum.
    Uses no ``assert``, so it checks the same under ``python -O``."""
    box = Constraint([Atom(PX, ">=", 1), Atom(PX, "<=", 5), Atom(PY, "=", PX)])
    solve_lp = linear.ratlp.solve_lp

    def corrupted(constraints, objective=None, extra_variables=()):
        result = solve_lp(constraints, objective, extra_variables)
        if result.assignment is not None:
            first = min(k for k in result.assignment if k[0] == "lam")
            result.assignment[first] += 1
        return result

    entails.cache_clear()
    monkeypatch.setattr(linear.ratlp, "solve_lp", corrupted)
    with pytest.raises(AssertionError, match="Farkas multipliers"):
        entails(box, Atom(PY, ">=", 1))
    with pytest.raises(AssertionError, match="Farkas multipliers"):
        constraint_satisfiability(box & Atom(PY, ">=", 6))
    with pytest.raises(AssertionError, match="Farkas multipliers"):
        expression_bounds(box, PX + PY)


def test_corrupted_farkas_certificate_with_negative_multiplier_raises(monkeypatch):
    """``-1 * (1 - x)`` is ``x``, so a multiplier of -1 on ``x >= 1``
    would "prove" ``sup x <= 1`` over ``1 <= x <= 5``; its sign is checked."""
    box = Constraint([Atom(PX, ">=", 1), Atom(PX, "<=", 5)])
    low = box.atoms.index(Atom(PX, ">=", 1))
    solve_lp = linear.ratlp.solve_lp

    def corrupted(constraints, objective=None, extra_variables=()):
        result = solve_lp(constraints, objective, extra_variables)
        result.assignment = dict.fromkeys(result.assignment, Fraction(0))
        result.assignment[("lam", 0, low)] = Fraction(-1)
        return result

    monkeypatch.setattr(linear.ratlp, "solve_lp", corrupted)
    with pytest.raises(AssertionError, match="negative Farkas multiplier"):
        expression_bounds(box, PX)


def test_corrupted_farkas_certificate_on_a_part_raises(monkeypatch):
    """Each part's proof is checked against that part alone.  The
    refutation of the x-part fails on a perturbed multiplier, and the
    y-part is not in the message; a supremum over y is solved on the
    y-part first, whose check fails naming only it.  The message ends
    with the conclusion the multipliers should make: 0 for a refutation,
    the expression for a supremum.
    Uses no ``assert``, so it checks the same under ``python -O``."""
    premise = Constraint(
        [Atom(PX, ">=", 1), Atom(PX, "<=", 0), Atom(PY, ">=", 0), Atom(PY, "<=", 3)]
    )
    solve_lp = linear.ratlp.solve_lp

    def corrupted(constraints, objective=None, extra_variables=()):
        result = solve_lp(constraints, objective, extra_variables)
        if result.assignment is not None:
            first = min(k for k in result.assignment if k[0] == "lam")
            result.assignment[first] += 1
        return result

    entails.cache_clear()
    monkeypatch.setattr(linear.ratlp, "solve_lp", corrupted)
    x_part = r"^Farkas multipliers do not combine 1 <= x && x <= 0 into 0$"
    y_part = r"^Farkas multipliers do not combine 0 <= y && y <= 3 into y$"
    with pytest.raises(AssertionError, match=x_part):
        constraint_satisfiability(premise)
    with pytest.raises(AssertionError, match=y_part):
        entails(premise, Atom(PY, "<=", 2))
    with pytest.raises(AssertionError, match=y_part):
        expression_bounds(premise, PY)


def test_corrupted_farkas_certificate_on_the_conclusions_parts_raises(monkeypatch):
    """The supremum LP over the conclusion's parts is checked against those
    parts: a perturbed multiplier fails for a supremum and for both kinds
    of entailed atom, and the message names the x- and y-parts but not the
    z-part beside them.  Uses no ``assert``, so it checks the same under
    ``python -O``."""
    premise = Constraint(
        [Atom(PX, ">=", 0), Atom(PX, "<=", 3), Atom(PY, ">=", PX), Atom(PY, "<=", 5)]
        + [Atom(PZ, ">=", 1), Atom(PZ, "<=", 4)]
    )
    solve_lp = linear.ratlp.solve_lp

    def corrupted(constraints, objective=None, extra_variables=()):
        result = solve_lp(constraints, objective, extra_variables)
        if result.assignment is not None:
            first = min(k for k in result.assignment if k[0] == "lam")
            result.assignment[first] += 1
        return result

    entails.cache_clear()
    monkeypatch.setattr(linear.ratlp, "solve_lp", corrupted)
    x_and_y_parts = r"^Farkas multipliers do not combine (?=[^\n]*x <= 3)(?=[^\n]*y <= 5)[^z]*$"
    with pytest.raises(AssertionError, match=x_and_y_parts):
        linear.expression_sup(premise, PX + PY)
    with pytest.raises(AssertionError, match=x_and_y_parts):
        entails(premise, Atom(PX + PY, "<=", 8))
    with pytest.raises(AssertionError, match=x_and_y_parts):
        entails(premise, Atom(PY - PX - 5, "=", 0))
    with pytest.raises(AssertionError, match=x_and_y_parts):
        expression_bounds(premise, PX - PY)


def test_sixteen_inequalities_in_six_variables():
    """Fourier-Motzkin did not finish this entailment in a minute; the
    certified supremum must equal a primal simplex maximisation."""
    rng = random.Random(5)
    xs = [pv(f"x{i}") for i in range(6)]

    def form():
        return sum((rng.randint(-4, 4) * Polynomial.var(v) for v in xs), Polynomial.const(0))

    premise = Constraint(Atom(form(), "<=", rng.randint(0, 4)) for _ in range(16))
    goal = form()
    assert len(premise.atoms) == 16
    start = time.perf_counter()
    lower, upper = expression_bounds(premise, goal)
    entailed = entails(premise, Atom(goal, "<=", 8)), entails(premise, Atom(goal, "<=", 7))
    assert time.perf_counter() - start < 5
    rows = []
    for a in premise.atoms:
        lin, const = a.expr.linear_form()
        rows.append(ratlp.LinearConstraint.of(lin, "<=", -const))
    lin, _ = goal.linear_form()
    primal_max = ratlp.solve_lp(rows, {v: -c for v, c in lin.items()}, xs)
    primal_min = ratlp.solve_lp(rows, lin, xs)
    assert primal_max.status == primal_min.status == ratlp.OPTIMAL
    assert upper == -primal_max.objective == Fraction(51188, 6411)  # 7.98...
    assert lower == primal_min.objective
    assert entailed == (True, False)
