import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest

import _corpus
import _reference_bounds
from pcfr import bounds
from pcfr.bounds import (
    AffineExpr,
    CoverError,
    TaintedCertificateError,
    bound_program,
    compose_bound,
    default_cover,
    find_constant_plrf,
    find_linear_plrf,
    verify_plrf,
)
from pcfr.cli import main
from pcfr.invariants import infer
from pcfr.linear import (
    LIT,
    Satisfiability,
    constraint_satisfiability,
    entails,
    farkas_block,
)
from pcfr.model import PIP, GeneralTransition, Location, Transition
from pcfr.semantics import SeededPolicy, expected_runtime_estimate, mdp_sup_truncated
from pcfr.syntax import TRUE, Atom, Constraint, Polynomial, Update, pv
from pcfr.textfmt import parse_program

X, Y = pv("x"), pv("y")
PX, PY = Polynomial.var(X), Polynomial.var(Y)


def _coin_gt(fig2):
    return [g for g in fig2.gts if len(g.members) == 2][0]


def _tail_gts(fig2):
    return [g.name for g in fig2.gts if g.name.split("__")[0] in ("t2", "t3")]


# --- constant ranking functions ------------------------------------------------


def test_constant_ranking_on_refined_coin(fig2):
    inv = infer(fig2)
    plrf = find_constant_plrf(fig2, inv, [_coin_gt(fig2).name])
    assert plrf is not None and not plrf.taints
    values = {loc.display(): expr for loc, expr in plrf.values.items()}
    assert values["l1"].const == 2
    assert values["l1[x=0]"].const == 0
    assert values["l0"].const == 2
    assert values["l2[x=0]"].const == 0


def test_no_constant_ranking_on_original_coin(fig1):
    # both coin members return to the same location, so no constant value
    # can drop by one in expectation
    assert find_constant_plrf(fig1, infer(fig1), ["coin"]) is None


def test_empty_targets_all_zero(fig1):
    plrf = find_constant_plrf(fig1, infer(fig1), [])
    assert all(expr == AffineExpr.constant(0) for expr in plrf.values.values())


def test_constant_scaling_preserves_all_but_decrease_tightness(fig2):
    """Scaled-up constants stay feasible for non-increase and nonnegativity,
    so only the canonical minimal objective pins the output."""
    inv = infer(fig2)
    plrf = find_constant_plrf(fig2, inv, [_coin_gt(fig2).name])
    doubled = type(plrf)(
        {
            loc: AffineExpr.make({v: 2 * c for v, c in expr.coeffs}, 2 * expr.const)
            for loc, expr in plrf.values.items()
        },
        plrf.targets,
        plrf.kind,
    )
    failures, taints = verify_plrf(fig2, inv, doubled)
    assert not failures and not taints  # conditions hold, but it is not minimal
    again = find_constant_plrf(fig2, inv, [_coin_gt(fig2).name])
    assert {l.name: e.const for l, e in again.values.items()} == {
        l.name: e.const for l, e in plrf.values.items()
    }


def _farkas_constant_values(p, inv, targets):
    """Constant ranking values from the system that encodes every
    condition with Farkas multipliers over its premise, or None."""
    blocks = []  # (premise, literal, [(factor, location)])
    for g in p.gts:
        premise = Constraint(a for a in (inv.of(g.source) & g.guard).atoms if a.is_linear())
        step = [(t.prob, t.target) for t in g.members] + [(Fraction(-1), g.source)]
        if g.name in targets:
            blocks += [(premise, 1, step), (premise, 0, [(Fraction(-1), g.source)])]
            blocks += [(premise, 0, [(Fraction(-1), t.target)]) for t in g.members]
        else:
            blocks.append((premise, 0, step))
    constraints = []
    for block_id, (premise, literal, combination) in enumerate(blocks):
        conclusion = {LIT: Fraction(literal)}
        for factor, location in combination:
            key = ("c", location.name)
            conclusion[key] = conclusion.get(key, 0) + factor
        farkas_block(block_id, premise, {}, conclusion, constraints)
    keys = [("c", loc.name) for loc in p.locations]
    solution = bounds._solve_constant(constraints, keys, ("c", p.initial.name))
    if solution is None:
        return None
    return {loc.name: solution.get(("c", loc.name), 0) for loc in p.locations}


def test_constant_synthesis_matches_farkas_encoding_on_random_corpus():
    """A constant template makes every conclusion constant, so the
    multiplier-free rows (dropped on an unsatisfiable premise) must give
    the same feasibility and the same certificate as the Farkas system."""
    rng = random.Random(777)
    unsat_premises = infeasible = 0
    for _ in range(30):
        p = _corpus.random_pip(rng)
        for q in (p, _corpus.refinement(p).pruned):
            inv = infer(q)
            unsat_premises += sum(
                constraint_satisfiability(inv.of(g.source) & g.guard) is Satisfiability.UNSAT
                for g in q.gts
            )
            for group in default_cover(q):
                expected = _farkas_constant_values(q, inv, set(group))
                plrf = find_constant_plrf(q, inv, group)
                if expected is None:
                    assert plrf is None
                    infeasible += 1
                else:
                    got = {loc.name: expr.const for loc, expr in plrf.values.items()}
                    assert got == expected, (q, group)
    assert unsat_premises and infeasible  # both branches of the lemma are exercised


# --- linear ranking functions -----------------------------------------------


def test_linear_ranking_on_tail_loop(fig2):
    inv = infer(fig2)
    plrf = find_linear_plrf(fig2, inv, _tail_gts(fig2))
    assert plrf is not None and not plrf.taints
    values = {loc.display(): expr for loc, expr in plrf.values.items()}
    assert values["l0"].render() == "2*y"
    assert values["l1"].render() == "2*y"
    assert values["l1[x=0]"].render() == "2*y"
    assert values["l2[x=0]"].render() == "-1 + 2*y"


def test_linear_candidate_on_original_coin_is_tainted(fig1):
    plrf = find_linear_plrf(fig1, infer(fig1), ["coin"])
    assert plrf is not None
    l1_value = plrf.values[fig1.location("l1")]
    assert l1_value.render() == "2*x"
    assert "t0" in plrf.taints  # x is instantiated from the temporary u


def test_linear_retry_only_with_a_deferred_condition(monkeypatch, fig1):
    """The retry with deferred non-increase conditions runs only when a
    non-target general transition of the group assigns a temporary;
    otherwise its LP would be the first attempt's."""
    attempts = []
    synthesize = bounds._synthesize

    def recording(p, table, targets, linear, skip_temp_nonincrease=False):
        attempts.append(skip_temp_nonincrease)
        return synthesize(p, table, targets, linear, skip_temp_nonincrease)

    monkeypatch.setattr(bounds, "_synthesize", recording)
    # t0 assigns x from the temporary u
    assert find_linear_plrf(fig1, infer(fig1), ["coin"]).taints
    assert attempts == [False, True]
    attempts.clear()
    spin = parse_program(
        "vars x; start q0;\n"
        "trans t0 { from q0; to q1; }\n"
        "trans t1 { from q1; guard x > 0; to q1; }\n"
    )
    assert find_linear_plrf(spin, infer(spin), ["t1"]) is None
    assert attempts == [False]


def test_textbook_countdown_loop():
    head, start = Location("head"), Location("start")
    enter = Transition("enter", start, TRUE, Fraction(1), Update(), head)
    dec = Transition(
        "dec", head, Constraint([Atom(PY, ">", 0)]), Fraction(1), Update({Y: PY - 1}), head
    )
    p = PIP(
        [Y], [start, head], start,
        [GeneralTransition("enter", (enter,)), GeneralTransition("dec", (dec,))],
    )
    plrf = find_linear_plrf(p, infer(p), ["dec"])
    assert plrf.values[head].render() == "y"
    # enumeration agrees at small depths: the loop fires exactly y0 times
    for y0 in range(0, 6):
        est = expected_runtime_estimate(
            p, SeededPolicy(0, (0,)), {Y: y0}, 30
        )
        assert est.per_gt["dec"] == y0
        assert plrf.values[start].evaluate({Y: y0}) >= y0


def test_nonlinear_update_reported():
    from pcfr.bounds import UnsupportedProgram

    head, start = Location("h"), Location("s")
    enter = Transition("enter", start, TRUE, Fraction(1), Update(), head)
    square = Transition(
        "square", head, Constraint([Atom(PY, ">", 0)]), Fraction(1),
        Update({Y: PY * PY - 1}), head,
    )
    p = PIP(
        [Y], [start, head], start,
        [GeneralTransition("enter", (enter,)), GeneralTransition("square", (square,))],
    )
    with pytest.raises(UnsupportedProgram):
        find_linear_plrf(p, infer(p), ["square"])


@pytest.mark.parametrize(
    "guard, update, failure",
    [
        pytest.param("x*x > 4 && x > 0", "x - 1",
                     "{t1}: nonlinear guard or invariant atom on 't1': 5 <= x^2",
                     id="guard"),
        pytest.param("x > 0", "x*x - 1", "{t1}: nonlinear update image for 'x'",
                     id="update"),
    ],
)
def test_nonlinear_group_is_a_failure_not_an_error(capsys, tmp_path, guard, update, failure):
    """A group whose affine synthesis meets a nonlinear guard or update is
    reported as that group's failure, and the CLI exits 1 naming it."""
    text = (
        "vars x;\nstart l0;\ntrans t0 { from l0; to l1; }\n"
        f"trans t1 {{ from l1; guard {guard}; update x := {update}; to l1; }}\n"
    )
    report = bound_program(parse_program(text))
    assert (report.ok, report.bound, report.failures) == (False, None, (failure,))
    path = tmp_path / "loop.pip"
    path.write_text(text)
    assert main(["bound", str(path)]) == 1
    assert capsys.readouterr().out == f"no finite bound\n  {failure}\n"


# --- composition --------------------------------------------------------------


def test_default_cover_shapes(fig1, fig2):
    assert default_cover(fig1) == [("t0",), ("coin", "t2", "t3")]
    cover2 = default_cover(fig2)
    assert ("t0",) in cover2
    assert ("coin",) in cover2
    assert any(len(group) == 2 for group in cover2)


def test_worked_example_bound(fig2):
    report = bound_program(fig2)
    assert report.ok
    assert report.bound.render_total() == "3 + 2*y"
    kinds = sorted((e.kind if hasattr(e, "kind") else e.plrf.kind) for e in report.bound.entries)
    assert kinds == ["constant", "constant", "linear"]
    assert report.bound.evaluate_total({X: 0, Y: 2}) == 7
    # entries clamp at zero individually, so negative y keeps the bound sound
    assert report.bound.evaluate_total({X: 0, Y: -5}) == 3


def test_original_program_has_no_finite_bound(fig1):
    report = bound_program(fig1)
    assert not report.ok
    assert report.bound is None
    assert report.failures


def test_straight_line_charges_one_each():
    locs = [Location(f"p{i}") for i in range(4)]
    gts = []
    for i in range(3):
        t = Transition(f"w{i}", locs[i], TRUE, Fraction(1), Update(), locs[i + 1])
        gts.append(GeneralTransition(f"w{i}", (t,)))
    p = PIP([Y], locs, locs[0], gts)
    report = bound_program(p)
    assert report.ok
    assert report.bound.render_total() == "3"
    assert all(e.bound.const == 1 for e in report.bound.entries)


def test_compose_rejects_uncovered(fig2):
    inv = infer(fig2)
    coin = _coin_gt(fig2).name
    plrf = find_constant_plrf(fig2, inv, [coin])
    with pytest.raises(CoverError, match="not covered"):
        compose_bound(fig2, [((coin,), plrf)])


def test_compose_rejects_double_cover(fig2):
    inv = infer(fig2)
    coin = _coin_gt(fig2).name
    plrf = find_constant_plrf(fig2, inv, [coin])
    with pytest.raises(CoverError, match="covered by entries"):
        compose_bound(fig2, [((coin,), plrf), ((coin,), plrf)])


def test_cover_entry_must_be_nonempty_and_name_each_transition_once(fig2):
    """A partition has no empty block and no block naming a transition
    twice; both are rejected, naming the entry, before any synthesis and
    when composing."""
    groups = [list(group) for group in default_cover(fig2)]
    with pytest.raises(CoverError, match=f"^cover entry {len(groups)} is empty$"):
        bound_program(fig2, groups + [[]])
    first = groups[0][0]
    with pytest.raises(CoverError, match=f"^cover entry 0 names '{first}' twice$"):
        bound_program(fig2, [groups[0] + [first]] + groups[1:])
    empty = find_constant_plrf(fig2, infer(fig2), [])
    with pytest.raises(CoverError, match="^cover entry 0 is empty$"):
        compose_bound(fig2, [((), empty)])


def test_compose_rejects_tainted_certificate(fig1):
    plrf = find_linear_plrf(fig1, infer(fig1), ["coin"])
    with pytest.raises(TaintedCertificateError, match="temporary"):
        compose_bound(fig1, [(("coin",), plrf)])


def test_certificates_reverified_independently(fig2):
    inv = infer(fig2)
    report = bound_program(fig2)
    for entry in report.bound.entries:
        failures, taints = verify_plrf(fig2, inv, entry.plrf)
        assert not failures and not taints


def test_certificates_are_pinned(fig2):
    """The exact LP must keep choosing the same vertex: every certificate
    is compared with the one the dense Fraction simplex synthesized."""
    cases = {
        "3 + 2*y": (
            fig2,
            [
                "{l0 -> 1, l1 -> 0, l1[x=0] -> 0, l2[x=0] -> 0}",
                "{l0 -> 2, l1 -> 2, l1[x=0] -> 0, l2[x=0] -> 0}",
                "{l0 -> 2*y, l1 -> 2*y, l1[x=0] -> 2*y, l2[x=0] -> -1 + 2*y}",
            ],
        ),
        "4 + 2*y0": (
            _corpus.refined_chain(1),
            [
                "{a0 -> 1, c0 -> 0, c0[1<=x0] -> 0, c0[x0=0] -> 0, "
                "done[y0<=0&&x0=0] -> 0, w0[1<=y0&&x0=0] -> 0}",
                "{a0 -> 1, c0 -> 1, c0[1<=x0] -> 0, c0[x0=0] -> 0, "
                "done[y0<=0&&x0=0] -> 0, w0[1<=y0&&x0=0] -> 0}",
                "{a0 -> 1, c0 -> 1, c0[1<=x0] -> 2, c0[x0=0] -> 0, "
                "done[y0<=0&&x0=0] -> 0, w0[1<=y0&&x0=0] -> 0}",
                "{a0 -> 2*y0, c0 -> 2*y0, c0[1<=x0] -> 2*y0, c0[x0=0] -> 2*y0, "
                "done[y0<=0&&x0=0] -> 2*y0, w0[1<=y0&&x0=0] -> -1 + 2*y0}",
                "{a0 -> 1, c0 -> 1, c0[1<=x0] -> 1, c0[x0=0] -> 1, "
                "done[y0<=0&&x0=0] -> 0, w0[1<=y0&&x0=0] -> 1}",
            ],
        ),
    }
    for total, (program, certificates) in cases.items():
        report = bound_program(program)
        assert report.ok
        assert report.bound.render_total() == total
        assert [e.plrf.render() for e in report.bound.entries] == certificates


# Runs under ``python -O``: the worked bound must still come out, and a
# certificate built from a corrupted LP vertex must still be rejected, both
# from the magnitude solve (fig2) and from the explicit formulation it
# falls back to on a tie (the unsatisfiable-guard program).
_OPTIMIZED_PIPELINE = """
import sys
from pathlib import Path
from pcfr import bounds, ratlp
from pcfr.textfmt import parse_program

fig2 = parse_program(Path(sys.argv[1]).read_text())
unsat_guard = parse_program(sys.argv[2])
print(sys.flags.optimize, bounds.bound_program(fig2).bound.render_total())
solve_lp = ratlp.solve_lp

# every magnitude solve, and those that a tie sends to the explicit formulation
SOLVES = {
    "magnitude": lambda result, kwargs: bool(kwargs.get("magnitude")),
    "explicit": lambda result, kwargs: result.fixed is False,
}

def corrupting(kind):
    def corrupted(constraints, objective=None, extra_variables=(), **kwargs):
        result = solve_lp(constraints, objective, extra_variables, **kwargs)
        # zero the vertex of each synthesis' last, magnitude-minimising solve
        if result.assignment is not None and SOLVES[kind](result, kwargs):
            result.assignment = dict.fromkeys(result.assignment, 0)
            print("corrupted", kind)
        return result
    return corrupted

for kind, program in (("magnitude", fig2), ("explicit", unsat_guard)):
    ratlp.solve_lp = corrupting(kind)
    try:
        bounds.bound_program(program)
    except AssertionError as exc:
        print("rejected:", exc)
"""


def test_certificate_recheck_survives_optimized_mode():
    env = {**os.environ, "PYTHONPATH": str(_corpus.PROGRAMS.parent / "src")}
    run = subprocess.run(
        [
            sys.executable, "-O", "-c", _OPTIMIZED_PIPELINE,
            str(_corpus.PROGRAMS / "fig2.pip"), _UNSAT_GUARD,
        ],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    first, *rest = run.stdout.splitlines()
    assert first == "1 3 + 2*y"
    rejected = "rejected: synthesized ranking function failed independent verification"
    assert rest[0] == "corrupted magnitude" and rest[1].startswith(rejected), run.stdout
    assert rest[2] == "corrupted explicit" and rest[3].startswith(rejected), run.stdout
    assert len(rest) == 4, run.stdout


def _magnitude_solves(monkeypatch, program):
    """The (row count, keys proven fixed) of each optimal magnitude solve,
    the lexicographic runs of constant synthesis among them, and the row
    count of each that falls back to the explicit formulation (``fixed``
    False), that ``bound_program`` makes on ``program``.  The row count
    leaves out the sign rows, which the solve makes nonnegative columns."""
    solves, fallbacks = [], []
    solve_lp = bounds.ratlp.solve_lp

    def recording(constraints, objective=None, extra_variables=(), **kwargs):
        result = solve_lp(constraints, objective, extra_variables, **kwargs)
        if kwargs.get("magnitude") and result.status == bounds.ratlp.OPTIMAL:
            rows = sum(bounds.ratlp._sign_key(con) is None for con in constraints)
            solves.append((rows, result.fixed))
            if result.fixed is False:
                fallbacks.append(rows)
        return result

    monkeypatch.setattr(bounds.ratlp, "solve_lp", recording)
    bound_program(program)
    monkeypatch.undo()
    return solves, fallbacks


def test_magnitude_solves_do_not_fall_back(monkeypatch, fig2):
    """On fig2 and the refined chain for k = 1, 2 every optimal magnitude
    solve, the lexicographic run of each constant certificate included,
    proves its template values fixed, so none is solved again with the
    initial value pinned (one optimal solve per cover group) and none
    falls back to the explicit formulation; and chain k = 2's largest
    synthesis LP keeps fewer than half of the 222 rows it had with ``|x|``
    bound rows and multiplier sign rows."""
    for program in (fig2, _corpus.refined_chain(1), _corpus.refined_chain(2)):
        solves, fallbacks = _magnitude_solves(monkeypatch, program)
        assert solves and all(fixed for _, fixed in solves)
        assert len(solves) == len(default_cover(program))
        assert not fallbacks
    assert max(rows for rows, _ in solves) < 222 // 2
    # the unsatisfiable-guard program's affine LP ties, and falls back once
    solves, fallbacks = _magnitude_solves(monkeypatch, parse_program(_UNSAT_GUARD))
    assert [fixed for _, fixed in solves].count(False) == len(fallbacks) == 1


# The proven-fixed solves of the test below before magnitude solves were
# presolved (CHANGES.md): 141 of 550 affine and pinned magnitude LPs.
_PROVEN_FIXED_WITHOUT_PRESOLVE = 141


def test_presolved_synthesis_solves_match_explicit_formulation(
    monkeypatch, fig1, fig2, random_2024
):
    """Every magnitude LP without a first objective (affine, or a pinned
    constant one) of fig1, fig2, the refined chain for k = 1..4 and 300
    ``random_pip(Random(2024))`` programs, unrefined and refined, runs on
    the presolved LP; its template values are the explicit formulation's,
    proven fixed or not, and it proves no fewer solves fixed than the
    solve without the presolve did."""
    from test_ratlp import _compare_magnitude_solves, _sign_split, _synthesis_lps

    programs = [fig1, fig2] + [_corpus.refined_chain(k) for k in range(1, 5)]
    for p, r in random_2024:
        programs += [p, r.pruned]
    proven = 0
    for program in programs:
        for constraints, keys in _synthesis_lps(monkeypatch, program):
            rows, nonnegative = _sign_split(constraints)
            proven += bool(_compare_magnitude_solves(rows, nonnegative, keys).fixed)
    assert proven >= _PROVEN_FIXED_WITHOUT_PRESOLVE


def test_corrupted_unsat_verdict_is_rejected(monkeypatch, fig2):
    """Synthesis drops the conditions of a premise its condition table
    calls unsatisfiable; if every verdict lies, the re-check, which never
    reads them, rejects the certificate.  Uses no ``assert``, so it checks
    the same under ``python -O``."""
    monkeypatch.setattr(bounds._ConditionTable, "unsat", lambda self, g: True)
    with pytest.raises(AssertionError, match="failed independent verification"):
        bound_program(fig2)


def test_condition_table_lives_for_one_call(monkeypatch, fig2):
    """The compiled Farkas rows are shared inside one call and start empty
    in the next, so a repeated call does the same work: every compiled row
    is unreachable once the call returns, and the next call encodes the
    same conditions again."""
    calls, encoded = [], []
    original = bounds.expression_sup
    encode = bounds.farkas_block

    def counted(premise, poly):
        calls.append((premise, poly))
        return original(premise, poly)

    def encoding(block_id, premise, conclusion_vars, conclusion_const, constraints):
        encode(block_id, premise, conclusion_vars, conclusion_const, constraints)
        encoded.append((repr((premise, conclusion_vars, conclusion_const)), constraints[-1]))

    monkeypatch.setattr(bounds, "expression_sup", counted)
    monkeypatch.setattr(bounds, "farkas_block", encoding)
    for program in (fig2, _corpus.refined_chain(2)):
        calls.clear()
        inv = infer(program)
        bound_program(program, inv=inv)
        first = len(calls)
        assert first > 0
        conditions = [condition for condition, _ in encoded]
        assert conditions
        rows = [weakref.ref(row) for _, row in encoded]
        encoded.clear()
        assert all(row() is None for row in rows)
        bound_program(program, inv=inv)
        assert len(calls) == 2 * first
        assert [condition for condition, _ in encoded] == conditions
        encoded.clear()
        assert bounds._ACTIVE_TABLE.get() is None


# --- compiled rows and lexicographic runs against the reference synthesis


def _report_and_lps(monkeypatch, run, program):
    """``run(program)``'s report, every affine LP it hands to
    ``ratlp.solve_lp``, as (constraints, objective, keys, options), and
    the constraints of each constant certificate's first solve, the one
    that minimises the initial value."""
    lps, constant = [], []
    solve_lp = bounds.ratlp.solve_lp

    def recording(constraints, objective=None, extra_variables=(), **kwargs):
        if any(isinstance(key, tuple) and key[0] == "a" for key in extra_variables):
            lps.append((list(constraints), objective, list(extra_variables), kwargs))
        elif extra_variables and objective and list(objective.values()) == [1]:
            constant.append(list(constraints))
        return solve_lp(constraints, objective, extra_variables, **kwargs)

    monkeypatch.setattr(bounds.ratlp, "solve_lp", recording)
    try:
        report = run(program)
    finally:
        monkeypatch.undo()
    return report, lps, constant


def _numbered(lp):
    """An LP with its Farkas block ids renamed 0, 1, ... in order of first
    use; every row keeps its coefficients, relation, right side and order
    of keys."""
    constraints, objective, keys, options = lp
    ids: dict = {}

    def renamed(key):
        if isinstance(key, tuple) and key[0] == "lam":
            return ("lam", ids.setdefault(key[1], len(ids)), key[2])
        return key

    rows = [
        bounds.ratlp.LinearConstraint(
            tuple((renamed(key), value) for key, value in row.coeffs), row.rel, row.rhs
        )
        for row in constraints
    ]
    return rows, objective, keys, options


def _assert_same_as_reference(monkeypatch, program):
    """Identical reports (certificates, kinds, taints, failures), identical
    constraints, row for row, in the first solve of each constant
    certificate, and identical affine LPs, constraint for constraint, to
    the reference's, once the Farkas block ids of each LP are numbered in
    order of first use (``pcfr.bounds`` numbers them per call, the
    reference per LP).
    The reference retries an infeasible LP even when no condition is
    deferred, so its retry repeats the LP before it; ``pcfr.bounds`` skips
    that retry.  Returns the report, the affine LPs, the constant first
    solves' constraints and the number of skipped retries."""
    got, lps, constant = _report_and_lps(monkeypatch, bound_program, program)
    want, want_lps, want_constant = _report_and_lps(
        monkeypatch, _reference_bounds.bound_program, program
    )
    lps, want_lps = [_numbered(lp) for lp in lps], [_numbered(lp) for lp in want_lps]
    assert got == want, program
    assert constant == want_constant, program
    distinct = [lp for i, lp in enumerate(want_lps) if not i or lp != want_lps[i - 1]]
    assert lps == distinct, program
    return got, lps, constant, len(want_lps) - len(distinct)


def test_bound_program_matches_reference_on_figures_and_chains(monkeypatch, fig1, fig2):
    programs = [fig1, fig2, parse_program(_DEAD_GUARD), parse_program(_UNSAT_GUARD)]
    programs += [_corpus.refined_chain(k) for k in range(1, 4)]
    affine = constant_rows = 0
    for program in programs:
        _, lps, constant, _ = _assert_same_as_reference(monkeypatch, program)
        affine += len(lps)
        constant_rows += sum(len(rows) for rows in constant)
    assert affine >= 8 and constant_rows >= 500


def test_unproven_lexicographic_run_falls_back_to_the_reference_certificate(
    monkeypatch, fig2
):
    """When a constant certificate's lexicographic run does not prove its
    template values fixed, :func:`pcfr.ratlp.solve_lp` returns the vertex
    of the explicit formulation pinned at the run's least initial value;
    the report is still the reference's.  Every optimal lexicographic
    simplex run is made to report "not proven"."""
    programs = [fig2] + [_corpus.refined_chain(k) for k in range(1, 4)]
    want = [_reference_bounds.bound_program(program) for program in programs]
    solve, solve_lp = bounds.ratlp._solve, bounds.ratlp.solve_lp
    runs = []

    def unproven(constraints, objective, keys, restricted, weights):
        result = solve(constraints, objective, keys, restricted, weights)
        if objective and weights and result.status == bounds.ratlp.OPTIMAL:
            result.fixed = False
        return result

    def recording(constraints, objective=None, extra_variables=(), **kwargs):
        result = solve_lp(constraints, objective, extra_variables, **kwargs)
        if objective and result.fixed is False:
            runs.append(result.objective)
        return result

    monkeypatch.setattr(bounds.ratlp, "_solve", unproven)
    monkeypatch.setattr(bounds.ratlp, "solve_lp", recording)
    got = [bound_program(program) for program in programs]
    assert got == want
    assert len(runs) >= 10 and len(set(runs)) >= 2


# Targets g0, gx and gy: l0's least constant is 1, and the least magnitude
# 6 ties, since b can go from 0 down to -2 with s1 = s2 = 1 + b/2.
_TIED_CONSTANT = """
vars x;
start l0;

trans g0 { from l0; to z; }
gt g3 { from l0; branch h3 p=1/2 {} -> s1; branch k3 p=1/2 {} -> s2; }
gt g1 { from s1; branch h1 p=1/2 {} -> b; branch k1 p=1/2 {} -> x1; }
gt g2 { from s2; branch h2 p=1/2 {} -> b; branch k2 p=1/2 {} -> x1; }
trans gx { from x1; to y; }
trans gy { from y; to z; }
"""


def _tied_constant_runs(monkeypatch):
    """``_TIED_CONSTANT``'s constant certificate for its targets, and the
    (constraints, keys, result) of each lexicographic run it makes."""
    p = parse_program(_TIED_CONSTANT)
    runs = []
    solve_lp = bounds.ratlp.solve_lp

    def recording(constraints, objective=None, extra_variables=(), **kwargs):
        result = solve_lp(constraints, objective, extra_variables, **kwargs)
        if objective and kwargs.get("magnitude"):
            runs.append((list(constraints), list(extra_variables), result))
        return result

    monkeypatch.setattr(bounds.ratlp, "solve_lp", recording)
    try:
        return find_constant_plrf(p, infer(p), ["g0", "gx", "gy"]), runs
    finally:
        monkeypatch.undo()


def test_tied_constant_certificate_is_the_reference_one(monkeypatch):
    """The lexicographic run of ``_TIED_CONSTANT`` cannot prove its template
    values fixed, because the least magnitude ties, and the explicit vertex
    it returns is the reference's certificate, which minimises the initial
    value and then solves the magnitude with that value pinned."""
    from test_ratlp import _key_ranges

    plrf, runs = _tied_constant_runs(monkeypatch)
    ((constraints, keys, result),) = runs
    assert result.objective == 1 and result.fixed is False
    pinned = [*constraints, bounds.ratlp.LinearConstraint.of({("c", "l0"): 1}, "=", 1)]
    assert _key_ranges(pinned, [], keys, 6)[("c", "b")] == (-2, 0)
    p = parse_program(_TIED_CONSTANT)
    assert plrf == _reference_bounds.find_constant_plrf(p, infer(p), ["g0", "gx", "gy"])
    assert plrf.render() == "{b -> 0, l0 -> 1, s1 -> 1, s2 -> 1, x1 -> 2, y -> 1, z -> 0}"


def test_tie_fallback_without_an_optimum_raises(monkeypatch):
    """An explicit formulation without an optimum is a fault that the tie
    fallback raises, with no ``assert``, so also under ``python -O``."""
    solve = bounds.ratlp._solve

    def infeasible_explicit(constraints, objective, keys, restricted, weights):
        if objective and all(isinstance(k, tuple) and k[0] == "abs" for k in objective):
            return bounds.ratlp.LPResult(bounds.ratlp.INFEASIBLE)
        return solve(constraints, objective, keys, restricted, weights)

    monkeypatch.setattr(bounds.ratlp, "_solve", infeasible_explicit)
    with pytest.raises(AssertionError, match="explicit magnitude LP is infeasible"):
        _tied_constant_runs(monkeypatch)


def test_bound_synthesis_pivots_on_the_refined_chain(monkeypatch):
    """The simplex path of bound synthesis, pinned: the ``ratlp._pivot``
    calls of ``bound_program`` on the refined chain, entailment cache cold."""
    pivots = []
    pivot = bounds.ratlp._pivot

    def counting(*args):
        pivots.append(None)
        return pivot(*args)

    monkeypatch.setattr(bounds.ratlp, "_pivot", counting)
    for k, want in ((1, 64), (2, 198), (3, 379), (4, 607)):
        program = _corpus.refined_chain(k)
        entails.cache_clear()
        pivots.clear()
        bound_program(program)
        assert len(pivots) == want, k


def test_bound_program_matches_reference_on_random_programs(monkeypatch, random_2024):
    bounded = affine = skipped = 0
    for p, r in random_2024:
        for q in (p, r.pruned):
            report, lps, _, retries = _assert_same_as_reference(monkeypatch, q)
            bounded += report.ok
            affine += len(lps)
            skipped += retries
    assert bounded >= 100 and affine >= 100 and skipped >= 10


# --- empirical soundness -------------------------------------------------------


def test_bound_dominates_truncated_expectation(fig2):
    report = bound_program(fig2)
    for y0 in range(0, 6):
        for seed in range(3):
            policy = SeededPolicy(seed, temp_values=(1, 2))
            est = expected_runtime_estimate(fig2, policy, {X: 0, Y: y0}, 40)
            total = report.bound.evaluate_total({X: 0, Y: y0})
            assert est.lower <= total
            per_entry = {e.targets: e for e in report.bound.entries}
            for targets, entry in per_entry.items():
                count = sum(est.per_gt[name] for name in targets)
                assert count <= entry.evaluate({X: 0, Y: y0})


def test_bounds_sound_on_random_corpus():
    rng = random.Random(777)
    bounded = 0
    for _ in range(20):
        p = _corpus.random_pip(rng)
        report = bound_program(p)
        if not report.ok:
            continue
        bounded += 1
        for _ in range(3):
            sigma0 = _corpus.random_sigma0(rng, p)
            policy = SeededPolicy(rng.randint(0, 9), temp_values=(0, 1))
            est = expected_runtime_estimate(p, policy, sigma0, 12, path_cap=50_000)
            assert est.lower <= report.bound.evaluate_total(sigma0), (
                f"bound violated for {p!r} at {sigma0}"
            )
    assert bounded >= 3  # the generator produces enough bounded programs


_DEAD_GUARD = """
vars a;
start q0;

gt g0 {
  from q0;
  guard a <= 1;
  branch t0 p=1/2 { a := a - 1 } -> q1;
  branch t1 p=1/2 {} -> q1;
}
gt g1 {
  from q1;
  guard 3 <= a;
  branch t2 p=1/2 {} -> q1;
  branch t3 p=1/2 { a := 2 } -> q1;
}
gt g2 {
  from q1;
  guard a + 1 <= 0;
  branch t4 p=1/3 { a := a + 1 } -> q1;
  branch t5 p=2/3 {} -> q1;
}
"""


def test_bound_with_a_dead_guard_under_the_invariant():
    """g1 never fires (q1 has ``a <= 1``).  The Fourier-Motzkin re-check
    reported an empty interval instead of an unsatisfiable premise for its
    conditions and rejected the synthesized certificate."""
    p = parse_program(_DEAD_GUARD)
    report = bound_program(p)
    assert report.ok and report.bound.render_total() == "5/2 - 3*a"
    (a,) = p.program_vars
    for a0 in range(-4, 2):
        assert mdp_sup_truncated(p, {a: a0}, 30, (0,)) <= report.bound.evaluate_total({a: a0})


_UNSAT_GUARD = """
vars a, b;
start q0;

trans t0 { from q0; guard a + 1 <= 0; update b := b + 1; to q1; }
gt g1 {
  from q1;
  guard 1 <= a;
  branch t1 p=1/2 {} -> q1;
  branch t2 p=1/2 { a := 1, b := 1 } -> q1;
}
trans t3 { from q1; guard b + 1 <= 0; update a := -1, b := 2; to q1; }
"""


def test_affine_bound_over_an_unsatisfiable_premise():
    """g1's guard contradicts q1's invariant ``a <= -1``.  Its multipliers
    cannot combine the premise into a conclusion over ``b``, so affine
    synthesis must drop its conditions rather than encode them."""
    p = parse_program(_UNSAT_GUARD)
    report = bound_program(p)
    assert report.ok and report.bound.render_total() == "1 - 1/3*a - 1/3*b"
    for a0 in range(-4, 5):
        for b0 in range(-4, 5):
            state = dict(zip(p.program_vars, (a0, b0)))
            assert mdp_sup_truncated(p, state, 25, (0,)) <= report.bound.evaluate_total(state)


def test_affine_expr_rendering():
    e = AffineExpr.make({Y: Fraction(2)}, Fraction(3))
    assert e.render() == "3 + 2*y"
    assert AffineExpr.make({}, 0).render() == "0"
    assert AffineExpr.make({Y: Fraction(-1, 2)}, 0).render() == "-1/2*y"
    assert AffineExpr.make({X: 1, Y: -2}, -1).render() == "-1 + x - 2*y"
