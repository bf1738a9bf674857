"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time
from fractions import Fraction

import _corpus
from _oracles import isomorphic
from pcfr.abstraction import heuristic_layers
from pcfr.bounds import AffineExpr, bound_program
from pcfr.linear import Satisfiability, constraint_satisfiability, entails
from pcfr.refine import refine, refine_and_prune, unrolling_step_bound
from pcfr.semantics import (
    FirstEnabledPolicy,
    SeededPolicy,
    check_embedding,
    horizon_reports,
    mdp_sup_truncated,
    monte_carlo,
)
from pcfr.syntax import Atom, Constraint, Polynomial, pv

X, Y = pv("x"), pv("y")
PX, PY = Polynomial.var(X), Polynomial.var(Y)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _random_corpus(count: int, seed: int):
    rng = random.Random(seed)
    return [_corpus.random_pip(rng) for _ in range(count)], rng


def test_criterion_1_golden_refinement(fig1, fig2_parsed):
    started = time.perf_counter()
    pruned, _inv = refine_and_prune(
        fig1, ["t1a", "t1b", "t2", "t3"], _corpus.paper_layers(fig1)
    )
    elapsed = time.perf_counter() - started
    program = pruned.program
    checks = {
        "4 locations": len(program.locations) == 4,
        "5 transitions": len(program.transitions) == 5,
        "isomorphic to the split program": isomorphic(program, fig2_parsed),
        "runtime under 1s": elapsed < 1.0,
    }
    # the countdown entry from the unsplit coin location must be gone
    checks["dead countdown entry absent"] = not any(
        pruned.origin[t.name] == "t2" and (t.source.label or Constraint()).is_true()
        for t in program.transitions
    )
    coins = [
        g
        for g in program.gts
        if {pruned.origin[t.name] for t in g.members} == {"t1a", "t1b"}
    ]
    checks["coin stays one general transition"] = len(coins) == 1
    if coins:
        checks["coin guard x > 0"] = coins[0].guard == Constraint([Atom(PX, ">", 0)])
        checks["coin halves"] = sorted(t.prob for t in coins[0].members) == [
            Fraction(1, 2),
            Fraction(1, 2),
        ]
    failed = [name for name, ok in checks.items() if not ok]
    _verdict(
        1,
        not failed,
        f"exact structural match in {elapsed:.3f}s"
        if not failed
        else f"failed: {', '.join(failed)}",
    )


def test_criterion_2_bound_reproduction(fig1, fig2):
    started = time.perf_counter()
    refined_report = bound_program(fig2)
    original_report = bound_program(fig1)
    elapsed = time.perf_counter() - started
    checks = {
        "refined program bounded": refined_report.ok,
        "original program unbounded": not original_report.ok,
        "runtime under 5s": elapsed < 5.0,
    }
    if refined_report.ok:
        checks["total is 3 + 2y"] = refined_report.bound.total_affine() == AffineExpr.make(
            {Y: Fraction(2)}, Fraction(3)
        )
        constant_entries = [
            e for e in refined_report.bound.entries if e.plrf.kind == "constant"
        ]
        wanted = {"l1": Fraction(2), "l1[x=0]": Fraction(0)}
        checks["constant certificate {2, 0} present"] = any(
            all(
                e.plrf.values[loc].const == wanted[loc.display()]
                for loc in e.plrf.values
                if loc.display() in wanted
            )
            and e.bound.const == 2
            for e in constant_entries
        )
    failed = [name for name, ok in checks.items() if not ok]
    _verdict(
        2,
        not failed,
        f"total {refined_report.bound.render_total() if refined_report.ok else '?'} "
        f"in {elapsed:.3f}s"
        if not failed
        else f"failed: {', '.join(failed)}",
    )


def test_criterion_3_exact_runtime_preservation(fig1, fig2):
    started = time.perf_counter()
    failures = []
    for y0 in range(0, 6):
        sigma0 = {X: 0, Y: y0}
        original = mdp_sup_truncated(fig1, sigma0, 40, (1, 2))
        refined = mdp_sup_truncated(fig2, sigma0, 40, (1, 2))
        if original != refined:
            failures.append(f"y={y0}: {original} != {refined}")
        if y0 > 0 and abs(original - (3 + 2 * y0)) >= Fraction(1, 10**6):
            failures.append(f"y={y0}: value {original} away from {3 + 2 * y0}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s over 30s")
    _verdict(
        3,
        not failures,
        f"exact equality for y in 0..5 in {elapsed:.1f}s"
        if not failures
        else "; ".join(failures),
    )


def test_criterion_4_embedding_oracle(fig1, fig1_refined):
    started = time.perf_counter()
    pruned, _ = fig1_refined
    failures = []
    for seed in range(20):
        policy = SeededPolicy(seed, temp_values=(1, 2))
        report = check_embedding(fig1, pruned, policy, {X: 0, Y: 2}, 12)
        if not report.ok:
            failures.append(
                f"policy seed {seed}: {report.failure}"
                + (f" at {report.witness.render()}" if report.witness else "")
            )
    programs, rng = _random_corpus(50, 424242)
    for index, p in enumerate(programs):
        layers = heuristic_layers(p, p.transitions)
        refined, _ = refine_and_prune(p, p.transitions, layers)
        sigma0 = _corpus.random_sigma0(rng, p)
        policy = SeededPolicy(index, temp_values=(0, 1))
        report = check_embedding(p, refined, policy, sigma0, 8, path_cap=100_000)
        if not report.ok:
            failures.append(
                f"random program {index}: {report.failure}"
                + (f" at {report.witness.render()}" if report.witness else "")
            )
    elapsed = time.perf_counter() - started
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s over 2min")
    _verdict(
        4,
        not failures,
        f"20 policies + 50 random refinements matched in {elapsed:.1f}s"
        if not failures
        else "; ".join(failures[:3]),
    )


def test_criterion_5_mass_and_monotonicity(fig1, fig2):
    programs, rng = _random_corpus(50, 515151)
    corpus = [fig1, fig2] + programs
    failures = []
    for index, p in enumerate(corpus):
        sigma0 = _corpus.random_sigma0(rng, p)
        policy = SeededPolicy(index, temp_values=(0, 1))
        reports = horizon_reports(p, policy, sigma0, 10, path_cap=200_000)
        if any(r.total_mass != 1 for r in reports):
            failures.append(f"program {index}: mass leak")
        if any(
            a.expected_truncated_runtime > b.expected_truncated_runtime
            for a, b in zip(reports, reports[1:])
        ):
            failures.append(f"program {index}: truncation not monotone")
    _verdict(
        5,
        not failures,
        f"mass exactly 1 and monotone truncation on {len(corpus)} programs",
    )


def test_criterion_6_entailment_soundness():
    rng = random.Random(616161)
    variables = [pv("x"), pv("y"), pv("z")]

    def random_constraint(pool, n_atoms):
        atoms = []
        for _ in range(n_atoms):
            poly = Polynomial.const(rng.randint(-3, 3))
            for v in pool:
                poly = poly + rng.randint(-3, 3) * Polynomial.var(v)
            atoms.append(Atom(poly, rng.choice(["<", "<=", "=", ">=", ">"]), 0))
        return Constraint(atoms)

    def box(pool):
        for values in itertools.product(range(-8, 9), repeat=len(pool)):
            yield dict(zip(pool, values))

    unsat_checked = entail_checked = 0
    violations = []
    for query in range(1000):
        pool = variables[: rng.randint(1, 3)]
        premise = random_constraint(pool, rng.randint(1, 3))
        conclusion = random_constraint(pool, 1).atoms
        if constraint_satisfiability(premise) is Satisfiability.UNSAT:
            unsat_checked += 1
            if any(premise.satisfied_by(pt) for pt in box(pool)):
                violations.append(f"query {query}: unsat but integer model exists")
        if conclusion and entails(premise, conclusion[0]):
            entail_checked += 1
            if any(
                premise.satisfied_by(pt) and not conclusion[0].satisfied_by(pt)
                for pt in box(pool)
            ):
                violations.append(f"query {query}: entailment refuted by brute force")
    _verdict(
        6,
        not violations and unsat_checked > 20 and entail_checked > 20,
        f"1000 queries, {unsat_checked} unsat and {entail_checked} entailments confirmed"
        if not violations
        else "; ".join(violations[:3]),
    )


def test_criterion_7_monte_carlo_consistency(fig1, fig2):
    # u pinned to 1 via the policy's declared temporary range
    policy = FirstEnabledPolicy((1,))
    first1 = monte_carlo(fig1, policy, {X: 0, Y: 2}, 100_000, 1000, 99)
    again1 = monte_carlo(fig1, policy, {X: 0, Y: 2}, 100_000, 1000, 99)
    first2 = monte_carlo(fig2, policy, {X: 0, Y: 2}, 100_000, 1000, 99)
    failures = []
    if abs(first1.mean - 7.0) > 3 * first1.stderr:
        failures.append(f"original mean {first1.mean:.4f} off 7")
    if abs(first2.mean - 7.0) > 3 * first2.stderr:
        failures.append(f"refined mean {first2.mean:.4f} off 7")
    if (first1.mean, first1.stderr) != (again1.mean, again1.stderr):
        failures.append("same seed produced different results")
    _verdict(
        7,
        not failures,
        f"means {first1.mean:.4f} / {first2.mean:.4f} within 3 stderr of 7, deterministic",
    )


def test_criterion_8_step_bound_conformance(fig1):
    entries = [(fig1, ["t1a", "t1b", "t2", "t3"], _corpus.paper_layers(fig1))]
    programs, rng = _random_corpus(50, 818181)
    for p in programs:
        s = [t.name for t in p.transitions if rng.random() < 0.8]
        entries.append((p, s, heuristic_layers(p, [p.transition(n) for n in s])))
    failures = []
    for index, (p, s, layers) in enumerate(entries):
        result = refine(p, s, layers)
        bound = unrolling_step_bound(p, layers)
        if result.stats.unrolling_steps > bound:
            failures.append(
                f"program {index}: {result.stats.unrolling_steps} steps > bound {bound}"
            )
    _verdict(
        8,
        not failures,
        f"unrolling steps within bound on {len(entries)} programs",
    )
