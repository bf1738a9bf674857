import hashlib
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

import _corpus
import _reference_semantics as reference
from _oracles import PolicyRule, TablePolicy
from pcfr.abstraction import heuristic_layers
from pcfr.model import TERMINAL, PIP, GeneralTransition
from pcfr.refine import RefinementResult, refine_and_prune
from pcfr.semantics import (
    Configuration,
    FirstEnabledPolicy,
    InducedPolicy,
    PathRecord,
    Policy,
    SchedulerViolation,
    SeededPolicy,
    StateSpaceCapExceeded,
    check_embedding,
    enumerate_paths,
    expected_runtime_estimate,
    horizon_reports,
    mdp_sup_truncated,
    monte_carlo,
    scheduler_candidates,
    step_distribution,
    successors,
    sweep,
)
from pcfr.syntax import Atom, Constraint, Polynomial, Update, pv, tmp
from pcfr.textfmt import parse_program

X, Y, U = pv("x"), pv("y"), tmp("u")


def _path(p, state):
    return PathRecord(Configuration.make(p.initial, state), (), Fraction(1))


def _at(p, location_name, state):
    return PathRecord(
        Configuration.make(p.location(location_name), state), (), Fraction(1)
    )


# --- independent oracle: recursive enumeration from the raw program ----------


def oracle_paths(p, state, horizon, temp_value):
    """All (runtime, probability, terminated) path outcomes at the horizon,
    mirroring the first-enabled policy, built directly on guards/updates."""
    temps = p.temporaries()

    def chosen(loc, sigma):
        if loc is None:
            return None
        for g in p.gts:
            if g.source != loc:
                continue
            extended = dict(sigma)
            extended.update({v: temp_value for v in temps})
            if g.guard.satisfied_by(extended):
                return g, extended
        return None

    def walk(loc, sigma, depth, prob, runtime, dead):
        if depth == horizon:
            yield (runtime, prob, dead)
            return
        if dead:
            yield from walk(loc, sigma, depth + 1, prob, runtime, True)
            return
        pick = chosen(loc, sigma)
        if pick is None:
            yield from walk(None, sigma, depth + 1, prob, runtime, True)
            return
        g, extended = pick
        for t in g.members:
            new_sigma = dict(extended)
            for v in p.program_vars:
                new_sigma[v] = t.update.image_of(v).evaluate(extended)
            yield from walk(
                t.target, new_sigma, depth + 1, prob * t.prob, runtime + 1, False
            )

    return list(walk(p.initial, dict(state), 0, Fraction(1), 0, False))


# --- step distribution --------------------------------------------------------


def test_coin_step_splits_mass(fig1):
    policy = FirstEnabledPolicy(temp_values=(1,))
    steps = step_distribution(fig1, policy, _at(fig1, "l1", {X: 3, Y: 2}))
    assert [(name, prob) for name, _, prob in steps] == [
        ("t1a", Fraction(1, 2)),
        ("t1b", Fraction(1, 2)),
    ]
    targets = {name: cfg.state_dict[X] for name, cfg, _ in steps}
    assert targets == {"t1a": 3, "t1b": 0}


def test_terminal_is_absorbing(fig1):
    policy = FirstEnabledPolicy(temp_values=(1,))
    path = PathRecord(
        Configuration.make(TERMINAL, {X: 1, Y: 1}), (), Fraction(1)
    )
    steps = step_distribution(fig1, policy, path)
    assert len(steps) == 1
    name, cfg, prob = steps[0]
    assert name is None and cfg.location == TERMINAL and prob == 1


def test_no_enabled_guard_goes_bottom(fig1):
    policy = FirstEnabledPolicy(temp_values=(1,))
    steps = step_distribution(fig1, policy, _at(fig1, "l1", {X: 0, Y: 0}))
    assert len(steps) == 1
    name, cfg, prob = steps[0]
    assert name is None and cfg.location == TERMINAL and prob == 1


def test_candidates_enumerate_temporaries(fig1):
    config = Configuration.make(fig1.initial, {X: 0, Y: 1})
    cands = scheduler_candidates(fig1, config, (0, 1, 2))
    # u = 0 fails the guard u > 0; u = 1 and u = 2 are admissible
    assert [(g.name, tv[U]) for g, tv in cands] == [("t0", 1), ("t0", 2)]


def test_candidates_without_temporaries_choose_nothing():
    p = _corpus.load("suite/biased_walk.pip")
    config = Configuration.make(p.location("l1"), {p.program_vars[0]: 2})
    cands = scheduler_candidates(p, config, (0, 1))
    assert [(g.name, tv) for g, tv in cands] == [("step", {})]
    config = Configuration.make(p.location("l1"), {p.program_vars[0]: 0})
    assert scheduler_candidates(p, config, (0, 1)) == []


# --- scheduler clause validation ----------------------------------------------


class _BadSource(Policy):
    temp_values = (1,)

    def resolve(self, p, path):
        return p.gt("t3"), {U: 1}


class _BadGuard(Policy):
    temp_values = (1,)

    def resolve(self, p, path):
        return p.gt("coin"), {U: 1}


class _BadBottom(Policy):
    temp_values = (1,)

    def resolve(self, p, path):
        return None, {}


class _BadVariable(Policy):
    temp_values = (1,)

    def resolve(self, p, path):
        return p.gt("t0"), {U: 1, X: 99}


def test_clause_violations_named(fig1):
    with pytest.raises(SchedulerViolation) as err:
        step_distribution(fig1, _BadSource(), _path(fig1, {X: 0, Y: 1}))
    assert err.value.clause == "b"
    with pytest.raises(SchedulerViolation) as err:
        step_distribution(fig1, _BadGuard(), _at(fig1, "l1", {X: 0, Y: 5}))
    assert err.value.clause == "c"
    with pytest.raises(SchedulerViolation) as err:
        step_distribution(fig1, _BadBottom(), _path(fig1, {X: 0, Y: 1}))
    assert err.value.clause == "d"
    with pytest.raises(SchedulerViolation) as err:
        step_distribution(fig1, _BadVariable(), _path(fig1, {X: 0, Y: 1}))
    assert err.value.clause == "a"


def test_table_policy_rules_and_fallback(fig1):
    from pcfr.syntax import Atom, Constraint, Polynomial

    # pin u = 2 at the start location; everything else falls through
    rule = PolicyRule(
        location="l0",
        gt="t0",
        temps=((U, 2),),
        when=Constraint([Atom(Polynomial.var(Y), ">=", 0)]),
    )
    policy = TablePolicy([rule], fallback=FirstEnabledPolicy((1,)))
    steps = step_distribution(fig1, policy, _path(fig1, {X: 0, Y: 1}))
    assert steps[0][1].state_dict[X] == 2  # the rule's u, not the fallback's
    # negative y misses the rule's pattern and uses the fallback (u = 1)
    steps = step_distribution(fig1, policy, _path(fig1, {X: 0, Y: -1}))
    assert steps[0][1].state_dict[X] == 1
    # an inadmissible rule choice is rejected by the clause validator
    bad = TablePolicy(
        [PolicyRule(location="l1", gt="coin", temps=((U, 1),))],
        fallback=FirstEnabledPolicy((1,)),
    )
    with pytest.raises(SchedulerViolation):
        step_distribution(fig1, bad, _at(fig1, "l1", {X: 0, Y: 5}))


def test_history_dependent_policy_enumerates_exactly(fig1):
    policy = SeededPolicy(5, temp_values=(1, 2), history_dependent=True)
    assert policy.history_dependent
    result = enumerate_paths(fig1, policy, {X: 0, Y: 2}, 9)
    assert result.report.total_mass == 1
    again = enumerate_paths(fig1, policy, {X: 0, Y: 2}, 9)
    assert [f.key() for f in result.paths] == [f.key() for f in again.paths]


def test_path_key_repr_is_the_key_repr(fig1):
    """``PathRecord.key_digest``, the token of a history-dependent policy,
    is the SHA-256 digest of ``f"{seed}|" + repr(path.key())`` on paths of
    0, 1, 2 and 40 steps, the last a bottom step: built from scratch, and
    carried on by ``extended`` from a path whose digest was read.  Another
    seed starts a new hash state."""

    def expected(path, seed):
        return hashlib.sha256(f"{seed}|{path.key()!r}".encode()).digest()

    steps = [(f"t{i}", Configuration.make(fig1.location("l1"), {X: i, Y: -i})) for i in range(39)]
    steps.append((None, Configuration.make(TERMINAL, {X: 0, Y: 0})))
    carried = _path(fig1, {X: 0, Y: 2})
    carried.key_digest(5)
    for n in range(41):
        fresh = _path(fig1, {X: 0, Y: 2})
        for name, config in steps[:n]:
            fresh = fresh.extended(name, config, Fraction(1, 2))
        if n in (0, 1, 2, 40):
            assert fresh.key_digest(5) == expected(fresh, 5)
        assert carried == fresh and carried.key_digest(5) == expected(fresh, 5)
        if n < 40:
            carried = carried.extended(*steps[n], Fraction(1, 2))
    assert carried.key_digest(6) == expected(carried, 6)
    assert carried.key_digest(5) == expected(carried, 5)


def test_enumerated_records_match_constructed_records(fig1):
    """A record that ``enumerate_paths`` returns is indistinguishable from
    ``PathRecord(initial, steps, probability)``: equal, with the same hash
    and repr, extended like one (``extended`` reads the hash slot before
    any digest was read), with the same ``key_digest``, and frozen; on the
    walk at h = 6 and fig1 at h = 8, under a first-enabled, a seeded and a
    seeded-history policy."""
    walk = parse_program(WALK)
    cases = [(walk, {walk.program_vars[0]: 3}, 6, (0,)), (fig1, {X: 0, Y: 2}, 8, (1, 2))]
    counts = []
    for q, sigma0, horizon, temps in cases:
        policies = (
            FirstEnabledPolicy(temps), SeededPolicy(3, temps), SeededPolicy(3, temps, True)
        )
        for policy in policies:
            paths = enumerate_paths(q, policy, sigma0, horizon).paths
            for path in paths:
                built = PathRecord(path.initial, path.steps, path.probability)
                assert path == built and hash(path) == hash(built)
                assert repr(path) == repr(built)
                name, config = path.steps[-1]
                longer = path.extended(name, config, Fraction(1, 2))
                assert longer == built.extended(name, config, Fraction(1, 2))
                assert longer == PathRecord(
                    path.initial, path.steps + ((name, config),), path.probability / 2
                )
                assert path.key_digest(5) == hashlib.sha256(f"5|{path.key()!r}".encode()).digest()
                with pytest.raises(FrozenInstanceError):
                    path.probability = Fraction(0)
            counts.append(len(paths))
    assert len(counts) == 6 and min(counts) > 1


def test_history_dependent_walk_builds_the_path_key_once(fig1, monkeypatch):
    """A history-dependent Monte-Carlo run builds ``PathRecord.key`` only
    for its shared root; each extension hashes one step's repr."""
    calls = []
    key = PathRecord.key
    monkeypatch.setattr(PathRecord, "key", lambda path: calls.append(1) or key(path))
    monte_carlo(fig1, SeededPolicy(1, (1, 2), history_dependent=True), {X: 0, Y: 3}, 30, 60, 1)
    assert len(calls) == 1


def test_seeded_policies_are_valid_schedulers(fig1):
    # random but deterministic policies never trip the clause validator
    rng = random.Random(4)
    for seed in range(10):
        policy = SeededPolicy(seed, temp_values=(1, 2))
        sigma0 = {X: rng.randint(-2, 2), Y: rng.randint(0, 4)}
        enumerate_paths(fig1, policy, sigma0, 8)


# --- enumeration ---------------------------------------------------------------


def test_horizon_zero_single_initial_path(fig1):
    result = enumerate_paths(fig1, FirstEnabledPolicy((1,)), {X: 0, Y: 1}, 0)
    assert len(result.paths) == 1
    assert result.paths[0].probability == 1
    assert result.report.total_mass == 1
    assert result.report.expected_truncated_runtime == 0


def test_depth3_matches_independent_oracle(fig1):
    expected = oracle_paths(fig1, {X: 0, Y: 1}, 3, 1)
    result = enumerate_paths(fig1, FirstEnabledPolicy((1,)), {X: 0, Y: 1}, 3)
    got = [
        (reference.runtime_count(f), f.probability, reference.terminated(f))
        for f in result.paths
    ]
    assert sorted(got) == sorted(expected)
    assert len(result.paths) == 3
    assert result.report.total_mass == 1


def test_depth_oracle_on_random_programs():
    rng = random.Random(88)
    for _ in range(15):
        p = _corpus.random_pip(rng)
        sigma0 = _corpus.random_sigma0(rng, p)
        expected = oracle_paths(p, sigma0, 6, 1)
        result = enumerate_paths(p, FirstEnabledPolicy((1,)), sigma0, 6)
        got = [
            (reference.runtime_count(f), f.probability, reference.terminated(f))
            for f in result.paths
        ]
        assert sorted(got) == sorted(expected)


def test_path_cap_reports_count(fig1):
    with pytest.raises(StateSpaceCapExceeded) as err:
        enumerate_paths(fig1, FirstEnabledPolicy((1,)), {X: 0, Y: 5}, 10, path_cap=2)
    assert err.value.count > 2


def test_negative_caps_are_value_errors(fig1):
    """A negative cap is an out-of-range argument, also at horizon 0,
    where no level could trip it."""
    from pcfr.abstraction import AbstractionLayer

    policy, sigma0 = FirstEnabledPolicy((1,)), {X: 0, Y: 2}
    same, _ = refine_and_prune(fig1, [], AbstractionLayer())
    for horizon in (0, 3):
        with pytest.raises(ValueError, match="path_cap must be nonnegative"):
            enumerate_paths(fig1, policy, sigma0, horizon, path_cap=-1)
        with pytest.raises(ValueError, match="path_cap must be nonnegative"):
            sweep(fig1, policy, sigma0, horizon, path_cap=-1)
        with pytest.raises(ValueError, match="path_cap must be nonnegative"):
            check_embedding(fig1, same, policy, sigma0, horizon, path_cap=-1)
        with pytest.raises(ValueError, match="state_cap must be nonnegative"):
            mdp_sup_truncated(fig1, sigma0, horizon, (1,), state_cap=-1)


# --- expected runtime ----------------------------------------------------------


def test_truncated_expectation_matches_closed_form(fig1):
    est = expected_runtime_estimate(fig1, FirstEnabledPolicy((1,)), {X: 0, Y: 2}, 60)
    assert abs(est.lower - 7) < Fraction(1, 10**9)
    assert est.residual_mass < Fraction(1, 10**9)


def test_runtime_zero_when_nothing_enabled(fig1):
    est = expected_runtime_estimate(fig1, FirstEnabledPolicy((0,)), {X: 0, Y: 0}, 10)
    # u is pinned to 0, so even t0 is disabled and the run ends immediately
    assert est.lower == 0
    assert est.residual_mass == 0


def test_per_gt_counts_on_refined_program(fig2):
    est = expected_runtime_estimate(fig2, FirstEnabledPolicy((1,)), {X: 0, Y: 3}, 80)
    by_origin_suffix = {name.split("__")[0]: value for name, value in est.per_gt.items()}
    assert abs(by_origin_suffix["t2"] - 3) < Fraction(1, 10**9)
    assert abs(by_origin_suffix["t3"] - 3) < Fraction(1, 10**9)


# --- Monte Carlo ----------------------------------------------------------------


def test_monte_carlo_matches_expectation(fig1):
    result = monte_carlo(fig1, FirstEnabledPolicy((1,)), {X: 0, Y: 2}, 20_000, 1000, 7)
    assert abs(result.mean - 7.0) <= 3 * result.stderr
    assert result.censored == 0


def test_monte_carlo_deterministic_per_seed(fig1):
    a = monte_carlo(fig1, FirstEnabledPolicy((1,)), {X: 0, Y: 2}, 2000, 500, 11)
    b = monte_carlo(fig1, FirstEnabledPolicy((1,)), {X: 0, Y: 2}, 2000, 500, 11)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)


def test_monte_carlo_deterministic_straight_line():
    p = _chain(4)
    result = monte_carlo(p, FirstEnabledPolicy((0,)), {X: 0}, 50, 100, 3)
    assert result.mean == 4.0
    assert result.stderr == 0.0


def test_monte_carlo_one_sample_has_zero_stderr(fig1):
    """One run leaves no spread to estimate: the stderr is reported as 0."""
    result = monte_carlo(fig1, FirstEnabledPolicy((1,)), {X: 0, Y: 2}, 1, 1000, 7)
    assert (result.samples, result.stderr, result.censored) == (1, 0.0, 0)
    assert result.mean == int(result.mean) >= 3


def _chain(k):
    from pcfr.syntax import TRUE, Update

    locs = [_corpus.Location(f"c{i}") for i in range(k + 1)]
    gts = []
    for i in range(k):
        t = _corpus.Transition(
            f"s{i}", locs[i], TRUE, Fraction(1), Update(), locs[i + 1]
        )
        gts.append(GeneralTransition(f"gs{i}", (t,)))
    return PIP([X], locs, locs[0], gts)


# --- MDP optimization -------------------------------------------------------------


def test_mdp_value_matches_closed_form(fig1):
    value = mdp_sup_truncated(fig1, {X: 0, Y: 2}, 60, (1, 2, 3))
    assert abs(value - 7) < Fraction(1, 10**9)
    assert value < 7  # truncation always loses a little geometric tail


def test_mdp_horizon_zero(fig1):
    assert mdp_sup_truncated(fig1, {X: 0, Y: 2}, 0, (1,)) == 0


def test_mdp_equal_on_original_and_refined(fig1, fig2):
    for y in (0, 2):
        a = mdp_sup_truncated(fig1, {X: 0, Y: y}, 25, (1, 2))
        b = mdp_sup_truncated(fig2, {X: 0, Y: y}, 25, (1, 2))
        assert a == b


def test_mdp_exceeds_any_single_policy(fig1):
    sup = mdp_sup_truncated(fig1, {X: 0, Y: 3}, 30, (1, 2))
    for seed in range(5):
        est = expected_runtime_estimate(
            fig1, SeededPolicy(seed, temp_values=(1, 2)), {X: 0, Y: 3}, 30
        )
        assert est.lower <= sup


def test_mdp_refinement_equality_on_random_corpus():
    rng = random.Random(404)
    for _ in range(12):
        p = _corpus.random_pip(rng)
        layers = heuristic_layers(p, p.transitions)
        pruned, _ = refine_and_prune(p, p.transitions, layers)
        sigma0 = _corpus.random_sigma0(rng, p)
        for horizon in (4, 7):
            a = mdp_sup_truncated(p, sigma0, horizon, (0, 1), state_cap=500_000)
            b = mdp_sup_truncated(pruned.program, sigma0, horizon, (0, 1), state_cap=500_000)
            assert a == b, f"sup changed under refinement for {p!r} at {sigma0}"


# --- horizon reports ----------------------------------------------------------------


def test_mass_conserved_and_truncation_monotone(fig1, fig2):
    rng = random.Random(55)
    programs = [fig1, fig2] + [_corpus.random_pip(rng) for _ in range(10)]
    for p in programs:
        sigma0 = _corpus.random_sigma0(rng, p)
        policy = SeededPolicy(rng.randint(0, 9), temp_values=(0, 1))
        reports = horizon_reports(p, policy, sigma0, 10)
        assert all(r.total_mass == 1 for r in reports)
        for earlier, later in zip(reports, reports[1:]):
            assert earlier.expected_truncated_runtime <= later.expected_truncated_runtime


# --- the path embedding ---------------------------------------------------------------


def test_embedding_on_worked_example(fig1, fig1_refined):
    pruned, _ = fig1_refined
    for y in (0, 1, 2):
        report = check_embedding(
            fig1, pruned, FirstEnabledPolicy((1,)), {X: 0, Y: y}, 12
        )
        assert report.ok, report.failure


def test_truncated_expectation_equal_under_induced_policy(fig1, fig1_refined):
    """A passing embedding implies equal horizon reports; assert the exact
    expectation equality directly at a deep horizon."""
    from pcfr.semantics import InducedPolicy

    pruned, _ = fig1_refined
    for y in range(0, 6):
        base = FirstEnabledPolicy((1,))
        a = enumerate_paths(fig1, base, {X: 0, Y: y}, 40).report
        b = enumerate_paths(
            pruned.program, InducedPolicy(base, fig1, pruned), {X: 0, Y: y}, 40
        ).report
        assert a.expected_truncated_runtime == b.expected_truncated_runtime
        assert a.terminated_mass == b.terminated_mass


def test_embedding_trivial_for_empty_refinement_set(fig1):
    from pcfr.abstraction import AbstractionLayer

    pruned, _ = refine_and_prune(fig1, [], AbstractionLayer())
    report = check_embedding(fig1, pruned, FirstEnabledPolicy((1,)), {X: 0, Y: 2}, 10)
    assert report.ok


def _corrupt(pruned, edit):
    """``pruned`` with each refined transition t replaced by ``edit(t,
    origin of t)``, a list of transitions that inherit t's origin."""
    p2 = pruned.program
    gts, origin = [], {}
    for g in p2.gts:
        members = []
        for t in g.members:
            for new in edit(t, pruned.origin[t.name]):
                members.append(new)
                origin[new.name] = pruned.origin[t.name]
        if members:
            gts.append(GeneralTransition(g.name, tuple(members)))
    program = PIP(p2.program_vars, p2.locations, p2.initial, gts)
    gt_origin = {g.name: pruned.gt_origin[g.name] for g in program.gts}
    return RefinementResult(program, origin, gt_origin, pruned.stats)


def _stay_one(t, o):
    if o != "t1b":
        return [t]
    return [replace(t, update=Update({X: Polynomial.const(1)}))]


def _biased_coin(t, o):
    if o not in ("t1a", "t1b"):
        return [t]
    return [replace(t, prob=Fraction(1, 3) if o == "t1a" else Fraction(2, 3))]


def _strict_entry(t, o):
    if o != "t0":
        return [t]
    return [replace(t, guard=Constraint([Atom(Polynomial.var(U), ">", 5)]))]


def _extra_branch(t, o):
    # a second copy of t1b: base t1b lifts to the copy, the original is left over
    return [t, replace(t, name=t.name + "_extra")] if o == "t1b" else [t]


# corruption of the fig1 refinement -> (failure prefix, origin of the
# offending step, length of the shortest failing path, (checked_paths,
# rendered witness))
CORRUPTIONS = [
    (lambda t, o: [] if o == "t1a" else [t],
     "no refined counterpart for a step of this path", "t1a", 2,
     (1, "(l0, {x=0, y=2}) --t0--> (l1, {u=1, x=1, y=2}) --t1a--> (l1, {u=1, x=1, y=2})"
         "  [pr=1/2]")),
    (_stay_one, "embedded path is not admissible in the refinement", "t1b", 2,
     (1, "(l0, {x=0, y=2}) --t0--> (l1, {u=1, x=1, y=2}) --t1b--> (l1, {u=1, x=0, y=2})"
         "  [pr=1/2]")),
    (_biased_coin, "probability changed: 1/2 vs 1/3", "t1a", 2,
     (1, "(l0, {x=0, y=2}) --t0--> (l1, {u=1, x=1, y=2}) --t1a--> (l1, {u=1, x=1, y=2})"
         "  [pr=1/2]")),
    (_strict_entry, "induced policy is not a valid scheduler: scheduler clause (c)", "t0", 1,
     (1, "(l0, {x=0, y=2}) --t0--> (l1, {u=1, x=1, y=2})  [pr=1]")),
    # no copy of t2 at all: the induced policy finds nothing to lift t2 to
    (lambda t, o: [] if o == "t2" else [t],
     "no refined counterpart for a step of this path", "t2", 3,
     (2, "(l0, {x=0, y=2}) --t0--> (l1, {u=1, x=1, y=2}) --t1b--> (l1, {u=1, x=0, y=2})"
         " --t2--> (l2, {u=1, x=0, y=2})  [pr=1/2]")),
]


def test_embedding_rejects_corrupted_refinement(fig1, fig1_refined):
    pruned, _ = fig1_refined
    policy, sigma0 = FirstEnabledPolicy((1,)), {X: 0, Y: 2}
    for edit, failure, offending, length, pinned in CORRUPTIONS:
        corrupted = _corrupt(pruned, edit)
        report = check_embedding(fig1, corrupted, policy, sigma0, 6)
        assert not report.ok
        assert report.failure.startswith(failure), report.failure
        assert (report.checked_paths, report.witness.render()) == pinned
        assert reference.check_embedding(fig1, corrupted, policy, sigma0, 6).ok is False
        # the witness is a shortest admissible base path ending in the offending step
        witness = report.witness
        assert len(witness.steps) == length
        assert witness.steps[-1][0] == offending
        admissible = enumerate_paths(fig1, policy, sigma0, length).paths
        assert witness in admissible
        # checked_paths counts the base paths one step shorter, all of which embed
        assert report.checked_paths == len(enumerate_paths(fig1, policy, sigma0, length - 1).paths)


def test_embedding_rejects_refined_step_without_preimage(fig1, fig1_refined):
    pruned, _ = fig1_refined
    policy, sigma0 = FirstEnabledPolicy((1,)), {X: 0, Y: 2}
    corrupted = _corrupt(pruned, _extra_branch)
    report = check_embedding(fig1, corrupted, policy, sigma0, 6)
    assert not report.ok
    assert report.failure == "refined path has no preimage (embedding not surjective)"
    assert reference.check_embedding(fig1, corrupted, policy, sigma0, 6).ok is False
    # here the witness is the refined path ending in the step left over
    witness = report.witness
    assert len(witness.steps) == 2
    assert corrupted.origin[witness.steps[-1][0]] == "t1b"
    induced = InducedPolicy(policy, fig1, corrupted)
    assert witness in enumerate_paths(corrupted.program, induced, sigma0, 2).paths
    assert report.checked_paths == 1
    assert witness.render() == (
        "(l0, {x=0, y=2}) --t0--> (l1, {u=1, x=1, y=2}) --t1b--> (l1[x=0], {u=1, x=0, y=2})"
        "  [pr=1/2]"
    )


def _walk_refined():
    walk = parse_program(WALK)
    refined, _ = refine_and_prune(walk, walk.transitions, heuristic_layers(walk, walk.transitions))
    return walk, refined


def test_embedding_witness_is_read_back_through_several_steps():
    """The walk's refinement with the guard of ``step`` at the unlabeled
    l1 raised to x >= 2: from x = 3 the first step it refuses is the
    fourth, from x = 1 after two ``down`` steps, so the witness is read
    back through three pairs, each the first to reach the next."""
    walk, refined = _walk_refined()
    x = walk.program_vars[0]

    def strict(t, o):
        if t.source.display() != "l1":
            return [t]
        return [replace(t, guard=Constraint([Atom(Polynomial.var(x), ">=", 2)]))]

    corrupted = _corrupt(refined, strict)
    policy, sigma0 = FirstEnabledPolicy(), {x: 3}
    report = check_embedding(walk, corrupted, policy, sigma0, 12)
    assert reference.check_embedding(walk, corrupted, policy, sigma0, 12).ok is False
    assert report.failure == (
        "induced policy is not a valid scheduler: scheduler clause (c) violated: "
        "chosen valuation does not satisfy the guard of 'step'"
    )
    assert report.checked_paths == 4
    assert report.witness.render() == (
        "(l0, {x=3}) --t0--> (l1, {x=3}) --down--> (l1, {x=2}) --down--> (l1, {x=1})"
        " --down--> (l1, {x=0})  [pr=1/8]"
    )
    assert report.witness in enumerate_paths(walk, policy, sigma0, 4).paths
    assert report.checked_paths == len(enumerate_paths(walk, policy, sigma0, 3).paths)


def test_embedding_requires_memoryless_policy(fig1, fig1_refined):
    pruned, _ = fig1_refined
    with pytest.raises(ValueError):
        check_embedding(
            fig1, pruned, SeededPolicy(0, (1,), history_dependent=True), {X: 0, Y: 1}, 4
        )


def test_embedding_accepts_refinement_that_prunes_a_temporary():
    # t1 is dead (x >= 0 at l1), so pruning drops w from the refinement;
    # the induced policy must not hand the base policy's w to it.  (A policy
    # whose choice reads the stored value of w, such as SeededPolicy, which
    # hashes the whole state, cannot be mirrored on the refinement.)
    p = parse_program(
        "vars x;\n"
        "start l0;\n"
        "trans t0 { from l0; guard u > 0; update x := u; to l1; }\n"
        "trans t1 { from l1; guard x < 0 && w > 0; update x := w; to l1; }\n"
        "trans t2 { from l1; guard x > 0; update x := x - 1; to l1; }\n"
    )
    pruned, _ = refine_and_prune(p, p.transitions, heuristic_layers(p, p.transitions))
    assert [v.name for v in p.temporaries()] == ["u", "w"]
    assert [v.name for v in pruned.program.temporaries()] == ["u"]
    x = p.program_vars[0]
    for x0 in (0, 2):
        report = check_embedding(p, pruned, FirstEnabledPolicy((1, 2)), {x: x0}, 8)
        assert report.ok, report.failure


def test_seeded_policy_is_mirrored_only_without_a_removed_temporary():
    # SeededPolicy hashes the whole state, and a base state stores the value
    # chosen for w, which the refinement dropped, so the induced policy can
    # choose differently; choosing only the kept temporaries closes the gap
    p = parse_program(
        "vars x;\n"
        "start l0;\n"
        "trans t0 { from l0; guard u > 0; update x := u; to l1; }\n"
        "trans t1 { from l1; guard x < 0 && w > 0; update x := w; to l1; }\n"
        "trans t2 { from l1; guard x > 0; update x := x - 1; to l1; }\n"
    )
    pruned, _ = refine_and_prune(p, p.transitions, heuristic_layers(p, p.transitions))
    kept = set(pruned.program.temporaries())

    class KeptOnly(Policy):
        def __init__(self, base):
            self.base, self.temp_values = base, base.temp_values

        def resolve(self, q, path):
            gt, temps = self.base.resolve(q, path)
            return gt, {v: n for v, n in temps.items() if v in kept}

    x = p.program_vars[0]
    seeded = [SeededPolicy(seed, (1, 2)) for seed in range(10)]
    assert not all(check_embedding(p, pruned, s, {x: 2}, 8).ok for s in seeded)
    for s in seeded:
        report = check_embedding(p, pruned, KeptOnly(s), {x: 2}, 8)
        assert report.ok, report.failure


def test_embedding_on_random_corpus():
    rng = random.Random(606)
    for i in range(15):
        p = _corpus.random_pip(rng)
        layers = heuristic_layers(p, p.transitions)
        pruned, _ = refine_and_prune(p, p.transitions, layers)
        sigma0 = _corpus.random_sigma0(rng, p)
        policy = SeededPolicy(i, temp_values=(0, 1))
        report = check_embedding(p, pruned, policy, sigma0, 8)
        assert report.ok, f"{report.failure}: {report.witness and report.witness.render()}"


# --- the configuration-level core against the path-tree reference ---------------


def _differential_corpus():
    for i, (p, sigma0) in enumerate(_corpus.differential_programs()):
        pruned, _ = refine_and_prune(p, p.transitions, heuristic_layers(p, p.transitions))
        yield p, pruned, sigma0, (SeededPolicy(i, temp_values=(0, 1)), FirstEnabledPolicy((1,)))


def test_sweep_matches_path_tree_reference():
    for p, pruned, sigma0, policies in _differential_corpus():
        history = SeededPolicy(7, temp_values=(0, 1), history_dependent=True)
        for q in (p, pruned.program):
            for policy in policies + (history,):
                assert expected_runtime_estimate(q, policy, sigma0, 8) == (
                    reference.expected_runtime_estimate(q, policy, sigma0, 8)
                )
                assert horizon_reports(q, policy, sigma0, 8) == (
                    reference.horizon_reports(q, policy, sigma0, 8)
                )
                paths = reference.enumerate_paths(q, policy, sigma0, 8)
                assert enumerate_paths(q, policy, sigma0, 8) == paths
                assert sweep(q, policy, sigma0, 8)[1] == len(paths.paths)


def test_suite_matches_path_tree_reference():
    """The level pass and the embedding check against the path-tree
    reference on the programs of ``programs/suite`` and their
    refinements, from two starts (the coupon collectors' c starts at x).
    ``coin_or_step`` and the coupon collectors fire several general
    transitions besides ``t0``, so the per-transition counts are checked
    one by one."""
    history = SeededPolicy(7, temp_values=(1,), history_dependent=True)
    fired = set()
    for i, path in enumerate(sorted((_corpus.PROGRAMS / "suite").glob("*.pip"))):
        p = parse_program(path.read_text())
        pruned, _ = refine_and_prune(p, p.transitions, heuristic_layers(p, p.transitions))
        policies = (SeededPolicy(i, temp_values=(1,)), FirstEnabledPolicy((1,)))
        for x, y in ((3, 2), (5, 0)):
            sigma0 = {v: {"x": x, "y": y, "c": x}[v.name] for v in p.program_vars}
            for policy in policies:
                report = check_embedding(p, pruned, policy, sigma0, 8)
                assert report == reference.check_embedding(p, pruned, policy, sigma0, 8)
            for q in (p, pruned.program):
                for policy in policies + (history,):
                    paths = reference.enumerate_paths(q, policy, sigma0, 8)
                    estimate = reference.expected_runtime_estimate(q, policy, sigma0, 8)
                    assert enumerate_paths(q, policy, sigma0, 8) == paths
                    assert sweep(q, policy, sigma0, 8) == (
                        reference.horizon_reports(q, policy, sigma0, 8), len(paths.paths), estimate
                    ), (path.name, sigma0, q is p)
                    if sum(count > 0 for count in estimate.per_gt.values()) > 2:
                        fired.add(path.stem)
    assert {"coin_or_step", "coupon_collector_3"} <= fired, fired


def test_enumeration_path_cap_boundary_matches_reference():
    # a cap equal to the largest level passes, one below it trips with the
    # reference's count, under both kinds of policy
    denominators, largest_levels = set(), set()
    for p, pruned, sigma0, policies in _differential_corpus():
        history = SeededPolicy(7, temp_values=(0, 1), history_dependent=True)
        for q in (p, pruned.program):
            denominators.add(math.lcm(*(t.prob.denominator for t in q.transitions)))
            for policy in policies + (history,):
                largest = max(
                    len(reference.enumerate_paths(q, policy, sigma0, k).paths)
                    for k in range(1, 9)
                )
                largest_levels.add(largest)
                expected = reference.enumerate_paths(q, policy, sigma0, 8, path_cap=largest)
                assert enumerate_paths(q, policy, sigma0, 8, path_cap=largest) == expected
                with pytest.raises(StateSpaceCapExceeded) as tripped:
                    reference.enumerate_paths(q, policy, sigma0, 8, path_cap=largest - 1)
                with pytest.raises(StateSpaceCapExceeded) as err:
                    enumerate_paths(q, policy, sigma0, 8, path_cap=largest - 1)
                assert (err.value.count, err.value.cap) == (tripped.value.count, largest - 1)
    assert {2, 6} <= denominators
    assert max(largest_levels) > 1


def test_embedding_path_cap_boundary(fig1, fig1_refined):
    # (arguments, pairs in the largest level of (base, refined) pairs up to
    # horizon 12, checked_paths at horizon 12): a cap equal to that level
    # passes, and one below it trips with that level's pair count
    walk, refined = _walk_refined()
    cases = [
        ((walk, refined, FirstEnabledPolicy(), {walk.program_vars[0]: 3}), 15, 1385),
        ((fig1, fig1_refined[0], FirstEnabledPolicy((1,)), {X: 0, Y: 2}), 7, 12),
    ]
    for args, largest, checked in cases:
        report = check_embedding(*args, 12, path_cap=largest)
        assert report == check_embedding(*args, 12)
        assert (report.ok, report.checked_paths) == (True, checked)
        with pytest.raises(StateSpaceCapExceeded) as err:
            check_embedding(*args, 12, path_cap=largest - 1)
        assert (err.value.count, err.value.cap) == (largest, largest - 1)


class _BreakAt(Policy):
    """``base``, except at configuration ``at``, where it picks the bottom
    transition although one is enabled (clause d)."""

    def __init__(self, base, at):
        self.base, self.at = base, at
        self.temp_values = base.temp_values
        self.history_dependent = base.history_dependent

    def resolve(self, p, path):
        return (None, {}) if path.end == self.at else self.base.resolve(p, path)


class _Counting(Policy):
    """``base``, counting its ``resolve`` calls."""

    def __init__(self, base):
        self.base, self.calls = base, 0
        self.temp_values = base.temp_values
        self.history_dependent = base.history_dependent

    def resolve(self, p, path):
        self.calls += 1
        return self.base.resolve(p, path)


def _outcome(enumerate_fn, *args, **kwargs):
    try:
        return enumerate_fn(*args, **kwargs)
    except StateSpaceCapExceeded as err:
        return type(err), str(err), err.count, err.cap
    except SchedulerViolation as err:
        return type(err), str(err), err.clause


def test_enumeration_error_order_matches_reference(fig1):
    """A policy that breaks a scheduler clause at one configuration three
    steps deep, under caps just below, at and above every level's path
    count: the level that trips first decides between the violation and
    the cap, as in the path-tree reference, under a first-enabled, a
    seeded and a seeded-history base policy."""
    cases = [(fig1, {X: 0, Y: 3}, (FirstEnabledPolicy((1,)), SeededPolicy(3, (1, 2))))]
    cases += [
        (q, sigma0, policies)
        for p, pruned, sigma0, policies in _differential_corpus()
        for q in (p, pruned.program)
    ]
    horizon, seen = 7, set()
    for q, sigma0, policies in cases:
        for base in policies + (SeededPolicy(7, temp_values=(0, 1), history_dependent=True),):
            levels = [reference.enumerate_paths(q, base, sigma0, k).paths for k in range(horizon + 1)]
            enabled = [
                f.end for f in levels[3]
                if f.end.location != TERMINAL and scheduler_candidates(q, f.end, base.temp_values)
            ]
            if not enabled:
                continue
            policy = _BreakAt(base, enabled[len(enabled) // 2])
            for cap in sorted({len(level) + d for level in levels[1:] for d in (-1, 0, 1)}):
                expected = _outcome(reference.enumerate_paths, q, policy, sigma0, horizon, cap)
                assert _outcome(enumerate_paths, q, policy, sigma0, horizon, cap) == expected
                seen.add(expected[0])
    assert seen == {StateSpaceCapExceeded, SchedulerViolation}


def test_enumeration_resolves_each_node_once(fig1):
    """A history-dependent enumeration resolves each path shorter than the
    horizon once, as the path-tree reference does; a history-independent
    one resolves each configuration reached below the horizon once."""
    sigma0, horizon = {X: 0, Y: 3}, 8
    history = SeededPolicy(5, temp_values=(1, 2), history_dependent=True)
    levels = [reference.enumerate_paths(fig1, history, sigma0, k).paths for k in range(horizon)]
    counting, stepping = _Counting(history), _Counting(history)
    assert enumerate_paths(fig1, counting, sigma0, horizon) == (
        reference.enumerate_paths(fig1, stepping, sigma0, horizon)
    )
    assert counting.calls == stepping.calls == sum(map(len, levels))
    memoryless = FirstEnabledPolicy((1,))
    configs = {f.end for k in range(horizon) for f in enumerate_paths(fig1, memoryless, sigma0, k).paths}
    counting = _Counting(memoryless)
    enumerate_paths(fig1, counting, sigma0, horizon)
    assert counting.calls == len(configs)


def test_semantic_queries_reject_out_of_range_arguments(fig1, fig1_refined):
    pruned, _ = fig1_refined
    policy = FirstEnabledPolicy((1,))
    sigma0 = {X: 0, Y: 2}
    with pytest.raises(ValueError, match="horizon"):
        enumerate_paths(fig1, policy, sigma0, -1)
    with pytest.raises(ValueError, match="horizon"):
        sweep(fig1, policy, sigma0, -1)
    with pytest.raises(ValueError, match="horizon"):
        check_embedding(fig1, pruned, policy, sigma0, -1)
    with pytest.raises(ValueError, match="horizon"):
        mdp_sup_truncated(fig1, sigma0, -1, (1,))
    with pytest.raises(ValueError, match="^temp_values must be nonempty$"):
        mdp_sup_truncated(fig1, sigma0, 3, ())
    with pytest.raises(ValueError, match="sample"):
        monte_carlo(fig1, policy, sigma0, 0, 100, 1)
    with pytest.raises(ValueError, match="step_cap"):
        monte_carlo(fig1, policy, sigma0, 10, -1, 1)
    # a zero step cap is in range: every run is censored at runtime 0
    assert monte_carlo(fig1, policy, sigma0, 10, 0, 1).censored == 10


def test_integer_value_iteration_matches_fraction_reference():
    for p, pruned, sigma0, _ in _differential_corpus():
        for q in (p, pruned.program):
            for temp_values in ((0, 1), (1,)):
                assert mdp_sup_truncated(q, sigma0, 9, temp_values) == (
                    reference.mdp_sup_truncated(q, sigma0, 9, temp_values)
                )


def _mdp_configurations(q, sigma0, horizon, temp_values):
    """The configurations of the MDP's levels 0..horizon, summed over the
    levels, from the one-step semantics."""
    level = {Configuration.make(q.initial, sigma0)}
    total = 1
    for _ in range(horizon):
        level = {
            succ
            for config in level
            for g, values in scheduler_candidates(q, config, temp_values)
            for _, succ, _ in successors(config, g, values)
        }
        total += len(level)
    return total


def test_mdp_matches_reference_at_longer_horizons_and_at_the_cap(fig1):
    """The value, or the ``StateSpaceCapExceeded`` with its count and cap,
    is the Fraction reference's at horizons 0, 1, 9 and 40, under the
    default cap and under caps one below, at and one above the
    configurations summed over all levels."""
    walk = parse_program(WALK)
    cases = [
        (q, sigma0, temp_values)
        for p, pruned, sigma0, _ in _differential_corpus()
        for q in (p, pruned.program)
        for temp_values in ((0, 1), (1,))
    ]
    cases += [(fig1, {X: 0, Y: 2}, (1, 2, 3)), (walk, {walk.program_vars[0]: 3}, (0,))]
    tripped = set()  # ids of the programs that tripped a cap
    for q, sigma0, temp_values in cases:
        for horizon in (0, 1, 9, 40):
            total = _mdp_configurations(q, sigma0, horizon, temp_values)
            for cap in (200_000, total - 1, total, total + 1):
                args = (q, sigma0, horizon, temp_values, cap)
                expected = _outcome(reference.mdp_sup_truncated, *args)
                assert _outcome(mdp_sup_truncated, *args) == expected
                if isinstance(expected, tuple):
                    assert expected[2:] == (total, cap)
                    tripped.add(id(q))
    assert {id(fig1), id(walk)} <= tripped


def _mdp_node_shapes(q, sigma0, horizon, temp_values):
    """How many nodes of the MDP's levels 0..horizon have each shape, from
    the one-step semantics: below the horizon, one choice whose
    probabilities are all 1/L ("unit"), one choice with another
    probability ("weighted"), several choices or none; and the nodes
    reached only at the horizon ("horizon")."""
    scale = math.lcm(*(t.prob.denominator for t in q.transitions))
    choices = {}  # configuration below the horizon -> its choices
    level = {Configuration.make(q.initial, sigma0)}
    for _ in range(horizon):
        for config in level - choices.keys():
            choices[config] = [
                successors(config, g, values)
                for g, values in scheduler_candidates(q, config, temp_values)
            ]
        level = {succ for config in level for dist in choices[config] for _, succ, _ in dist}
    shapes = Counter(horizon=len(level - choices.keys()))
    for dists in choices.values():
        if len(dists) != 1:
            shapes["several" if dists else "none"] += 1
        else:
            shapes["unit" if all(prob * scale == 1 for _, _, prob in dists[0]) else "weighted"] += 1
    return shapes


def test_mdp_matches_reference_on_every_node_shape(fig1):
    """The suite programs from several starts, fig1 with temp values
    (1, 2, 3) and the walk, at horizons 9 and 40, against the Fraction
    reference; between them they reach every shape of node that the
    backward induction reads differently."""
    walk = parse_program(WALK)
    cases = [(fig1, {X: 0, Y: 2}, (1, 2, 3)), (walk, {walk.program_vars[0]: 3}, (0,))]
    for path in sorted((_corpus.PROGRAMS / "suite").glob("*.pip")):
        q = parse_program(path.read_text())
        for x, y in ((0, 0), (3, 2), (7, 1)):
            start = {"x": x, "y": y, "c": x}  # the coupon collectors' c starts at x
            cases.append((q, {v: start[v.name] for v in q.program_vars}, (1,)))
    shapes = Counter()
    for q, sigma0, temp_values in cases:
        for horizon in (9, 40):
            assert mdp_sup_truncated(q, sigma0, horizon, temp_values) == (
                reference.mdp_sup_truncated(q, sigma0, horizon, temp_values)
            ), (q, sigma0, horizon)
            shapes += _mdp_node_shapes(q, sigma0, horizon, temp_values)
    assert all(shapes[shape] > 0 for shape in ("unit", "weighted", "several", "none", "horizon")), shapes


def _stretch_lengths(q, policy, sigma0, depth=10, longest=40):
    """The lengths of the deterministic stretches (single non-bottom steps
    up to a branch point or a bottom step, at most ``longest``) from the
    configurations a history-independent policy reaches in ``depth``
    steps."""
    dists = {}

    def dist(config):
        if config not in dists:
            path = PathRecord(config, (), Fraction(1))
            dists[config] = step_distribution(q, policy, path)
        return dists[config]

    level = {Configuration.make(q.initial, sigma0)}
    reached = set(level)
    for _ in range(depth):
        level = {succ for config in level for _, succ, _ in dist(config)} - reached
        reached |= level
    lengths = set()
    for config in reached:
        steps = 0
        while steps <= longest:
            moves = dist(config)
            if len(moves) > 1 or moves[0][0] is None:
                if steps:
                    lengths.add(steps)
                break
            config = moves[0][1]
            steps += 1
    return lengths


def test_sampler_matches_stepping_reference(fig1, fig2):
    # step caps 0, 1 and each stretch length plus and minus one, so that
    # a run's budget ends before, at and just after a stretch's end
    history = SeededPolicy(7, temp_values=(0, 1), history_dependent=True)
    cases = [
        (q, sigma0, policies)
        for p, pruned, sigma0, policies in _differential_corpus()
        for q in (p, pruned.program)
    ]
    cases += [(q, {X: 0, Y: 2}, (FirstEnabledPolicy((1,)), SeededPolicy(4, (1, 2, 3))))
              for q in (fig1, fig2)]
    seen = set()
    for q, sigma0, policies in cases:
        lengths = set().union(*(_stretch_lengths(q, policy, sigma0) for policy in policies))
        seen |= lengths
        caps = {0, 1} | {n + d for n in lengths for d in (-1, 0, 1)}
        for policy in policies + (history,):
            for cap in sorted(caps):
                assert monte_carlo(q, policy, sigma0, 20, cap, 5) == (
                    reference.monte_carlo(q, policy, sigma0, 20, cap, 5)
                )
    assert max(seen) >= 3


def test_sampler_leaves_a_violation_beyond_the_cap_unraised(fig1):
    # at (l2, y = 1) the rule picks t2, which starts at l1 (clause b); the
    # countdown stretch from (l1, x = 0, y = 2) reaches that node after
    # five steps of a run at the earliest, so a cap of 5 never resolves it
    rule = PolicyRule(location="l2", gt="t2", when=Constraint([Atom(Polynomial.var(Y), "=", 1)]))
    policy = TablePolicy([rule], fallback=FirstEnabledPolicy((1,)))
    sigma0 = {X: 0, Y: 2}
    for cap in (4, 5):
        result = monte_carlo(fig1, policy, sigma0, 200, cap, 3)
        assert result == reference.monte_carlo(fig1, policy, sigma0, 200, cap, 3)
        assert result.censored == 200
    for cap in (6, 1000):
        with pytest.raises(SchedulerViolation) as stepped:
            reference.monte_carlo(fig1, policy, sigma0, 200, cap, 3)
        with pytest.raises(SchedulerViolation) as hopped:
            monte_carlo(fig1, policy, sigma0, 200, cap, 3)
        assert hopped.value.clause == stepped.value.clause == "b"
        assert str(hopped.value) == str(stepped.value)


class _Meetings(Policy):
    """``base``, recording for each run the remaining budget (``cap``
    less the steps taken) at each configuration the first time the run
    resolves it."""

    def __init__(self, base, cap):
        self.base, self.cap, self.budgets = base, cap, {}
        self.temp_values = base.temp_values
        self.history_dependent = base.history_dependent
        self._met = set()

    def resolve(self, p, path):
        if not path.steps:  # a new run
            self._met = set()
        if path.end not in self._met:
            self._met.add(path.end)
            self.budgets.setdefault(path.end, []).append(self.cap - len(path.steps))
        return self.base.resolve(p, path)


def test_sampler_links_a_stretch_first_cut_by_a_run_budget(fig1):
    """From S = (l1, x = 0, y = 2) the countdown t2 t3 t2 t3 takes 4 steps
    to its bottom move, and a run reaches S after 1 + k steps, k >= 1
    coin flips.  Under a step cap of 7 at seed 9 the first run to meet S
    has fewer than 4 steps left, which cut the stretch short of its end,
    so it is neither kept nor linked; a later run meets S with 5 steps
    left, so the stretch is kept and linked from the coin's tails option;
    and a run after that follows the link with too few steps left and is
    censored inside it.  Every result is the stepping reference's."""
    sigma0, cap, seed, stretch = {X: 0, Y: 2}, 7, 9, 4
    history = SeededPolicy(3, (1, 2), history_dependent=True)
    for policy in (FirstEnabledPolicy((1,)), SeededPolicy(3, (1, 2)), history):
        meetings = _Meetings(policy, cap)
        expected = reference.monte_carlo(fig1, meetings, sigma0, 40, cap, seed)
        assert monte_carlo(fig1, policy, sigma0, 40, cap, seed) == expected
        if policy is history:  # every path is its own node: nothing is kept
            continue
        starts = [c for c in meetings.budgets if c.location.name == "l1" and c.state_dict[X] == 0]
        budgets = meetings.budgets[next(c for c in starts if c.state_dict[Y] == 2)]
        kept = next(i for i, left in enumerate(budgets) if left > stretch)
        assert budgets[0] < stretch and 0 < kept
        assert any(left <= stretch for left in budgets[kept + 1:])


def test_pairwise_embedding_matches_path_reference():
    for p, pruned, sigma0, policies in _differential_corpus():
        for policy in policies:
            report = check_embedding(p, pruned, policy, sigma0, 8)
            assert report.ok == reference.check_embedding(p, pruned, policy, sigma0, 8).ok
            length = 8 if report.ok else len(report.witness.steps) - 1
            assert report.checked_paths == len(enumerate_paths(p, policy, sigma0, length).paths)


# (mean, stderr, censored) per seed, for a memoryless policy, a memoryless
# policy censored by a short step cap and a history-dependent policy
MONTE_CARLO_PINS = {
    1: ((6.973, 0.0313947179340264, 0), (8.9135, 0.026445388147598402, 124),
        (6.94, 0.08426480530803411, 0)),
    2: ((6.987, 0.032302278845451504, 0), (8.9145, 0.026925032101686223, 139),
        (6.99, 0.08584097713580542, 0)),
    3: ((7.0145, 0.03084024051815437, 0), (8.9645, 0.02661717701139683, 120),
        (6.933333333333334, 0.07441085338976088, 0)),
}


@pytest.mark.parametrize("seed", sorted(MONTE_CARLO_PINS))
def test_monte_carlo_pinned_per_seed(fig1, fig2, seed):
    for p in (fig1, fig2):
        runs = (
            monte_carlo(p, FirstEnabledPolicy((1,)), {X: 0, Y: 2}, 2000, 1000, seed),
            monte_carlo(p, SeededPolicy(4, (1, 2, 3)), {X: 0, Y: 3}, 2000, 12, seed),
            monte_carlo(
                p, SeededPolicy(4, (1, 2, 3), history_dependent=True), {X: 0, Y: 2},
                300, 1000, seed,
            ),
        )
        assert tuple((r.mean, r.stderr, r.censored) for r in runs) == MONTE_CARLO_PINS[seed]


# --- caps bound configurations, not paths ---------------------------------------------

WALK = (
    "vars x;\n"
    "start l0;\n"
    "trans t0 { from l0; to l1; }\n"
    "gt step {\n"
    "  from l1;\n"
    "  guard x > 0;\n"
    "  branch down p=1/2 { x := x - 1 } -> l1;\n"
    "  branch up p=1/2 { x := x + 1 } -> l1;\n"
    "}\n"
)


def _walk_reference(horizon, x0):
    """Path count and truncated expected runtime of WALK from x0, by a
    recurrence over (steps left, x)."""
    width = x0 + horizon + 2
    count = [1] * width
    expected = [Fraction(0)] * width
    for _ in range(1, horizon):
        count = [1] + [count[x - 1] + count[x + 1] for x in range(1, width - 1)] + [1]
        expected = [Fraction(0)] + [
            1 + (expected[x - 1] + expected[x + 1]) / 2 for x in range(1, width - 1)
        ] + [Fraction(0)]
    return count[x0], 1 + expected[x0]


def test_random_walk_at_horizon_200_under_default_caps():
    walk = parse_program(WALK)
    x = walk.program_vars[0]
    refined, _ = refine_and_prune(walk, walk.transitions, heuristic_layers(walk, walk.transitions))
    policy, sigma0, horizon = FirstEnabledPolicy(), {x: 3}, 200
    count, expected = _walk_reference(horizon, 3)
    assert count > 100_000  # far more paths than the default path cap
    estimate = expected_runtime_estimate(walk, policy, sigma0, horizon)
    assert estimate.lower == expected
    assert 0 < estimate.residual_mass < 1
    reports = horizon_reports(walk, policy, sigma0, horizon)
    assert reports[-1].expected_truncated_runtime == expected
    assert all(r.total_mass == 1 for r in reports)
    assert sweep(walk, policy, sigma0, horizon)[1] == count
    report = check_embedding(walk, refined, policy, sigma0, horizon)
    assert report.ok, report.failure
    assert report.checked_paths == count


def test_enumeration_holds_one_path_per_depth():
    """Beyond the returned result, enumerating the walk's 13,495 paths of
    length 16 holds less than a quarter of the result's own size, so no
    level of paths is kept next to the answer."""
    walk = parse_program(WALK)
    sigma0 = {walk.program_vars[0]: 2}
    enumerate_paths(walk, FirstEnabledPolicy(), sigma0, 2)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = enumerate_paths(walk, FirstEnabledPolicy(), sigma0, 16)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.paths) == 13_495
    held, peak = held - base, peak - base
    assert peak - held < held / 4, (held, peak)


# --- embedding across probability denominators -----------------------------------

DEAD_THIRDS = (
    "vars x;\n"
    "start l0;\n"
    "trans t0 { from l0; update x := 1; to l1; }\n"
    "gt dead {\n"
    "  from l1;\n"
    "  guard x < 0;\n"
    "  branch d1 p=1/3 {} -> l1;\n"
    "  branch d2 p=2/3 {} -> l1;\n"
    "}\n"
    "gt coin {\n"
    "  from l1;\n"
    "  guard x > 0;\n"
    "  branch heads p=1/2 {} -> l1;\n"
    "  branch tails p=1/2 { x := 0 } -> l1;\n"
    "}\n"
)


def test_embedding_across_probability_denominators():
    # the dead gt makes L = 6 for the base; pruning drops it, so L = 2 for
    # the refinement, and equal probabilities have different numerators
    p = parse_program(DEAD_THIRDS)
    pruned, _ = refine_and_prune(p, p.transitions, heuristic_layers(p, p.transitions))
    origins = set(pruned.origin.values())
    assert {"d1", "d2"}.isdisjoint(origins) and {"heads", "tails"} <= origins
    lcm = lambda q: math.lcm(*(t.prob.denominator for t in q.transitions))
    assert (lcm(p), lcm(pruned.program)) == (6, 2)
    x = p.program_vars[0]
    policy = FirstEnabledPolicy()
    report = check_embedding(p, pruned, policy, {x: 0}, 8)
    assert report.ok, report.failure
    assert report.checked_paths == len(enumerate_paths(p, policy, {x: 0}, 8).paths)

    def biased(t, o):
        if o not in ("heads", "tails"):
            return [t]
        return [replace(t, prob=Fraction(1, 3) if o == "heads" else Fraction(2, 3))]

    corrupted = _corrupt(pruned, biased)
    report = check_embedding(p, corrupted, policy, {x: 0}, 8)
    assert not report.ok
    assert report.failure == "probability changed: 1/2 vs 1/3"
    assert [name for name, _ in report.witness.steps] == ["t0", "heads"]
    assert report.witness.probability == Fraction(1, 2)
