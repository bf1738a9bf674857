"""Reference semantics for ``pcfr.semantics``: the path-tree back-ends.

These are the original implementations that walk whole path trees: the
truncated estimate and horizon reports sum over every admissible path,
the embedding check enumerates the paths of both programs and matches
them by key, the MDP value iteration runs over ``Fraction`` values, and
the Monte-Carlo sampler resolves and draws one step at a time.
``pcfr.semantics`` computes the same quantities from configuration-level
sweeps and hops the sampler over deterministic stretches, so on every
input the two must give identical exact rationals, the same embedding
verdict and bit-identical samples.  Tests only; the path-tree bodies are
kept as they were, and every reference shares the one-step semantics and
the result types of ``pcfr.semantics``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Mapping, Sequence

from pcfr.model import PIP, TERMINAL
from pcfr.refine import RefinementResult
from pcfr.semantics import (
    Configuration,
    EmbeddingReport,
    EnumerationResult,
    HorizonReport,
    InducedPolicy,
    MonteCarloResult,
    PathRecord,
    Policy,
    RuntimeEstimate,
    SchedulerViolation,
    StateSpaceCapExceeded,
    scheduler_candidates,
    step_distribution,
    successors,
)
from pcfr.syntax import Variable


def _initial_path(p: PIP, sigma0: Mapping[Variable, int]) -> PathRecord:
    missing = [v.name for v in p.program_vars if v not in sigma0]
    if missing:
        raise ValueError(f"initial state does not bind {', '.join(missing)}")
    return PathRecord(Configuration.make(p.initial, sigma0), (), Fraction(1))


def runtime_count(f: PathRecord) -> int:
    """The steps of the path that fire a transition (not the bottom one)."""
    return sum(1 for name, _ in f.steps if name is not None)


def terminated(f: PathRecord) -> bool:
    """Whether the path's last step is the bottom transition."""
    return bool(f.steps) and f.steps[-1][0] is None


def _report(paths: Sequence[PathRecord], horizon: int) -> HorizonReport:
    total = sum((f.probability for f in paths), Fraction(0))
    expected = sum(
        (f.probability * min(runtime_count(f), horizon) for f in paths), Fraction(0)
    )
    terminated_mass = sum(
        (f.probability for f in paths if terminated(f)), Fraction(0)
    )
    return HorizonReport(horizon, total, expected, terminated_mass)


def enumerate_paths(
    p: PIP,
    policy: Policy,
    sigma0: Mapping[Variable, int],
    horizon: int,
    path_cap: int = 100_000,
) -> EnumerationResult:
    """All admissible paths of length exactly ``horizon``, exact masses."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    level: list[PathRecord] = [_initial_path(p, sigma0)]
    for _ in range(horizon):
        nxt: list[PathRecord] = []
        for path in level:
            for name, config, prob in step_distribution(p, policy, path):
                nxt.append(path.extended(name, config, prob))
        if len(nxt) > path_cap:
            raise StateSpaceCapExceeded(len(nxt), path_cap)
        level = nxt
    return EnumerationResult(_report(level, horizon), tuple(level))


def horizon_reports(
    p: PIP,
    policy: Policy,
    sigma0: Mapping[Variable, int],
    max_horizon: int,
    path_cap: int = 100_000,
) -> list[HorizonReport]:
    """Reports for every horizon 0..max_horizon from one incremental sweep."""
    reports = []
    level: list[PathRecord] = [_initial_path(p, sigma0)]
    reports.append(_report(level, 0))
    for h in range(1, max_horizon + 1):
        nxt: list[PathRecord] = []
        for path in level:
            for name, config, prob in step_distribution(p, policy, path):
                nxt.append(path.extended(name, config, prob))
        if len(nxt) > path_cap:
            raise StateSpaceCapExceeded(len(nxt), path_cap)
        level = nxt
        reports.append(_report(level, h))
    return reports


def expected_runtime_estimate(
    p: PIP,
    policy: Policy,
    sigma0: Mapping[Variable, int],
    horizon: int,
    path_cap: int = 100_000,
) -> RuntimeEstimate:
    """Truncated expected runtime (a lower bound on the true expectation),
    the not-yet-terminated mass, and truncated per-general-transition counts."""
    result = enumerate_paths(p, policy, sigma0, horizon, path_cap)
    member_gt = {t.name: g.name for g in p.gts for t in g.members}
    per_gt = {g.name: Fraction(0) for g in p.gts}
    residual = Fraction(0)
    for f in result.paths:
        if not terminated(f):
            residual += f.probability
        for name, _ in f.steps:
            if name is not None:
                per_gt[member_gt[name]] += f.probability
    return RuntimeEstimate(result.report.expected_truncated_runtime, residual, per_gt)


def mdp_sup_truncated(
    p: PIP,
    sigma0: Mapping[Variable, int],
    horizon: int,
    temp_values: Sequence[int],
    state_cap: int = 200_000,
) -> Fraction:
    """Max over schedulers of the expected runtime truncated at ``horizon``,
    by backward value iteration over the reachable configuration graph."""
    if not temp_values:
        raise ValueError("temp_values must be nonempty")
    c0 = Configuration.make(p.initial, dict(sigma0))
    missing = [v.name for v in p.program_vars if v not in dict(sigma0)]
    if missing:
        raise ValueError(f"initial state does not bind {', '.join(missing)}")

    action_cache: dict[Configuration, list[list[tuple[Configuration, Fraction]]]] = {}

    def actions(config: Configuration) -> list[list[tuple[Configuration, Fraction]]]:
        cached = action_cache.get(config)
        if cached is None:
            cached = [
                [(succ, prob) for _, succ, prob in successors(config, g, tv)]
                for g, tv in scheduler_candidates(p, config, temp_values)
            ]
            action_cache[config] = cached
        return cached

    layers: list[set[Configuration]] = [{c0}]
    seen = 1
    for _ in range(horizon):
        frontier = set()
        for config in layers[-1]:
            for dist in actions(config):
                frontier.update(succ for succ, _ in dist)
        layers.append(frontier)
        seen += len(frontier)
        if seen > state_cap:
            raise StateSpaceCapExceeded(seen, state_cap)

    values: dict[Configuration, Fraction] = {c: Fraction(0) for c in layers[horizon]}
    for i in range(horizon - 1, -1, -1):
        step_values: dict[Configuration, Fraction] = {}
        for config in layers[i]:
            best = Fraction(0)  # bottom action: reward 0 forever
            for dist in actions(config):
                value = 1 + sum(
                    (prob * values[succ] for succ, prob in dist), Fraction(0)
                )
                if value > best:
                    best = value
            step_values[config] = best
        values = step_values
    return values[c0]


def monte_carlo(
    p: PIP,
    policy: Policy,
    sigma0: Mapping[Variable, int],
    samples: int,
    step_cap: int,
    seed: int,
) -> MonteCarloResult:
    """Sample mean and standard error of the runtime, one step at a time:
    each step resolves the path's step distribution and draws once from
    its running float sums, unless it has a single step.  Runs still
    alive after ``step_cap`` steps are censored at the cap."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if step_cap < 0:
        raise ValueError("step_cap must be nonnegative")
    start = _initial_path(p, sigma0)
    draw = random.Random(seed).random
    censored = 0
    total = 0.0
    total_sq = 0.0
    for _ in range(samples):
        path = start
        runtime = 0
        for _ in range(step_cap):
            dist = step_distribution(p, policy, path)
            if len(dist) == 1:
                name, config, prob = dist[0]
            else:
                r = draw()
                acc = 0.0
                for name, config, prob in dist:
                    acc += float(prob)
                    if r < acc:
                        break
            if name is None:
                break
            path = path.extended(name, config, prob)
            runtime += 1
        else:
            censored += 1
        total += runtime
        total_sq += runtime * runtime
    mean = total / samples
    if samples > 1:
        variance = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
        stderr = math.sqrt(variance / samples)
    else:
        stderr = 0.0
    return MonteCarloResult(mean, stderr, samples, censored)


def _lift_index(refinement: RefinementResult) -> dict[tuple[str, str], object]:
    index: dict[tuple[str, str], object] = {}
    for t in refinement.program.transitions:
        index[(t.source.name, refinement.origin[t.name])] = t
    return index


def _embed(
    path: PathRecord,
    refinement: RefinementResult,
    by_source_origin: dict[tuple[str, str], object],
    dropped: frozenset[Variable],
) -> PathRecord | None:
    """Relabel a base-program path into the refined program, or None if a
    step has no refined counterpart from the current labeled location.
    The ``dropped`` temporaries, which pruning removed from the refinement,
    leave the states: the induced policy never chooses them."""
    p2 = refinement.program
    current = p2.initial
    steps: list[tuple[str | None, Configuration]] = []
    for name, config in path.steps:
        state = config.state
        if dropped:
            state = tuple((v, n) for v, n in state if v not in dropped)
        if name is None:
            current = TERMINAL
            steps.append((None, Configuration(TERMINAL, state)))
            continue
        lifted = by_source_origin.get((current.name, name))
        if lifted is None:
            return None
        current = lifted.target
        steps.append((lifted.name, Configuration(current, state)))
    return PathRecord(
        Configuration(p2.initial, path.initial.state),
        tuple(steps),
        path.probability,
    )


def check_embedding(
    p: PIP,
    refinement: RefinementResult,
    policy: Policy,
    sigma0: Mapping[Variable, int],
    horizon: int,
    path_cap: int = 100_000,
) -> EmbeddingReport:
    """Verify that relabeling is a probability-, runtime- and termination-
    preserving bijection between the admissible paths of the program and
    of its refinement (under the induced policy), up to the horizon."""
    if policy.history_dependent:
        raise ValueError("check_embedding requires a history-independent policy")
    base_paths = enumerate_paths(p, policy, sigma0, horizon, path_cap).paths
    induced = InducedPolicy(policy, p, refinement)
    try:
        refined_paths = enumerate_paths(
            refinement.program, induced, sigma0, horizon, path_cap
        ).paths
    except SchedulerViolation as violation:
        return EmbeddingReport(
            False, horizon, len(base_paths),
            f"induced policy is not a valid scheduler: {violation}",
        )
    refined_by_key = {f.key(): f for f in refined_paths}
    lift = _lift_index(refinement)
    dropped = frozenset(p.temporaries()) - frozenset(refinement.program.temporaries())

    matched = set()
    for f in base_paths:
        image = _embed(f, refinement, lift, dropped)
        if image is None:
            return EmbeddingReport(
                False, horizon, len(base_paths),
                "no refined counterpart for a step of this path", f,
            )
        g = refined_by_key.get(image.key())
        if g is None:
            return EmbeddingReport(
                False, horizon, len(base_paths),
                "embedded path is not admissible in the refinement", f,
            )
        if g.probability != f.probability:
            return EmbeddingReport(
                False, horizon, len(base_paths),
                f"probability changed: {f.probability} vs {g.probability}", f,
            )
        if runtime_count(g) != runtime_count(f) or terminated(g) != terminated(f):
            return EmbeddingReport(
                False, horizon, len(base_paths),
                "runtime or termination flag changed", f,
            )
        matched.add(image.key())
    for g in refined_paths:
        if g.key() not in matched:
            return EmbeddingReport(
                False, horizon, len(base_paths),
                "refined path has no preimage (embedding not surjective)", g,
            )
    return EmbeddingReport(True, horizon, len(base_paths))
