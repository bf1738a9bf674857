"""Executable semantics: schedulers, path probabilities, expected runtime.

Non-determinism (choice of general transition and of temporary-variable
values) is resolved by deterministic policies whose temporary values
range over a declared finite set.  With the policy fixed, the only
branching left is probabilistic, so all admissible paths up to a finite
horizon can be enumerated with exact rational probabilities.  On top of
that sit: truncated expected-runtime estimates, a Monte-Carlo sampler,
a finite-horizon MDP optimizer (supremum over all policies), and an
oracle that checks a refinement by building the path embedding between
a program and its refined version and verifying that it is a
probability-, runtime- and termination-preserving bijection.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from .model import PIP, TERMINAL, GeneralTransition, Location
from .refine import RefinementResult
from .syntax import Variable


class SchedulerViolation(ValueError):
    """A policy resolution broke one of the scheduler well-formedness clauses."""

    def __init__(self, clause: str, detail: str):
        super().__init__(f"scheduler clause ({clause}) violated: {detail}")
        self.clause = clause


class StateSpaceCapExceeded(RuntimeError):
    def __init__(self, count: int, cap: int):
        super().__init__(f"admissible state/path count {count} exceeds cap {cap}")
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class Configuration:
    location: Location
    state: tuple[tuple[Variable, int], ...]

    @staticmethod
    def make(location: Location, state: Mapping[Variable, int]) -> "Configuration":
        return Configuration(location, tuple(sorted(state.items())))

    @property
    def state_dict(self) -> dict[Variable, int]:
        return dict(self.state)

    def key(self):
        return (self.location.name, self.state)

    def __str__(self) -> str:
        inner = ", ".join(f"{v.name}={n}" for v, n in self.state)
        return f"({self.location.display()}, {{{inner}}})"


@dataclass(frozen=True)
class PathRecord:
    """A finite path: initial configuration plus (transition, configuration)
    steps; ``None`` as transition name marks the bottom transition into the
    terminal location."""

    initial: Configuration
    steps: tuple[tuple[str | None, Configuration], ...]
    probability: Fraction

    @property
    def end(self) -> Configuration:
        return self.steps[-1][1] if self.steps else self.initial

    @property
    def runtime_count(self) -> int:
        return sum(1 for name, _ in self.steps if name is not None)

    @property
    def terminated(self) -> bool:
        return bool(self.steps) and self.steps[-1][0] is None

    def key(self):
        return (self.initial.key(), tuple((n, c.key()) for n, c in self.steps))

    def extended(self, name: str | None, config: Configuration, prob: Fraction):
        return PathRecord(self.initial, self.steps + ((name, config),), self.probability * prob)

    def render(self) -> str:
        parts = [str(self.initial)]
        for name, cfg in self.steps:
            parts.append(f"--{name or 'bot'}--> {cfg}")
        return " ".join(parts) + f"  [pr={self.probability}]"


@dataclass(frozen=True)
class HorizonReport:
    horizon: int
    total_mass: Fraction
    expected_truncated_runtime: Fraction
    terminated_mass: Fraction


@dataclass(frozen=True)
class EnumerationResult:
    report: HorizonReport
    paths: tuple[PathRecord, ...]


# ---------------------------------------------------------------------------
# Policies


def scheduler_candidates(
    p: PIP, config: Configuration, temp_values: Sequence[int]
) -> list[tuple[GeneralTransition, dict[Variable, int]]]:
    """All admissible (general transition, temporary valuation) pairs at a
    configuration, in deterministic order."""
    if config.location == TERMINAL:
        return []
    temps = p.temporaries()
    state = config.state_dict
    out = []
    for g in p.gts:
        if g.source != config.location:
            continue
        if temps:
            for values in product(temp_values, repeat=len(temps)):
                chosen = dict(zip(temps, values))
                if g.guard.satisfied_by({**state, **chosen}):
                    out.append((g, chosen))
        else:
            if g.guard.satisfied_by(state):
                out.append((g, {}))
    return out


class Policy:
    """Deterministic resolver of non-determinism.

    ``resolve`` maps a path (its last configuration suffices for
    history-independent policies) to a general transition plus values
    for the program's temporary variables, or ``(None, {})`` for the
    bottom transition.  ``temp_values`` is the declared finite range the
    resolver picks temporaries from.
    """

    history_dependent = False
    temp_values: tuple[int, ...] = (0,)

    def resolve(
        self, p: PIP, path: PathRecord
    ) -> tuple[GeneralTransition | None, dict[Variable, int]]:
        raise NotImplementedError


class FirstEnabledPolicy(Policy):
    """Picks the first admissible candidate in program order."""

    def __init__(self, temp_values: Iterable[int] = (0,)):
        self.temp_values = tuple(temp_values)

    def resolve(self, p, path):
        candidates = scheduler_candidates(p, path.end, self.temp_values)
        return candidates[0] if candidates else (None, {})


class SeededPolicy(Policy):
    """Deterministic pseudo-random choice among admissible candidates.

    The pick is a stable hash of the seed and the configuration (or the
    whole path for the history-dependent variant), so equal inputs give
    equal choices across runs and processes.
    """

    def __init__(
        self,
        seed: int,
        temp_values: Iterable[int] = (0,),
        history_dependent: bool = False,
    ):
        self.seed = seed
        self.temp_values = tuple(temp_values)
        self.history_dependent = history_dependent

    def resolve(self, p, path):
        candidates = scheduler_candidates(p, path.end, self.temp_values)
        if not candidates:
            return (None, {})
        token = repr(path.key()) if self.history_dependent else repr(path.end.key())
        digest = hashlib.sha256(f"{self.seed}|{token}".encode()).digest()
        return candidates[int.from_bytes(digest[:8], "big") % len(candidates)]


@dataclass(frozen=True)
class PolicyRule:
    """One decision-table row: at ``location``, optionally only when the
    state satisfies ``when``, choose ``gt`` with ``temps``."""

    location: str
    gt: str
    temps: tuple[tuple[Variable, int], ...] = ()
    when: object | None = None  # Constraint, checked against the state


class TablePolicy(Policy):
    """Decision table with a fallback policy for unmatched configurations."""

    def __init__(self, rules: Sequence[PolicyRule], fallback: Policy):
        self.rules = tuple(rules)
        self.fallback = fallback
        self.temp_values = fallback.temp_values

    def resolve(self, p, path):
        config = path.end
        state = config.state_dict
        for rule in self.rules:
            if rule.location != config.location.name:
                continue
            if rule.when is not None and not rule.when.satisfied_by(state):
                continue
            return p.gt(rule.gt), dict(rule.temps)
        return self.fallback.resolve(p, path)


def validate_resolution(
    p: PIP,
    config: Configuration,
    gt: GeneralTransition | None,
    temps: Mapping[Variable, int],
    temp_values: Sequence[int],
) -> None:
    """Enforce the four scheduler clauses; raises SchedulerViolation."""
    temp_vars = set(p.temporaries())
    if gt is None:
        if config.location != TERMINAL and scheduler_candidates(
            p, config, temp_values
        ):
            raise SchedulerViolation(
                "d", f"bottom chosen at {config} although a transition is enabled"
            )
        return
    bad = set(temps) - temp_vars
    if bad:
        names = ", ".join(sorted(v.name for v in bad))
        raise SchedulerViolation("a", f"policy changed non-temporary variables {names}")
    if gt.source != config.location:
        raise SchedulerViolation(
            "b", f"'{gt.name}' starts at {gt.source.name}, not {config.location.name}"
        )
    extended = {**config.state_dict, **dict(temps)}
    if not gt.guard.satisfied_by(extended):
        raise SchedulerViolation(
            "c", f"chosen valuation does not satisfy the guard of '{gt.name}'"
        )


# ---------------------------------------------------------------------------
# One-step semantics and path enumeration


def successors(
    p: PIP,
    config: Configuration,
    gt: GeneralTransition,
    temps: Mapping[Variable, int],
) -> list[tuple[str, Configuration, Fraction]]:
    extended = {**config.state_dict, **dict(temps)}
    out = []
    for t in gt.members:
        new_state = dict(extended)
        for v in p.program_vars:
            new_state[v] = t.update.image_of(v).evaluate(extended)
        out.append((t.name, Configuration.make(t.target, new_state), t.prob))
    return out


def step_distribution(
    p: PIP, policy: Policy, path: PathRecord
) -> list[tuple[str | None, Configuration, Fraction]]:
    """Successor distribution of one scheduler step from the path's end."""
    config = path.end
    gt, temps = policy.resolve(p, path)
    validate_resolution(p, config, gt, temps, policy.temp_values)
    if gt is None:
        return [(None, Configuration(TERMINAL, config.state), Fraction(1))]
    return successors(p, config, gt, temps)


def _initial_path(p: PIP, sigma0: Mapping[Variable, int]) -> PathRecord:
    missing = [v.name for v in p.program_vars if v not in sigma0]
    if missing:
        raise ValueError(f"initial state does not bind {', '.join(missing)}")
    return PathRecord(Configuration.make(p.initial, sigma0), (), Fraction(1))


def _report(paths: Sequence[PathRecord], horizon: int) -> HorizonReport:
    total = sum((f.probability for f in paths), Fraction(0))
    expected = sum(
        (f.probability * min(f.runtime_count, horizon) for f in paths), Fraction(0)
    )
    terminated = sum(
        (f.probability for f in paths if f.terminated), Fraction(0)
    )
    return HorizonReport(horizon, total, expected, terminated)


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


@dataclass(frozen=True)
class RuntimeEstimate:
    lower: Fraction
    residual_mass: Fraction
    per_gt: dict[str, Fraction] = field(default_factory=dict)


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
        if not f.terminated:
            residual += f.probability
        for name, _ in f.steps:
            if name is not None:
                per_gt[member_gt[name]] += f.probability
    return RuntimeEstimate(result.report.expected_truncated_runtime, residual, per_gt)


@dataclass(frozen=True)
class MonteCarloResult:
    mean: float
    stderr: float
    samples: int
    censored: int


def monte_carlo(
    p: PIP,
    policy: Policy,
    sigma0: Mapping[Variable, int],
    samples: int,
    step_cap: int,
    seed: int,
) -> MonteCarloResult:
    """Sample mean and standard error of the runtime; deterministic per seed.

    Runs still alive after ``step_cap`` scheduler steps are censored at
    the cap (so the mean is a lower-bound estimate, like truncation).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    total = 0.0
    total_sq = 0.0
    censored = 0
    # Memoryless policies give one fixed successor distribution per
    # configuration, so distributions are computed (and validated) once.
    memo: dict[tuple, list[tuple[str | None, Configuration, float]]] = {}

    def choices_at(path: PathRecord):
        if policy.history_dependent:
            return [
                (name, config, float(prob))
                for name, config, prob in step_distribution(p, policy, path)
            ]
        key = path.end.key()
        cached = memo.get(key)
        if cached is None:
            cached = [
                (name, config, float(prob))
                for name, config, prob in step_distribution(p, policy, path)
            ]
            memo[key] = cached
        return cached

    for _ in range(samples):
        path = _initial_path(p, sigma0)
        runtime = 0
        for _ in range(step_cap):
            choices = choices_at(path)
            if len(choices) == 1:
                name, config, prob = choices[0]
            else:
                pick = rng.random()
                acc = 0.0
                name, config, prob = choices[-1]
                for cand_name, cand_config, cand_prob in choices:
                    acc += cand_prob
                    if pick < acc:
                        name, config, prob = cand_name, cand_config, cand_prob
                        break
            if name is None:
                break
            runtime += 1
            if policy.history_dependent:
                path = path.extended(name, config, Fraction(prob))
            else:
                path = PathRecord(config, (), Fraction(1))
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


# ---------------------------------------------------------------------------
# Finite-horizon MDP optimization (supremum over all schedulers)


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
                [(succ, prob) for _, succ, prob in successors(p, config, g, tv)]
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


# ---------------------------------------------------------------------------
# Path embedding between a program and its refinement


class InducedPolicy(Policy):
    """The refined-program policy that mirrors a base policy: at a labeled
    location it consults the base policy on the underlying location and
    lifts the chosen general transition to its refined copy.  Temporaries
    that pruning removed from every refined transition are not passed on."""

    def __init__(self, base: Policy, base_pip: PIP, refinement: RefinementResult):
        if base.history_dependent:
            raise ValueError("induced policies require a history-independent base")
        self.base = base
        self.base_pip = base_pip
        self.temp_values = base.temp_values
        self._temporaries = frozenset(refinement.program.temporaries())
        self._lift: dict[tuple[str, str], GeneralTransition] = {}
        for g in refinement.program.gts:
            self._lift[(g.source.name, refinement.gt_origin[g.name])] = g

    def resolve(self, p, path):
        config = path.end
        loc = config.location
        if loc == TERMINAL:
            return (None, {})
        if loc.label is not None and not loc.label.satisfied_by(config.state_dict):
            return (None, {})
        base_loc = self.base_pip.location(loc.base or loc.name)
        shadow = PathRecord(
            Configuration(base_loc, config.state), (), Fraction(1)
        )
        gt, temps = self.base.resolve(self.base_pip, shadow)
        if gt is None:
            return (None, {})
        lifted = self._lift.get((loc.name, gt.name))
        if lifted is None:
            return (None, {})
        return lifted, {v: value for v, value in temps.items() if v in self._temporaries}


@dataclass(frozen=True)
class EmbeddingReport:
    ok: bool
    horizon: int
    checked_paths: int = 0
    failure: str | None = None
    witness: PathRecord | None = None

    def __bool__(self) -> bool:
        return self.ok


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
        if g.runtime_count != f.runtime_count or g.terminated != f.terminated:
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
