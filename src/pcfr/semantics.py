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

Every policy-driven back-end is one loop over the *nodes* of one
:class:`StepTable` per (program, policy) run, and the embedding check
one loop over the nodes of a :class:`_PairTable`, the reachable pairs of
a node of each of two such tables.  A node is what the policy's choice
depends on: a numbered configuration under a history-independent
policy, whose moves are resolved once, and the path itself under a
history-dependent one, whose moves are resolved on every call and never
kept.  Paths are built only where a path is the answer:
:func:`enumerate_paths`, the witness of a failed embedding, and the
nodes of a history-dependent policy.  Otherwise every reported quantity
is linear in the path probabilities, so one forward level pass,
:func:`_levels`, runs over a map from node to (path count, mass) instead
of over the path tree, and sums per level the mass fired per general
transition and the mass that stopped.  :func:`sweep`,
:func:`enumerate_paths` and :func:`check_embedding` all run on it: the
first two accumulate the expected runtime level by level (see
:func:`sweep`), and the third counts the base paths over pairs (see
:func:`check_embedding`).  Masses are integer
numerators over the common denominator ``L**k`` after ``k`` steps, where
``L`` is the least common multiple of the program's probability
denominators, and the MDP iterates integer numerators over
``L**(h - i)``, backwards over two lists indexed by node number that
swap at each level; a ``Fraction`` is built only for an answer, so every
rational is the one the path sums give.

Each of the three hot loops reads a resolved node in the shape it
consumes:

- :func:`enumerate_paths` takes its report from the level pass, which
  resolves every node and applies the cap, then runs one depth-first
  walk of the resolved moves that holds one path per depth, with its
  integer mass, and only builds records: at each leaf the
  :class:`PathRecord`, with its ``Fraction``, through the private
  constructor :func:`_record`.
- :func:`mdp_sup_truncated` gives a node with exactly one admissible
  choice the value ``reward + sum(w * v)`` without a max: every choice is
  worth at least the step reward, which is positive, so the max with the
  bottom action's 0 is that value.  When that choice's weights are all 1
  and its successors distinct, each successor adds its value without a
  multiplication.
- :func:`monte_carlo` draws only at branch points, nodes with more than
  one move.  A run hops over each *deterministic stretch*, the single
  non-bottom moves from a node up to the next branch point or bottom
  move, in one step of its loop.  Under a history-independent policy
  each stretch is resolved once, as far as the remaining budget of the
  first run that meets it, and kept if it ends within that budget.  A
  kept stretch holds, for each option of its branch point, the option's
  running sum and a link to the successor's kept stretch, filled on
  first use, so a run goes from branch point to branch point without a
  table lookup.  A run whose budget ends inside a stretch is censored at
  the cap as stepping would censor it, and that stretch is neither kept
  nor linked.  So the draws, and every output, are bit-identical to
  stepping, and no node beyond a run's cap is resolved.  Under a
  history-dependent policy nothing is kept or linked, and each run walks
  its stretches step by step, in the same loop.

Soundness of the pairwise embedding check.  A base path determines its
image in the refinement step by step: each base transition lifts to the
one refined copy of it at the current refined location, and the refined
state is the base state without the temporaries pruning removed.  So
every base path ends in a pair (base configuration, refined
configuration).  With a history-independent base policy the step
distribution at a base configuration is fixed by the configuration, and
the induced policy's at a refined configuration is fixed by that
configuration, so the step at a pair is fixed by the pair.  By induction
on the length k: if the relabeling is a bijection between the paths of
length k that preserves probability, runtime and termination, then it
is one between the paths of length k + 1 exactly when, at every pair
reached by a path of length k, the lifted base steps are admissible
refined steps with equal probabilities and cover every refined step
(bottom steps lift to bottom steps, so runtime and termination follow).
Checking every reachable pair at the levels below the horizon is
therefore equivalent to checking the path bijection at the horizon, and
since the step at a pair is fixed by the pair, checking it once, on the
first level that holds it, checks it on every level that holds it.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, product
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .model import PIP, TERMINAL, GeneralTransition, Location, outgoing
from .syntax import Variable

if TYPE_CHECKING:
    from .refine import RefinementResult


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


@dataclass(frozen=True, slots=True)
class PathRecord:
    """A finite path: initial configuration plus (transition, configuration)
    steps; ``None`` as transition name marks the bottom transition into the
    terminal location.

    This module builds every record through :func:`_record`, which sets
    the four slots through the class's member descriptors instead of
    running the frozen dataclass ``__init__`` (one ``object.__setattr__``
    call per field), at about half the cost per record; such a record is
    equal to, hashes and prints like ``PathRecord(initial, steps,
    probability)``."""

    initial: Configuration
    steps: tuple[tuple[str | None, Configuration], ...]
    probability: Fraction
    # (seed, SHA-256 state) that key_digest keeps and extended carries on
    _hash: tuple[int, object] | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def end(self) -> Configuration:
        return self.steps[-1][1] if self.steps else self.initial

    def key(self):
        return (self.initial.key(), tuple((n, c.key()) for n, c in self.steps))

    def key_digest(self, seed: int) -> bytes:
        """The SHA-256 digest of ``f"{seed}|" + repr(self.key())``.  The
        hash state of those bytes without the repr's closing ``"))"``
        (``",))"`` after exactly one step) is kept with its seed in a
        hidden slot, and :meth:`extended` carries it on by one step's repr,
        so a walk that reads the digest at every step hashes each step
        once: one ``copy`` and one ``update`` per extension."""
        closing = ",))" if len(self.steps) == 1 else "))"
        if self._hash is None or self._hash[0] != seed:
            prefix = f"{seed}|{self.key()!r}"[: -len(closing)]
            _set_hash(self, (seed, hashlib.sha256(prefix.encode())))
        state = self._hash[1].copy()
        state.update(closing.encode())
        return state.digest()

    def extended(self, name: str | None, config: Configuration, prob: Fraction):
        path = _record(self.initial, self.steps + ((name, config),), self.probability * prob)
        if self._hash is not None:  # only once a policy has read this path's digest
            seed, state = self._hash
            state = state.copy()
            state.update(f"{', ' if self.steps else ''}{(name, config.key())!r}".encode())
            _set_hash(path, (seed, state))
        return path

    def render(self) -> str:
        parts = [str(self.initial)]
        for name, cfg in self.steps:
            parts.append(f"--{name or 'bot'}--> {cfg}")
        return " ".join(parts) + f"  [pr={self.probability}]"


_set_initial, _set_steps, _set_probability, _set_hash = (
    PathRecord.__dict__[name].__set__ for name in ("initial", "steps", "probability", "_hash")
)


def _record(
    initial: Configuration,
    steps: tuple[tuple[str | None, Configuration], ...],
    probability: Fraction,
) -> PathRecord:
    """``PathRecord(initial, steps, probability)``, with its slots set
    through the member descriptors, which bypass the frozen
    ``__setattr__``; the hash state starts unset (``None``), as there."""
    path = object.__new__(PathRecord)
    _set_initial(path, initial)
    _set_steps(path, steps)
    _set_probability(path, probability)
    _set_hash(path, None)
    return path


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
    temps = p.temporaries()
    state = config.state_dict
    out = []
    for g in outgoing(p, config.location):
        for values in product(temp_values, repeat=len(temps)):
            chosen = dict(zip(temps, values))
            if g.guard.satisfied_by({**state, **chosen}):
                out.append((g, chosen))
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
    whole path for the history-dependent variant, whose running hash
    state each extension of a read path carries on by one step, see
    :meth:`PathRecord.key_digest`), so equal inputs give equal choices
    across runs and processes.
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
        if self.history_dependent:
            digest = path.key_digest(self.seed)
        else:
            digest = hashlib.sha256(f"{self.seed}|{path.end.key()!r}".encode()).digest()
        return candidates[int.from_bytes(digest[:8], "big") % len(candidates)]


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
    config: Configuration,
    gt: GeneralTransition,
    temps: Mapping[Variable, int],
) -> list[tuple[str, Configuration, Fraction]]:
    extended = {**config.state_dict, **dict(temps)}
    out = []
    for t in gt.members:
        new_state = t.update.apply_to_state(extended)
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
    return successors(config, gt, temps)


Move = tuple[tuple[str | None, Configuration], object, int]  # see StepTable
_Pair = tuple[int, int]  # (base, refined) node number
_Hop = tuple[int, list["_Option"]]  # (steps, options of the end), see _stretch
_Option = list  # [running sum, successor node, its kept stretch or None]


class _NodeTable(dict):
    """Configurations of ``p`` numbered as they are reached
    (``configs[i]`` is node ``i``, see :meth:`_node`); a subclass maps a
    node number to what it resolves there, on the first lookup
    (``__missing__``).  ``scale`` is the least common multiple of the
    program's probability denominators, the denominator of every step
    weight."""

    def __init__(self, p: PIP):
        super().__init__()
        self.p = p
        self.scale = _denominator(p)
        self.configs: list[Configuration] = []
        self._number: dict[Configuration, int] = {}

    def _node(self, config: Configuration) -> int:
        i = self._number.get(config)
        if i is None:
            i = self._number[config] = len(self.configs)
            self.configs.append(config)
        return i


class StepTable(_NodeTable):
    """The validated step distributions of one (program, policy) run,
    handed out per node by ``moves``.

    A node is what the policy's choice depends on.  Under a
    history-independent policy it is a configuration, numbered as it is
    reached (``configs[i]`` is node ``i``), and its moves are resolved
    and validated once: the table maps a node number to its moves and
    resolves them on the first lookup (``__missing__``), so ``moves`` is
    the table's own ``__getitem__``, one dictionary lookup per step.
    Under a history-dependent policy a node is the :class:`PathRecord`
    itself, and its moves are resolved on every call and never kept: each
    path is its own node, so a memo would only grow, and
    :func:`monte_carlo` would keep every sampled prefix.  No back-end but
    this table reads ``policy.history_dependent``.

    ``moves(node)`` lists one :data:`Move` per step of the distribution:
    (transition name, successor configuration), the successor node and
    the probability as an integer over ``scale`` (the least common
    multiple of the program's probability denominators)."""

    def __init__(self, p: PIP, policy: Policy):
        super().__init__(p)
        self.policy = policy

    @property
    def moves(self):
        """node -> its list of moves.  (Not kept as an attribute: a bound
        method on the table would make the table a reference cycle.)"""
        return self._moves_along if self.policy.history_dependent else self.__getitem__

    def root(self, start: PathRecord):
        """The node of the empty path ``start``."""
        if self.policy.history_dependent:
            return start
        return self._node(start.initial)

    def __missing__(self, i: int) -> list[Move]:
        path = _record(self.configs[i], (), Fraction(1))
        moves = self[i] = self._compile(path, lambda name, succ, prob: self._node(succ))
        return moves

    def _moves_along(self, path: PathRecord) -> list[Move]:
        return self._compile(path, path.extended)

    def _compile(self, path: PathRecord, child) -> list[Move]:
        moves: list[Move] = []
        for name, succ, prob in step_distribution(self.p, self.policy, path):
            moves.append(((name, succ), child(name, succ, prob), _weight(prob, self.scale)))
        return moves


def _denominator(p: PIP) -> int:
    """L: every step probability of ``p`` is an integer over L."""
    return math.lcm(*(t.prob.denominator for t in p.transitions))


def _weight(prob: Fraction, scale: int) -> int:
    return prob.numerator * (scale // prob.denominator)


def _initial_path(p: PIP, sigma0: Mapping[Variable, int]) -> PathRecord:
    missing = [v.name for v in p.program_vars if v not in sigma0]
    if missing:
        raise ValueError(f"initial state does not bind {', '.join(missing)}")
    return _record(Configuration.make(p.initial, sigma0), (), Fraction(1))


def _levels(table: StepTable | _PairTable, root, horizon: int):
    """The forward level pass under :func:`enumerate_paths`, :func:`sweep`
    and :func:`check_embedding`, over the nodes of a :class:`StepTable`
    or, for the embedding check, a :class:`_PairTable`; it reads the
    table's ``moves``, ``scale`` and program ``p``.  For k = 1..horizon it
    yields level k, a map from each node that a path of length k ends at
    to ``[paths, mass]``, the number of those paths and their mass as an
    integer over ``L**k``; the mass fired into the level per general
    transition, a list in the order of ``p.gts``; and the level's
    :class:`HorizonReport`, whose terminated mass is the mass that
    stopped, that is took the bottom move into the level, and whose
    expected runtime is accumulated as ``acc * L + fired`` (see
    :func:`sweep`).  Nodes are resolved in the order in which paths first
    reach them, and level k + 1 is built only when the caller asks for it,
    so a caller that checks its cap after each level resolves no node
    beyond a level it rejects."""
    moves = table.moves
    scale = table.scale
    gt_index = {t.name: i for i, g in enumerate(table.p.gts) for t in g.members}
    level = {root: [1, 1]}
    expected = 0
    for k in range(1, horizon + 1):
        nxt: dict[object, list[int]] = {}
        fired = [0] * len(table.p.gts)
        stopped = 0
        for node, (paths, mass) in level.items():
            for (name, _), child, w in moves(node):
                weight = mass * w
                entry = nxt.get(child)
                if entry is None:
                    nxt[child] = [paths, weight]
                else:
                    entry[0] += paths
                    entry[1] += weight
                if name is None:
                    stopped += weight
                else:
                    fired[gt_index[name]] += weight
        level = nxt
        expected = expected * scale + sum(fired)
        denominator = scale**k
        yield level, fired, HorizonReport(
            k,
            Fraction(sum(mass for _, mass in level.values()), denominator),
            Fraction(expected, denominator),
            Fraction(stopped, denominator),
        )


_HORIZON_0 = HorizonReport(0, Fraction(1), Fraction(0), Fraction(0))


def enumerate_paths(
    p: PIP,
    policy: Policy,
    sigma0: Mapping[Variable, int],
    horizon: int,
    path_cap: int = 100_000,
) -> EnumerationResult:
    """All admissible paths of length exactly ``horizon``, exact masses.

    The level pass :func:`_levels` resolves every node and gives the
    report; ``path_cap`` bounds the paths of each length, checked after
    each level.  Then one depth-first walk of the resolved moves only
    builds the records.  It pushes children in reverse, so the paths come
    out in the order of the levels, while the walk holds one path per
    depth: a trail of the current path's steps, and a stack of at most
    one entry per move at each depth, with the entry's integer mass over
    ``L**k``.  A node one step above the horizon ends its paths there:
    each of its moves gives a leaf :class:`PathRecord`, with its
    ``Fraction``, built through the private constructor :func:`_record`.
    Every leaf is already a path at horizon 0, where it is the start, and
    under a history-dependent policy, where it is a node of the last
    level; those leaves take their masses from the last level."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if path_cap < 0:
        raise ValueError("path_cap must be nonnegative")
    start = _initial_path(p, sigma0)
    table = StepTable(p, policy)
    root = table.root(start)
    level, report = {start: [1, 1]}, _HORIZON_0  # the one path of length 0
    for level, _, report in _levels(table, root, horizon):
        reached = sum(paths for paths, _ in level.values())
        if reached > path_cap:
            raise StateSpaceCapExceeded(reached, path_cap)
    scale = table.scale**horizon
    initial = start.initial
    probabilities: dict[int, Fraction] = {}  # paths share the few distinct weights
    paths = []
    if not (horizon and isinstance(root, int)):
        # every leaf is a path already: the start at horizon 0, and under a
        # history-dependent policy each node of the last level
        for f, (_, weight) in level.items():
            prob = probabilities.get(weight)
            if prob is None:
                prob = probabilities[weight] = Fraction(weight, scale)
            paths.append(_record(initial, f.steps, prob))
    else:
        moves = table.moves
        last = horizon - 1
        trail: list = [None] * horizon
        stack = [(0, None, root, 1)]  # (depth, step into the node, node, mass)
        while stack:
            k, step, node, mass = stack.pop()
            if k:
                trail[k - 1] = step
            if k < last:
                k += 1
                for step, child, w in reversed(moves(node)):
                    stack.append((k, step, child, mass * w))
                continue
            for step, _, w in moves(node):  # one step above the horizon: the leaves
                trail[last] = step
                weight = mass * w
                prob = probabilities.get(weight)
                if prob is None:
                    prob = probabilities[weight] = Fraction(weight, scale)
                paths.append(_record(initial, tuple(trail), prob))
    return EnumerationResult(report, tuple(paths))


@dataclass(frozen=True)
class RuntimeEstimate:
    lower: Fraction
    residual_mass: Fraction
    per_gt: dict[str, Fraction] = field(default_factory=dict)


def sweep(
    p: PIP,
    policy: Policy,
    sigma0: Mapping[Variable, int],
    horizon: int,
    path_cap: int = 100_000,
) -> tuple[list[HorizonReport], int, RuntimeEstimate]:
    """The horizon reports for 0..horizon, the number of admissible paths
    of length ``horizon`` and the truncated runtime estimate there, from
    the level pass :func:`_levels`, whose levels sum the paths with a
    common end node instead of storing them; under a history-dependent
    policy every path is its own node.  ``path_cap`` bounds the nodes of
    each level, checked after each level: configurations, or paths under
    a history-dependent policy.

    The per-general-transition counts, like the pass's expected runtime,
    are accumulated level by level from the fired masses, as ``acc * L +
    fired``, and this is exact.  Every step distribution of a validated
    program sums to 1: a general transition's branch probabilities do,
    and the bottom move has probability 1.  So the paths of length k that
    extend one path of length j carry that path's mass between them, its
    integer over ``L**j`` times ``L**(k - j)`` over ``L**k``.  A path's
    count of a general transition is the number of its steps that fire
    it, so the mass-weighted count over the paths of length k is the sum,
    over j <= k, of the mass fired into level j times ``L**(k - j)``,
    which is what the accumulator holds after level k.  The expected
    runtime counts every non-bottom step, so it is the sum of the
    counts."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if path_cap < 0:
        raise ValueError("path_cap must be nonnegative")
    start = _initial_path(p, sigma0)
    table = StepTable(p, policy)
    counts = [0] * len(p.gts)  # per general transition, over L ** k
    level, reports = {start: [1, 1]}, [_HORIZON_0]  # the one path of length 0
    for level, fired, report in _levels(table, table.root(start), horizon):
        if len(level) > path_cap:
            raise StateSpaceCapExceeded(len(level), path_cap)
        counts = [c * table.scale + f for c, f in zip(counts, fired)]
        reports.append(report)
    denominator = table.scale**horizon
    last = reports[-1]
    estimate = RuntimeEstimate(
        last.expected_truncated_runtime,
        last.total_mass - last.terminated_mass,
        {g.name: Fraction(c, denominator) for g, c in zip(p.gts, counts)},
    )
    return reports, sum(paths for paths, _ in level.values()), estimate


def horizon_reports(
    p: PIP,
    policy: Policy,
    sigma0: Mapping[Variable, int],
    max_horizon: int,
    path_cap: int = 100_000,
) -> list[HorizonReport]:
    """Reports for every horizon 0..max_horizon from one level pass;
    ``path_cap`` bounds the nodes of each level (see :func:`sweep`)."""
    return sweep(p, policy, sigma0, max_horizon, path_cap)[0]


def expected_runtime_estimate(
    p: PIP,
    policy: Policy,
    sigma0: Mapping[Variable, int],
    horizon: int,
    path_cap: int = 100_000,
) -> RuntimeEstimate:
    """Truncated expected runtime (a lower bound on the true expectation),
    the not-yet-terminated mass, and truncated per-general-transition
    counts; ``path_cap`` bounds the nodes of each level (see
    :func:`sweep`)."""
    return sweep(p, policy, sigma0, horizon, path_cap)[2]


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

    Draws happen only at branch points: a node with more than one move
    draws once from its running float sums, and nothing else draws.  A
    run goes from branch point to branch point: from its node it takes
    the node's *deterministic stretch* (:func:`_stretch`), the single
    non-bottom moves up to the first branch point or bottom move, in one
    hop that adds the stretch's steps to its runtime, and then draws at
    the end node or stops at its bottom move.  A stretch is (steps,
    options of its end), with one ``[running sum, successor node, link]``
    option per move of a branch point and none for a bottom move; a
    branch point or bottom node is its own stretch of 0 steps.  Under a
    history-independent policy each node's stretch is resolved once and
    kept, and an option's link is the successor's kept stretch, filled
    the first time a run takes the option, once that stretch is kept.
    So a run reads the next stretch from the option it drew, without a
    table lookup, and the root's stretch from an entry option of the
    same shape.  Every output is bit-identical to stepping:

    - the same draws happen in the same order at the same nodes, since a
      stretch draws nothing;
    - a run whose remaining budget does not exceed the stretch's steps
      is censored with its runtime at the cap, exactly as stepping
      censors it, also when the stretch would end at a branch point or
      bottom move with no budget left;
    - a stretch is resolved only as far as the remaining budget of the
      run that first meets it, and a stretch cut there is neither kept
      nor linked, so a later run with more budget resolves it again;
      no node beyond a run's cap is ever resolved, and a scheduler
      violation there stays unraised, as it does when stepping.

    Under a history-dependent policy every path is its own node, so
    nothing is kept or linked: the same loop walks each stretch step by
    step, through the same :func:`_stretch`.  One run's node and the
    kept stretches are all that is held, so memory does not grow with
    ``samples``.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if step_cap < 0:
        raise ValueError("step_cap must be nonnegative")
    start = _initial_path(p, sigma0)
    table = StepTable(p, policy)
    moves = table.moves
    root = table.root(start)
    # nodes are numbers exactly when the table keeps their moves, and only
    # then does a stretch start at a node that runs reach again
    kept: dict[int, _Hop] | None = {} if isinstance(root, int) else None
    entry: _Option = [0.0, root, None]  # the option that leads to the root
    draw = random.Random(seed).random
    censored = 0
    total = 0.0
    total_sq = 0.0
    for _ in range(samples):
        option = entry
        left = step_cap  # the run's runtime is step_cap - left
        while left:
            hop = option[2]
            if hop is None:
                hop = _stretch(moves, option, left, kept, table.scale)
            steps, options = hop
            left -= steps
            if left <= 0:  # the budget ends inside the stretch
                left = 0
                continue
            if not options:  # the bottom move
                break
            r = draw()
            for option in options:
                if r < option[0]:
                    break
            left -= 1
        else:
            censored += 1
        runtime = step_cap - left
        total += runtime
        total_sq += runtime * runtime
    mean = total / samples
    if samples > 1:
        variance = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
        stderr = math.sqrt(variance / samples)
    else:
        stderr = 0.0
    return MonteCarloResult(mean, stderr, samples, censored)


def _stretch(
    moves, option: _Option, budget: int, kept: dict[int, _Hop] | None, scale: int
) -> _Hop:
    """The deterministic stretch from the successor node of ``option``:
    follow single non-bottom moves, for at most ``budget`` steps, to the
    first branch point or bottom move, and return the steps taken and the
    end's options, one ``[running sum, successor node, None]`` per move of
    a branch point and none for a bottom move; a branch point or bottom
    node is its own stretch of 0 steps.  The running sums add up ``w /
    scale`` over the moves' weights ``w`` in float arithmetic; each
    quotient is the move's probability correctly rounded, as
    ``float(prob)`` is.  Unless ``kept`` is ``None``, a stretch that ends
    within the budget is kept there and linked from ``option``, and a
    kept one is linked without being walked again.  One cut by the budget
    is never kept or linked: it returns ``budget`` steps, and the node it
    stops at is not resolved."""
    start = node = option[1]
    if kept is not None:
        hop = kept.get(start)
        if hop is not None:
            option[2] = hop
            return hop
    steps = 0
    while steps < budget:
        node_moves = moves(node)
        if len(node_moves) > 1:
            sums = accumulate(w / scale for _, _, w in node_moves)
            hop = (steps, [[acc, move[1], None] for acc, move in zip(sums, node_moves)])
        elif node_moves[0][0][0] is None:
            hop = (steps, [])
        else:
            node = node_moves[0][1]
            steps += 1
            continue
        if kept is not None:
            kept[start] = option[2] = hop
        return hop
    return steps, []


# ---------------------------------------------------------------------------
# Finite-horizon MDP optimization (supremum over all schedulers)


class _ChoiceTable(_NodeTable):
    """The configuration graph of :func:`mdp_sup_truncated`: node ``i``
    maps to one list per admissible choice at ``configs[i]``, of its
    (successor node, weight) pairs, resolved on the first lookup."""

    def __init__(self, p: PIP, temp_values: Sequence[int]):
        super().__init__(p)
        self.temp_values = temp_values

    def __missing__(self, i: int) -> list[list[tuple[int, int]]]:
        config = self.configs[i]
        choices = self[i] = [
            [
                (self._node(succ), _weight(prob, self.scale))
                for _, succ, prob in successors(config, g, tv)
            ]
            for g, tv in scheduler_candidates(self.p, config, self.temp_values)
        ]
        return choices


def mdp_sup_truncated(
    p: PIP,
    sigma0: Mapping[Variable, int],
    horizon: int,
    temp_values: Sequence[int],
    state_cap: int = 200_000,
) -> Fraction:
    """Max over schedulers of the expected runtime truncated at ``horizon``,
    by backward value iteration over the reachable configuration graph.

    ``state_cap`` bounds the configurations summed over all levels.  The
    forward pass builds level ``k + 1`` from the successor tuples of the
    nodes of level ``k``, each tuple built once per node, in the order in
    which nodes are first reached, so nodes are resolved in that order.
    The backward induction keeps the values of two adjacent levels in two
    lists indexed by node number, which swap at each level, and reads a
    node's choices from a list of the same index: the list for ``s`` steps
    left is written only at the nodes of its level, and read only at
    theirs.  A value with ``s`` steps left is kept as its integer
    numerator over ``L**s`` (see the module docstring).

    After the forward pass each resolved node gets the shape the
    induction consumes, and only a node with several choices takes a max:

    - a node with exactly one admissible choice is worth ``reward +
      sum(w * v)`` over the choice's (successor, weight) pairs, with no
      max.  Values are never negative, so every choice is worth at least
      the step reward, which is positive, and the max with the bottom
      action's 0 is that choice's value.  When every weight of the choice
      is 1 (a probability of ``1/L``) and no successor repeats, the node
      reads only the successor tuple that the forward pass built, and each
      successor adds its value without a multiplication;
    - a node with several choices is worth the max of their values, and
      of 0 for the bottom action;
    - a node with no choice stays 0: only the bottom action is left;
    - a node reached only at the horizon is never resolved, and is worth
      0 with no steps left."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if state_cap < 0:
        raise ValueError("state_cap must be nonnegative")
    if not temp_values:
        raise ValueError("temp_values must be nonempty")
    table = _ChoiceTable(p, temp_values)
    table._node(_initial_path(p, sigma0).initial)  # node 0
    scale = table.scale

    layers: list[dict[int, None]] = [{0: None}]
    seen = 1
    successors_of: dict[int, tuple[int, ...]] = {}  # node -> its successor nodes, each once
    for _ in range(horizon):
        layer = layers[-1]
        for i in layer:
            if i not in successors_of:
                successors_of[i] = tuple(dict.fromkeys(j for dist in table[i] for j, _ in dist))
        frontier = dict.fromkeys(chain.from_iterable(map(successors_of.__getitem__, layer)))
        layers.append(frontier)
        seen += len(frontier)
        if seen > state_cap:
            raise StateSpaceCapExceeded(seen, state_cap)

    size = len(table.configs)
    choices = [table.get(i) for i in range(size)]  # None at nodes reached only at the horizon
    # one[c]: the one choice of node c, as its successor tuple from the
    # forward pass when every weight is 1 and no successor repeats, and as
    # its (successor, weight) pairs otherwise; None at a node with several
    # choices or none, which reads choices[c]
    one: list[tuple[int, ...] | list[tuple[int, int]] | None] = [None] * size
    for c, node_choices in table.items():
        if len(node_choices) == 1:
            (dist,) = node_choices
            succ = successors_of[c]
            one[c] = succ if len(succ) == len(dist) and all(w == 1 for _, w in dist) else dist
    values, step_values = [0] * size, [0] * size  # nodes at the horizon are worth 0
    reward = 1  # one step's reward over the current common denominator
    for i in range(horizon - 1, -1, -1):
        reward *= scale
        for c in layers[i]:
            dist = one[c]
            if dist is None:
                best = 0  # bottom action: reward 0 forever
                for choice in choices[c]:
                    value = reward
                    for j, w in choice:
                        value += w * values[j]
                    if value > best:
                        best = value
                step_values[c] = best
            elif dist.__class__ is tuple:
                value = reward
                for j in dist:
                    value += values[j]
                step_values[c] = value
            else:
                value = reward
                for j, w in dist:
                    value += w * values[j]
                step_values[c] = value
        values, step_values = step_values, values
    return Fraction(values[0], scale**horizon)


# ---------------------------------------------------------------------------
# Path embedding between a program and its refinement


class InducedPolicy(Policy):
    """The refined-program policy that mirrors a base policy: at a labeled
    location it consults the base policy on the underlying location and
    lifts the chosen general transition to its refined copy.  Temporaries
    that pruning removed from every refined transition are not passed on.

    A state stores the last value chosen for each temporary, and the
    refined state lacks the removed ones, so the base policy is consulted
    on a state without them.  The induced policy therefore mirrors the
    base policy only if the base policy's choice does not read the stored
    value of a removed temporary.  :class:`SeededPolicy` hashes the whole
    state, so it is such a policy only when it chooses values for the
    kept temporaries alone, so that no state stores a removed one."""

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
        shadow = _record(Configuration(base_loc, config.state), (), Fraction(1))
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


class _Mismatch(Exception):
    """A step at which :func:`check_embedding` fails: (failure, witness)."""


class _PairTable(dict):
    """The reachable (base node, refined node) pairs of
    :func:`check_embedding`, as nodes for :func:`_levels`.  A pair maps to
    the base moves, each with its successor pair as the child, resolved
    on the first lookup (``__missing__``): the base and refined moves at
    the pair are matched one-to-one, and a step that does not match
    raises :class:`_Mismatch`.  So the pass counts base paths, with the
    base program's weights.  ``first`` maps each pair reached to the pair
    and the (base, refined) moves by which it was first reached, and the
    root to ``None``; a witness is read back through it."""

    def __init__(
        self, p: PIP, refinement: RefinementResult, policy: Policy, sigma0: Mapping[Variable, int]
    ):
        super().__init__()
        p2 = refinement.program
        self.p = p
        self.tables = (StepTable(p, policy), StepTable(p2, InducedPolicy(policy, p, refinement)))
        self.scale = self.tables[0].scale
        self.lift = {(t.source.name, refinement.origin[t.name]): t for t in p2.transitions}
        self.dropped = frozenset(p.temporaries()) - frozenset(p2.temporaries())
        self.starts = (_initial_path(p, sigma0), _initial_path(p2, sigma0))
        self.root = (self.tables[0].root(self.starts[0]), self.tables[1].root(self.starts[1]))
        self.first: dict[_Pair, tuple[_Pair, Move, Move] | None] = {self.root: None}

    moves = dict.__getitem__  # pair -> its list of moves, as in StepTable.moves

    def __missing__(self, pair: _Pair) -> list[Move]:
        base, refined = self.tables
        moves = base[pair[0]]
        try:
            images = {move[0]: move for move in refined[pair[1]]}
        except SchedulerViolation as violation:
            why = f"induced policy is not a valid scheduler: {violation}"
            raise _Mismatch(why, self._path(pair, moves[0], 0))
        location2 = refined.configs[pair[1]].location.name
        matched: list[Move] = []
        for move in moves:
            (name, succ), j, w = move
            state = tuple((v, n) for v, n in succ.state if v not in self.dropped)
            if name is None:
                key = (None, Configuration(TERMINAL, state))
            else:
                lifted = self.lift.get((location2, name))
                if lifted is None:
                    why = "no refined counterpart for a step of this path"
                    raise _Mismatch(why, self._path(pair, move, 0))
                key = (lifted.name, Configuration(lifted.target, state))
            image = images.pop(key, None)
            if image is None:
                why = "embedded path is not admissible in the refinement"
                raise _Mismatch(why, self._path(pair, move, 0))
            if w * refined.scale != image[2] * self.scale:
                f, g = self._path(pair, move, 0), self._path(pair, image, 1)
                raise _Mismatch(f"probability changed: {f.probability} vs {g.probability}", f)
            child = (j, image[1])
            self.first.setdefault(child, (pair, move, image))
            matched.append((move[0], child, w))
        if images:
            why = "refined path has no preimage (embedding not surjective)"
            raise _Mismatch(why, self._path(pair, next(iter(images.values())), 1))
        self[pair] = matched
        return matched

    def _path(self, pair: _Pair, move: Move, side: int) -> PathRecord:
        """The path of the base (``side`` 0) or the refined program (1)
        that reaches ``pair`` the way it was first reached and then takes
        ``move``."""
        trail = [move]
        back = self.first[pair]
        while back is not None:
            pair = back[0]
            trail.append(back[1 + side])
            back = self.first[pair]
        trail.reverse()
        scale = self.tables[side].scale ** len(trail)
        probability = Fraction(math.prod(m[2] for m in trail), scale)
        return _record(self.starts[side].initial, tuple(m[0] for m in trail), probability)


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
    of its refinement (under the induced policy), up to the horizon.

    The policy must be history-independent (:class:`InducedPolicy` raises
    ``ValueError`` otherwise), and its choice must not read the stored
    value of a temporary that pruning removed from the refinement, which
    the induced policy cannot see; :class:`SeededPolicy` hashes the whole
    state, so it qualifies only when no state stores a removed temporary
    (see :class:`InducedPolicy`).  The check is the level pass
    :func:`_levels` over a :class:`_PairTable`, whose nodes are the
    reachable pairs of a base node and the refined node its paths embed
    to.  A pair is resolved once, on the first level that holds it: the
    two step distributions there are matched one-to-one (see the module
    docstring), comparing probabilities as integers across the two
    programs' denominators.  ``path_cap`` bounds the pairs of each level,
    checked after each level.

    ``checked_paths`` is the number of admissible base paths of length
    ``horizon``.  A mismatch stops the pass.  When it is at a step from a
    pair reached in k steps, ``checked_paths`` is the number of base paths
    of length k, all of which embed, and the witness is a shortest
    failing path: the base path whose last step is the offending one or,
    when a refined step has no preimage, the refined path ending in that
    step.  It is read back through the pair and moves by which each pair
    was first reached.  That path is a shortest one: the failing pair is
    resolved on the first level k that holds it, so each of its parents
    is first held by level k - 1, and the first parent resolved is the
    first one on that level; by induction the path read back has length
    k up to the pair, and it is the first such path in level order."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if path_cap < 0:
        raise ValueError("path_cap must be nonnegative")
    failure = witness = None
    table = _PairTable(p, refinement, policy, sigma0)
    level = {table.root: [1, 1]}  # the one path of length 0
    try:
        for level, _, _ in _levels(table, table.root, horizon):
            if len(level) > path_cap:
                raise StateSpaceCapExceeded(len(level), path_cap)
    except _Mismatch as mismatch:
        failure, witness = mismatch.args
    checked = sum(paths for paths, _ in level.values())
    return EmbeddingReport(failure is None, horizon, checked, failure, witness)
