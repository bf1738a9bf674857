"""The three benchmark workloads.

A workload is built from the seed (its set-up) and exposes a fixed list
of operations.  Each operation is one closed-loop call of the public
``pcfr`` API, from program text (or a parsed fixed program) to the
answer a user would read.  Each also carries a reference check against
an answer computed independently of the code path it times; checks run
outside the timed region.

Library functions are always looked up through their module (``lib.bounds.
bound_program``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import inputs


@dataclass(frozen=True)
class Operation:
    label: str  # row name in the detail output
    kind: str  # operation class, shared by operations of one kind
    run: Callable[[], object]
    digest: Callable[[object], object]  # hashable answer; a repeat is not re-checked
    check: Callable[[object], str | None]  # reference check: None or a failure


def _state(program, **values) -> dict:
    by_name = {v.name: v for v in program.program_vars}
    return {by_name[name]: value for name, value in values.items()}


# ---------------------------------------------------------------------------
# bound-chain: text -> parse -> layers -> refine_and_prune -> bound_program


class BoundChain:
    """fig2, unrefined fig1 and the gadget chain for k = 1, 2.

    The seed orders the four programs and picks the state at which each
    bound is checked against the exact truncated optimum.
    """

    name = "bound-chain"
    CHECK_HORIZON = 60
    CHECK_TEMPS = (1, 2)

    def __init__(self, lib, seed: int):
        self.lib = lib
        rng = random.Random(f"{self.name}:{seed}")
        # (label, text, refinement set filter, expected bound or None)
        programs = [
            ("fig2", inputs.FIG2, lambda name: False, "3 + 2*y"),
            ("fig1-unrefined", inputs.FIG1, lambda name: False, None),
        ] + [
            (f"chain-k{k}", inputs.chain(k), lambda name: not name.startswith("e"),
             inputs.chain_bound(k))
            for k in (1, 2)
        ]
        rng.shuffle(programs)
        self.programs = []
        for label, text, in_s, expected in programs:
            parsed = lib.textfmt.parse_program(text)  # fixed program, for the check
            state = {v: 0 if v.name.startswith("x") else rng.randint(0, 2)
                     for v in parsed.program_vars}
            self.programs.append((label, text, in_s, expected, parsed, state))

    def _verdict(self, text: str, in_s):
        lib = self.lib
        p = lib.textfmt.parse_program(text)
        s = [t for t in p.transitions if in_s(t.name)]
        layers = lib.abstraction.heuristic_layers(p, s)
        refined, _inv = lib.refine.refine_and_prune(p, [t.name for t in s], layers)
        return lib.bounds.bound_program(refined.program)

    def _check(self, parsed, state, expected, report) -> str | None:
        if expected is None:
            return None if not report.ok and report.failures else "expected no finite bound"
        if not report.ok:
            return f"no bound: {'; '.join(report.failures)}"
        if report.bound.render_total() != expected:
            return f"bound {report.bound.render_total()}, expected {expected}"
        optimum = self.lib.semantics.mdp_sup_truncated(
            parsed, state, self.CHECK_HORIZON, self.CHECK_TEMPS
        )
        if report.bound.evaluate_total(state) < optimum:
            return f"bound {report.bound.evaluate_total(state)} below truncated optimum {optimum}"
        return None

    def operations(self) -> list[Operation]:
        return [
            Operation(
                label, "bound",
                lambda text=text, in_s=in_s: self._verdict(text, in_s),
                lambda r: r.bound.render_total() if r.ok else r.failures,
                lambda r, parsed=parsed, state=state, expected=expected:
                    self._check(parsed, state, expected, r),
            )
            for label, text, in_s, expected, parsed, state in self.programs
        ]

    def figures(self, seconds: dict[str, float], latencies: list[float]) -> dict:
        return {"verdict_s": {"value": sum(seconds.values()), "unit": "s"}}


class KeepTemporaries:
    """A policy making ``base``'s choices, minus temporaries outside ``kept``."""

    history_dependent = False

    def __init__(self, base, kept):
        self.base, self.kept, self.temp_values = base, kept, base.temp_values

    def resolve(self, p, path):
        gt, temps = self.base.resolve(p, path)
        return gt, {v: value for v, value in temps.items() if v in self.kept}


# ---------------------------------------------------------------------------
# refine-corpus: the `pcfr refine` pipeline on seeded random programs


class RefineCorpus:
    """Random programs with 2-4 locations and 1-2 variables, refined on
    all transitions; every refinement is checked by path embedding.  The
    seed picks and orders SIZE of a fixed POPULATION of programs."""

    name = "refine-corpus"
    SIZE = 600
    POPULATION = 750
    CHECK_HORIZON = 8

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.programs = inputs.corpus(seed, self.SIZE, self.POPULATION)
        self.dropped_temporaries = 0  # refinements that lost a temporary

    def _refine(self, text: str):
        lib = self.lib
        p = lib.textfmt.parse_program(text)
        layers = lib.abstraction.heuristic_layers(p, p.transitions)
        refined, _inv = lib.refine.refine_and_prune(p, p.transitions, layers)
        return p, refined, lib.textfmt.print_program(refined.program)

    def _check(self, index: int, result) -> str | None:
        p, refined, _text = result
        sem = self.lib.semantics
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        sigma0 = {v: rng.randint(-3, 3) for v in p.program_vars}
        policy = sem.SeededPolicy(rng.randint(0, 9), temp_values=(0, 1))
        kept = set(refined.program.temporaries())
        if kept != set(p.temporaries()):
            # check_embedding's induced policy hands the refinement every
            # temporary of the original program, and the refinement rejects
            # the ones pruning removed (scheduler clause (a)).  Choose only
            # the temporaries the refinement keeps; a pruned transition that
            # needed a dropped one can never be chosen at a reachable state.
            self.dropped_temporaries += 1
            policy = KeepTemporaries(policy, kept)
        report = sem.check_embedding(p, refined, policy, sigma0, self.CHECK_HORIZON)
        return None if report.ok else f"embedding fails: {report.failure}"

    def operations(self) -> list[Operation]:
        return [
            Operation(
                f"program-{index}", "refine",
                lambda text=text: self._refine(text),
                lambda r: r[2],
                lambda r, index=index: self._check(index, r),
            )
            for index, text in self.programs
        ]

    def figures(self, seconds: dict[str, float], latencies: list[float]) -> dict:
        twentieths = statistics.quantiles(latencies, n=20, method="inclusive")
        return {
            "refine_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "refine_p95_s": {"value": twentieths[18], "unit": "s"},
            "refine_programs_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "samples": len(latencies),
            "refinements_dropping_a_temporary": self.dropped_temporaries,
        }


# ---------------------------------------------------------------------------
# semantics-walk: exact path trees, value iteration and sampling


def walk_reference(horizon: int, x0: int) -> tuple[int, Fraction]:
    """Path count and truncated expected runtime of ``inputs.WALK`` from
    x0, by a direct recurrence over (steps left, x) that shares no code
    with the library."""
    # Paths at l1: a state with x <= 0 takes one bottom step into the
    # terminal configuration and then stays a single path.
    width = x0 + horizon + 2
    count = [1] * width
    scaled = [0] * width  # 2^h * expected runtime with h steps left
    for h in range(1, horizon):
        count = [1] + [count[x - 1] + count[x + 1] for x in range(1, width - 1)] + [1]
        scaled = [0] + [
            2 ** h + scaled[x - 1] + scaled[x + 1] for x in range(1, width - 1)
        ] + [0]
    # The first step is l0 -> l1.
    return count[x0], 1 + Fraction(scaled[x0], 2 ** (horizon - 1))


class SemanticsWalk:
    """Five semantic queries on the random walk and on fig1."""

    name = "semantics-walk"
    X0 = 3
    ENUMERATE_HORIZON = 17
    EMBEDDING_HORIZON = 16
    MDP_HORIZON = 600
    FIG1_TEMPS = (1, 2, 3)
    SAMPLES = 100_000
    STEP_CAP = 1000
    FIG1_RUNTIME = 3 + 2 * 2  # fig1's expected runtime 3 + 2*y at y = 2, for every u

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed
        self.walk = lib.textfmt.parse_program(inputs.WALK)
        self.fig1 = lib.textfmt.parse_program(inputs.FIG1)
        s = self.walk.transitions
        self.refined, _inv = lib.refine.refine_and_prune(
            self.walk, s, lib.abstraction.heuristic_layers(self.walk, s)
        )
        self.walk_state = _state(self.walk, x=self.X0)
        self.fig1_state = _state(self.fig1, x=0, y=2)

    def _enumerate(self):
        sem = self.lib.semantics
        policy = sem.FirstEnabledPolicy()
        result = sem.enumerate_paths(self.walk, policy, self.walk_state, self.ENUMERATE_HORIZON)
        estimate = sem.expected_runtime_estimate(
            self.walk, policy, self.walk_state, self.ENUMERATE_HORIZON
        )
        report = result.report
        return (len(result.paths), report.total_mass, report.expected_truncated_runtime,
                report.terminated_mass, estimate.lower, estimate.residual_mass)

    def _check_enumerate(self, r) -> str | None:
        paths, mass, expected, _terminated, lower, residual = r
        ref_paths, ref_expected = walk_reference(self.ENUMERATE_HORIZON, self.X0)
        optimum = self.lib.semantics.mdp_sup_truncated(
            self.walk, self.walk_state, self.ENUMERATE_HORIZON, (0,)
        )
        if mass != 1:
            return f"enumeration mass {mass}"
        if paths != ref_paths:
            return f"{paths} paths, expected {ref_paths}"
        if not expected == lower == optimum == ref_expected:
            return f"truncated expectation {expected} / {lower}, mdp {optimum}, reference {ref_expected}"
        if not 0 < residual < 1:
            return f"residual mass {residual}"
        return None

    def _embedding(self):
        report = self.lib.semantics.check_embedding(
            self.walk, self.refined, self.lib.semantics.FirstEnabledPolicy(), self.walk_state,
            self.EMBEDDING_HORIZON,
        )
        return report.ok, report.checked_paths, report.failure

    def _check_embedding(self, r) -> str | None:
        ok, paths, failure = r
        ref_paths, _ = walk_reference(self.EMBEDDING_HORIZON, self.X0)
        if not ok:
            return f"embedding fails: {failure}"
        return None if paths == ref_paths else f"{paths} paths, expected {ref_paths}"

    def _check_mdp_walk(self, value) -> str | None:
        _, ref = walk_reference(self.MDP_HORIZON, self.X0)
        return None if value == ref else f"mdp value {float(value)}, reference {float(ref)}"

    def _check_mdp_fig1(self, value) -> str | None:
        gap = self.FIG1_RUNTIME - value
        if 0 <= gap < Fraction(1, 10**30):
            return None
        return f"mdp value {float(value)}, expected just below {self.FIG1_RUNTIME}"

    def _simulate(self):
        sem = self.lib.semantics
        return sem.monte_carlo(
            self.fig1, sem.FirstEnabledPolicy((1,)), self.fig1_state,
            self.SAMPLES, self.STEP_CAP, self.seed,
        )

    def _check_simulate(self, r) -> str | None:
        if r.censored or abs(r.mean - self.FIG1_RUNTIME) > 4 * r.stderr:
            return f"mean {r.mean} +- {r.stderr} (censored {r.censored}), exact {self.FIG1_RUNTIME}"
        return None

    def operations(self) -> list[Operation]:
        sem = self.lib.semantics
        return [
            Operation(f"enumerate walk h={self.ENUMERATE_HORIZON}", "enumerate",
                      self._enumerate, lambda r: r, self._check_enumerate),
            Operation(f"embedding walk h={self.EMBEDDING_HORIZON}", "embedding",
                      self._embedding, lambda r: r, self._check_embedding),
            Operation(
                f"mdp walk h={self.MDP_HORIZON}", "mdp",
                lambda: sem.mdp_sup_truncated(
                    self.walk, self.walk_state, self.MDP_HORIZON, (0,)
                ),
                lambda r: r, self._check_mdp_walk,
            ),
            Operation(
                f"mdp fig1 h={self.MDP_HORIZON}", "mdp",
                lambda: sem.mdp_sup_truncated(
                    self.fig1, self.fig1_state, self.MDP_HORIZON, self.FIG1_TEMPS
                ),
                lambda r: r, self._check_mdp_fig1,
            ),
            Operation(f"simulate fig1 n={self.SAMPLES}", "simulate",
                      self._simulate, lambda r: (r.mean, r.stderr), self._check_simulate),
        ]

    def figures(self, seconds: dict[str, float], latencies: list[float]) -> dict:
        by_kind: dict[str, float] = {}
        for op in self.operations():
            by_kind[op.kind] = by_kind.get(op.kind, 0.0) + seconds[op.label]
        return {
            "enumerate_s": {"value": by_kind["enumerate"], "unit": "s"},
            "embedding_s": {"value": by_kind["embedding"], "unit": "s"},
            "mdp_s": {"value": by_kind["mdp"], "unit": "s"},
            "simulate_samples_per_s": {
                "value": self.SAMPLES / by_kind["simulate"], "unit": "1/s"
            },
        }


WORKLOADS = {w.name: w for w in (BoundChain, RefineCorpus, SemanticsWalk)}
