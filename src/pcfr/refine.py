"""Partial-evaluation control-flow refinement.

Locations of the refined program are pairs of an original location and
a constraint label drawn from that location's abstraction layer.  The
worklist starts from all ``<l, true>`` variants and unrolls every
transition once per labeled source: refinement-set transitions target
the labeled variant proved by :func:`pcfr.abstraction.label`, all other
transitions target the ``true`` variant, and every emitted guard is the
source label conjoined with the original guard.  The iteration reaches
the least fixpoint; step counts are asserted against the a-priori
unrolling bound.

Pruning is a separate pass: transitions whose guard contradicts the
(refined program's) source invariant are removed, then locations no
longer reachable from the initial variant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable

from .abstraction import AbstractionLayer, label
from .invariants import InvariantMap, infer
from .linear import Satisfiability, constraint_satisfiability
from .model import (
    PIP,
    GeneralTransition,
    Location,
    Transition,
    label_suffix,
    labeled_location,
    outgoing,
    reach,
    validate,
)
from .syntax import TRUE, Constraint


@dataclass(frozen=True)
class RefinementStats:
    unrolling_steps: int
    pruned_transitions: int = 0
    pruned_locations: int = 0


@dataclass(frozen=True)
class RefinementResult:
    program: PIP
    origin: dict[str, str]  # refined transition name -> original transition name
    gt_origin: dict[str, str]
    stats: RefinementStats


def unrolling_step_bound(p: PIP, layers: AbstractionLayer) -> int:
    """Worst-case number of (labeled location, transition) unrolling steps."""
    return len(p.transitions) * sum(2 ** len(layers.of(l)) for l in p.locations)


def refine(
    p: PIP, s: Iterable[Transition | str], layers: AbstractionLayer
) -> RefinementResult:
    """Least fixpoint of the unrolling rules for refinement set ``s``.

    Raises ``ValueError`` when the name of a refined location, transition
    or general transition (its base name plus a label-hash suffix)
    clashes with a name of the program or with another refined name."""
    s_set: set[Transition] = set()
    known = {t.name: t for t in p.transitions}
    for item in s:
        name = item if isinstance(item, str) else item.name
        if name not in known or (
            not isinstance(item, str) and known[name] != item
        ):
            raise ValueError(f"refinement set member '{name}' is not a transition of the program")
        s_set.add(known[name])

    variants: dict[tuple[str, Constraint], Location] = {}
    owners: dict[str, tuple[str, Constraint]] = {}  # variant name -> its key
    worklist: deque[Location] = deque()

    def variant(base: Location, lbl: Constraint) -> Location:
        key = (base.name, lbl)
        loc = variants.get(key)
        if loc is None:
            loc = labeled_location(base, lbl)
            owner = owners.setdefault(loc.name, key)
            if owner != key:
                other_base, other_label = owner
                clash = (
                    f"the user location '{other_base}'" if other_label.is_true()
                    else f"location '{other_base}' under label "
                    f"{other_label.render(compact=True)}"
                )
                raise ValueError(
                    f"refined location name '{loc.name}' of location '{base.name}' "
                    f"under label {lbl.render(compact=True)} collides with {clash}"
                )
            variants[key] = loc
            worklist.append(loc)
        return loc

    for loc in p.locations:
        variant(loc, TRUE)

    new_gts: list[GeneralTransition] = []
    origin: dict[str, str] = {}
    gt_origin: dict[str, str] = {}
    steps = 0
    bound = unrolling_step_bound(p, layers)

    while worklist:
        src = worklist.popleft()
        tau = src.label if src.label is not None else TRUE
        suffix = label_suffix(tau)
        for g in outgoing(p, p.location(src.base or src.name)):
            guard = tau & g.guard
            members = []
            for t in g.members:
                steps += 1
                if t in s_set:
                    target_label = label(tau, g.guard, t.update, layers.of(t.target))
                else:
                    target_label = TRUE
                target = variant(t.target, target_label)
                name = t.name + suffix
                _check_fresh(name, origin, "transition", t.name, src)
                members.append(
                    Transition(name, src, guard, t.prob, t.update, target)
                )
                origin[name] = t.name
            gt_name = g.name + suffix
            _check_fresh(gt_name, gt_origin, "general transition", g.name, src)
            gt_origin[gt_name] = g.name
            new_gts.append(GeneralTransition(gt_name, tuple(members)))
    if steps > bound:
        raise AssertionError(f"unrolling used {steps} steps, bound is {bound}")

    program = PIP(
        p.program_vars,
        tuple(variants.values()),  # worklist creation order
        variants[(p.initial.name, TRUE)],
        tuple(new_gts),
    )
    return RefinementResult(program, origin, gt_origin, RefinementStats(steps))


def _check_fresh(name: str, taken: dict[str, str], kind: str, base: str, src: Location) -> None:
    if name in taken:
        raise ValueError(
            f"refined {kind} name '{name}' of '{base}' from {src.display()} "
            f"collides with the copy of '{taken[name]}'"
        )


def prune(r: RefinementResult, inv: InvariantMap) -> RefinementResult:
    """Drop unsatisfiable-guard transitions, then unreachable locations."""
    p = r.program
    kept_gts: list[GeneralTransition] = []
    pruned_transitions = 0
    for g in p.gts:
        if any(t.guard != g.guard for t in g.members):
            raise AssertionError(f"gt '{g.name}' members disagree on the guard")
        verdict = constraint_satisfiability(g.guard & inv.of(g.source))
        if verdict is Satisfiability.UNSAT:
            pruned_transitions += len(g.members)
        else:
            kept_gts.append(g)

    reachable = reach(p, kept_gts)[p.initial]
    final_gts = []
    for g in kept_gts:
        if g.source in reachable:
            final_gts.append(g)
        else:
            pruned_transitions += len(g.members)
    locations = tuple(l for l in p.locations if l in reachable)
    pruned_locations = len(p.locations) - len(locations)

    program = PIP(p.program_vars, locations, p.initial, tuple(final_gts))
    issues = validate(program)
    if issues:
        raise AssertionError(f"pruned program is invalid: {issues}")
    names = {t.name for t in program.transitions}
    gt_names = {g.name for g in program.gts}
    return RefinementResult(
        program,
        {k: v for k, v in r.origin.items() if k in names},
        {k: v for k, v in r.gt_origin.items() if k in gt_names},
        replace(
            r.stats,
            pruned_transitions=r.stats.pruned_transitions + pruned_transitions,
            pruned_locations=r.stats.pruned_locations + pruned_locations,
        ),
    )


def refine_and_prune(
    p: PIP, s: Iterable[Transition | str], layers: AbstractionLayer
) -> tuple[RefinementResult, InvariantMap]:
    """The standard pipeline: refine, infer invariants on the result, prune."""
    refined = refine(p, s, layers)
    inv = infer(refined.program)
    return prune(refined, inv), inv
