"""Program model: locations, guarded probabilistic transitions, and the
general transitions that group probability-weighted branches sharing one
source location and guard.

Construction is permissive; :func:`validate` reports every violated
well-formedness rule instead of failing, so malformed inputs surface as
diagnostics.  Validated programs are immutable.

A refined location is named after its base location and its label
(:func:`labeled_location`); the refinement and the text format both name
locations by that rule.  A program indexes its general transitions by
source and its transitions by target once (:func:`outgoing`,
:func:`incoming`); :func:`reach` gives each location's reach set in the
location graph, which the SCCs, pruning and the live invariant starts
read.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .syntax import Constraint, Update, Variable


@dataclass(frozen=True, slots=True)
class Location:
    """A control location; refined programs carry a base name and label."""

    name: str
    base: str | None = field(default=None, compare=False)
    label: Constraint | None = field(default=None, compare=False)

    def display(self) -> str:
        if self.label is not None and not self.label.is_true():
            return f"{self.base}[{self.label.render(compact=True)}]"
        return self.name

    def __str__(self) -> str:
        return self.display()


#: Synthetic absorbing location entered when no transition applies.
TERMINAL = Location("<terminal>")


def label_hash(lbl: Constraint) -> str:
    return hashlib.sha256(lbl.render(compact=True).encode()).hexdigest()[:8]


def label_suffix(lbl: Constraint) -> str:
    """What a label appends to the name of a refined location, and of each
    transition copied from it: nothing for ``true``."""
    return "" if lbl.is_true() else f"__{label_hash(lbl)}"


def labeled_location(base: Location, lbl: Constraint) -> Location:
    return Location(base.name + label_suffix(lbl), base=base.name, label=lbl)


@dataclass(frozen=True, slots=True)
class Transition:
    name: str
    source: Location
    guard: Constraint
    prob: Fraction
    update: Update
    target: Location

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class GeneralTransition:
    name: str
    members: tuple[Transition, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError(f"general transition '{self.name}' has no members")

    @property
    def source(self) -> Location:
        return self.members[0].source

    @property
    def guard(self) -> Constraint:
        return self.members[0].guard

    def total_probability(self) -> Fraction:
        return sum((t.prob for t in self.members), Fraction(0))

    def __iter__(self):
        return iter(self.members)

    def __str__(self) -> str:
        return self.name


class PIP:
    """A probabilistic integer program over a fixed set of program variables."""

    def __init__(
        self,
        program_vars: Iterable[Variable],
        locations: Iterable[Location],
        initial: Location,
        gts: Iterable[GeneralTransition],
    ):
        self.program_vars = tuple(sorted(set(program_vars)))
        self.locations = tuple(locations)
        self.initial = initial
        self.gts = tuple(gts)
        self.transitions = tuple(t for g in self.gts for t in g.members)
        self._temporaries: tuple[Variable, ...] | None = None
        self._by_name = {t.name: t for t in self.transitions}
        self._gt_by_name = {g.name: g for g in self.gts}
        self._loc_by_name = {l.name: l for l in self.locations}
        outs: dict[Location, list[GeneralTransition]] = {}
        ins: dict[Location, list[Transition]] = {}
        for g in self.gts:
            outs.setdefault(g.source, []).append(g)
            for t in g.members:
                ins.setdefault(t.target, []).append(t)
        self._outgoing = {loc: tuple(gs) for loc, gs in outs.items()}
        self._incoming = {loc: tuple(ts) for loc, ts in ins.items()}
        for kind, items in (
            ("transition", self.transitions),
            ("general transition", self.gts),
            ("location", self.locations),
        ):
            seen: set[str] = set()
            for item in items:
                if item.name in seen:
                    raise ValueError(f"duplicate {kind} name '{item.name}'")
                seen.add(item.name)

    # -- lookups ---------------------------------------------------------

    def transition(self, name: str) -> Transition:
        return self._by_name[name]

    def gt(self, name: str) -> GeneralTransition:
        return self._gt_by_name[name]

    def location(self, name: str) -> Location:
        return self._loc_by_name[name]

    def temporaries(self) -> tuple[Variable, ...]:
        """All non-program variables mentioned by guards or updates."""
        if self._temporaries is None:
            pvs = set(self.program_vars)
            seen: set[Variable] = set()
            for t in self.transitions:
                seen |= t.guard.variables()
                seen |= t.update.variables_used()
            self._temporaries = tuple(sorted(v for v in seen if v not in pvs))
        return self._temporaries

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PIP)
            and self.program_vars == other.program_vars
            and self.locations == other.locations
            and self.initial == other.initial
            and self.gts == other.gts
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PIP(vars={[v.name for v in self.program_vars]}, "
            f"locations={[l.name for l in self.locations]}, "
            f"gts={[g.name for g in self.gts]})"
        )


def validate(p: PIP) -> list[str]:
    """All well-formedness violations; an empty list means the program is ok."""
    issues: list[str] = []
    loc_set = set(p.locations)
    if p.initial not in loc_set:
        issues.append(f"initial location '{p.initial.name}' not among locations")
    pv_set = set(p.program_vars)
    for v in pv_set:
        if not v.is_program:
            issues.append(f"program variable '{v.name}' declared with kind temporary")
    for g in p.gts:
        total = g.total_probability()
        if total != 1:
            issues.append(f"gt {{{_member_names(g)}}} sums to {total}")
        sources = {t.source for t in g.members}
        if len(sources) != 1:
            issues.append(f"gt {{{_member_names(g)}}} members have differing sources")
        guards = {t.guard for t in g.members}
        if len(guards) != 1:
            issues.append(f"gt {{{_member_names(g)}}} members have differing guards")
        for t in g.members:
            if t.prob <= 0 or t.prob > 1:
                issues.append(f"transition '{t.name}' has probability {t.prob}")
            if t.target == p.initial:
                issues.append(f"transition '{t.name}': target is initial location")
            if t.source not in loc_set:
                issues.append(f"transition '{t.name}': unknown source '{t.source.name}'")
            if t.target not in loc_set:
                issues.append(f"transition '{t.name}': unknown target '{t.target.name}'")
            extra = t.update.assigned() - pv_set
            if extra:
                names = ", ".join(sorted(v.name for v in extra))
                issues.append(f"transition '{t.name}': update assigns unknown variables {names}")
    return issues


def _member_names(g: GeneralTransition) -> str:
    return ",".join(t.name for t in g.members)


def outgoing(p: PIP, location: Location) -> tuple[GeneralTransition, ...]:
    """The general transitions leaving ``location``, in program order."""
    return p._outgoing.get(location, ())


def incoming(p: PIP, location: Location) -> tuple[Transition, ...]:
    """The transitions entering ``location``, in program order."""
    return p._incoming.get(location, ())


def reach(
    p: PIP, gts: Sequence[GeneralTransition] | None = None
) -> dict[Location, set[Location]]:
    """For each location, the locations it reaches through ``gts``, itself
    included; ``gts`` defaults to every general transition of ``p``."""
    succ: dict[Location, set[Location]] = {loc: set() for loc in p.locations}
    for g in p.gts if gts is None else gts:
        succ[g.source].update(t.target for t in g)
    closure: dict[Location, set[Location]] = {}
    for root in p.locations:
        seen, frontier = {root}, [root]
        while frontier:
            new = succ[frontier.pop()] - seen
            seen |= new
            frontier.extend(new)
        closure[root] = seen
    return closure


def location_sccs(p: PIP) -> dict[Location, int]:
    """Strongly connected components of the location graph, read from
    :func:`reach`: two locations share a component when each reaches the
    other.  A component's id is the program-order index of its first
    location."""
    closure = reach(p)
    index = {loc: i for i, loc in enumerate(p.locations)}
    return {
        loc: min(index[o] for o in closure[loc] if loc in closure[o]) for loc in p.locations
    }
