"""Abstraction layers: the finite per-location atom sets that labels are
drawn from during refinement, plus the label computation itself.

The layer heuristic collects the guard atoms of the refinement-set
transitions at their source location and propagates them one step
backwards along refinement-set edges.  Only atoms over program
variables qualify.  Callers may union extra atoms in or pin a
location's layer to an exact list.

A label is the part of the target's layer that the transition proves,
which is the question invariant inference asks of its atom universe;
both ask it through :func:`pcfr.invariants.provable_after`, whose
docstring argues the frame rule that answers some queries without
:func:`pcfr.linear.entails`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .invariants import provable_after
from .linear import entails  # noqa: F401  unused here; perfbench/spans.py wraps this name
from .model import PIP, Location, Transition
from .syntax import Atom, Constraint, Update


@dataclass(frozen=True)
class AbstractionLayer:
    layers: dict[Location, frozenset[Atom]] = field(default_factory=dict)

    def of(self, location: Location) -> frozenset[Atom]:
        return self.layers.get(location, frozenset())


def _program_atoms(guard: Constraint, p: PIP) -> set[Atom]:
    pv_set = set(p.program_vars)
    return {a for a in guard.atoms if a.variables() <= pv_set}


def heuristic_layers(
    p: PIP,
    s: Iterable[Transition],
    extra: Mapping[Location, Iterable[Atom]] | None = None,
    pinned: Mapping[Location, Iterable[Atom]] | None = None,
    split_equalities: bool = False,
) -> AbstractionLayer:
    """Guard atoms of S-transitions at their source, propagated one step.

    ``extra`` atoms are unioned in; ``pinned`` replaces a location's
    layer outright.  ``split_equalities`` turns each equality atom into
    the two bounding inequalities instead.
    """
    s = tuple(s)
    source_atoms: dict[Location, set[Atom]] = {loc: set() for loc in p.locations}
    for t in s:
        source_atoms[t.source] |= _program_atoms(t.guard, p)
    layers: dict[Location, set[Atom]] = {
        loc: set(atoms) for loc, atoms in source_atoms.items()
    }
    for t in s:
        layers[t.target] |= source_atoms[t.source]
    if extra:
        for loc, atoms in extra.items():
            layers[loc] |= set(atoms)
    if pinned:
        for loc, atoms in pinned.items():
            layers[loc] = set(atoms)
    if split_equalities:
        for loc, atoms in layers.items():
            split: set[Atom] = set()
            for a in atoms:
                if a.is_eq:
                    split.add(Atom(a.expr, "<=", 0))
                    split.add(Atom(a.expr, ">=", 0))
                else:
                    split.add(a)
            layers[loc] = split
    return AbstractionLayer({loc: frozenset(atoms) for loc, atoms in layers.items()})


def label(
    tau: Constraint, phi: Constraint, eta: Update, layer: Iterable[Atom]
) -> Constraint:
    """The strongest layer subset provable after taking the transition:
    atoms psi with ``tau and phi |= psi∘eta``."""
    return Constraint(provable_after(tau.atoms, phi, eta, layer))
