"""Reference invariant inference for ``pcfr.invariants``: no shortcuts.

These are the original bodies of :func:`infer_full_universe` and
:func:`post_image_atoms`, and of :func:`atom_universe`, which calls the
reference :func:`post_image_atoms`.  Every incoming transition builds
its premise and asks :func:`pcfr.linear.entails` about the substituted
image of every atom, and every post-image is a projection, also under
the identity update.  ``pcfr.invariants`` answers the frame queries by
membership and returns a linear atom's identity post-image as the atom
itself, so on every input the two must give identical invariant maps
and atom universes.  Tests only; the bodies are kept as they were, and
they share the result type of ``pcfr.invariants``.

:func:`infer_full_universe` starts every location but the initial one
from the whole universe.  :func:`infer` runs the same fixpoint from the
starting sets of ``pcfr.invariants``: the whole universe only where the
initial location cannot reach, elsewhere the atoms that mention no
variable or a variable read after the location.  Its reachability and
read sets are computed here, by a search from each location.
"""

from __future__ import annotations

from pcfr.invariants import InvariantMap
from pcfr.linear import entails, project
from pcfr.model import PIP, Location, Transition, incoming
from pcfr.syntax import Atom, Constraint, Polynomial, Update, Variable


def post_image_atoms(atom_in: Atom, update: Update, program_vars) -> list[Atom]:
    """Strongest linear post-state of one atom under an update."""
    if not atom_in.is_linear():
        return []
    primed = {v: Variable(f"{v.name}__post", v.kind) for v in program_vars}
    atoms = [atom_in]
    for v in program_vars:
        image = update.image_of(v)
        if not image.is_linear():
            return []
        atoms.append(Atom(Polynomial.var(primed[v]), "=", image))
    shadow = project(Constraint(atoms), primed.values())
    if shadow is None:
        return []
    back = {primed[v]: Polynomial.var(v) for v in program_vars}
    return [a.substitute(back) for a in shadow]


def atom_universe(p: PIP) -> frozenset[Atom]:
    """Guard atoms over program variables plus their one-step post-images."""
    pv_set = set(p.program_vars)
    seeds: set[Atom] = set()
    for t in p.transitions:
        for a in t.guard.atoms:
            if a.is_linear() and a.variables() <= pv_set:
                seeds.add(a)
    universe = set(seeds)
    for t in p.transitions:
        for a in t.guard.atoms:
            if not (a.is_linear() and a.variables() <= pv_set):
                continue
            for image in post_image_atoms(a, t.update, p.program_vars):
                if image.is_trivially_true():
                    continue
                if image.variables() <= pv_set:
                    universe.add(image)
    return frozenset(universe)


def _reached_from(p: PIP, root: Location) -> set[Location]:
    seen, frontier = {root}, [root]
    while frontier:
        loc = frontier.pop()
        for t in p.transitions:
            if t.source == loc and t.target not in seen:
                seen.add(t.target)
                frontier.append(t.target)
    return seen


def infer(p: PIP, universe: frozenset[Atom] | None = None) -> InvariantMap:
    """Greatest fixpoint of provable universe atoms, every reachable
    location starting from the atoms over the variables read after it."""
    if universe is None:
        universe = atom_universe(p)
    reachable = _reached_from(p, p.initial)
    start: dict[Location, set[Atom]] = {}
    for loc in p.locations:
        if loc == p.initial:
            start[loc] = set()
            continue
        if loc not in reachable:
            start[loc] = set(universe)
            continue
        after = _reached_from(p, loc)
        read = set()
        for t in p.transitions:
            if t.source in after:
                read |= t.guard.variables() | t.update.variables_used()
        start[loc] = {a for a in universe if not a.variables() or a.variables() & read}
    return _greatest_fixpoint(p, start)


def infer_full_universe(p: PIP, universe: frozenset[Atom] | None = None) -> InvariantMap:
    """Greatest fixpoint of provable universe atoms at every location."""
    if universe is None:
        universe = atom_universe(p)
    current: dict[Location, set[Atom]] = {
        loc: (set() if loc == p.initial else set(universe)) for loc in p.locations
    }
    return _greatest_fixpoint(p, current)


def _greatest_fixpoint(p: PIP, current: dict[Location, set[Atom]]) -> InvariantMap:
    incoming_index: dict[Location, tuple[Transition, ...]] = {
        loc: incoming(p, loc) for loc in p.locations
    }
    changed = True
    while changed:
        changed = False
        for loc in p.locations:
            if loc == p.initial or not current[loc]:
                continue
            for t in incoming_index[loc]:
                premise = Constraint(
                    tuple(current[t.source]) + t.guard.atoms
                )
                kept = {
                    psi
                    for psi in current[loc]
                    if entails(premise, t.update.apply_to_atom(psi))
                }
                if kept != current[loc]:
                    current[loc] = kept
                    changed = True
    return InvariantMap({loc: Constraint(atoms) for loc, atoms in current.items()})
