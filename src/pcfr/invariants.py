"""Per-location invariants by forward propagation over a finite atom universe.

The abstract domain is conjunctions of atoms drawn from a fixed finite
universe (guard atoms plus their post-states under the owning
transition's update).  Inference runs a greatest-fixpoint iteration:
every location starts from a set of universe atoms and an atom is
dropped as soon as some incoming transition cannot prove it.  The join
is atom-set intersection.  The starting sets are:

* the initial location starts empty and stays ``true``;
* a location that the initial one cannot reach in the location graph
  starts from the full (typically contradictory) universe, which is
  exactly what unreachable-location pruning wants;
* every other location starts from the universe atoms that mention no
  variable, or some variable that is *live* there: read, in a guard or
  in an update's images, by a general transition leaving the location
  or a location it reaches.  The live set is a union over the
  location's reach set (:func:`pcfr.model.reach`), the same sets that
  say which locations the initial one reaches.  An atom that joins a
  dead and a live variable is kept.

The greatest fixpoint below any starting set is inductive, so the
invariants are sound whichever subset of the universe a location starts
from; the live start leaves out atoms about values no later step reads.

One query serves inference and refinement: :func:`provable_after`
returns the candidate atoms ``psi`` that ``source and guard`` prove
after the update, ``source and guard |= psi∘update``.  Inference asks
it with a source invariant and the universe atoms still held at the
target; :func:`pcfr.abstraction.label` asks it with a source label and
the target's abstraction layer.  The shortcuts below skip work whose
answer is already known; each returns exactly what the full computation
returns, so invariants, labels and atom universes are unchanged.

*Frame queries.*  When the update assigns none of ``psi``'s variables,
the image ``psi∘update`` is ``psi`` itself (the substitution rebuilds
the same canonical atom), so no substitution is made.  If ``psi`` is
moreover one of the source atoms or a guard atom, it is kept without
building the premise or calling :func:`pcfr.linear.entails`:
``entails`` answers True for a conclusion that is an atom of a linear
premise.  The premise must be linear for that, because ``entails``
answers False on any nonlinear premise even when the conclusion is one
of its atoms; so the rule applies only when the guard and every source
atom are linear.  A trivially true ``psi`` is entailed by every premise
and is dropped from the premise, so it needs no separate case.  Every
other query still goes to ``entails``, with the premise built once per
call and only when some atom needs it.

*Frame variables in post-images.*  :func:`post_image_atoms` writes the
equality ``v__post = image(v)`` only for the variables the atom or the
update touch: the atom's variables, the assigned ones and those their
images read.  Any other program variable ``w`` would add just the row
``w__post = w``, the only row that mentions ``w``, so the projection
eliminates ``w`` through that row and drops the row with it, leaving
every other row as it was; ``w__post`` is then unconstrained, as it is
when the row is never written.  The columns of ``w`` and ``w__post``
are zero in every other row, so neither the canonical order of those
rows nor the elimination of the other variables sees them, and the
image is the same list of atoms.  Every assigned image is still checked
for nonlinearity.  Under the identity update only the atom's variables
get an equality, ``v__post = v``, so the projection eliminates each old
variable through it and returns the atom with every variable primed,
which renames back to the atom.  That atom is returned as it is, with
no projection, for a linear, non-constant atom over program variables.
A constant atom is not: the projection drops a trivially true one and
turns a false equality into ``1 <= 0``.  Neither is an atom over a
temporary, whose rows the projection drops.  Only the identity update
qualifies: an update that assigns some other variable adds that
variable's equality to the post-state, so ``0 <= b`` under
``a := b + 1`` gives ``a = b + 1`` and ``0 <= b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

from .linear import entails, project
from .model import PIP, Location, incoming, reach
from .syntax import TRUE, Atom, Constraint, Polynomial, Update, Variable


@dataclass(frozen=True)
class InvariantMap:
    inv: dict[Location, Constraint]

    def of(self, location: Location) -> Constraint:
        return self.inv.get(location, TRUE)


def post_image_atoms(atom_in: Atom, update: Update, program_vars) -> list[Atom]:
    """Strongest linear post-state of one atom under an update.

    Encodes ``atom(old) and new_v = eta_v(old)`` and projects onto the
    new variables.  Temporaries in update images are projected away.
    Returns [] when anything goes nonlinear.  Only the variables the
    atom or the update touch get an equality, and under the identity
    update a linear, non-constant atom over program variables is its own
    image (see the module docstring).
    """
    if not atom_in.is_linear():
        return []
    if update.is_identity():
        variables = atom_in.variables()
        if variables and variables <= set(program_vars):
            return [atom_in]
    assigned = update.assigned()
    if not all(update.image_of(v).is_linear() for v in assigned):
        return []
    touched = atom_in.variables() | assigned | update.variables_used()
    primed = {
        v: Variable(f"{v.name}__post", v.kind) for v in program_vars if v in touched
    }
    atoms = [atom_in]
    for v, post in primed.items():
        atoms.append(Atom(Polynomial.var(post), "=", update.image_of(v)))
    shadow = project(Constraint(atoms), primed.values())
    back = {post: Polynomial.var(v) for v, post in primed.items()}
    return [a.substitute(back) for a in shadow]


def atom_universe(p: PIP) -> frozenset[Atom]:
    """Guard atoms over program variables plus their one-step post-images.

    An image is the guard atom itself, a projected row over program
    variables or ``1 <= 0``, so none is trivially true and all are kept."""
    pv_set = set(p.program_vars)
    universe: set[Atom] = set()
    for t in p.transitions:
        for a in t.guard.atoms:
            if a.is_linear() and a.variables() <= pv_set:
                universe.add(a)
                universe.update(post_image_atoms(a, t.update, p.program_vars))
    return frozenset(universe)


def provable_after(
    source_atoms: Collection[Atom], guard: Constraint, update: Update,
    candidates: Iterable[Atom],
) -> set[Atom]:
    """The candidates ``psi`` with ``source and guard |= psi∘update``,
    frame queries answered as the module docstring says."""
    assigned = update.assigned()
    linear = guard.is_linear() and all(a.is_linear() for a in source_atoms)
    premise, kept = None, set()
    for psi in candidates:
        if psi.variables().isdisjoint(assigned):
            if linear and (psi in source_atoms or psi in guard):
                kept.add(psi)
                continue
            image = psi
        else:
            image = update.apply_to_atom(psi)
        if premise is None:
            premise = Constraint(tuple(source_atoms) + guard.atoms)
        if entails(premise, image):
            kept.add(psi)
    return kept


def _live_variables(
    p: PIP, closure: dict[Location, set[Location]]
) -> dict[Location, set[Variable]]:
    """The variables read, in a guard or in an update's images, by a
    general transition leaving some location in each location's reach set
    ``closure`` (:func:`pcfr.model.reach`), the location itself included."""
    reads: dict[Location, set[Variable]] = {loc: set() for loc in p.locations}
    for g in p.gts:
        reads[g.source] |= g.guard.variables()
        for t in g.members:
            reads[g.source] |= t.update.variables_used()
    return {loc: set().union(*(reads[o] for o in closure[loc])) for loc in p.locations}


def infer(p: PIP) -> InvariantMap:
    """Greatest fixpoint of provable universe atoms at every location,
    from the starting sets of the module docstring."""
    universe = atom_universe(p)
    closure = reach(p)
    reachable = closure[p.initial]
    live = _live_variables(p, closure)
    current: dict[Location, set[Atom]] = {}
    for loc in p.locations:
        if loc == p.initial:
            current[loc] = set()
        elif loc not in reachable:
            current[loc] = set(universe)
        else:
            current[loc] = {
                a for a in universe if not a.variables() or a.variables() & live[loc]
            }
    changed = True
    while changed:
        changed = False
        for loc in p.locations:
            if loc == p.initial or not current[loc]:
                continue
            for t in incoming(p, loc):
                kept = provable_after(current[t.source], t.guard, t.update, current[loc])
                if kept != current[loc]:
                    current[loc] = kept
                    changed = True
    return InvariantMap({loc: Constraint(atoms) for loc, atoms in current.items()})
