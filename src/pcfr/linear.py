"""Entailment, satisfiability and bounds for conjunctions of linear integer atoms.

Everything is decided over the rational relaxation, which is sound in
the directions the analyses need: a rational ``unsat`` implies there is
no integer model, and rational entailment implies integer entailment.
Integer strength is recovered where it matters by the atom
normalization in :mod:`pcfr.syntax` (strict inequations are shifted by
one before they ever reach this module).

One engine: the Farkas dual, solved by the exact simplex of
:mod:`pcfr.ratlp`.  A premise atom reads ``lin_i . x + c_i <= 0`` (or
``= 0``).  For multipliers ``lam``, nonnegative on inequalities and free
on equalities, with ``sum lam_i lin_i = lin``, every model ``x`` of the
premise satisfies::

    lin . x + c = sum lam_i (lin_i . x + c_i) - sum lam_i c_i + c
                <= c - sum lam_i c_i

so the multipliers prove ``sup (lin . x + c) <= c - sum lam_i c_i``.  The
least such bound is the supremum itself when the premise is
satisfiable (LP duality), and the premise is unsatisfiable exactly when
it proves ``1 <= 0`` (``sum lam_i lin_i = 0``, ``sum lam_i c_i >= 1``).
:func:`farkas_block` encodes these systems; bound synthesis in
:mod:`pcfr.bounds` uses the same encoder with template unknowns in the
conclusion.

A refutation is solved one variable-connected part of the premise at a
time (atoms share a part when a chain of shared variables joins them).
Parts share no variable, so the union of a model of each part is a
model of the premise: the premise is unsatisfiable exactly when one of
its parts is, and multipliers that refute a part refute the premise.
The verdict is therefore the same as for one LP over the whole premise,
and so is every answer built on it.  A part of one atom that mentions a
variable always has a rational model and needs no LP; a premise of one
part is refuted whole.

A supremum, and so an entailment, is solved over the parts that share a
variable with the conclusion.  When the other parts are satisfiable, a
model of the conclusion's parts joins a model of the rest into a model
of the premise, so the two suprema are equal; when they are not, the
premise has no model and no supremum.  So the supremum LP over the
conclusion's parts answers, or None when another part is refuted.  Its
multipliers are checked against the conclusion's parts, and they prove
the bound over the premise too: a checked proof over some of the atoms
is a proof over all of them.  An entailment needs the other parts only
when the conclusion's parts do not entail the atom: the premise then
entails it exactly when some other part is refuted.  A variable of the
conclusion that no premise atom mentions leaves it unbounded, or the
premise unsatisfiable: its Farkas row ``0 = coefficient`` has no
solution, so the supremum is ``None`` without an LP.

Only the verdicts that soundness depends on need a proof: "entailed",
"unsat" and a finite supremum.  Each one is re-checked on the returned
multipliers in plain ``Fraction`` arithmetic, and a failed check raises
``AssertionError``.  The conservative verdicts (not entailed,
satisfiable, unbounded) need none, so a fault in the simplex can only
fail a check, never pass a wrong answer.

:func:`project` needs no LP: it eliminates variables by Gaussian
substitution through equalities and drops the rows of a variable that
has none.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Mapping

from . import ratlp
from .syntax import Atom, Constraint, Polynomial, Variable

LIT = None  # literal key inside linear forms over unknowns (see farkas_block)
_SUP = "sup"  # the unknown bound of a supremum query


class Satisfiability(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# Farkas multipliers


def farkas_block(
    block_id: int,
    premise: Constraint,
    conclusion_vars: Mapping[Variable, dict],
    conclusion_const: Mapping,
    constraints: list[ratlp.LinearConstraint],
) -> None:
    """Encode ``premise |= conclusion <= 0`` as multiplier existence.

    The conclusion's coefficient of each variable, and its constant, are
    linear forms over unknowns (LP keys), with the literal under ``LIT``.
    The multiplier of premise atom ``i`` is ``("lam", block_id, i)``."""
    variables = sorted(set(premise.variables()) | set(conclusion_vars))
    rows = []
    for i, a in enumerate(premise.atoms):
        lin, const = a.expr.linear_form()
        rows.append((i, lin, Fraction(const), a.is_eq))
        if not a.is_eq:
            constraints.append(
                ratlp.LinearConstraint.of({("lam", block_id, i): 1}, ">=", 0)
            )
    for v in variables:
        combo: dict = {}
        for i, lin, _, _ in rows:
            if lin.get(v):
                combo[("lam", block_id, i)] = Fraction(lin[v])
        lit = Fraction(0)
        for key, value in conclusion_vars.get(v, {}).items():
            if key is LIT:
                lit += value
            else:
                combo[key] = combo.get(key, Fraction(0)) - value
        constraints.append(ratlp.LinearConstraint.of(combo, "=", lit))
    combo = {}
    for i, _, const, _ in rows:
        if const:
            combo[("lam", block_id, i)] = const
    lit = Fraction(0)
    for key, value in conclusion_const.items():
        if key is LIT:
            lit += value
        else:
            combo[key] = combo.get(key, Fraction(0)) - value
    constraints.append(ratlp.LinearConstraint.of(combo, ">=", lit))


def _certified_sup(
    premise: Constraint, multipliers: Mapping, lin: Mapping[Variable, int], const: int
) -> Fraction:
    """The bound ``const - sum lam_i c_i`` on ``lin . x + const`` over the
    premise that the multipliers of block 0 prove, after checking them."""
    residual = {v: Fraction(c) for v, c in lin.items()}
    bound = Fraction(const)
    for i, a in enumerate(premise.atoms):
        lam = multipliers.get(("lam", 0, i), Fraction(0))
        if lam < 0 and not a.is_eq:
            raise AssertionError(f"negative Farkas multiplier on inequality {a}")
        a_lin, a_const = a.expr.linear_form()
        for v, c in a_lin.items():
            residual[v] = residual.get(v, Fraction(0)) - lam * c
        bound -= lam * a_const
    if any(residual.values()):
        raise AssertionError(f"Farkas multipliers do not combine {premise} into {lin}")
    return bound


def _sup(premise: Constraint, lin: Mapping[Variable, int], const: int) -> Fraction | None:
    """Certified supremum of ``lin . x + const`` over a linear premise, by
    one Farkas-dual LP over all of its atoms; None when the dual has no
    optimum (the premise is unsatisfiable or the expression is unbounded
    above).  A variable of ``lin`` that no atom mentions makes the dual
    infeasible, so it gets no LP."""
    if not premise.variables().issuperset(lin):
        return None
    constraints: list[ratlp.LinearConstraint] = []
    conclusion_vars = {v: {LIT: Fraction(c)} for v, c in lin.items()}
    farkas_block(0, premise, conclusion_vars, {LIT: Fraction(const), _SUP: -1}, constraints)
    result = ratlp.solve_lp(constraints, {_SUP: 1})
    if result.status != ratlp.OPTIMAL:
        return None
    return _certified_sup(premise, result.assignment, lin, const)


def _parts(atoms: tuple[Atom, ...]) -> list[tuple[frozenset[Variable], list[Atom]]]:
    """The atoms grouped into variable-connected parts, each with its
    variables: two atoms share a part when a chain of atoms, each sharing
    a variable with the next, joins them.  A constant atom is a part of
    its own."""
    parts: list[tuple[frozenset[Variable], list[Atom]]] = []
    for a in atoms:
        variables, joined, apart = a.variables(), [a], []
        for part in parts:
            if variables.isdisjoint(part[0]):
                apart.append(part)
            else:
                variables, joined = variables | part[0], part[1] + joined
        apart.append((variables, joined))
        parts = apart
    return parts


def _split(
    premise: Constraint, lin: Mapping[Variable, int]
) -> tuple[Constraint, Iterator[Constraint]]:
    """The atoms of the premise's parts that share a variable with
    ``lin``, and the other parts that an LP may refute, smallest first
    (built as they are read).

    A premise of one part is left whole.  Of several parts, a part of one
    atom that mentions a variable is left out of the others: it has a
    rational model (its coefficients are not all zero), so no LP refutes
    it."""
    if len(premise.atoms) > 1:
        parts = _parts(premise.atoms)
        if len(parts) > 1:
            parts.sort(key=lambda part: len(part[1]))
            near = [
                a for variables, atoms in parts if not variables.isdisjoint(lin) for a in atoms
            ]
            rest = (
                Constraint(atoms)
                for variables, atoms in parts
                if variables.isdisjoint(lin) and (len(atoms) > 1 or not variables)
            )
            return (premise if len(near) == len(premise.atoms) else Constraint(near)), rest
    return premise, iter(())


def _unsat(premise: Constraint) -> bool:
    """True only if the linear premise is certified unsatisfiable: it
    proves ``1 <= 0``.

    A premise of two or more variable-connected parts is refuted one part
    at a time, smallest first, and the first refuted part answers (see
    :func:`_split`).  Parts share no variable, so a union of models of
    the parts is a model of the premise: the premise is unsatisfiable
    exactly when some part is, and that part's checked refutation
    refutes the premise."""
    near, rest = _split(premise, {})
    return _refuted(near) or any(map(_refuted, rest))


def _refuted(premise: Constraint) -> bool:
    """True only if multipliers over all of the premise's atoms prove
    ``1 <= 0``; they are checked before the verdict is returned."""
    if not premise.atoms:
        return False
    constraints: list[ratlp.LinearConstraint] = []
    farkas_block(0, premise, {}, {LIT: Fraction(1)}, constraints)
    result = ratlp.solve_lp(constraints)
    if result.status != ratlp.OPTIMAL:
        return False
    if _certified_sup(premise, result.assignment, {}, 1) > 0:
        raise AssertionError(f"Farkas multipliers do not refute {premise}")
    return True


# ---------------------------------------------------------------------------
# Queries


def constraint_satisfiability(c: Constraint) -> Satisfiability:
    """Satisfiability of a constraint; UNKNOWN when nonlinear atoms block a verdict.

    Nonlinear atoms are dropped before the check, so ``UNSAT`` (from the
    linear part alone) is still sound; a satisfiable linear part only
    yields ``UNKNOWN`` if nonlinear atoms were dropped.
    """
    if c.has_trivially_false_atom():
        return Satisfiability.UNSAT
    linear_part = Constraint(a for a in c.atoms if a.is_linear())
    if _unsat(linear_part):
        return Satisfiability.UNSAT
    if len(linear_part.atoms) != len(c.atoms):
        return Satisfiability.UNKNOWN
    return Satisfiability.SAT


def expression_sup(premise: Constraint, expr: Polynomial) -> Fraction | None:
    """Exact supremum of a linear expression over a linear constraint.

    ``None`` means there is no finite supremum: the expression is
    unbounded above, or the premise is unsatisfiable.  A finite supremum
    is backed by checked multipliers.

    The LP spans only the parts of the premise that share a variable with
    the expression (see :func:`_split`), and the answer is None if one of
    the other parts is refuted: the parts share no variable, so this is
    the supremum over the whole premise.
    """
    if not premise.is_linear():
        raise ValueError("premise must be linear")
    lin, const = expr.linear_form()
    near, rest = _split(premise, lin)
    upper = _sup(near, lin, const)
    if upper is None or any(map(_refuted, rest)):
        return None
    return upper


def expression_bounds(
    premise: Constraint, expr: Polynomial
) -> tuple[Fraction | None, Fraction | None] | None:
    """Exact (inf, sup) of a linear expression over a linear constraint.

    ``None`` in a slot means unbounded in that direction; an overall
    ``None`` means the premise is unsatisfiable.  Both finite bounds and
    the unsatisfiability verdict are backed by checked multipliers.
    """
    upper = expression_sup(premise, expr)
    if upper is None and _unsat(premise):
        return None
    lower = expression_sup(premise, -expr)
    return (None if lower is None else -lower, upper)


@lru_cache(maxsize=1 << 16)
def entails(premise: Constraint, conclusion: Atom) -> bool:
    """True only if every rational model of the premise satisfies the atom.

    Nonlinear atoms are never entailed and nonlinear premises entail
    nothing (conservative both ways).  An unsatisfiable linear premise
    entails every linear atom.

    The supremum of the atom's expression (and for ``=`` of its negation)
    is solved over the premise's parts that share a variable with it (see
    :func:`_split`).  At most 0, it proves the atom without the other
    parts; above 0, the atom is entailed only if one of the other parts is
    refuted; without a supremum, only if the premise is refuted.
    """
    if conclusion.is_trivially_true():
        return True
    if not conclusion.is_linear() or not premise.is_linear():
        return False
    if conclusion in premise.atoms:
        return True
    lin, const = conclusion.expr.linear_form()
    near, rest = _split(premise, lin)
    upper = _sup(near, lin, const)
    if upper is None:  # unbounded above, or no model at all
        return _unsat(premise)
    if upper <= 0:
        if not conclusion.is_eq:
            return True
        lower = _sup(near, {v: -c for v, c in lin.items()}, -const)  # sup of -expr
        if lower is not None and lower <= 0:
            return True
    return any(map(_refuted, rest))  # entailed only if the rest has no model


# ---------------------------------------------------------------------------
# Projection

_Row = tuple[tuple[int, ...], int, bool]  # coeffs . vars + const <= 0 (= 0 when eq)


def _clean(rows: Iterable[_Row]) -> list[_Row] | None:
    """Normalize to primitive integer rows with a canonical equality sign,
    deduplicate, equalities first; None when a constant contradiction
    appears."""
    kept: set[_Row] = set()
    for coeffs, const, is_eq in rows:
        g = gcd(*coeffs, const)
        if g > 1:
            coeffs, const = tuple(c // g for c in coeffs), const // g
        if not any(coeffs):
            if const != 0 if is_eq else const > 0:
                return None
            continue
        if is_eq and next(c for c in coeffs if c) < 0:
            coeffs, const = tuple(-c for c in coeffs), -const
        kept.add((coeffs, const, is_eq))
    return sorted(kept, key=lambda row: (not row[2], row[0], row[1]))


def _substitute(row: _Row, eq: _Row, idx: int) -> _Row:
    """``row`` with variable ``idx`` eliminated through equality ``eq``,
    scaled by the positive ``|eq[idx]|``."""
    coeffs, const, is_eq = row
    factor = coeffs[idx]
    if not factor:
        return row
    pivot = eq[0][idx]
    scale, factor = abs(pivot), factor if pivot > 0 else -factor
    return (
        tuple(scale * c - factor * e for c, e in zip(coeffs, eq[0])),
        scale * const - factor * eq[1],
        is_eq,
    )


def project(c: Constraint, keep: Iterable[Variable]) -> list[Atom] | None:
    """Project a linear constraint onto a variable subset; None if nonlinear.

    The other variables are eliminated in turn: by Gaussian substitution
    through an equality that mentions the variable, and otherwise by
    dropping the rows that mention it.  The result is the exact rational
    shadow of ``c`` when ``c`` has at most one inequality, as the
    single-atom post-images of :func:`pcfr.invariants.post_image_atoms`
    do; otherwise it may be weaker.  Over the integers it is an
    over-approximation either way, which is the sound direction for
    invariant seeds.
    """
    if not c.is_linear():
        return None
    variables = tuple(sorted(c.variables()))
    rows = []
    for a in c.atoms:
        lin, const = a.expr.linear_form()
        rows.append((tuple(lin.get(v, 0) for v in variables), const, a.is_eq))
    keep_set = frozenset(keep)
    current = _clean(rows)
    for idx, v in enumerate(variables):
        if current is None:
            break
        if v in keep_set or not any(r[0][idx] for r in current):
            continue
        eq = next((r for r in current if r[2] and r[0][idx]), None)
        if eq is None:
            current = _clean(r for r in current if not r[0][idx])
        else:
            current = _clean(_substitute(r, eq, idx) for r in current if r is not eq)
    if current is None:
        return [Atom(1, "<=", 0)]
    out = []
    for coeffs, const, is_eq in current:
        poly = Polynomial.const(const)
        for v, coeff in zip(variables, coeffs):
            poly = poly + coeff * Polynomial.var(v)
        out.append(Atom(poly, "=" if is_eq else "<=", 0))
    return out
