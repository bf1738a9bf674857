"""Expected-runtime bounds via probabilistic linear ranking functions.

A ranking function assigns every location a constant or affine value
over the program variables such that, under the location invariant and
guard, (i) every target general transition decreases the value by at
least one in expectation, (ii) no other general transition increases it
in expectation, (iii) the value is nonnegative wherever a target is
enabled, and (iv) stays nonnegative right after a target fires.  Then
``max(0, value at the initial location)`` bounds the expected number of
target firings, and summing one such certificate per cover entry bounds
the whole program's expected runtime.

Each condition reads ``premise |= conclusion <= 0``, where the premise
is the linear part of the source invariant and the guard.  One compiler
turns the conditions into LP rows for either kind of template
(:meth:`_ConditionTable.rows`).  It composes each conclusion from the
template values at the locations it reads, after their updates, as
linear forms over the template unknowns.  Composition, here and in the
re-check, reads only the images an update assigns: a variable the
update leaves alone keeps its coefficient, which is what its identity
image would give.  An affine conclusion becomes the existence of
Farkas multipliers over the premise rows
(:func:`pcfr.linear.farkas_block`), and the exact rational simplex
solves the resulting system.  That system has no refutation disjunct:
it asks the multipliers to combine the premise into the conclusion even
when the premise has no model.  So the conditions of a premise
certified unsatisfiable, which entails every conclusion, are dropped
instead.

A constant template is the case without a variable part.  No update
changes a constant, so each conclusion ``c`` is a linear form in the
location constants alone, constant over the program variables, and no
update image is read.  By the affine Farkas lemma, ``premise |= c <=
0`` then holds exactly when the premise is unsatisfiable or ``c <= 0``:
a satisfiable premise has a (rational) model, where ``c <= 0`` must
hold, and ``c <= 0`` holds under any premise.  Each condition is
therefore the one row ``c <= 0``, or no row when the premise is
certified unsatisfiable.  That is the projection of the multiplier
system onto the location constants, so the feasible constants, and the
LP optimum over them, are those of the Farkas encoding.

The canonical certificate is a solution of least total magnitude
``sum |k|`` over the template values ``k``; a constant template first
minimises the initial value, and ranks by magnitude only among the
solutions that keep it least.  :func:`pcfr.ratlp.solve_lp` picks that
vertex, tie-breaks included (see :mod:`pcfr.ratlp`).  When the initial
value is unbounded below, synthesis pins the largest feasible value up
to zero and minimises the magnitude alone.  A wrong vertex could only
print another optimal certificate, never an unsound one:
:func:`verify_plrf` re-checks every condition of the certificate below.

Synthesis and verification share one condition table per public call
(:class:`_ConditionTable`).  Per general transition it holds the
premise, built once, and its unsatisfiability verdict, computed on
first use, which only synthesis reads.  Per (general transition, target
or not, template kind) it holds the compiled rows of its conditions,
encoded once from template forms composed once per (location, update,
template kind); each Farkas block has a block id that no other block of
the table has.  Each cover group's affine LP is the blocks of its
general transitions as they are: it takes each general transition once,
so no two of its blocks share a multiplier.  The simplex lays out its
columns in order of first occurrence, so the names of the multipliers
do not change its run.  The table also holds verification's own
unsatisfiability verdict per premise, which every condition of a
general transition shares.  It is made on entry to the outermost of
:func:`bound_program`, :func:`find_constant_plrf`,
:func:`find_linear_plrf` and :func:`verify_plrf`, shared by the calls
nested in it on the same program and invariants, and dropped when that
call returns, so nothing, compiled rows included, is cached from one
call to the next.

Every certificate is re-verified condition by condition by
:func:`verify_plrf`, which reads only the supremum of each condition's
composed expression over its premise.  A condition holds when that
supremum is at most 0, or when the premise is unsatisfiable.  A
composed expression that is a constant ``c`` needs no supremum: the
condition holds exactly when ``c <= 0`` in exact arithmetic or the
premise is unsatisfiable, by the same Farkas argument as for constant
templates above.  Otherwise the supremum comes from
:func:`pcfr.linear.expression_sup`, and is used only when it is finite.
Each finite supremum and each unsatisfiability verdict rests on its own
multipliers, checked in plain arithmetic, and the re-check certifies
unsatisfiability at most once per premise, only when a condition needs
it.  That re-check trusts neither the multipliers, nor the template
values, nor the unsatisfiability verdicts synthesis used, so a fault in
the simplex can only reject a certificate.  Non-increase conditions
whose composed value would mention a temporary variable (the value of
the target location depends on a variable the transition overwrites
with scheduler input) cannot be encoded as affine facts; they are
skipped during synthesis, re-checked against the solved certificate,
and poison bound composition if they remain unproven.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import gcd
from typing import Iterable, Mapping, Sequence

from . import ratlp
from .invariants import InvariantMap, infer
from .linear import (
    LIT,
    Satisfiability,
    constraint_satisfiability,
    expression_bounds,  # noqa: F401  unused here; perfbench/spans.py wraps this name
    expression_sup,
    farkas_block,
)
from .model import PIP, GeneralTransition, Location, location_sccs
from .syntax import Atom, Constraint, Polynomial, Update, Variable


class UnsupportedProgram(ValueError):
    """Raised when a construct cannot be encoded (nonlinear update or guard)."""


class CoverError(ValueError):
    """The cover is not a partition of the general transitions."""


class TaintedCertificateError(ValueError):
    """A cover entry's ranking function has unproven non-increase conditions."""


@dataclass(frozen=True, slots=True)
class AffineExpr:
    """Affine expression with rational coefficients over variables."""

    coeffs: tuple[tuple[Variable, Fraction], ...]
    const: Fraction

    @staticmethod
    def make(coeffs: Mapping[Variable, Fraction | int], const: Fraction | int = 0):
        cleaned = tuple(
            sorted(
                ((v, Fraction(c)) for v, c in coeffs.items() if c),
                key=lambda vc: vc[0].name,
            )
        )
        return AffineExpr(cleaned, Fraction(const))

    @staticmethod
    def constant(value: Fraction | int) -> "AffineExpr":
        return AffineExpr((), Fraction(value))

    def variables(self) -> frozenset[Variable]:
        return frozenset(v for v, _ in self.coeffs)

    def evaluate(self, state: Mapping[Variable, int]) -> Fraction:
        return self.const + sum(
            (c * state[v] for v, c in self.coeffs), Fraction(0)
        )

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs:
            coeffs[v] = coeffs.get(v, Fraction(0)) + c
        return AffineExpr.make(coeffs, self.const + other.const)

    def scaled_integer_poly(self) -> Polynomial:
        """The expression times the LCD of its coefficients, as an integer
        polynomial (same sign everywhere)."""
        lcd = self.const.denominator
        for _, c in self.coeffs:
            lcd = lcd * c.denominator // gcd(lcd, c.denominator)
        poly = Polynomial.const(int(self.const * lcd))
        for v, c in self.coeffs:
            poly = poly + int(c * lcd) * Polynomial.var(v)
        return poly

    def render(self) -> str:
        parts: list[str] = []
        if self.const or not self.coeffs:
            parts.append(str(self.const))
        for v, c in self.coeffs:
            if c < 0:
                sign, mag = "-", -c
            else:
                sign, mag = "+", c
            body = v.name if mag == 1 else f"{mag}*{v.name}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True, slots=True)
class PLRF:
    """A verified probabilistic linear ranking function."""

    values: dict[Location, AffineExpr]
    targets: frozenset[str]
    kind: str  # "constant" | "linear"
    taints: dict[str, str] = field(default_factory=dict)

    def of(self, location: Location) -> AffineExpr:
        return self.values.get(location, AffineExpr.constant(0))

    def render(self) -> str:
        inner = ", ".join(
            f"{loc.display()} -> {expr}" for loc, expr in sorted(
                self.values.items(), key=lambda kv: kv[0].name
            )
        )
        return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Condition plumbing shared by synthesis and verification


class _ConditionTable:
    """What the ranking conditions of one call on ``(p, inv)`` share (see
    the module docstring): premises and synthesis's unsatisfiability
    verdicts per general transition; per (general transition, target or
    not) the LP rows of its conditions for constant or affine templates
    from the one compiler :meth:`rows`, with the composed template forms
    they are built from; and verification's own unsatisfiability
    verdicts per premise."""

    def __init__(self, p: PIP, inv: InvariantMap):
        self.p, self.inv = p, inv
        self._premises: dict[str, tuple[Constraint, Atom | None]] = {}
        self._unsat: dict[str, bool] = {}
        self._rows: dict[tuple[str, bool, bool], list[ratlp.LinearConstraint]] = {}
        self._block_ids = count()
        self._forms: dict[tuple[Location, Update | None, bool], tuple[dict, dict]] = {}
        self._refuted: dict[Constraint, bool] = {}

    def premise(self, g: GeneralTransition, strict: bool) -> Constraint:
        """The linear atoms of the source invariant and the guard; a
        nonlinear atom is dropped, or raises UnsupportedProgram if strict."""
        entry = self._premises.get(g.name)
        if entry is None:
            atoms = (self.inv.of(g.source) & g.guard).atoms
            linear = Constraint(a for a in atoms if a.is_linear())
            nonlinear = next((a for a in atoms if not a.is_linear()), None)
            entry = self._premises[g.name] = (linear, nonlinear)
        premise, nonlinear = entry
        if strict and nonlinear is not None:
            raise UnsupportedProgram(
                f"nonlinear guard or invariant atom on '{g.name}': {nonlinear}"
            )
        return premise

    def unsat(self, g: GeneralTransition) -> bool:
        """True only if the premise of ``g`` is certified unsatisfiable;
        read by synthesis alone."""
        verdict = self._unsat.get(g.name)
        if verdict is None:
            premise = self.premise(g, strict=False)
            verdict = constraint_satisfiability(premise) is Satisfiability.UNSAT
            self._unsat[g.name] = verdict
        return verdict

    def rows(
        self, g: GeneralTransition, is_target: bool, linear: bool
    ) -> list[ratlp.LinearConstraint]:
        """The LP rows of every condition of ``g`` over constant templates,
        or affine ones if ``linear``, or none when the premise is certified
        unsatisfiable.  A constant conclusion is its one row, unless it
        holds whatever the constants; an affine one is its Farkas block,
        under a block id no other block of this table has.  Raises
        UnsupportedProgram, for affine templates only, on a nonlinear
        premise or update image."""
        key = (g.name, is_target, linear)
        rows = self._rows.get(key)
        if rows is not None:
            return rows
        premise = self.premise(g, strict=True) if linear else None
        conclusions = []
        for tag, combination in _gt_conditions(g, is_target):
            conclusion_vars: dict[Variable, dict] = {}
            conclusion_const: dict = {
                LIT: Fraction(1) if tag == "decrease" else Fraction(0)
            }
            for factor, location, update in combination:
                var_forms, const_form = self._composed(location, update, linear)
                _form_add(conclusion_const, const_form, factor)
                for v, form in var_forms.items():
                    _form_add(conclusion_vars.setdefault(v, {}), form, factor)
            conclusions.append((conclusion_vars, conclusion_const))
        # An unsatisfiable premise entails every conclusion.  Its templates
        # are still composed above, so that a nonlinear update is reported
        # here and not by the re-check.
        rows = []
        if not linear:
            # premise |= c <= 0 for a constant c holds iff the premise is
            # unsatisfiable or c <= 0 (see the module docstring)
            for _, const in conclusions:
                lit = const.pop(LIT)
                row = ratlp.LinearConstraint.of(const, "<=", -lit)
                if row.coeffs or row.rhs < 0:
                    rows.append(row)
            if rows and self.unsat(g):
                rows = []
        elif not self.unsat(g):
            for conclusion_vars, conclusion_const in conclusions:
                farkas_block(
                    next(self._block_ids), premise, conclusion_vars, conclusion_const, rows
                )
        self._rows[key] = rows
        return rows

    def _composed(
        self, location: Location, update: Update | None, linear: bool
    ) -> tuple[dict, dict]:
        """:func:`_composed_template`, once per (location, update, template
        kind); a constant template has no variables."""
        key = (location, update, linear)
        forms = self._forms.get(key)
        if forms is None:
            forms = self._forms[key] = _composed_template(
                location, update, self.p.program_vars if linear else ()
            )
        return forms

    def refuted(self, premise: Constraint) -> bool:
        """Verification's own verdict: True only if the premise is
        certified unsatisfiable, decided once per premise."""
        verdict = self._refuted.get(premise)
        if verdict is None:
            verdict = constraint_satisfiability(premise) is Satisfiability.UNSAT
            self._refuted[premise] = verdict
        return verdict


# The table of the public call in progress.  A context variable, not a
# parameter, keeps the public signatures as they are, and each nested call
# still goes through its module-level name.
_ACTIVE_TABLE: ContextVar[_ConditionTable | None] = ContextVar(
    "pcfr_bounds_condition_table", default=None
)


@contextmanager
def _condition_table(p: PIP, inv: InvariantMap):
    """The table of the enclosing public call if that call is on the same
    ``(p, inv)``; otherwise a new one, dropped when this call returns."""
    table = _ACTIVE_TABLE.get()
    if table is not None and table.p is p and table.inv is inv:
        yield table
        return
    table = _ConditionTable(p, inv)
    token = _ACTIVE_TABLE.set(table)
    try:
        yield table
    finally:
        _ACTIVE_TABLE.reset(token)


def _gt_conditions(
    g: GeneralTransition, is_target: bool
) -> list[tuple[str, list[tuple[Fraction, Location, Update | None]]]]:
    """Conditions for one general transition as (tag, combination) entries,
    all over the transition's premise; a combination sums ``factor *
    f(location) (after update)`` terms, with ``None`` update meaning the
    bare source value, and must prove ``combination + (1 if decrease) <=
    0`` under the premise."""
    out = []
    if is_target:
        decrease = [(t.prob, t.target, t.update) for t in g.members]
        decrease.append((Fraction(-1), g.source, None))
        out.append(("decrease", decrease))
        out.append(("bounded", [(Fraction(-1), g.source, None)]))
        for t in g.members:
            out.append((f"post:{t.name}", [(Fraction(-1), t.target, t.update)]))
    else:
        non_increase = [(t.prob, t.target, t.update) for t in g.members]
        non_increase.append((Fraction(-1), g.source, None))
        out.append(("non-increase", non_increase))
    return out


def _condition_expr(
    values: Mapping[Location, AffineExpr],
    tag: str,
    combination: Sequence[tuple[Fraction, Location, Update | None]],
) -> AffineExpr:
    """The condition's composed expression, ``sum factor * value(location)
    (after update) + (1 if decrease)``, accumulated in one pass.

    Raises UnsupportedProgram when an update image the value reads is
    nonlinear.  The result may mention temporary variables."""
    coeffs: dict[Variable, Fraction] = {}
    const = Fraction(1) if tag == "decrease" else Fraction(0)
    for factor, location, update in combination:
        value = values[location]
        const += factor * value.const
        for v, c in value.coeffs:
            c *= factor
            image = update.assigned_image(v) if update is not None else None
            if image is None:
                coeffs[v] = coeffs.get(v, 0) + c
                continue
            if not image.is_linear():
                raise UnsupportedProgram(f"nonlinear update image for '{v.name}'")
            lin, b = image.linear_form()
            const += c * b
            for w, a in lin.items():
                coeffs[w] = coeffs.get(w, 0) + c * a
    return AffineExpr.make(coeffs, const)


def _update_temporaries(p: PIP, g: GeneralTransition) -> list[str]:
    pv_set = set(p.program_vars)
    return sorted(
        {
            v.name
            for t in g.members
            for v in t.update.variables_used()
            if v not in pv_set
        }
    )


def verify_plrf(
    p: PIP, inv: InvariantMap, plrf: PLRF
) -> tuple[list[str], dict[str, str]]:
    """Re-check all ranking conditions of a certificate.

    Returns (hard failures, taints).  A taint is a non-increase
    condition that cannot be established because the transition feeds
    scheduler-chosen temporaries into variables the ranking value reads;
    such certificates exist but cannot be charged at composition.  The
    check is independent of synthesis: a condition holds only on an
    exact constant ``c <= 0``, a supremum at most 0 that its own checked
    multipliers prove, or the premise's unsatisfiability, certified by
    the re-check itself (see the module docstring).  It reads the
    condition table's premises and its own unsatisfiability verdicts,
    never synthesis's.
    """
    failures: list[str] = []
    taints: dict[str, str] = {}
    with _condition_table(p, inv) as table:
        for g in p.gts:
            premise = table.premise(g, strict=False)
            for tag, combination in _gt_conditions(g, g.name in plrf.targets):
                try:
                    expr = _condition_expr(plrf.values, tag, combination)
                except UnsupportedProgram as exc:
                    failures.append(f"{g.name}/{tag}: {exc}")
                    continue
                if expr.coeffs:
                    sup = expression_sup(premise, expr.scaled_integer_poly())
                    holds = sup <= 0 if sup is not None else table.refuted(premise)
                else:
                    holds = expr.const <= 0 or table.refuted(premise)
                if holds:
                    continue
                update_temps = _update_temporaries(p, g)
                if tag == "non-increase" and update_temps:
                    taints[g.name] = (
                        f"'{g.name}' assigns temporary variable(s) "
                        f"{', '.join(update_temps)}, so non-increase of the "
                        "ranking value cannot be established"
                    )
                else:
                    failures.append(f"condition {tag} fails for '{g.name}'")
    return failures, taints


# ---------------------------------------------------------------------------
# Synthesis


def _form_add(dst: dict, src: dict, factor: Fraction) -> None:
    for key, value in src.items():
        term = factor * value
        dst[key] = dst[key] + term if key in dst else term


def _composed_template(
    location: Location, update: Update | None, variables: Sequence[Variable]
) -> tuple[dict[Variable, dict], dict]:
    """The template value over ``variables`` (none for a constant
    template) at a location, after the update: the coefficient of each
    variable and the constant, as linear forms over the template
    unknowns.  A variable the update leaves alone passes its coefficient
    through; only the images the update assigns are read."""
    var_forms: dict[Variable, dict] = {}
    const_form = {("c", location.name): Fraction(1)}
    for v in variables:
        key = ("a", location.name, v.name)
        image = update.assigned_image(v) if update is not None else None
        if image is None:
            var_forms.setdefault(v, {})[key] = Fraction(1)
            continue
        if not image.is_linear():
            raise UnsupportedProgram(f"nonlinear update image for '{v.name}'")
        lin, b = image.linear_form()
        if b:
            const_form[key] = Fraction(b)
        for w, a in lin.items():
            var_forms.setdefault(w, {})[key] = Fraction(a)
    return var_forms, const_form


def _target_names(p: PIP, targets: Iterable[GeneralTransition | str]) -> tuple[str, ...]:
    """The targets' names; a KeyError for one that names no general
    transition of ``p``."""
    names = tuple(item if isinstance(item, str) else item.name for item in targets)
    for name in names:
        p.gt(name)
    return names


def _synthesize(
    p: PIP,
    table: _ConditionTable,
    target_names: Sequence[str],
    linear: bool,
    skip_temp_nonincrease: bool = False,
) -> PLRF | None:
    targets = frozenset(target_names)
    variables = p.program_vars if linear else ()
    constraints: list[ratlp.LinearConstraint] = []
    template_keys: list = [("c", loc.name) for loc in p.locations]
    template_keys.extend(("a", loc.name, v.name) for loc in p.locations for v in variables)
    skipped: set[str] = set()
    for g in p.gts:
        is_target = g.name in targets
        if not is_target and skip_temp_nonincrease and _update_temporaries(p, g):
            # The non-increase fact cannot be required without also
            # forbidding any dependence of the ranking value on the
            # overwritten variables; leave it to the re-check, which
            # will taint the certificate if it stays unprovable.
            skipped.add(g.name)
            continue
        constraints.extend(table.rows(g, is_target, linear))

    init_key = ("c", p.initial.name)
    if linear:
        solution = ratlp.solve_lp(
            constraints, extra_variables=template_keys, magnitude=template_keys
        ).assignment
    else:
        solution = _solve_constant(constraints, template_keys, init_key)
    if solution is None:
        return None

    values = {
        loc: AffineExpr.make(
            {v: solution.get(("a", loc.name, v.name), 0) for v in variables},
            solution.get(("c", loc.name), 0),
        )
        for loc in p.locations
    }

    plrf = PLRF(values, targets, "linear" if linear else "constant")
    failures, taints = verify_plrf(p, table.inv, plrf)
    if failures:
        raise AssertionError(
            "synthesized ranking function failed independent verification: "
            + "; ".join(failures)
        )
    if not set(taints) <= skipped:
        raise AssertionError(f"unexpected taints {sorted(taints)}")
    return PLRF(plrf.values, plrf.targets, plrf.kind, taints)


def _solve_constant(
    constraints: list[ratlp.LinearConstraint], keys: Sequence, init_key
) -> dict | None:
    """Canonical solve: minimal value at the initial location first, then
    minimal total magnitude among those solutions, in one lexicographic
    run.  When the first objective is unbounded, the initial value is
    pinned and the magnitude solved alone (module docstring)."""
    first = ratlp.solve_lp(
        constraints, {init_key: Fraction(1)}, extra_variables=keys, magnitude=keys
    )
    if first.status != ratlp.UNBOUNDED:
        return first.assignment
    # Unbounded below: any nonpositive value gives the same zero bound;
    # pick the largest feasible one up to zero.
    capped = [*constraints, ratlp.LinearConstraint.of({init_key: 1}, "<=", 0)]
    second = ratlp.solve_lp(capped, {init_key: Fraction(-1)}, extra_variables=keys)
    if second.status != ratlp.OPTIMAL:
        raise AssertionError(f"capped constant LP is {second.status}")
    pin = ratlp.LinearConstraint.of({init_key: 1}, "=", -second.objective)
    result = ratlp.solve_lp([*constraints, pin], extra_variables=keys, magnitude=keys)
    if result.status != ratlp.OPTIMAL:
        raise AssertionError("pinned constant LP has no optimum")
    return result.assignment


def find_constant_plrf(
    p: PIP, inv: InvariantMap, targets: Iterable[GeneralTransition | str]
) -> PLRF | None:
    """Location constants with expected decrease on the targets, or None."""
    target_names = _target_names(p, targets)
    with _condition_table(p, inv) as table:
        return _synthesize(p, table, target_names, linear=False)


def find_linear_plrf(
    p: PIP, inv: InvariantMap, targets: Iterable[GeneralTransition | str]
) -> PLRF | None:
    """Affine ranking values per location, or None if infeasible.

    Tries the fully-verified system first (temporaries universally
    quantified everywhere); if that is infeasible and some non-target
    general transition assigns a temporary, retries with those
    non-increase conditions deferred, which can only produce a tainted
    certificate.  Raises UnsupportedProgram on nonlinear guards or
    updates.
    """
    targets = _target_names(p, targets)
    with _condition_table(p, inv) as table:
        plrf = _synthesize(p, table, targets, linear=True)
        if plrf is not None or not any(
            g.name not in targets and _update_temporaries(p, g) for g in p.gts
        ):
            # without a deferred condition the retry's LP is the same
            return plrf
        return _synthesize(p, table, targets, linear=True, skip_temp_nonincrease=True)


# ---------------------------------------------------------------------------
# Bound composition


@dataclass(frozen=True, slots=True)
class BoundEntry:
    targets: tuple[str, ...]
    plrf: PLRF
    bound: AffineExpr  # ranking value at the initial location

    def evaluate(self, state: Mapping[Variable, int]) -> Fraction:
        return max(Fraction(0), self.bound.evaluate(state))


@dataclass(frozen=True, slots=True)
class RuntimeBound:
    entries: tuple[BoundEntry, ...]

    def total_affine(self) -> AffineExpr:
        total = AffineExpr.constant(0)
        for e in self.entries:
            total = total + e.bound
        return total

    def evaluate_total(self, state: Mapping[Variable, int]) -> Fraction:
        """Sound evaluation: entries clamp at zero individually."""
        return sum((e.evaluate(state) for e in self.entries), Fraction(0))

    def render_total(self) -> str:
        return self.total_affine().render()


def compose_bound(
    p: PIP, cover: Sequence[tuple[Iterable[GeneralTransition | str], PLRF]]
) -> RuntimeBound:
    """Charge each cover entry's ranking value at the initial location to
    the summed firing count of its targets; the total is the entry sum.

    The cover must partition the general transitions; entries whose
    certificate carries unproven conditions are rejected.
    """
    entries: list[BoundEntry] = []
    for index, (targets, plrf) in enumerate(cover):
        names = _target_names(p, targets)
        if set(names) != set(plrf.targets):
            raise CoverError(
                f"entry {index}: targets {sorted(names)} do not match the "
                f"certificate's targets {sorted(plrf.targets)}"
            )
        if plrf.taints:
            detail = "; ".join(f"{k}: {v}" for k, v in sorted(plrf.taints.items()))
            raise TaintedCertificateError(
                f"ranking function {plrf.render()} cannot be charged: {detail}"
            )
        bound = plrf.of(p.initial)
        temps = [v.name for v in bound.variables() if not v.is_program]
        if temps:
            raise AssertionError(f"bound mentions temporaries {temps}")
        entries.append(BoundEntry(names, plrf, bound))
    _check_partition(p, [e.targets for e in entries])
    return RuntimeBound(tuple(entries))


def _check_partition(p: PIP, groups: Sequence[Iterable[str]]) -> None:
    """Raise CoverError unless every general transition is in exactly one
    group."""
    seen: dict[str, int] = {}
    for index, names in enumerate(groups):
        for name in names:
            if name in seen:
                raise CoverError(
                    f"general transition '{name}' covered by entries {seen[name]} and {index}"
                )
            seen[name] = index
    uncovered = [g.name for g in p.gts if g.name not in seen]
    if uncovered:
        raise CoverError(
            "general transitions not covered: " + ", ".join(sorted(uncovered))
        )


def default_cover(p: PIP) -> list[tuple[str, ...]]:
    """One entry per location component containing cyclic general
    transitions, plus a singleton entry per acyclic general transition
    (those can fire at most once), in order of first occurrence."""
    comp = location_sccs(p)
    groups: dict[int | str, list[str]] = {}  # by SCC id, or by the acyclic one's name
    for g in p.gts:
        if any(comp[t.source] == comp[t.target] for t in g.members):
            groups.setdefault(comp[g.source], []).append(g.name)
        else:
            groups[g.name] = [g.name]
    return [tuple(names) for names in groups.values()]


@dataclass(frozen=True, slots=True)
class BoundReport:
    ok: bool
    bound: RuntimeBound | None
    failures: tuple[str, ...]


def bound_program(
    p: PIP,
    cover_groups: Sequence[Iterable[str]] | None = None,
    inv: InvariantMap | None = None,
) -> BoundReport:
    """Synthesize a certificate per cover group (constant first, affine as
    fallback) and compose; reports every group that admits no bound.

    Raises CoverError, before any synthesis, unless the groups partition
    the general transitions."""
    if inv is None:
        inv = infer(p)
    groups = [tuple(g) for g in (default_cover(p) if cover_groups is None else cover_groups)]
    _check_partition(p, groups)
    failures: list[str] = []
    cover: list[tuple[tuple[str, ...], PLRF]] = []
    with _condition_table(p, inv):
        for group in groups:
            plrf = find_constant_plrf(p, inv, group)
            if plrf is None:
                try:
                    plrf = find_linear_plrf(p, inv, group)
                except UnsupportedProgram as exc:
                    failures.append(f"{{{', '.join(group)}}}: {exc}")
                    continue
            if plrf is None:
                failures.append(
                    f"{{{', '.join(group)}}}: no constant or affine ranking certificate"
                )
                continue
            if plrf.taints:
                detail = "; ".join(sorted(plrf.taints.values()))
                failures.append(f"{{{', '.join(group)}}}: {detail}")
                continue
            cover.append((group, plrf))
    if failures:
        return BoundReport(False, None, tuple(failures))
    return BoundReport(True, compose_bound(p, cover), ())
