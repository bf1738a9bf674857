"""Reference bound synthesis for ``pcfr.bounds``: no compiled rows, no
lexicographic run.

These are the original bodies of the per-group synthesis loop, the
constant row of each condition, the two-solve constant certificate and
the re-check's term-by-term composition.  Every cover group encodes each
condition's Farkas block afresh under its own block id, and builds each
constant row straight from the condition's locations, apart from the
affine encoding; a constant certificate first minimises
the initial value alone and then solves the magnitude with that value
pinned; the re-check builds each condition's expression by composing,
scaling and adding one :class:`pcfr.bounds.AffineExpr` per term; and an
infeasible affine system is always retried with the temporary-assigning
non-increase conditions deferred.  ``pcfr.bounds`` compiles constant
rows and Farkas blocks with one compiler, encodes each block once per
call under a block id of its own, solves a constant certificate in one
lexicographic run, composes each condition in one accumulation and
skips a retry whose LP would be the same, so on every input the two
must give identical reports, constant certificates whose first solves
have identical constraints, and affine LPs that are identical once the
block ids are numbered in order of first use.  Tests only; the bodies
are kept as they were, except that each magnitude solve is one call of
:func:`pcfr.ratlp.solve_lp`, which takes the sign rows and breaks ties
itself; they share the premises, condition shapes and result types of
``pcfr.bounds``, and the re-check, like ``pcfr.bounds``'s, bounds each
expression with :func:`pcfr.linear.expression_sup` itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from pcfr import ratlp
from pcfr.bounds import (
    PLRF,
    AffineExpr,
    BoundReport,
    UnsupportedProgram,
    _check_partition,
    _composed_template,
    _condition_table,
    _form_add,
    _gt_conditions,
    _update_temporaries,
    compose_bound,
    default_cover,
)
from pcfr.invariants import InvariantMap, infer
from pcfr.linear import LIT, expression_sup, farkas_block
from pcfr.model import PIP, GeneralTransition, Location
from pcfr.syntax import Update, Variable


def _compose(expr: AffineExpr, update: Update) -> AffineExpr:
    coeffs: dict[Variable, Fraction] = {}
    const = expr.const
    for v, c in expr.coeffs:
        image = update.image_of(v)
        if not image.is_linear():
            raise UnsupportedProgram(f"nonlinear update image for '{v.name}'")
        lin, b = image.linear_form()
        const += c * b
        for w, a in lin.items():
            coeffs[w] = coeffs.get(w, Fraction(0)) + c * a
    return AffineExpr.make(coeffs, const)


def _combination_expr(
    plrf_values: Mapping[Location, AffineExpr],
    combination: Sequence[tuple[Fraction, Location, Update | None]],
    extra_const: Fraction,
) -> AffineExpr:
    total = AffineExpr.constant(extra_const)
    for factor, location, update in combination:
        expr = plrf_values[location]
        if update is not None:
            expr = _compose(expr, update)
        total = total + AffineExpr.make(
            {v: c * factor for v, c in expr.coeffs}, expr.const * factor
        )
    return total


def verify_plrf(
    p: PIP, inv: InvariantMap, plrf: PLRF
) -> tuple[list[str], dict[str, str]]:
    failures: list[str] = []
    taints: dict[str, str] = {}
    with _condition_table(p, inv) as table:
        for g in p.gts:
            premise = table.premise(g, strict=False)
            for tag, combination in _gt_conditions(g, g.name in plrf.targets):
                extra = Fraction(1) if tag == "decrease" else Fraction(0)
                try:
                    expr = _combination_expr(plrf.values, combination, extra)
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


def _constant_row(
    tag: str, combination: Sequence[tuple[Fraction, Location, Update | None]]
) -> ratlp.LinearConstraint:
    """A condition over constant templates, which no update changes: the
    row ``sum factor * c(location) + (1 if decrease) <= 0``."""
    coeffs: dict = {}
    for factor, location, _ in combination:
        key = ("c", location.name)
        coeffs[key] = coeffs.get(key, Fraction(0)) + factor
    return ratlp.LinearConstraint.of(coeffs, "<=", -1 if tag == "decrease" else 0)


def _synthesize(
    p: PIP,
    table,
    targets: Iterable[GeneralTransition | str],
    linear: bool,
    skip_temp_nonincrease: bool = False,
) -> PLRF | None:
    target_names = set()
    for item in targets:
        name = item if isinstance(item, str) else item.name
        p.gt(name)
        target_names.add(name)

    constraints: list[ratlp.LinearConstraint] = []
    template_keys: list = [("c", loc.name) for loc in p.locations]
    if linear:
        template_keys.extend(
            ("a", loc.name, v.name) for loc in p.locations for v in p.program_vars
        )
    skipped: set[str] = set()
    block_id = 0
    for g in p.gts:
        is_target = g.name in target_names
        conditions = _gt_conditions(g, is_target)
        if not linear:
            rows = [_constant_row(tag, combination) for tag, combination in conditions]
            rows = [row for row in rows if row.coeffs or row.rhs < 0]
            if rows and not table.unsat(g):
                constraints.extend(rows)
            continue
        if not is_target and skip_temp_nonincrease and _update_temporaries(p, g):
            skipped.add(g.name)
            continue
        premise = table.premise(g, strict=True)
        for tag, combination in conditions:
            conclusion_vars: dict[Variable, dict] = {}
            conclusion_const: dict = {
                LIT: Fraction(1) if tag == "decrease" else Fraction(0)
            }
            for factor, location, update in combination:
                var_forms, const_form = _composed_template(
                    location, update, p.program_vars
                )
                _form_add(conclusion_const, const_form, factor)
                for v, form in var_forms.items():
                    _form_add(conclusion_vars.setdefault(v, {}), form, factor)
            if table.unsat(g):
                continue
            farkas_block(
                block_id, premise, conclusion_vars, conclusion_const, constraints
            )
            block_id += 1

    init_key = ("c", p.initial.name)
    if linear:
        solution = ratlp.solve_lp(
            constraints, extra_variables=template_keys, magnitude=template_keys
        ).assignment
    else:
        solution = _solve_constant(constraints, template_keys, init_key)
    if solution is None:
        return None

    values: dict[Location, AffineExpr] = {}
    for loc in p.locations:
        coeffs = {}
        if linear:
            for v in p.program_vars:
                coeffs[v] = solution.get(("a", loc.name, v.name), Fraction(0))
        values[loc] = AffineExpr.make(coeffs, solution.get(("c", loc.name), Fraction(0)))

    plrf = PLRF(values, frozenset(target_names), "linear" if linear else "constant")
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
    first = ratlp.solve_lp(constraints, {init_key: Fraction(1)}, extra_variables=keys)
    if first.status == ratlp.INFEASIBLE:
        return None
    if first.status == ratlp.OPTIMAL:
        init_value = first.objective
    else:
        capped = [*constraints, ratlp.LinearConstraint.of({init_key: 1}, "<=", 0)]
        second = ratlp.solve_lp(capped, {init_key: Fraction(-1)}, extra_variables=keys)
        if second.status != ratlp.OPTIMAL:
            raise AssertionError(f"capped constant LP is {second.status}")
        init_value = -second.objective
    pinned = list(constraints)
    pinned.append(ratlp.LinearConstraint.of({init_key: 1}, "=", init_value))
    result = ratlp.solve_lp(pinned, extra_variables=keys, magnitude=keys)
    if result.status != ratlp.OPTIMAL:
        raise AssertionError("pinned constant LP has no optimum")
    return result.assignment


def find_constant_plrf(
    p: PIP, inv: InvariantMap, targets: Iterable[GeneralTransition | str]
) -> PLRF | None:
    with _condition_table(p, inv) as table:
        return _synthesize(p, table, targets, linear=False)


def find_linear_plrf(
    p: PIP, inv: InvariantMap, targets: Iterable[GeneralTransition | str]
) -> PLRF | None:
    with _condition_table(p, inv) as table:
        plrf = _synthesize(p, table, targets, linear=True)
        if plrf is not None:
            return plrf
        return _synthesize(p, table, targets, linear=True, skip_temp_nonincrease=True)


def bound_program(
    p: PIP,
    cover_groups: Sequence[Iterable[str]] | None = None,
    inv: InvariantMap | None = None,
) -> BoundReport:
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
