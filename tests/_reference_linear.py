"""Reference engine for ``pcfr.linear``: Fourier-Motzkin elimination.

This is the original implementation of entailment, satisfiability,
expression bounds and projection, by exact Fourier-Motzkin elimination
on rational rows after Gaussian substitution of equalities.  It is
exponential in the number of eliminated variables, so it serves only
as a differential reference on small systems: ``pcfr.linear`` decides
the same questions on the simplex, and on every input the two must give
the same verdicts and the same exact bounds.  Tests only; the bodies
are kept as they were, and it shares the atom types of ``pcfr.syntax``
and the ``Satisfiability`` verdicts of ``pcfr.linear``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from pcfr.linear import Satisfiability
from pcfr.syntax import Atom, Constraint, Polynomial, Variable


class NonlinearMarker:
    """Returned by :func:`linearize` when a constraint has nonlinear atoms."""

    _instance: "NonlinearMarker | None" = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NONLINEAR"


NONLINEAR = NonlinearMarker()


@dataclass(frozen=True)
class Row:
    """``coeffs . vars + const <= 0`` (or ``= 0`` when ``is_eq``)."""

    coeffs: tuple[Fraction, ...]
    const: Fraction
    is_eq: bool

    def is_trivially_true(self) -> bool:
        return not any(self.coeffs) and (
            self.const == 0 if self.is_eq else self.const <= 0
        )

    def is_contradiction(self) -> bool:
        return not any(self.coeffs) and (
            self.const != 0 if self.is_eq else self.const > 0
        )


@dataclass(frozen=True)
class LinearSystem:
    variables: tuple[Variable, ...]
    rows: tuple[Row, ...]


def _normalize_row(row: Row) -> Row:
    denoms = [c.denominator for c in row.coeffs] + [row.const.denominator]
    lcd = 1
    for d in denoms:
        lcd = lcd * d // gcd(lcd, d)
    ints = [int(c * lcd) for c in row.coeffs] + [int(row.const * lcd)]
    g = 0
    for value in ints:
        g = gcd(g, abs(value))
    if g > 1:
        ints = [v // g for v in ints]
    if row.is_eq:
        lead = next((v for v in ints[:-1] if v), ints[-1])
        if lead < 0:
            ints = [-v for v in ints]
    return Row(tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1]), row.is_eq)


def _clean(rows: Iterable[Row]) -> tuple[Row, ...] | None:
    """Normalize, deduplicate, keep the tightest row per direction.

    Returns ``None`` when a constant contradiction appears.
    """
    best_le: dict[tuple[Fraction, ...], Fraction] = {}
    eqs: set[tuple[tuple[Fraction, ...], Fraction]] = set()
    for row in rows:
        row = _normalize_row(row)
        if row.is_contradiction():
            return None
        if row.is_trivially_true():
            continue
        if row.is_eq:
            eqs.add((row.coeffs, row.const))
        else:
            prev = best_le.get(row.coeffs)
            if prev is None or row.const > prev:
                best_le[row.coeffs] = row.const
    out = [Row(c, b, True) for c, b in sorted(eqs)]
    out.extend(Row(c, b, False) for c, b in sorted(best_le.items()))
    return tuple(out)


def _substitute_eq(rows: Sequence[Row], idx: int, eq: Row) -> list[Row]:
    """Eliminate variable ``idx`` using an equality row with nonzero pivot."""
    pivot = eq.coeffs[idx]
    out = []
    for row in rows:
        if row is eq:
            continue
        factor = row.coeffs[idx] / pivot
        if factor == 0:
            out.append(row)
            continue
        coeffs = tuple(
            rc - factor * ec for rc, ec in zip(row.coeffs, eq.coeffs)
        )
        out.append(Row(coeffs, row.const - factor * eq.const, row.is_eq))
    return out


def _eliminate(rows: Sequence[Row], idx: int) -> list[Row] | None:
    """One Fourier-Motzkin step removing variable ``idx``."""
    for eq in rows:
        if eq.is_eq and eq.coeffs[idx] != 0:
            return _substitute_eq(rows, idx, eq)
    pos, neg, rest = [], [], []
    for row in rows:
        if row.is_eq and row.coeffs[idx] != 0:
            raise AssertionError("equality rows handled above")
        c = row.coeffs[idx]
        if c > 0:
            pos.append(row)
        elif c < 0:
            neg.append(row)
        else:
            rest.append(row)
    for p in pos:
        for n in neg:
            scale_p = -n.coeffs[idx]
            scale_n = p.coeffs[idx]
            coeffs = tuple(
                scale_p * pc + scale_n * nc for pc, nc in zip(p.coeffs, n.coeffs)
            )
            rest.append(Row(coeffs, scale_p * p.const + scale_n * n.const, False))
    return rest


def _run_elimination(
    variables: Sequence[Variable], rows: Sequence[Row], keep: frozenset[int]
) -> tuple[Row, ...] | None:
    current = _clean(rows)
    if current is None:
        return None
    for idx in range(len(variables)):
        if idx in keep:
            continue
        if not any(r.coeffs[idx] for r in current):
            continue
        step = _eliminate(current, idx)
        if step is None:
            return None
        current = _clean(step)
        if current is None:
            return None
    return current


def linearize(c: Constraint) -> LinearSystem | NonlinearMarker:
    """Build a linear system from a constraint, or flag it nonlinear."""
    if not c.is_linear():
        return NONLINEAR
    variables = tuple(sorted(c.variables()))
    index = {v: i for i, v in enumerate(variables)}
    rows = []
    for a in c.atoms:
        coeffs = [Fraction(0)] * len(variables)
        lin, const = a.expr.linear_form()
        for v, coeff in lin.items():
            coeffs[index[v]] = Fraction(coeff)
        rows.append(Row(tuple(coeffs), Fraction(const), a.is_eq))
    return LinearSystem(variables, tuple(rows))


def is_satisfiable(sys: LinearSystem) -> Satisfiability:
    result = _run_elimination(sys.variables, sys.rows, frozenset())
    return Satisfiability.UNSAT if result is None else Satisfiability.SAT


def constraint_satisfiability(c: Constraint) -> Satisfiability:
    """Satisfiability of a constraint; UNKNOWN when nonlinear atoms block a verdict.

    Nonlinear atoms are dropped before the check, so ``UNSAT`` (from the
    linear part alone) is still sound; a satisfiable linear part only
    yields ``UNKNOWN`` if nonlinear atoms were dropped.
    """
    if c.has_trivially_false_atom():
        return Satisfiability.UNSAT
    linear_part = Constraint(a for a in c.atoms if a.is_linear())
    verdict = is_satisfiable(linearize(linear_part))
    if verdict is Satisfiability.UNSAT:
        return Satisfiability.UNSAT
    if len(linear_part.atoms) != len(c.atoms):
        return Satisfiability.UNKNOWN
    return Satisfiability.SAT


def expression_bounds(
    premise: Constraint, expr: Polynomial
) -> tuple[Fraction | None, Fraction | None] | None:
    """Exact (inf, sup) of a linear expression over a linear constraint.

    ``None`` in a slot means unbounded in that direction; an overall
    ``None`` means the premise is unsatisfiable.  Computed by projecting
    the system onto a fresh variable equated with the expression.
    """
    system = linearize(premise)
    if system is NONLINEAR:
        raise ValueError("premise must be linear")
    lin, const = expr.linear_form()
    variables = tuple(sorted(set(system.variables) | set(lin)))
    index = {v: i for i, v in enumerate(variables)}
    width = len(variables) + 1  # last slot is the fresh objective variable
    rows = []
    for row in system.rows:
        coeffs = [Fraction(0)] * width
        for v, c in zip(system.variables, row.coeffs):
            coeffs[index[v]] = c
        rows.append(Row(tuple(coeffs), row.const, row.is_eq))
    obj = [Fraction(0)] * width
    for v, c in lin.items():
        obj[index[v]] = Fraction(-c)
    obj[-1] = Fraction(1)
    rows.append(Row(tuple(obj), Fraction(-const), True))
    result = _run_elimination(
        variables + (Variable("__objective__", "temporary"),),
        rows,
        frozenset({width - 1}),
    )
    if result is None:
        return None
    lower: Fraction | None = None
    upper: Fraction | None = None
    for row in result:
        a = row.coeffs[-1]
        if a == 0:
            continue
        bound = -row.const / a
        if row.is_eq:
            lower = bound if lower is None else max(lower, bound)
            upper = bound if upper is None else min(upper, bound)
        elif a > 0:
            upper = bound if upper is None else min(upper, bound)
        else:
            lower = bound if lower is None else max(lower, bound)
    return (lower, upper)


@lru_cache(maxsize=1 << 16)
def entails(premise: Constraint, conclusion: Atom) -> bool:
    """True only if every rational model of the premise satisfies the atom.

    Nonlinear atoms are never entailed and nonlinear premises entail
    nothing (conservative both ways).  An unsatisfiable linear premise
    entails every linear atom.
    """
    if conclusion.is_trivially_true():
        return True
    if not conclusion.is_linear() or not premise.is_linear():
        return False
    if conclusion in premise.atoms:
        return True
    bounds = expression_bounds(premise, conclusion.expr)
    if bounds is None:
        return True
    lower, upper = bounds
    if conclusion.is_eq:
        return upper is not None and upper <= 0 and lower is not None and lower >= 0
    return upper is not None and upper <= 0


def rows_to_atoms(system: Sequence[Row], variables: Sequence[Variable]) -> list[Atom]:
    """Convert rational rows back to integer atoms (after elimination)."""
    out = []
    for row in system:
        lcd = 1
        for f in list(row.coeffs) + [row.const]:
            lcd = lcd * f.denominator // gcd(lcd, f.denominator)
        poly = Polynomial.const(int(row.const * lcd))
        for v, c in zip(variables, row.coeffs):
            poly = poly + int(c * lcd) * Polynomial.var(v)
        out.append(Atom(poly, "=" if row.is_eq else "<=", 0))
    return out


def project(c: Constraint, keep: Iterable[Variable]) -> list[Atom] | None:
    """Project a linear constraint onto a variable subset; None if nonlinear.

    The result is a list of atoms over ``keep`` whose conjunction is the
    exact rational shadow of ``c`` (an over-approximation over the
    integers, which is the sound direction for invariant seeds).
    """
    system = linearize(c)
    if system is NONLINEAR:
        return None
    keep_set = frozenset(keep)
    keep_idx = frozenset(
        i for i, v in enumerate(system.variables) if v in keep_set
    )
    result = _run_elimination(system.variables, system.rows, keep_idx)
    if result is None:
        return [Atom(1, "<=", 0)]
    return rows_to_atoms(result, system.variables)
