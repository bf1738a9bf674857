"""Reference solver for ``pcfr.ratlp``: a dense two-phase simplex over
``fractions.Fraction``.

It uses the same column layout, Bland's rule, ratio-test tie-break and
drive-out of artificials as ``pcfr.ratlp``, so the two must take the same
pivots and return the same status, assignment and objective on every LP.
Tests only; it shares the constraint and result types of ``pcfr.ratlp``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from pcfr.ratlp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    Key,
    LinearConstraint,
    LPResult,
)


def solve_lp(
    constraints: Sequence[LinearConstraint],
    objective: Mapping[Key, Fraction | int] | None = None,
    extra_variables: Iterable[Key] = (),
) -> LPResult:
    """Minimize ``objective`` subject to ``constraints`` (free variables)."""
    objective = dict(objective or {})
    keys: list[Key] = []
    seen = set()
    for con in constraints:
        for k, _ in con.coeffs:
            if k not in seen:
                seen.add(k)
                keys.append(k)
    for k in list(objective) + list(extra_variables):
        if k not in seen:
            seen.add(k)
            keys.append(k)

    # Column layout: [x+ block | x- block | slack/surplus | artificials].
    # Rows whose <=-form right side is nonnegative start with their slack
    # basic; only equalities and flipped rows need an artificial.
    n_vars = len(keys)
    m = len(constraints)
    n_cols = 2 * n_vars + m
    col_of = {k: i for i, k in enumerate(keys)}

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    needs_artificial: list[bool] = []
    for r, con in enumerate(constraints):
        row = [Fraction(0)] * n_cols
        for k, v in con.coeffs:
            row[col_of[k]] += v
            row[n_vars + col_of[k]] -= v
        b = con.rhs
        if con.rel == ">=":
            row = [-v for v in row]
            b = -b
        if con.rel == "=":
            if b < 0:
                row = [-v for v in row]
                b = -b
            needs_artificial.append(True)
        elif b < 0:
            row = [-v for v in row]
            b = -b
            row[2 * n_vars + r] = Fraction(-1)  # surplus
            needs_artificial.append(True)
        else:
            row[2 * n_vars + r] = Fraction(1)  # slack, starts basic
            needs_artificial.append(False)
        rows.append(row)
        rhs.append(b)

    art_start = n_cols
    n_art = sum(needs_artificial)
    tableau = [row + [Fraction(0)] * n_art for row in rows]
    basis = []
    art_index = 0
    for r in range(m):
        if needs_artificial[r]:
            tableau[r][art_start + art_index] = Fraction(1)
            basis.append(art_start + art_index)
            art_index += 1
        else:
            basis.append(2 * n_vars + r)
    if n_art:
        costs1 = [Fraction(0)] * n_cols + [Fraction(1)] * n_art
        value = _simplex(tableau, rhs, costs1, basis)
        if value is None:  # pragma: no cover - phase one is always bounded
            raise AssertionError("phase one unbounded")
        if value > 0:
            return LPResult(INFEASIBLE)
        _drive_out_artificials(tableau, rhs, basis, art_start)

    # Phase two on the original columns.
    for r in range(len(tableau)):
        tableau[r] = tableau[r][:n_cols]
    costs2 = [Fraction(0)] * n_cols
    for k, v in objective.items():
        costs2[col_of[k]] += Fraction(v)
        costs2[n_vars + col_of[k]] -= Fraction(v)
    value = _simplex(tableau, rhs, costs2, basis)
    if value is None:
        return LPResult(UNBOUNDED)

    solution = [Fraction(0)] * n_cols
    for r, col in enumerate(basis):
        if col < n_cols:
            solution[col] = rhs[r]
    assignment = {
        k: solution[col_of[k]] - solution[n_vars + col_of[k]] for k in keys
    }
    return LPResult(OPTIMAL, assignment, value)


def _simplex(
    tableau: list[list[Fraction]],
    rhs: list[Fraction],
    costs: list[Fraction],
    basis: list[int],
) -> Fraction | None:
    """Minimize over the tableau in place; returns the optimum or None if unbounded."""
    m = len(tableau)
    n = len(costs)
    while True:
        duals = [costs[basis[r]] for r in range(m)]
        hot = [r for r in range(m) if duals[r]]
        entering = -1
        for j in range(n):
            reduced = costs[j]
            for r in hot:
                a = tableau[r][j]
                if a:
                    reduced -= duals[r] * a
            if reduced < 0:
                entering = j
                break  # Bland: first improving column
        if entering < 0:
            obj = sum(costs[basis[r]] * rhs[r] for r in range(m))
            return obj
        leaving = -1
        best: Fraction | None = None
        for r in range(m):
            a = tableau[r][entering]
            if a > 0:
                ratio = rhs[r] / a
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leaving]
                ):
                    best = ratio
                    leaving = r
        if leaving < 0:
            return None
        _pivot(tableau, rhs, basis, leaving, entering)


def _pivot(
    tableau: list[list[Fraction]],
    rhs: list[Fraction],
    basis: list[int],
    row: int,
    col: int,
) -> None:
    pivot = tableau[row][col]
    tableau[row] = [v / pivot for v in tableau[row]]
    rhs[row] = rhs[row] / pivot
    for r in range(len(tableau)):
        if r == row:
            continue
        factor = tableau[r][col]
        if factor:
            tableau[r] = [
                v - factor * pv for v, pv in zip(tableau[r], tableau[row])
            ]
            rhs[r] = rhs[r] - factor * rhs[row]
    basis[row] = col


def _drive_out_artificials(
    tableau: list[list[Fraction]],
    rhs: list[Fraction],
    basis: list[int],
    art_start: int,
) -> None:
    """Pivot basic artificials onto real columns; drop redundant rows."""
    r = 0
    while r < len(tableau):
        if basis[r] >= art_start:
            col = next(
                (j for j in range(art_start) if tableau[r][j] != 0), None
            )
            if col is None:
                # Redundant constraint: remove the row entirely.
                del tableau[r], rhs[r], basis[r]
                continue
            _pivot(tableau, rhs, basis, r, col)
        r += 1
