"""Exact rational linear programming for small certificate systems.

A two-phase simplex with Bland's rule: the first improving column enters,
and ratio ties leave by the smallest basic column, so it terminates.
Variables are identified by arbitrary hashable keys, each free
(unrestricted sign) unless it is nonnegative.  A solve with magnitude
keys (below) makes a key nonnegative for each sign row ``k >= 0`` of its
LP (one key, coefficient 1, right side 0), which it takes out of the
rows; every other solve keeps its rows as given and its keys free.  A
free key is the difference of two nonnegative columns, x+ and its twin
x-; a nonnegative key is its x+ column alone, so its sign needs no row.
The columns are laid out as [x+ block, one column per key | x- block, one
per free key, in key order | slack or surplus | artificials].  With no
nonnegative key this is the plain [x+ | x- | slack | artificials] layout.
A row whose <=-form right side is nonnegative starts with its slack
basic; only equalities and flipped rows get an artificial.  Phase one
minimizes the artificials, phase two the caller's objective.

The objective may add ``sum |k|`` over some keys.  It prices x+ and x-
of each such key at 1 each, so its optimum is that of the explicit
encoding (a bound ``b_k >= k``, ``b_k >= -k`` per key, minimizing the
``b_k``): an optimal solution never has both halves positive, since
lowering both keeps every row and lowers the cost, so x+ + x- is |k|
there.  The optimum can tie, so such a solve also reports whether it
proved that every optimal solution gives those keys the values of the
returned vertex.  Phase two ends with reduced costs ``r >= 0``, and a
solution is optimal exactly when it leaves every nonbasic column with
``r > 0`` at zero.  So the optimal solutions are the feasible moves of
the zero-reduced-cost nonbasic columns ``d >= 0`` alone, and each lies
in the cone where every degenerate row (right side 0) keeps its basic
column nonnegative; each direction of that cone, scaled down, is an
optimal solution.  The keys are proven fixed when no such column changes
a key's value, or else by one probe LP that maximizes, over that cone,
the sum of the ``d`` of the columns that do; the cone is closed under
scaling, so the maximum is 0 or unbounded.  At 0, no optimal solution
moves a key.  If it is unbounded, some move of such a column stays
optimal, and the keys are not proven fixed, although moves of several
columns may still cancel on every key.  Such a solve is answered by the
explicit formulation below, which gives a key that is fixed all the
same its one optimal value.

With both an objective and magnitude keys, the solve is lexicographic:
it minimizes the objective first and then ``sum |k|`` among its optimal
solutions, in one run.  When phase two ends on the
objective, a solution keeps the optimum exactly when it leaves every
nonbasic column with positive reduced cost at zero.  So those columns
are dropped from the tableau, which then describes the optimal face
with the same basis still feasible, and the run goes on from there with
the magnitude costs alone.  Its vertex has the least ``sum |k|`` on the
face, and the probe above, on the final tableau, sees only the
remaining columns: a dropped column has no entries left, so no move
counts it.  The result reports the first objective's optimum, and
whether the probe proves the keys fixed among the solutions of least
magnitude on the face.  An unbounded first objective ends the run as
unbounded.

A solve with magnitude keys first presolves its LP (after Andersen &
Andersen, "Presolving in linear programming", 1995).  Each rule removes
a key and a row, and substitutes the key away in the other rows and the
objective, until none fires:

(a) a one-key equality ``a*k = 0`` fixes ``k`` to 0;
(b) a two-key equality ``a*r + b*k = 0`` over free magnitude keys ties
    ``k = g*r`` with ``g = -a/b``; ``r`` then carries ``k``'s magnitude,
    its weight raised by ``|g|`` times ``k``'s;
(c) a free key that is neither a magnitude nor an objective key, and
    occurs in one row only, goes with that row.

Each rule keeps the set of feasible values of the remaining keys, the
objective and ``sum |k|``: (a) and (b) are substitutions of an equation
that every feasible point satisfies, and under (b) ``|k| = |g|*|r|``
exactly; under (c) any values of the row's other keys satisfy the row
with a suitable value of the key.  A tie to a nonnegative key is left
alone, because substituting it would drop the key's sign.  The reduced
LP minimizes ``sum w_r |r|`` over the remaining magnitude keys, the
weights scaled by the LCD of their denominators so that the costs stay
integers; that scaling keeps the optimal solutions, and the optimum
over the LCD is ``sum |k|`` of the original keys.  Its optimal
solutions are those of the original LP with the eliminated keys
dropped, so a proof on it holds for the original: an eliminated
magnitude key is 0 or ``g`` times a key that the probe covers, hence
fixed when the remaining keys are, and the keys of rule (c) are no
magnitude keys.  The reduced LP lists its nonnegative keys first (in a
synthesis LP, the multipliers before the template values), which
shortens Bland's path there.  The order changes the pivots, not the
answer: keys proven fixed have the same values at every optimal
solution, and a solve whose keys are not proven fixed returns the
explicit vertex.  The eliminated values are rebuilt in reverse order,
each from its row as an equation, so every original row holds exactly;
a run with an objective reports it evaluated on the rebuilt assignment.
A solve without magnitude keys is not presolved.

The vertex that a solve with magnitude keys returns is canonical: that
of the explicit formulation.  That LP is the caller's rows as given,
sign rows included; for a lexicographic run, the row ``objective =
optimum``; then per magnitude key ``k`` the rows ``b_k - k >= 0`` and
``b_k + k >= 0`` over a bound key ``b_k``, named ``("abs", *k)`` (or
``("abs", k)`` for a key that is no tuple).  It minimizes ``sum b_k``
with every key free, and is not presolved.  The fast solve above has
the same feasible points on the caller's keys: each sign row becomes a
nonnegative column and the bound rows go.  Its optimal solutions never
have both halves of a magnitude key positive, so their key values are
exactly the explicit optimal ones, and the presolve keeps them.  So when
the probe proves the keys fixed, every optimal solution has the
returned key values, the explicit vertex among them, and the fast
vertex is returned.  When it does not, the optimum may tie: several key
vectors may have the least magnitude, and only the explicit pivot path
says which one is canonical.  The solve then falls back to the explicit
LP and returns its vertex, without the bound keys, with ``fixed`` False.
A key that every optimal solution fixes has that value at the explicit
vertex too, so falling back where the probe could not prove a fixed key
changes no value that a proof would have returned.
An explicit LP without an optimum is a fault, raised as AssertionError
even under ``python -O``.

The tableau holds integers only, and no gcd is ever taken.  A row is a
sparse map from column to integer (column -1 is the right-hand side)
over a positive denominator ``e``: the exact entry is ``row[j] / e``.
``D`` is +-det of the current basis of the row-scaled system (each
constraint times the LCD of its coefficients), so by Cramer's rule ``D``
times any exact row is an integer vector.  It starts as the product of
those LCDs, with every row over it.  A pivot on column ``c`` (Edmonds'
integer-preserving pivoting, as in Bareiss elimination) brings the pivot
row over ``D``; its entry ``p`` there becomes the new ``D`` and the pivot
row's denominator.  Each other row with a nonzero ``row[c]`` becomes
``(row * p - row[c] * pivot_row) // e`` over ``p``: that is ``p`` times
its new exact values, an integer vector, so the division is exact.  A
row with ``row[c] = 0`` keeps its values and the earlier ``D`` it was
written over.  Denominators stay positive (simplex pivots are positive,
and a negative drive-out pivot negates the pivot row), so the pivot
rules read exact signs off the numerators and compare ratios by integer
cross-multiplication.  The pivot sequence, and so every vertex returned,
is that of the same simplex over ``fractions.Fraction``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Hashable, Iterable, Mapping, Sequence

Key = Hashable
Row = tuple[int, dict[int, int]]  # (denominator, {column: numerator})

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: tuple[tuple[Key, Fraction], ...]
    rel: str  # "<=", ">=", "="
    rhs: Fraction

    @staticmethod
    def of(coeffs: Mapping[Key, Fraction | int], rel: str, rhs: Fraction | int = 0):
        if rel not in ("<=", ">=", "="):
            raise ValueError(f"unknown relation {rel!r}")
        cleaned = tuple(
            sorted(
                ((k, Fraction(v)) for k, v in coeffs.items() if v),
                key=lambda kv: repr(kv[0]),
            )
        )
        return LinearConstraint(cleaned, rel, Fraction(rhs))


@dataclass
class LPResult:
    status: str
    assignment: dict[Key, Fraction] | None = None
    objective: Fraction | None = None
    # With ``magnitude`` keys, at an optimum: True when the solve proved
    # that every optimal solution gives those keys the values in
    # ``assignment``; when False, ``assignment`` is the explicit
    # formulation's vertex, and the keys may be fixed all the same.
    fixed: bool | None = None


def solve_lp(
    constraints: Sequence[LinearConstraint],
    objective: Mapping[Key, Fraction | int] | None = None,
    extra_variables: Iterable[Key] = (),
    magnitude: Iterable[Key] = (),
) -> LPResult:
    """Minimize ``objective`` subject to ``constraints``, then ``sum |k|``
    over the ``magnitude`` keys among its optimal solutions.  The result's
    ``objective`` is the optimum of ``objective``, or of ``sum |k|`` if
    none is given.  A solve with ``magnitude`` keys runs on the presolved
    LP with its sign rows as nonnegative keys, and returns the explicit
    formulation's vertex when it cannot prove the keys fixed (module
    docstring)."""
    objective = {k: Fraction(v) for k, v in (objective or {}).items()}
    magnitude = list(magnitude)
    more = [*objective, *magnitude, *extra_variables]
    if not magnitude:
        return _solve(constraints, objective, _keys(constraints, more), set(), {})
    signs = [_sign_key(con) for con in constraints]
    rows = [con for con, k in zip(constraints, signs) if k is None]
    restricted = set(signs) - {None}
    keys = _keys(rows, more)
    presolved = _presolve(rows, objective, restricted, magnitude, keys)
    if presolved is None:
        return LPResult(INFEASIBLE)
    rows, reduced, weights, steps = presolved
    eliminated = {k for _, k, _, _ in steps}
    survivors = [k for k in keys if k in restricted and k not in eliminated]
    survivors += [k for k in keys if k not in restricted and k not in eliminated]
    result = _solve(rows, reduced, survivors, restricted, weights)
    if result.status != OPTIMAL:
        return result
    x = result.assignment
    for _, k, coeffs, rhs in reversed(steps):
        for j, v in coeffs.items():
            if j != k and x[j]:
                rhs -= v * x[j]
        x[k] = rhs / coeffs[k]
    value = result.objective
    if objective:  # its reduced form may have lost every key
        value = sum((v * x[k] for k, v in objective.items()), Fraction(0))
    # with every magnitude key fixed to 0 by rule (a), nothing can move one
    if not weights or result.fixed:
        return LPResult(OPTIMAL, x, value, True)
    explicit = list(constraints)
    if objective:
        explicit.append(LinearConstraint.of(objective, "=", value))
    bound_keys: dict[Key, Fraction] = {}
    for k in magnitude:
        b = ("abs", *k) if isinstance(k, tuple) else ("abs", k)
        explicit.append(LinearConstraint.of({b: 1, k: -1}, ">=", 0))
        explicit.append(LinearConstraint.of({b: 1, k: 1}, ">=", 0))
        bound_keys[b] = Fraction(1)
    result = _solve(explicit, bound_keys, _keys(explicit, more), set(), {})
    if result.status != OPTIMAL:
        raise AssertionError(f"explicit magnitude LP is {result.status}")
    x = {k: v for k, v in result.assignment.items() if k not in bound_keys}
    return LPResult(OPTIMAL, x, value, False)


def _sign_key(con: LinearConstraint) -> Key | None:
    """The key of a sign row ``k >= 0``, else None."""
    if con.rel == ">=" and not con.rhs and len(con.coeffs) == 1 and con.coeffs[0][1] == 1:
        return con.coeffs[0][0]
    return None


def _keys(constraints: Sequence[LinearConstraint], more: Iterable[Key]) -> list[Key]:
    """The keys of the rows in order of first occurrence, then ``more``."""
    keys: list[Key] = []
    seen = set()
    for con in constraints:
        for k, _ in con.coeffs:
            if k not in seen:
                seen.add(k)
                keys.append(k)
    for k in more:
        if k not in seen:
            seen.add(k)
            keys.append(k)
    return keys


def _presolve(
    constraints: Sequence[LinearConstraint],
    objective: dict[Key, Fraction],
    restricted: set[Key],
    magnitude: Sequence[Key],
    keys: Sequence[Key],
) -> tuple[Sequence[LinearConstraint], dict[Key, Fraction], dict, list] | None:
    """Rules (a)-(c) of the module docstring over ``keys``, applied until
    none fires; ``restricted`` holds the nonnegative keys.  Returns the
    remaining rows, the objective over the remaining keys, the magnitude
    weight of each remaining magnitude key, and the eliminations in order,
    each as ``(rule, key, row coefficients, right side)``: the key takes
    the value that makes that row an equality.  Returns None if a row
    reduces to a false ``0 rel c``."""
    objective = dict(objective)
    weight: dict[Key, Fraction | int] = {}
    for k in magnitude:
        weight[k] = weight.get(k, 0) + 1
    # the rows and keys that a rule may fire on, first come first
    pending_rows = [
        r for r in range(len(constraints) - 1, -1, -1)
        if not constraints[r].coeffs or (constraints[r].rel == "=" and not constraints[r].rhs)
    ]
    pending_keys = [
        k for k in reversed(keys) if k not in restricted and k not in weight and k not in objective
    ]
    lone = set(pending_keys)  # the keys that rule (c) may eliminate
    if not pending_rows and not pending_keys:
        return constraints, objective, weight, []
    rows: list[dict[Key, Fraction] | None] = []
    occurs: defaultdict[Key, set[int]] = defaultdict(set)  # the rows of each key
    for r, con in enumerate(constraints):
        coeffs = dict(con.coeffs)
        if len(coeffs) < len(con.coeffs) or not all(coeffs.values()):
            coeffs = {}  # a key listed twice, or with coefficient 0
            for k, v in con.coeffs:
                _accumulate(coeffs, k, v)
        rows.append(coeffs)
        for k in coeffs:
            occurs[k].add(r)
    steps: list = []
    changed: set[int] = set()

    def eliminate(rule: str, k: Key, r: int, rep: Key | None = None, gamma=0) -> None:
        """Record ``k`` as solved from row ``r``, which goes, and replace it
        by ``gamma * rep`` (by 0 without ``rep``) in every other row."""
        steps.append((rule, k, rows[r], constraints[r].rhs))
        for j in rows[r]:
            occurs[j].discard(r)
            if j in lone:
                pending_keys.append(j)
        rows[r] = None
        for s in occurs.pop(k):
            coeffs = rows[s]
            c = coeffs.pop(k)
            if rep is not None:
                if _accumulate(coeffs, rep, gamma * c):
                    occurs[rep].add(s)
                else:
                    occurs[rep].discard(s)
            changed.add(s)
            pending_rows.append(s)

    while pending_rows or pending_keys:
        if not pending_rows:
            k = pending_keys.pop()
            if len(occurs.get(k, ())) == 1:
                (r,) = occurs[k]
                eliminate("c", k, r)  # (c): k absorbs its one row
            continue
        r = pending_rows.pop()
        coeffs, con = rows[r], constraints[r]
        if coeffs is None:
            continue
        if not coeffs:
            if not {"=": con.rhs == 0, "<=": con.rhs >= 0, ">=": con.rhs <= 0}[con.rel]:
                return None
            rows[r] = None
        elif con.rel != "=" or con.rhs:
            continue
        elif len(coeffs) == 1:
            (k,) = coeffs  # (a): k = 0
            objective.pop(k, None)
            weight.pop(k, None)
            eliminate("a", k, r)
        elif len(coeffs) == 2 and all(k in weight and k not in restricted for k in coeffs):
            (rep, a), (k, b) = coeffs.items()  # (b): k = gamma * rep
            gamma = -a / b
            if k in objective:
                _accumulate(objective, rep, gamma * objective.pop(k))
            weight[rep] += abs(gamma) * weight.pop(k)
            eliminate("b", k, r, rep, gamma)
    remaining = [
        LinearConstraint(tuple(coeffs.items()), con.rel, con.rhs) if r in changed else con
        for r, (coeffs, con) in enumerate(zip(rows, constraints))
        if coeffs is not None
    ]
    return remaining, objective, weight, steps


def _accumulate(form: dict[Key, Fraction], key: Key, value: Fraction) -> bool:
    """Add ``value`` to ``form[key]``, deleting the key at 0; True if it stays."""
    value += form.get(key, 0)
    if value:
        form[key] = value
    else:
        form.pop(key, None)
    return bool(value)


def _solve(
    constraints: Sequence[LinearConstraint],
    objective: dict[Key, Fraction],
    keys: list[Key],
    restricted: set[Key],
    weights: dict[Key, Fraction | int],
) -> LPResult:
    """The simplex of :func:`solve_lp` over ``keys``, the ``restricted``
    ones nonnegative, with ``sum w_k |k|`` as the magnitude; lexicographic
    when both costs are given."""
    lexicographic = bool(objective and weights)

    n_vars = len(keys)
    m = len(constraints)
    col_of = {k: i for i, k in enumerate(keys)}
    twin_of: dict[Key, int] = {}  # x- column of each free key
    for k in keys:
        if k not in restricted:
            twin_of[k] = n_vars + len(twin_of)
    n_struct = n_vars + len(twin_of)
    n_cols = n_struct + m
    d = prod(
        lcm(con.rhs.denominator, *(v.denominator for _, v in con.coeffs))
        for con in constraints
    )

    rows: list[Row] = []
    basis: list[int] = []
    art = n_cols
    for r, con in enumerate(constraints):
        flip = con.rhs > 0 if con.rel == ">=" else con.rhs < 0  # <=-form side < 0
        sign = -1 if (con.rel == ">=") != flip else 1
        row: dict[int, int] = {}
        for k, v in con.coeffs:
            entry = sign * v.numerator * (d // v.denominator)
            row[col_of[k]] = row.get(col_of[k], 0) + entry
            if k in twin_of:
                row[twin_of[k]] = row.get(twin_of[k], 0) - entry
        row[-1] = sign * con.rhs.numerator * (d // con.rhs.denominator)
        if con.rel != "=":
            row[n_struct + r] = -d if flip else d  # surplus or slack
        if flip or con.rel == "=":
            row[art] = d  # artificial
            basis.append(art)
            art += 1
        else:
            basis.append(n_struct + r)
        rows.append((d, {j: v for j, v in row.items() if v}))

    if art > n_cols:
        artificials = dict.fromkeys(range(n_cols, art), 1)
        rows.append(_cost_row(rows, basis, artificials, d))
        d = _simplex(rows, basis, d)
        if d is None:  # pragma: no cover - phase one is always bounded
            raise AssertionError("phase one unbounded")
        if rows.pop()[1].get(-1, 0) < 0:  # the artificials sum to more than 0
            return LPResult(INFEASIBLE)
        d = _drive_out_artificials(rows, basis, n_cols, d)
        rows = [(e, {j: v for j, v in row.items() if j < n_cols}) for e, row in rows]

    # Phase two on the original columns, with the costs scaled to integers.
    scale = lcm(*(v.denominator for v in objective.values()))
    costs: dict[int, int] = {}
    for k, v in objective.items():
        c = v.numerator * (scale // v.denominator)
        costs[col_of[k]] = costs.get(col_of[k], 0) + c
        if k in twin_of:
            costs[twin_of[k]] = costs.get(twin_of[k], 0) - c
    if lexicographic:
        rows.append(_cost_row(rows, basis, {j: c for j, c in costs.items() if c}, d))
        d = _simplex(rows, basis, d)
        if d is None:
            return LPResult(UNBOUNDED)
        e, cost = rows.pop()
        value = Fraction(-cost.get(-1, 0), e * scale)
        # the optimal face: every column with positive reduced cost stays 0
        dropped = {j for j, v in cost.items() if v > 0 and j >= 0}
        rows = [(e, {j: v for j, v in row.items() if j not in dropped}) for e, row in rows]
        costs = {}
    if weights:  # the magnitude costs alone, the weights over their LCD
        scale = lcm(*(w.denominator for w in weights.values()))
    for k, w in weights.items():
        for col in (col_of[k], twin_of.get(k)):
            if col is not None:
                costs[col] = costs.get(col, 0) + w.numerator * (scale // w.denominator)
    rows.append(_cost_row(rows, basis, {j: c for j, c in costs.items() if c}, d))
    if _simplex(rows, basis, d) is None:
        return LPResult(UNBOUNDED)

    solution = [Fraction(0)] * n_cols
    for col, (e, row) in zip(basis, rows):
        solution[col] = Fraction(row.get(-1, 0), e)
    assignment = {
        k: solution[col_of[k]] - (solution[twin_of[k]] if k in twin_of else 0)
        for k in keys
    }
    e, cost = rows[-1]
    fixed = None
    if weights:
        columns = [(col_of[k], twin_of.get(k)) for k in weights]
        fixed = _keys_fixed(rows, basis, columns, n_cols)
    if not lexicographic:
        value = Fraction(-cost.get(-1, 0), e * scale)
    return LPResult(OPTIMAL, assignment, value, fixed)


def _keys_fixed(
    tableau: list[Row], basis: list[int], columns: list[tuple[int, int | None]], n_cols: int
) -> bool:
    """True when no optimal solution can move a key off the final vertex:
    no free column changes a key, or the one probe of the module docstring
    is bounded.  False when the probe is unbounded, which leaves a tie
    possible but not proven.  ``columns`` gives each key's x+ and x-
    column (None for a nonnegative key); the last row of the tableau
    holds the reduced costs."""
    *rows, (_, cost) = tableau
    row_of = {col: r for r, col in enumerate(basis)}
    free = {j for j in range(n_cols) if j not in row_of and not cost.get(j)}
    moving: set[int] = set()
    for plus, minus in columns:
        change: dict[int, Fraction] = {}  # the key's change per unit move of a free column
        for col, sign in ((plus, 1), (minus, -1)):
            if col in free:
                change[col] = change.get(col, 0) + sign
            elif col in row_of:
                e, row = rows[row_of[col]]
                for j, v in row.items():
                    if j in free:
                        change[j] = change.get(j, 0) - sign * Fraction(v, e)
        moving.update(j for j, v in change.items() if v)
    if not moving:
        return True
    # Each degenerate row's basic column, ``-sum row[j]/e * d_j``, must stay
    # nonnegative: ``sum row[j] * d_j + s = 0`` with a slack ``s >= 0``
    # (column n_cols + r), which starts basic.
    probe: list[Row] = []
    probe_basis: list[int] = []
    for r, (_, row) in enumerate(rows):
        entries = {j: v for j, v in row.items() if j in free}
        if entries and not row.get(-1):
            entries[n_cols + r] = 1
            probe.append((1, entries))
            probe_basis.append(n_cols + r)
    # proven fixed when minimizing -sum of the moving d is bounded
    return _simplex([*probe, (1, dict.fromkeys(moving, -1))], probe_basis, 1) is not None


def _cost_row(rows: list[Row], basis: list[int], costs: dict[int, int], d: int) -> Row:
    """The reduced costs of integer ``costs`` over ``d``; column -1 holds
    minus the objective value."""
    reduced = {j: c * d for j, c in costs.items()}
    for col, (e, row) in zip(basis, rows):
        if col in costs:
            for j, v in row.items():
                reduced[j] = reduced.get(j, 0) - costs[col] * v * d // e
    return d, {j: v for j, v in reduced.items() if v}


def _simplex(tableau: list[Row], basis: list[int], d: int) -> int | None:
    """Minimize in place over the tableau, whose last row is the cost row.
    Returns the final ``D``, or None if the objective is unbounded."""
    while True:
        cost = tableau[-1][1]
        entering = min((j for j, v in cost.items() if v < 0 and j >= 0), default=-1)
        if entering < 0:
            return d
        leaving, best_b, best_a = -1, 0, 1
        for r in range(len(basis)):
            row = tableau[r][1]
            a = row.get(entering, 0)
            if a > 0:
                b = row.get(-1, 0)  # ratio b / a, compared by cross-multiplying
                if leaving < 0 or b * best_a < best_b * a or (
                    b * best_a == best_b * a and basis[r] < basis[leaving]
                ):
                    leaving, best_b, best_a = r, b, a
        if leaving < 0:
            return None
        d = _pivot(tableau, basis, leaving, entering, d)


def _pivot(tableau: list[Row], basis: list[int], row: int, col: int, d: int) -> int:
    """Integer-preserving pivot; returns the new ``D``."""
    e, pivot = tableau[row]
    if e != d:
        pivot = {j: v * d // e for j, v in pivot.items()}
    p = pivot[col]
    if p < 0:  # only in drive-out
        pivot = {j: -v for j, v in pivot.items()}
        p = -p
    for r, (e, current) in enumerate(tableau):
        factor = current.get(col)
        if r == row or not factor:
            continue
        new = {j: v * p // e for j, v in current.items() if j not in pivot}
        for j, w in pivot.items():
            v = (current.get(j, 0) * p - factor * w) // e
            if v:
                new[j] = v
        tableau[r] = (p, new)
    tableau[row] = (p, pivot)
    basis[row] = col
    return p


def _drive_out_artificials(
    tableau: list[Row], basis: list[int], art_start: int, d: int
) -> int:
    """Pivot basic artificials onto real columns; drop redundant rows.
    Returns the new ``D``."""
    r = 0
    while r < len(tableau):
        if basis[r] >= art_start:
            col = min((j for j in tableau[r][1] if 0 <= j < art_start), default=None)
            if col is None:
                # Redundant constraint: remove the row entirely.
                del tableau[r], basis[r]
                continue
            d = _pivot(tableau, basis, r, col, d)
        r += 1
    return d
