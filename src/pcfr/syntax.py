"""Symbolic substrate: integer polynomials, atoms, constraints, states, updates.

Everything here is immutable and hashable.  Atoms are normalized at
construction into the two canonical integer forms ``expr <= 0`` and
``expr = 0`` (strict relations are absorbed by shifting the constant,
which is exact over the integers), so every downstream engine only ever
sees non-strict atoms.  A constraint is a finite conjunction of atoms;
the empty conjunction is ``true``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

PROGRAM = "program"
TEMPORARY = "temporary"


class UnboundVariableError(KeyError):
    """Raised when evaluation meets a variable the state does not bind."""

    def __init__(self, variable: "Variable"):
        super().__init__(variable.name)
        self.variable = variable

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"state does not bind variable '{self.variable.name}'"


@dataclass(frozen=True, order=True)
class Variable:
    name: str
    kind: str = PROGRAM

    def __post_init__(self):
        if self.kind not in (PROGRAM, TEMPORARY):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        object.__setattr__(self, "_hash", hash((self.name, self.kind)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_program(self) -> bool:
        return self.kind == PROGRAM

    def __str__(self) -> str:
        return self.name


def pv(name: str) -> Variable:
    return Variable(name, PROGRAM)


def tmp(name: str) -> Variable:
    return Variable(name, TEMPORARY)


# A monomial is a sorted tuple of (variable, exponent) pairs; () is the
# constant monomial.  Ordering of terms is graded lexicographic so that
# structural equality of polynomials is semantic equality.
Monomial = tuple[tuple[Variable, int], ...]

_VAR_POLYS: dict[Variable, "Polynomial"] = {}

_CONST_MONO: Monomial = ()


def _mono_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def _mono_key(mono: Monomial):
    return (-_mono_degree(mono), tuple((v.name, -e) for v, e in mono))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[Variable, int] = {}
    for v, e in a:
        exps[v] = exps.get(v, 0) + e
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in exps.items() if e), key=lambda p: p[0].name))


class Polynomial:
    """Multivariate polynomial over Z with arbitrary-precision coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, int] = {}
        for mono, coeff in items:
            if coeff:
                acc[mono] = acc.get(mono, 0) + coeff
        object.__setattr__(
            self,
            "_terms",
            tuple(sorted(((m, c) for m, c in acc.items() if c), key=lambda t: _mono_key(t[0]))),
        )
        object.__setattr__(self, "_hash", hash(self._terms))

    @staticmethod
    def const(value: int) -> "Polynomial":
        return Polynomial({_CONST_MONO: value} if value else {})

    @staticmethod
    def var(v: Variable) -> "Polynomial":
        cached = _VAR_POLYS.get(v)
        if cached is None:
            cached = _VAR_POLYS[v] = Polynomial({((v, 1),): 1})
        return cached

    @property
    def terms(self) -> tuple[tuple[Monomial, int], ...]:
        return self._terms

    def is_constant(self) -> bool:
        return all(m == _CONST_MONO for m, _ in self._terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._terms[0][1] if self._terms else 0

    def constant_term(self) -> int:
        for m, c in self._terms:
            if m == _CONST_MONO:
                return c
        return 0

    def degree(self) -> int:
        return max((_mono_degree(m) for m, _ in self._terms), default=0)

    def is_linear(self) -> bool:
        return self.degree() <= 1

    def variables(self) -> frozenset[Variable]:
        return frozenset(v for m, _ in self._terms for v, _ in m)

    def linear_form(self) -> tuple[dict[Variable, int], int]:
        """Decompose a linear polynomial into (coefficients, constant)."""
        coeffs: dict[Variable, int] = {}
        const = 0
        for mono, c in self._terms:
            if mono == _CONST_MONO:
                const = c
            elif _mono_degree(mono) == 1:
                coeffs[mono[0][0]] = c
            else:
                raise ValueError("polynomial is not linear")
        return coeffs, const

    def evaluate(self, state: Mapping[Variable, int]) -> int:
        total = 0
        for mono, coeff in self._terms:
            value = coeff
            for v, e in mono:
                if v not in state:
                    raise UnboundVariableError(v)
                value *= state[v] ** e
            total += value
        return total

    def substitute(self, images: Mapping[Variable, "Polynomial"]) -> "Polynomial":
        result = Polynomial()
        for mono, coeff in self._terms:
            part = Polynomial.const(coeff)
            for v, e in mono:
                factor = images.get(v, Polynomial.var(v))
                for _ in range(e):
                    part = part * factor
            result = result + part
        return result

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        other = _as_poly(other)
        return Polynomial(list(self._terms) + list(other._terms))

    def __radd__(self, other: int) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([(m, -c) for m, c in self._terms])

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other: int) -> "Polynomial":
        return _as_poly(other) - self

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        other = _as_poly(other)
        out: list[tuple[Monomial, int]] = []
        for m1, c1 in self._terms:
            for m2, c2 in other._terms:
                out.append((_mono_mul(m1, m2), c1 * c2))
        return Polynomial(out)

    def __rmul__(self, other: int) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, exp: int) -> "Polynomial":
        if exp < 0:
            raise ValueError("negative exponent")
        result = Polynomial.const(1)
        for _ in range(exp):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        return tuple((_mono_key(m), c) for m, c in self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self._terms:
            body = "*".join(
                v.name if e == 1 else f"{v.name}^{e}" for v, e in mono
            )
            if not body:
                text = str(abs(coeff))
            elif abs(coeff) == 1:
                text = body
            else:
                text = f"{abs(coeff)}*{body}"
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polynomial({self})"


def _as_poly(value: "Polynomial | int") -> Polynomial:
    return value if isinstance(value, Polynomial) else Polynomial.const(value)


RELATIONS = ("<", "<=", "=", ">=", ">")


class Atom:
    """A normalized integer atom: ``expr <= 0`` or ``expr = 0``.

    Construction from ``lhs rel rhs`` shifts strict relations by one
    (``p1 < p2`` becomes ``p1 - p2 + 1 <= 0``), divides by the content of
    the variable part (with the constant rounded towards the stronger
    side, which is exact for integer-valued polynomials), and gives
    equalities a canonical sign.
    """

    __slots__ = ("expr", "is_eq", "_hash")

    def __init__(self, lhs: Polynomial | int, rel: str, rhs: Polynomial | int = 0):
        lhs, rhs = _as_poly(lhs), _as_poly(rhs)
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        if rel == "<":
            expr, is_eq = lhs - rhs + 1, False
        elif rel == "<=":
            expr, is_eq = lhs - rhs, False
        elif rel == ">":
            expr, is_eq = rhs - lhs + 1, False
        elif rel == ">=":
            expr, is_eq = rhs - lhs, False
        else:
            expr, is_eq = lhs - rhs, True
        expr, is_eq = _canonicalize(expr, is_eq)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "is_eq", is_eq)
        object.__setattr__(self, "_hash", hash((expr, is_eq)))

    def __setattr__(self, *_):  # immutability guard
        raise AttributeError("Atom is immutable")

    def variables(self) -> frozenset[Variable]:
        return self.expr.variables()

    def is_linear(self) -> bool:
        return self.expr.is_linear()

    def is_trivially_true(self) -> bool:
        if not self.expr.is_constant():
            return False
        c = self.expr.constant_value()
        return c == 0 if self.is_eq else c <= 0

    def is_trivially_false(self) -> bool:
        if not self.expr.is_constant():
            return False
        c = self.expr.constant_value()
        return c != 0 if self.is_eq else c > 0

    def satisfied_by(self, state: Mapping[Variable, int]) -> bool:
        value = self.expr.evaluate(state)
        return value == 0 if self.is_eq else value <= 0

    def substitute(self, images: Mapping[Variable, Polynomial]) -> "Atom":
        return Atom(self.expr.substitute(images), "=" if self.is_eq else "<=", 0)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and self.is_eq == other.is_eq
            and self.expr == other.expr
        )

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        return (self.is_eq, self.expr.sort_key())

    def render(self, compact: bool = False) -> str:
        """Human form with nonnegative sides, e.g. ``1 <= x`` or ``x = 0``."""
        pos = Polynomial([(m, c) for m, c in self.expr.terms if c > 0])
        neg = Polynomial([(m, -c) for m, c in self.expr.terms if c < 0])
        op = "=" if self.is_eq else "<="
        text = f"{pos} {op} {neg}"
        return text.replace(" ", "") if compact else text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Atom({self})"


def _canonicalize(expr: Polynomial, is_eq: bool) -> tuple[Polynomial, bool]:
    var_coeffs = [c for m, c in expr.terms if m != _CONST_MONO]
    const = expr.constant_term()
    if not var_coeffs:
        # Constant atom: collapse to one of the two canonical constants.
        if is_eq:
            return (Polynomial.const(0) if const == 0 else Polynomial.const(1)), is_eq
        return (Polynomial.const(0) if const <= 0 else Polynomial.const(1)), is_eq
    g = 0
    for c in var_coeffs:
        g = math.gcd(g, abs(c))
    if is_eq:
        if const % g:
            return Polynomial.const(1), True  # no integer solution
        expr = Polynomial([(m, c // g) for m, c in expr.terms])
        if expr.terms[0][1] < 0:
            expr = -expr
        return expr, True
    if g > 1:
        scaled = [(m, c // g) for m, c in expr.terms if m != _CONST_MONO]
        scaled.append((_CONST_MONO, -((-const) // g)))  # ceil(const / g)
        expr = Polynomial(scaled)
    return expr, False


class Constraint:
    """A conjunction of atoms with set semantics; empty means ``true``."""

    __slots__ = ("_atoms", "_hash")

    def __init__(self, atoms: Iterable[Atom] = ()):
        kept = {a for a in atoms if not a.is_trivially_true()}
        object.__setattr__(
            self, "_atoms", tuple(sorted(kept, key=Atom.sort_key))
        )
        object.__setattr__(self, "_hash", hash(self._atoms))

    def __setattr__(self, *_):
        raise AttributeError("Constraint is immutable")

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self._atoms

    def is_true(self) -> bool:
        return not self._atoms

    def has_trivially_false_atom(self) -> bool:
        return any(a.is_trivially_false() for a in self._atoms)

    def variables(self) -> frozenset[Variable]:
        return frozenset(v for a in self._atoms for v in a.variables())

    def is_linear(self) -> bool:
        return all(a.is_linear() for a in self._atoms)

    def satisfied_by(self, state: Mapping[Variable, int]) -> bool:
        return all(a.satisfied_by(state) for a in self._atoms)

    def substitute(self, images: Mapping[Variable, Polynomial]) -> "Constraint":
        return Constraint(a.substitute(images) for a in self._atoms)

    def __and__(self, other: "Constraint | Atom") -> "Constraint":
        if isinstance(other, Atom):
            return Constraint(self._atoms + (other,))
        return Constraint(self._atoms + other._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._atoms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constraint) and self._atoms == other._atoms

    def __hash__(self) -> int:
        return self._hash

    def render(self, compact: bool = False) -> str:
        if not self._atoms:
            return "true"
        joiner = "&&" if compact else " && "
        return joiner.join(a.render(compact) for a in self._atoms)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constraint({self})"


TRUE = Constraint()


class Update:
    """Simultaneous assignment of program variables to polynomials.

    Unlisted program variables are left unchanged.  Images may mention
    temporary variables (their values are picked by the scheduler).
    """

    __slots__ = ("_images", "_images_map", "_hash")

    def __init__(self, images: Mapping[Variable, Polynomial] = ()):
        items = dict(images)
        for v in items:
            if not v.is_program:
                raise ValueError(f"update assigns non-program variable '{v.name}'")
        # identity images are dropped so equal updates compare equal
        cleaned = {
            v: p for v, p in items.items() if p != Polynomial.var(v)
        }
        object.__setattr__(
            self, "_images", tuple(sorted(cleaned.items(), key=lambda kv: kv[0].name))
        )
        object.__setattr__(self, "_images_map", dict(self._images))
        object.__setattr__(self, "_hash", hash(self._images))

    def __setattr__(self, *_):
        raise AttributeError("Update is immutable")

    def is_identity(self) -> bool:
        return not self._images

    def image_of(self, v: Variable) -> Polynomial:
        p = self._images_map.get(v)
        return p if p is not None else Polynomial.var(v)

    def assigned_image(self, v: Variable) -> Polynomial | None:
        """The image of ``v`` if the update assigns it, else None."""
        return self._images_map.get(v)

    def variables_used(self) -> frozenset[Variable]:
        return frozenset(v for _, p in self._images for v in p.variables())

    def assigned(self) -> frozenset[Variable]:
        return frozenset(v for v, _ in self._images)

    def apply_to_atom(self, a: Atom) -> Atom:
        return a.substitute(self._images_map)

    def apply_to_state(self, state: Mapping[Variable, int]) -> dict[Variable, int]:
        """Next-state values: each assigned variable takes its image over
        ``state``; every other variable, temporaries included, keeps its
        value."""
        out = dict(state)
        for v, p in self._images:
            out[v] = p.evaluate(state)
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Update) and self._images == other._images

    def __hash__(self) -> int:
        return self._hash

    def render(self) -> str:
        if not self._images:
            return "id"
        return ", ".join(f"{v.name} := {p}" for v, p in self._images)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Update({self})"


IDENTITY = Update()
