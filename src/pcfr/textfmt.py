"""Program text format, canonical printer, and DOT export.

A program document declares its program variables, the start location,
and a sequence of transitions; any identifier that is not a declared
program variable is a temporary (scheduler-chosen) variable.  Singleton
general transitions use the ``trans`` sugar, probabilistic ones a
``gt`` block with ``branch`` members.  Location tokens may carry a
constraint label in brackets (``l1[x=0]``), which is how refined
programs serialize.  ``docs/format.md`` has the full grammar.

The printer emits the canonical form: normalized atoms, guards omitted
when ``true``, singleton transitions as ``trans``, fixed orderings
everywhere, so equal programs print byte-identically and
``parse(print(p))`` reproduces ``p``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .model import PIP, GeneralTransition, Location, Transition, labeled_location, validate
from .syntax import (
    TRUE,
    Atom,
    Constraint,
    Polynomial,
    Update,
    Variable,
    pv,
    tmp,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ProgramError(ValueError):
    """A syntactically valid document with well-formedness violations."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>:=|->|&&|<=|>=|==|[{}()\[\];,=<>+\-*/^])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | "sym" | "eof"
    text: str
    line: int
    column: int


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_RELS = ("<", "<=", "=", "==", ">=", ">")
#: ``x^n`` is expanded by ``n`` multiplications here and again in every
#: substitution, so a larger literal could stall the tool.
_MAX_EXPONENT = 16


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0
        self.program_vars: dict[str, Variable] = {}
        self.temporaries: set[str] = set()  # names read as temporaries so far
        self.locations: dict[str, Location] = {}
        self.names: dict[str, set[str]] = {"transition": set(), "gt": set()}

    # token helpers -------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None) -> ParseError:
        """A parse error at ``tok``, by default at the next token."""
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.column)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise self.fail(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(f"expected an identifier, found {tok.text!r}")
        return self.next().text

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.next()
            return True
        return False

    # variables and locations ---------------------------------------------

    def variable(self, name: str) -> Variable:
        var = self.program_vars.get(name)
        if var is None:
            self.temporaries.add(name)
            var = tmp(name)
        return var

    def location_token(self) -> Location:
        base = self.expect_ident()
        if self.peek().text != "[":
            loc = self.locations.get(base)
            if loc is None:
                loc = Location(base)
                self.locations[base] = loc
            return loc
        self.expect("[")
        constraint = self.constraint(stop="]")
        self.expect("]")
        loc = labeled_location(Location(base), constraint)
        existing = self.locations.get(loc.name)
        if existing is None:
            self.locations[loc.name] = loc
            return loc
        return existing

    # expressions ----------------------------------------------------------

    def integer(self) -> int:
        """The value of the ``int`` token next in line, which it consumes."""
        tok = self.next()
        try:
            return int(tok.text)
        except ValueError:  # above the interpreter's digit limit
            raise self.fail(f"integer literal too long ({len(tok.text)} digits)", tok) from None

    def polynomial(self) -> Polynomial:
        value = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek().text == "*":
            self.next()
            value = value * self.factor()
        return value

    def factor(self) -> Polynomial:
        tok = self.peek()
        if tok.text == "-":
            self.next()
            return -self.factor()
        if tok.text == "(":
            self.next()
            value = self.polynomial()
            self.expect(")")
        elif tok.kind == "int":
            value = Polynomial.const(self.integer())
        elif tok.kind == "ident":
            self.next()
            value = Polynomial.var(self.variable(tok.text))
        else:
            raise self.fail(f"expected a polynomial, found {tok.text!r}")
        if self.peek().text == "^":
            self.next()
            exp = self.peek()
            if exp.kind != "int":
                raise self.fail("exponent must be an integer literal")
            n = self.integer()
            if n > _MAX_EXPONENT:
                raise self.fail(f"exponent must be at most {_MAX_EXPONENT}, found {exp.text}", exp)
            value = value ** n
        return value

    def atom(self) -> Atom:
        lhs = self.polynomial()
        rel = self.peek().text
        if rel not in _RELS:
            raise self.fail(f"expected a relation, found {rel!r}")
        self.next()
        rhs = self.polynomial()
        return Atom(lhs, "=" if rel == "==" else rel, rhs)

    def constraint(self, stop: str | None = None) -> Constraint:
        if self.peek().text == "true":
            self.next()
            return TRUE
        atoms = [self.atom()]
        while self.accept("&&"):
            atoms.append(self.atom())
        if stop is not None and self.peek().text != stop:
            raise self.fail(f"expected {stop!r} after constraint")
        return Constraint(atoms)

    def rational(self) -> Fraction:
        if self.peek().kind != "int":
            raise self.fail("expected a probability")
        num = self.integer()
        if self.accept("/"):
            den_tok = self.peek()
            if den_tok.kind != "int":
                raise self.fail("expected a denominator")
            den = self.integer()
            if den == 0:
                raise self.fail("zero probability denominator", den_tok)
            return Fraction(num, den)
        return Fraction(num)

    def updates(self) -> Update:
        images: dict[Variable, Polynomial] = {}
        while True:
            tok = self.peek()
            name = self.expect_ident()
            var = self.program_vars.get(name) or pv(name)
            if var in images:
                raise self.fail(f"'{var.name}' is assigned twice", tok)
            self.expect(":=")
            images[var] = self.polynomial()
            if not self.accept(","):
                break
        return Update(images)

    # program items --------------------------------------------------------

    def declare(self, kinds: tuple[str, ...], name: str, tok: Token) -> None:
        """Declare ``name`` as a name of each of ``kinds`` ("transition",
        "gt"), failing at ``tok`` on the first kind that has it already."""
        for kind in kinds:
            if name in self.names[kind]:
                raise self.fail(f"duplicate {kind} name '{name}'", tok)
            self.names[kind].add(name)

    def head(self, kinds: tuple[str, ...]) -> tuple[str, Location, Constraint]:
        """``IDENT "{" "from" location ";" ("guard" constraint ";")?``, the
        head that ``trans`` and ``gt`` share; the name is declared as one
        of each of ``kinds``."""
        tok = self.peek()
        name = self.expect_ident()
        self.declare(kinds, name, tok)
        self.expect("{")
        self.expect("from")
        source = self.location_token()
        self.expect(";")
        guard = TRUE
        if self.accept("guard"):
            guard = self.constraint(stop=";")
            self.expect(";")
        return name, source, guard

    def parse_program(self) -> PIP:
        initial_name: str | None = None
        gts: list[GeneralTransition] = []
        auto_branch = 0
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "vars":
                self.next()
                while True:
                    at = self.peek()
                    name = self.expect_ident()
                    if name in self.temporaries:
                        raise self.fail(f"'{name}' is declared after its use as a temporary", at)
                    self.program_vars[name] = pv(name)
                    if not self.accept(","):
                        break
                self.expect(";")
            elif tok.text == "start":
                if initial_name is not None:
                    raise self.fail("duplicate 'start' declaration")
                self.next()
                initial_name = self.location_token().name
                self.expect(";")
            elif tok.text == "loc":
                self.next()
                self.location_token()
                self.expect(";")
            elif tok.text == "trans":
                self.next()
                name, source, guard = self.head(("transition", "gt"))
                update = Update()
                if self.accept("update"):
                    update = self.updates()
                    self.expect(";")
                self.expect("to")
                target = self.location_token()
                self.expect(";")
                self.expect("}")
                member = Transition(name, source, guard, Fraction(1), update, target)
                gts.append(GeneralTransition(name, (member,)))
            elif tok.text == "gt":
                self.next()
                gt_name, source, guard = self.head(("gt",))
                members: list[Transition] = []
                while self.peek().text == "branch":
                    at = self.next()  # where a repeated name is reported
                    if self.peek().kind == "ident" and self.peek().text != "p":
                        at = self.next()
                        branch_name = at.text
                    else:
                        branch_name = f"{gt_name}_{auto_branch}"
                        auto_branch += 1
                    self.declare(("transition",), branch_name, at)
                    self.expect("p")
                    self.expect("=")
                    prob = self.rational()
                    update = Update()
                    self.expect("{")
                    if self.peek().text != "}":
                        update = self.updates()
                    self.expect("}")
                    self.expect("->")
                    target = self.location_token()
                    self.expect(";")
                    members.append(
                        Transition(branch_name, source, guard, prob, update, target)
                    )
                self.expect("}")
                if not members:
                    raise self.fail(f"gt '{gt_name}' has no branches", tok)
                gts.append(GeneralTransition(gt_name, tuple(members)))
            else:
                raise self.fail(
                    f"expected 'vars', 'start', 'loc', 'trans' or 'gt', found {tok.text!r}"
                )
        if initial_name is None:
            raise self.fail("program has no 'start' declaration")
        program = PIP(
            self.program_vars.values(),
            tuple(self.locations.values()),
            self.locations[initial_name],
            tuple(gts),
        )
        issues = validate(program)
        if issues:
            raise ProgramError(issues)
        return program


def parse_program(text: str) -> PIP:
    """Parse and validate a program document."""
    return _Parser(text).parse_program()


def parse_constraint(text: str, program: PIP) -> Constraint:
    """Parse a standalone constraint with the program's variable kinds."""
    parser = _Parser(text)
    parser.program_vars = {v.name: v for v in program.program_vars}
    constraint = parser.constraint()
    if parser.peek().kind != "eof":
        raise parser.fail("trailing input after constraint")
    return constraint


def parse_atom(text: str, program: PIP) -> Atom:
    constraint = parse_constraint(text, program)
    if len(constraint.atoms) != 1:
        raise ValueError(f"expected a single atom, got {text!r}")
    return constraint.atoms[0]


def parse_state(text: str, program: PIP) -> dict[Variable, int]:
    """Parse ``x=0, y=2`` style assignments, bound by :func:`bind_state`."""
    pairs = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(-?\d+)", piece)
        if m is None:
            raise ValueError(f"cannot parse state assignment {piece!r}")
        try:
            pairs.append((m[1], int(m[2])))
        except ValueError:  # above the interpreter's digit limit
            why = f"integer literal for {m[1]!r} too long ({len(m[2].lstrip('-'))} digits)"
            raise ValueError(f"initial state: {why}") from None
    return bind_state(pairs, program)


def bind_state(pairs: Iterable[tuple[str, int]], program: PIP) -> dict[Variable, int]:
    """A state from ``(name, value)`` pairs over the program's variables and
    declared temporaries; an unknown or repeated name is a ``ValueError``."""
    known = {v.name: v for v in program.program_vars}
    for v in program.temporaries():
        known[v.name] = v
    out: dict[Variable, int] = {}
    for name, value in pairs:
        v = known.get(name)
        if v is None:
            raise ValueError(f"initial state names unknown variable {name!r}")
        if v in out:
            raise ValueError(f"initial state: {name!r} is assigned twice")
        out[v] = value
    return out


# ---------------------------------------------------------------------------
# Printer


def print_program(p: PIP) -> str:
    lines: list[str] = []
    if p.program_vars:
        lines.append("vars " + ", ".join(v.name for v in p.program_vars) + ";")
    lines.append(f"start {p.initial.display()};")
    mentioned = {p.initial}
    for t in p.transitions:
        mentioned.add(t.source)
        mentioned.add(t.target)
    for loc in p.locations:
        if loc not in mentioned:
            lines.append(f"loc {loc.display()};")
    lines.append("")
    for g in p.gts:
        if len(g.members) == 1:
            t = g.members[0]
            parts = [f"trans {t.name} {{ from {t.source.display()};"]
            if not t.guard.is_true():
                parts.append(f"guard {t.guard};")
            if not t.update.is_identity():
                parts.append(f"update {t.update};")
            parts.append(f"to {t.target.display()}; }}")
            lines.append(" ".join(parts))
        else:
            lines.append(f"gt {g.name} {{")
            lines.append(f"  from {g.source.display()};")
            if not g.guard.is_true():
                lines.append(f"  guard {g.guard};")
            for t in g.members:
                update = "" if t.update.is_identity() else f" {t.update} "
                lines.append(
                    f"  branch {t.name} p={t.prob} {{{update}}} -> {t.target.display()};"
                )
            lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def print_dot(p: PIP) -> str:
    """GraphViz rendering: one node per location, one edge per transition,
    members of probabilistic general transitions drawn dashed."""
    lines = ["digraph pip {", "  rankdir=LR;"]
    lines.append('  __start [shape=point, label=""];')
    for loc in p.locations:
        lines.append(f'  "{loc.name}" [label="{loc.display()}"];')
    lines.append(f'  __start -> "{p.initial.name}";')
    for g in p.gts:
        dashed = len(g.members) > 1
        for t in g.members:
            pieces = [t.name]
            if not t.guard.is_true():
                pieces.append(str(t.guard))
            if t.prob != 1:
                pieces.append(f"p={t.prob}")
            if not t.update.is_identity():
                pieces.append(str(t.update))
            attrs = [f'label="{"; ".join(pieces)}"']
            if dashed:
                attrs.append("style=dashed")
            lines.append(
                f'  "{t.source.name}" -> "{t.target.name}" [{", ".join(attrs)}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
