"""Shared program builders, a deterministic random-program generator, and
the programs of the benchmark's own generators (``perfbench/inputs.py``,
loaded here and nowhere else under ``tests/``)."""

from __future__ import annotations

import functools
import importlib.util
import random
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from pcfr.abstraction import heuristic_layers
from pcfr.invariants import InvariantMap, infer
from pcfr.model import PIP, GeneralTransition, Location, Transition
from pcfr.refine import prune, refine
from pcfr.syntax import TRUE, Atom, Constraint, Polynomial, Update, pv, tmp
from pcfr.textfmt import parse_program

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"

X, Y = pv("x"), pv("y")
U = tmp("u")
PX, PY, PU = Polynomial.var(X), Polynomial.var(Y), Polynomial.var(U)


def load(name: str) -> PIP:
    return parse_program((PROGRAMS / name).read_text())


def fig1() -> PIP:
    """The coin-flip loop feeding a countdown loop (built directly)."""
    l0, l1, l2 = Location("l0"), Location("l1"), Location("l2")
    t0 = Transition("t0", l0, Constraint([Atom(PU, ">", 0)]), Fraction(1), Update({X: PU}), l1)
    t1a = Transition("t1a", l1, Constraint([Atom(PX, ">", 0)]), Fraction(1, 2), Update(), l1)
    t1b = Transition(
        "t1b", l1, Constraint([Atom(PX, ">", 0)]), Fraction(1, 2),
        Update({X: Polynomial.const(0)}), l1,
    )
    t2 = Transition(
        "t2", l1, Constraint([Atom(PY, ">", 0), Atom(PX, "=", 0)]), Fraction(1), Update(), l2
    )
    t3 = Transition("t3", l2, TRUE, Fraction(1), Update({Y: PY - 1}), l1)
    return PIP(
        [X, Y],
        [l0, l1, l2],
        l0,
        [
            GeneralTransition("t0", (t0,)),
            GeneralTransition("coin", (t1a, t1b)),
            GeneralTransition("t2", (t2,)),
            GeneralTransition("t3", (t3,)),
        ],
    )


def paper_layers(p: PIP):
    """The worked example's abstraction layer: {x=0} at l1 and l2, none at l0."""
    x_eq_0 = Atom(PX, "=", 0)
    return heuristic_layers(
        p,
        p.transitions,
        pinned={
            p.location("l0"): [],
            p.location("l1"): [x_eq_0],
            p.location("l2"): [x_eq_0],
        },
    )


def random_pip(rng: random.Random, max_locations: int = 3, max_vars: int = 2) -> PIP:
    """A small well-formed program with bounded-drift updates.

    Guards stay short and updates are shifts/constants/copies so that
    exhaustive semantics (enumeration, MDP) stays desk-sized.
    """
    n_locs = rng.randint(2, max_locations)
    locations = [Location(f"q{i}") for i in range(n_locs)]
    pvs = [pv(n) for n in ("a", "b")[: rng.randint(1, max_vars)]]
    use_temp = rng.random() < 0.4
    w = tmp("w")

    def rnd_affine(allow_temp: bool) -> Polynomial:
        out = Polynomial.const(rng.randint(-2, 2))
        v = rng.choice(pvs)
        out = out + rng.choice([1, 1, -1]) * Polynomial.var(v)
        if allow_temp and rng.random() < 0.5:
            out = out + Polynomial.var(w)
        return out

    def rnd_guard() -> Constraint:
        atoms = []
        if rng.random() < 0.8:
            rel = rng.choice(["<", "<=", ">=", ">", "="])
            if rel == "=" and rng.random() < 0.5:
                rel = ">="  # keep equality guards rarer
            atoms.append(
                Atom(rnd_affine(use_temp and rng.random() < 0.3), rel,
                     Polynomial.const(rng.randint(-2, 2)))
            )
        return Constraint(atoms)

    def rnd_update() -> Update:
        images = {}
        for v in pvs:
            roll = rng.random()
            if roll < 0.45:
                continue
            if roll < 0.7:
                images[v] = Polynomial.var(v) + rng.randint(-2, 2)
            elif roll < 0.85:
                images[v] = Polynomial.const(rng.randint(-2, 2))
            elif use_temp and roll < 0.92:
                images[v] = Polynomial.var(w)
            else:
                other = rng.choice(pvs)
                images[v] = Polynomial.var(other) + rng.randint(-1, 1)
        return Update(images)

    gts = []
    counter = 0
    for i, source in enumerate(locations):
        wanted = 1 if i == 0 else rng.randint(0, 2)
        for _ in range(wanted):
            guard = rnd_guard()
            n_members = 1 if rng.random() < 0.5 else 2
            probs = (
                [Fraction(1)]
                if n_members == 1
                else rng.choice([[Fraction(1, 2)] * 2, [Fraction(1, 3), Fraction(2, 3)]])
            )
            members = []
            for prob in probs:
                target = rng.choice(locations[1:])
                members.append(
                    Transition(f"t{counter}", source, guard, prob, rnd_update(), target)
                )
                counter += 1
            gts.append(GeneralTransition(f"g{len(gts)}", tuple(members)))
    return PIP(pvs, locations, locations[0], gts)


def random_sigma0(rng: random.Random, p: PIP) -> dict:
    return {v: rng.randint(-3, 3) for v in p.program_vars}


def differential_programs():
    """The 16 random programs of the semantics differential tests, each
    with its start state."""
    rng = random.Random(3131)
    for _ in range(16):
        p = random_pip(rng)
        yield p, random_sigma0(rng, p)


@functools.cache
def _inputs():
    """``perfbench/inputs.py``, the benchmark's input generators."""
    spec = importlib.util.spec_from_file_location("inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def population(n: int) -> list[PIP]:
    """The first ``n`` programs of the benchmark's ``refine-corpus``
    population."""
    rng = random.Random("refine-corpus")
    return [parse_program(_inputs().random_program(rng)) for _ in range(n)]


def gadget_chain(k: int) -> tuple[PIP, list[Transition]]:
    """The benchmark's chain of k fig1 gadgets, with the refinement set it
    is refined on: every transition but the entries ``e{i}``."""
    p = parse_program(_inputs().chain(k))
    return p, [t for t in p.transitions if not t.name.startswith("e")]


class Refinement(NamedTuple):
    """A program's refinement before pruning, that refinement's invariants,
    and the refinement after pruning: the three stages of
    ``refine_and_prune``."""

    unpruned: PIP
    inv: InvariantMap
    pruned: PIP


def refinement(p: PIP, s: Sequence[Transition] | None = None) -> Refinement:
    """``p`` refined the ``pcfr refine`` way: on ``s`` (every transition by
    default) with heuristic layers."""
    s = list(p.transitions) if s is None else s
    unpruned = refine(p, [t.name for t in s], heuristic_layers(p, s))
    inv = infer(unpruned.program)
    return Refinement(unpruned.program, inv, prune(unpruned, inv).program)


def refined_chain(k: int) -> PIP:
    """:func:`gadget_chain` refined and pruned."""
    return refinement(*gadget_chain(k)).pruned
