"""A digest of atom universes, invariants and refined programs on a fixed
set of programs, to show that a change to invariant inference keeps its
output.

The programs are the 750 programs of the benchmark's ``refine-corpus``
population (``perfbench/inputs.py``), 300 ``_corpus.random_pip``
programs from ``random.Random(777)`` and the gadget chain for k = 1..4.
For each program it hashes the atom universe and the invariant of every
location, both on the program and on its refinement before pruning, and
the text of the pruned refinement with the invariants that
``refine_and_prune`` returns.  The refinement is the ``pcfr refine``
pipeline: S = every transition (every transition but the entries on the
chain) and heuristic layers.  It prints one SHA-256 per family.

Run it from the repository root on each tree and compare the lines::

    PYTHONPATH=src python tests/_invariant_digest.py
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

import _corpus
from pcfr.abstraction import heuristic_layers
from pcfr.invariants import atom_universe, infer
from pcfr.refine import refine, refine_and_prune
from pcfr.textfmt import parse_program, print_program

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402  (perfbench/inputs.py)


def _inference(p) -> str:
    universe = sorted(str(a) for a in atom_universe(p))
    inv = infer(p)
    lines = [f"universe: {', '.join(universe)}"]
    lines += [f"{loc.name}: {inv.of(loc).render()}" for loc in p.locations]
    return "\n".join(lines)


def _record(p, s) -> str:
    names = [t.name for t in s]
    layers = heuristic_layers(p, s)
    unpruned = refine(p, names, layers).program
    pruned, inv = refine_and_prune(p, names, layers)
    return "\n".join(
        [
            _inference(p),
            _inference(unpruned),
            print_program(pruned.program),
            *(f"{loc.name}: {inv.of(loc).render()}" for loc in pruned.program.locations),
        ]
    )


def families():
    rng = random.Random("refine-corpus")  # the population of inputs.corpus
    yield "refine-corpus population", [
        (p, p.transitions)
        for p in (parse_program(inputs.random_program(rng)) for _ in range(750))
    ]
    rng = random.Random(777)
    yield "random_pip(Random(777))", [
        (p, p.transitions) for p in (_corpus.random_pip(rng) for _ in range(300))
    ]
    chains = [parse_program(inputs.chain(k)) for k in range(1, 5)]
    yield "chain k = 1..4", [
        (p, [t for t in p.transitions if not t.name.startswith("e")]) for p in chains
    ]


def main() -> None:
    for name, programs in families():
        digest = hashlib.sha256()
        for p, s in programs:
            digest.update(_record(p, s).encode() + b"\n")
        print(f"{name}: {len(programs)} programs, {digest.hexdigest()}")


if __name__ == "__main__":
    main()
