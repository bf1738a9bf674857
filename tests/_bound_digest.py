"""A digest of every bound certificate and failure message on a fixed set
of programs, to show that a change to bound synthesis keeps its output.

The programs are the 750 programs of the benchmark's ``refine-corpus``
population (``perfbench/inputs.py``), 300 ``_corpus.random_pip``
programs from ``random.Random(777)``, each unrefined and refined (S =
every transition, heuristic layers), and the gadget chain, refined on
every transition but the entries, for k = 1..4 and, as a family of its
own, for k = 5, 6, where the presolve of magnitude solves removes the
most rows.  For each family it prints the number of programs and a
SHA-256 over each program's verdict: the rendered certificate, kind,
targets and taints of every cover entry, or the failure messages.  It also counts the magnitude solves of
``ratlp.solve_lp`` whose key values were not proven fixed.

Run it from the repository root on each tree and compare the lines::

    PYTHONPATH=src python tests/_bound_digest.py
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

import _corpus
from pcfr import ratlp
from pcfr.abstraction import heuristic_layers
from pcfr.bounds import bound_program
from pcfr.refine import refine_and_prune
from pcfr.textfmt import parse_program

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402  (perfbench/inputs.py)

MAGNITUDE = {"solves": 0, "unproven": 0}


def _counting(solve_lp):
    def counted(*args, **kwargs):
        result = solve_lp(*args, **kwargs)
        if kwargs.get("magnitude") and result.status == ratlp.OPTIMAL:
            MAGNITUDE["solves"] += 1
            MAGNITUDE["unproven"] += not result.fixed
        return result

    return counted


def _verdict(p) -> str:
    try:
        report = bound_program(p)
    except Exception as exc:  # recorded, so a new exception changes the digest
        return f"raised {type(exc).__name__}: {exc}"
    if not report.ok:
        return "fails: " + " | ".join(report.failures)
    return " | ".join(
        f"{e.targets} {e.plrf.kind} {e.plrf.render()} {sorted(e.plrf.taints.items())}"
        for e in report.bound.entries
    )


def _refined(p, s=None):
    s = list(p.transitions) if s is None else s
    refined, _ = refine_and_prune(p, [t.name for t in s], heuristic_layers(p, s))
    return refined.program


def _refined_chain(k: int):
    p = parse_program(inputs.chain(k))
    return _refined(p, [t for t in p.transitions if not t.name.startswith("e")])


def families():
    rng = random.Random("refine-corpus")  # the population of inputs.corpus
    population = [parse_program(inputs.random_program(rng)) for _ in range(750)]
    yield "refine-corpus population", population
    yield "refine-corpus population, refined", [_refined(p) for p in population]
    rng = random.Random(777)
    random_pips = [_corpus.random_pip(rng) for _ in range(300)]
    yield "random_pip(Random(777))", random_pips
    yield "random_pip(Random(777)), refined", [_refined(p) for p in random_pips]
    yield "chain k = 1..4, refined", [_refined_chain(k) for k in range(1, 5)]
    yield "chain k = 5, 6, refined", [_refined_chain(k) for k in (5, 6)]


def main() -> None:
    ratlp.solve_lp = _counting(ratlp.solve_lp)
    for name, programs in families():
        digest = hashlib.sha256()
        for p in programs:
            digest.update(_verdict(p).encode() + b"\n")
        print(f"{name}: {len(programs)} programs, {digest.hexdigest()}")
    print(
        f"magnitude solves: {MAGNITUDE['solves']}, "
        f"key values not proven fixed: {MAGNITUDE['unproven']}"
    )


if __name__ == "__main__":
    main()
