"""The digest of every bound verdict, atom universe, invariant and pruned
refinement on a fixed set of programs, to show that a change keeps the
library's output; ``tests/digests.txt`` holds its lines.

The families are the 750 programs of the benchmark's ``refine-corpus``
population, 300 ``_corpus.random_pip`` programs from
``random.Random(777)`` and the gadget chain for k = 1..6.  Each program is
refined once, the ``pcfr refine`` way (``_corpus.refinement``), and each
line hashes one of these per program of its family:

- the bound verdict of the program or of its pruned refinement: the
  rendered certificate, kind, targets and taints of every cover entry, or
  the failure messages;
- the inference record: the atom universe and the invariant of every
  location, both on the program and on its refinement before pruning, and
  the text of the pruned refinement with its invariants.

It also counts the magnitude solves of ``ratlp.solve_lp`` whose key values
were not proven fixed.  Run it from the repository root and compare::

    diff tests/digests.txt <(PYTHONPATH=src python tests/_digest.py)
"""

from __future__ import annotations

import hashlib
import random

import _corpus
from pcfr import ratlp
from pcfr.bounds import bound_program
from pcfr.invariants import atom_universe, infer
from pcfr.textfmt import print_program

# The lines before the magnitude count: (family, whether the verdict is the
# pruned refinement's), in their order in tests/digests.txt.
BOUND_LINES = (
    ("refine-corpus population", False),
    ("refine-corpus population", True),
    ("random_pip(Random(777))", False),
    ("random_pip(Random(777))", True),
    ("chain k = 1..4", True),
    ("chain k = 5, 6", True),
)
# The families of the inference records after it.
RECORD_LINES = ("refine-corpus population", "random_pip(Random(777))", "chain k = 1..4")


def families() -> dict[str, list]:
    """Each family's (program, refinement set) pairs, unrefined."""
    rng = random.Random(777)
    randoms = [_corpus.random_pip(rng) for _ in range(300)]
    chains = [_corpus.gadget_chain(k) for k in range(1, 7)]
    return {
        "refine-corpus population": [(p, p.transitions) for p in _corpus.population(750)],
        "random_pip(Random(777))": [(p, p.transitions) for p in randoms],
        "chain k = 1..4": chains[:4],
        "chain k = 5, 6": chains[4:],
    }


def heading(programs: dict[str, list], family: str, refined: bool = False) -> str:
    """The ``name: N programs`` start of a family's line."""
    name = f"{family}, refined" if refined else family
    return f"{name}: {len(programs[family])} programs"


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


def _inference(p, inv) -> list[str]:
    universe = sorted(str(a) for a in atom_universe(p))
    return [f"universe: {', '.join(universe)}"] + [
        f"{loc.name}: {inv.of(loc).render()}" for loc in p.locations
    ]


def _record(p, r: _corpus.Refinement) -> str:
    return "\n".join(
        [
            *_inference(p, infer(p)),
            *_inference(r.unpruned, r.inv),
            print_program(r.pruned),
            *(f"{loc.name}: {r.inv.of(loc).render()}" for loc in r.pruned.locations),
        ]
    )


def main() -> None:
    magnitude = {"solves": 0, "unproven": 0}
    solve_lp = ratlp.solve_lp

    def counted(*args, **kwargs):
        result = solve_lp(*args, **kwargs)
        if kwargs.get("magnitude") and result.status == ratlp.OPTIMAL:
            magnitude["solves"] += 1
            magnitude["unproven"] += not result.fixed
        return result

    ratlp.solve_lp = counted
    programs = families()
    bound = {line: hashlib.sha256() for line in BOUND_LINES}
    record = {family: hashlib.sha256() for family in RECORD_LINES}
    for family, pairs in programs.items():
        for p, s in pairs:
            r = _corpus.refinement(p, s)
            for refined in (False, True):
                if (family, refined) in bound:
                    verdict = _verdict(r.pruned if refined else p)
                    bound[family, refined].update(verdict.encode() + b"\n")
            if family in record:
                record[family].update(_record(p, r).encode() + b"\n")
    for (family, refined), digest in bound.items():
        print(f"{heading(programs, family, refined)}, {digest.hexdigest()}")
    print(
        f"magnitude solves: {magnitude['solves']}, "
        f"key values not proven fixed: {magnitude['unproven']}"
    )
    for family, digest in record.items():
        print(f"{heading(programs, family)}, {digest.hexdigest()}")


if __name__ == "__main__":
    main()
