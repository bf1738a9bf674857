"""Test oracles that no library code needs: structural isomorphism of
programs, and a decision-table scheduler policy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from pcfr.model import PIP, GeneralTransition, Location, incoming, outgoing
from pcfr.semantics import Policy
from pcfr.syntax import Variable


def isomorphic(a: PIP, b: PIP) -> bool:
    """Structural equality modulo renaming of locations and transitions.

    A bijection between location sets must carry every general
    transition of ``a`` onto one of ``b`` with identical guards,
    probabilities and updates, and must map initial to initial.
    Backtracking over signature-compatible candidates; exact, intended
    for desk-sized programs.
    """
    if (
        len(a.locations) != len(b.locations)
        or len(a.transitions) != len(b.transitions)
        or len(a.gts) != len(b.gts)
        or a.program_vars != b.program_vars
    ):
        return False

    def gt_shape(g: GeneralTransition):
        return (g.guard, tuple(sorted((t.prob, t.update.render()) for t in g.members)))

    if sorted(map(gt_shape, a.gts), key=repr) != sorted(map(gt_shape, b.gts), key=repr):
        return False

    def signature(p: PIP, loc: Location):
        outs = sorted(repr(gt_shape(g)) for g in outgoing(p, loc))
        ins = sorted(
            repr((t.guard, t.prob, t.update.render())) for t in incoming(p, loc)
        )
        return (loc == p.initial, tuple(outs), tuple(ins))

    sig_a = {l: signature(a, l) for l in a.locations}
    sig_b = {l: signature(b, l) for l in b.locations}
    candidates = {
        la: [lb for lb in b.locations if sig_b[lb] == sig_a[la]]
        for la in a.locations
    }
    order = sorted(a.locations, key=lambda l: len(candidates[l]))

    def check(mapping: dict[Location, Location]) -> bool:
        renamed = {}
        for g in a.gts:
            key = (mapping[g.source].name, g.guard)
            renamed.setdefault(key, []).append(
                sorted(
                    (t.prob, t.update.render(), mapping[t.target].name)
                    for t in g.members
                )
            )
        actual = {}
        for g in b.gts:
            key = (g.source.name, g.guard)
            actual.setdefault(key, []).append(
                sorted((t.prob, t.update.render(), t.target.name) for t in g.members)
            )
        return {k: sorted(v) for k, v in renamed.items()} == {
            k: sorted(v) for k, v in actual.items()
        }

    def backtrack(i: int, mapping: dict[Location, Location], used: set[Location]) -> bool:
        if i == len(order):
            return check(mapping)
        la = order[i]
        for lb in candidates[la]:
            if lb in used:
                continue
            mapping[la] = lb
            used.add(lb)
            if backtrack(i + 1, mapping, used):
                return True
            used.discard(lb)
            del mapping[la]
        return False

    return backtrack(0, {}, set())


@dataclass(frozen=True)
class PolicyRule:
    """One decision-table row: at ``location``, optionally only when the
    state satisfies ``when``, choose ``gt`` with ``temps``."""

    location: str
    gt: str
    temps: tuple[tuple[Variable, int], ...] = ()
    when: object | None = None  # Constraint, checked against the state


class TablePolicy(Policy):
    """Decision table with a fallback policy for unmatched configurations."""

    def __init__(self, rules: Sequence[PolicyRule], fallback: Policy):
        self.rules = tuple(rules)
        self.fallback = fallback
        self.temp_values = fallback.temp_values

    def resolve(self, p, path):
        config = path.end
        state = config.state_dict
        for rule in self.rules:
            if rule.location != config.location.name:
                continue
            if rule.when is not None and not rule.when.satisfied_by(state):
                continue
            return p.gt(rule.gt), dict(rule.temps)
        return self.fallback.resolve(p, path)
