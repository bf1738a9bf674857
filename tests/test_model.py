import random
from dataclasses import replace
from fractions import Fraction

import pytest

import _corpus
from _oracles import isomorphic
from pcfr.model import (
    PIP,
    GeneralTransition,
    Location,
    Transition,
    incoming,
    location_sccs,
    outgoing,
    reach,
    validate,
)
from pcfr.syntax import Atom, Constraint, Polynomial, Update, pv, tmp


def test_worked_example_validates(fig1):
    assert validate(fig1) == []


def test_broken_probability_sum_reported(fig1):
    coin = fig1.gt("coin")
    t1a = replace(coin.members[0], prob=Fraction(1, 3))
    broken = PIP(
        fig1.program_vars,
        fig1.locations,
        fig1.initial,
        [
            g if g.name != "coin" else GeneralTransition("coin", (t1a, coin.members[1]))
            for g in fig1.gts
        ],
    )
    issues = validate(broken)
    assert any("sums to 5/6" in issue for issue in issues)


def test_target_is_initial_reported(fig1):
    t0 = fig1.transition("t0")
    bad_t0 = replace(t0, target=fig1.initial)
    broken = PIP(
        fig1.program_vars,
        fig1.locations,
        fig1.initial,
        [
            g if g.name != "t0" else GeneralTransition("t0", (bad_t0,))
            for g in fig1.gts
        ],
    )
    issues = validate(broken)
    assert any("target is initial location" in issue for issue in issues)


def test_each_validation_rule_names_what_breaks_it(fig1):
    """A program that breaks one rule gets that rule's messages alone."""
    l2, l9 = fig1.location("l2"), Location("l9")

    def changed(**members):
        """fig1 with each named transition's fields replaced."""
        gts = [
            GeneralTransition(g.name, tuple(replace(t, **members.get(t.name, {})) for t in g))
            for g in fig1.gts
        ]
        return PIP(fig1.program_vars, fig1.locations, fig1.initial, gts)

    cases = [
        (PIP(fig1.program_vars, fig1.locations, l9, fig1.gts),
         ["initial location 'l9' not among locations"]),
        (PIP((*fig1.program_vars, tmp("w")), fig1.locations, fig1.initial, fig1.gts),
         ["program variable 'w' declared with kind temporary"]),
        (changed(t1a={"source": l2}), ["gt {t1a,t1b} members have differing sources"]),
        (changed(t1a={"guard": Constraint()}), ["gt {t1a,t1b} members have differing guards"]),
        (changed(t1a={"prob": Fraction(3, 2)}, t1b={"prob": Fraction(-1, 2)}),
         ["transition 't1a' has probability 3/2", "transition 't1b' has probability -1/2"]),
        (changed(t3={"source": l9}), ["transition 't3': unknown source 'l9'"]),
        (changed(t0={"target": l9}), ["transition 't0': unknown target 'l9'"]),
    ]
    for broken, issues in cases:
        assert validate(broken) == issues


def test_transition_in_two_gts_rejected_at_construction(fig1):
    t0 = fig1.transition("t0")
    with pytest.raises(ValueError):
        PIP(
            fig1.program_vars,
            fig1.locations,
            fig1.initial,
            list(fig1.gts) + [GeneralTransition("dup", (t0,))],
        )


def test_repeated_names_are_named_at_construction(fig1):
    """Each of the three uniqueness checks names the name that repeats."""
    t0, l1 = fig1.transition("t0"), fig1.location("l1")
    renamed = GeneralTransition("t0", (replace(t0, name="t0b"),))
    cases = [
        (fig1.locations, list(fig1.gts) + [GeneralTransition("dup", (t0,))],
         "duplicate transition name 't0'"),
        (fig1.locations, list(fig1.gts) + [renamed], "duplicate general transition name 't0'"),
        (fig1.locations + (Location(l1.name),), fig1.gts, "duplicate location name 'l1'"),
    ]
    for locations, gts, message in cases:
        with pytest.raises(ValueError) as err:
            PIP(fig1.program_vars, locations, fig1.initial, gts)
        assert str(err.value) == message


def test_reachability_whole_example(fig1):
    assert {l.name for l in reach(fig1, fig1.gts)[fig1.initial]} == {"l0", "l1", "l2"}


def test_reachability_refined_program(fig2):
    assert reach(fig2, fig2.gts)[fig2.initial] == set(fig2.locations)


def test_reachability_excludes_orphan(fig1):
    orphan = Location("l9")
    extended = PIP(
        fig1.program_vars,
        list(fig1.locations) + [orphan],
        fig1.initial,
        fig1.gts,
    )
    assert orphan not in reach(extended, extended.gts)[extended.initial]


def test_reachability_walks_unsat_guards_it_is_given(fig1):
    x = pv("x")
    dead_guard = Constraint([Atom(Polynomial.var(x), ">", 0), Atom(Polynomial.var(x), "<", 0)])
    lx = Location("lx")
    dead = Transition("dead", fig1.location("l0"), dead_guard, Fraction(1), Update(), lx)
    extended = PIP(
        fig1.program_vars,
        list(fig1.locations) + [lx],
        fig1.initial,
        list(fig1.gts) + [GeneralTransition("gdead", (dead,))],
    )
    assert lx in reach(extended, extended.gts)[extended.initial]


def test_reachability_through_given_transitions(fig1):
    assert reach(fig1, [])[fig1.initial] == {fig1.initial}
    from_l0 = [g for g in fig1.gts if g.source == fig1.initial]
    assert reach(fig1, from_l0)[fig1.initial] == {fig1.initial} | {
        t.target for g in from_l0 for t in g.members
    }


def test_reachability_monotone_under_added_transitions():
    rng = random.Random(5)
    for _ in range(20):
        p = _corpus.random_pip(rng)
        base = reach(p, p.gts)[p.initial]
        if len(p.gts) < 2:
            continue
        assert reach(p, p.gts[:-1])[p.initial] <= base


def test_outgoing_indices(fig1):
    l1, l2 = fig1.location("l1"), fig1.location("l2")
    assert [g.name for g in outgoing(fig1, l1)] == ["coin", "t2"]
    assert [g.name for g in outgoing(fig1, l2)] == ["t3"]
    assert outgoing(fig1, fig1.location("l0"))[0].name == "t0"
    assert [t.name for t in incoming(fig1, fig1.location("l0"))] == []
    rng = random.Random(11)
    for p in [fig1] + [_corpus.random_pip(rng) for _ in range(20)]:
        for loc in (*p.locations, Location("elsewhere")):
            assert outgoing(p, loc) == tuple(g for g in p.gts if g.source == loc)
            assert incoming(p, loc) == tuple(t for t in p.transitions if t.target == loc)


def test_temporaries_detected(fig1):
    assert [v.name for v in fig1.temporaries()] == ["u"]


def test_location_sccs(fig1, fig2):
    comp1 = location_sccs(fig1)
    assert comp1[fig1.location("l1")] == comp1[fig1.location("l2")]
    assert comp1[fig1.location("l0")] != comp1[fig1.location("l1")]
    comp2 = location_sccs(fig2)
    by_name = {l.name: l for l in fig2.locations}
    split = [n for n in by_name if n.startswith("l1__")][0]
    tail = [n for n in by_name if n.startswith("l2__")][0]
    assert comp2[by_name[split]] == comp2[by_name[tail]]
    assert comp2[by_name["l1"]] != comp2[by_name[split]]
    rng = random.Random(41)
    programs = [fig1, fig2, _corpus.refined_chain(2)]
    programs += [_corpus.random_pip(rng, max_locations=6) for _ in range(60)]
    for p in programs:
        comp = location_sccs(p)
        assert {frozenset(l for l in p.locations if comp[l] == c) for c in comp.values()} == (
            _closure_sccs(p)
        )


def _closure_sccs(p):
    """The components by brute force: a transitive closure, then the sets
    of mutually reachable locations."""
    reach = {a: {a} | {t.target for t in p.transitions if t.source == a} for a in p.locations}
    for k in p.locations:
        for a in p.locations:
            if k in reach[a]:
                reach[a] |= reach[k]
    return {
        frozenset(b for b in p.locations if b in reach[a] and a in reach[b]) for a in p.locations
    }


def test_reach_matches_warshall_closure(fig1, fig2):
    """``reach`` against a brute-force closure, through every general
    transition and through a seeded random subset of them."""
    rng = random.Random(43)
    programs = [fig1, fig2, _corpus.refined_chain(2)]
    programs += [_corpus.random_pip(rng, max_locations=6) for _ in range(60)]
    for p in programs:
        subset = [g for g in p.gts if rng.random() < 0.5]
        assert reach(p) == _warshall_closure(p, p.gts)
        assert reach(p, subset) == _warshall_closure(p, subset)


def _warshall_closure(p, gts):
    closure = {a: {a} for a in p.locations}
    for g in gts:
        closure[g.source] |= {t.target for t in g.members}
    for k in p.locations:
        for a in p.locations:
            if k in closure[a]:
                closure[a] |= closure[k]
    return closure


def test_isomorphic_accepts_renaming(fig1):
    renamed_locs = {l.name: Location(f"n_{l.name}") for l in fig1.locations}
    gts = []
    for g in fig1.gts:
        members = tuple(
            Transition(
                f"r_{t.name}",
                renamed_locs[t.source.name],
                t.guard,
                t.prob,
                t.update,
                renamed_locs[t.target.name],
            )
            for t in g.members
        )
        gts.append(GeneralTransition(f"r_{g.name}", members))
    renamed = PIP(
        fig1.program_vars,
        [renamed_locs[l.name] for l in fig1.locations],
        renamed_locs[fig1.initial.name],
        gts,
    )
    assert isomorphic(fig1, renamed)


def test_isomorphic_rejects_structural_change(fig1, fig2):
    assert not isomorphic(fig1, fig2)
