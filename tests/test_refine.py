import random
from fractions import Fraction

import pytest

import _corpus
from _oracles import isomorphic
from pcfr.abstraction import AbstractionLayer, heuristic_layers
from pcfr.invariants import infer
from pcfr.model import validate
from pcfr.refine import (
    labeled_location,
    prune,
    refine,
    refine_and_prune,
    unrolling_step_bound,
)
from pcfr.syntax import TRUE, Atom, Constraint, Polynomial, pv

X, Y = pv("x"), pv("y")
PX, PY = Polynomial.var(X), Polynomial.var(Y)
X_EQ_0 = Atom(PX, "=", 0)


def _by_origin(result):
    index = {}
    for t in result.program.transitions:
        index.setdefault(result.origin[t.name], []).append(t)
    return index


def test_pre_prune_contains_dead_copies(fig1):
    """Before pruning, the fixpoint contains the conflicting coin copies at
    the split location and the countdown entry from the unsplit location."""
    result = refine(fig1, ["t1a", "t1b", "t2", "t3"], _corpus.paper_layers(fig1))
    assert len(result.program.locations) == 5
    by_origin = _by_origin(result)
    # two copies of each coin member: one from l1, one from the split variant
    assert len(by_origin["t1a"]) == 2
    assert len(by_origin["t1b"]) == 2
    dead_coin = [
        t for t in by_origin["t1a"] if t.source.label and not t.source.label.is_true()
    ]
    assert dead_coin and dead_coin[0].guard == Constraint([Atom(PX, ">", 0), X_EQ_0])
    # t2 from the unsplit l1 still targets the split l2 variant
    from_unsplit = [t for t in by_origin["t2"] if t.source.name == "l1"]
    assert len(from_unsplit) == 1
    assert from_unsplit[0].target.label == Constraint([X_EQ_0])
    assert from_unsplit[0].guard == Constraint([Atom(PY, ">", 0), X_EQ_0])


def test_prune_yields_worked_example_result(fig1, fig1_refined, fig2_parsed):
    pruned, _inv = fig1_refined
    assert len(pruned.program.locations) == 4
    assert len(pruned.program.transitions) == 5
    assert isomorphic(pruned.program, fig2_parsed)
    # the dead countdown entry from the unsplit location is gone
    by_origin = _by_origin(pruned)
    assert len(by_origin["t2"]) == 1
    assert by_origin["t2"][0].source.label == Constraint([X_EQ_0])
    # the coin stays one general transition with guard x > 0 and halves
    coins = [
        g
        for g in pruned.program.gts
        if {pruned.origin[t.name] for t in g.members} == {"t1a", "t1b"}
    ]
    assert len(coins) == 1
    assert coins[0].guard == Constraint([Atom(PX, ">", 0)])
    assert sorted(t.prob for t in coins[0].members) == [Fraction(1, 2)] * 2


def test_empty_refinement_set_relabels_only(fig1):
    result = refine(fig1, [], AbstractionLayer())
    assert isomorphic(result.program, fig1)
    assert all(l.label == TRUE for l in result.program.locations)
    pruned = prune(result, infer(result.program))
    assert isomorphic(pruned.program, fig1)


def test_unknown_refinement_member_rejected(fig1):
    with pytest.raises(ValueError, match="nosuch"):
        refine(fig1, ["nosuch"], AbstractionLayer())


def test_step_bound_formula(fig1):
    layers = _corpus.paper_layers(fig1)
    assert unrolling_step_bound(fig1, layers) == 5 * (1 + 2 + 2)
    assert unrolling_step_bound(fig1, AbstractionLayer()) == 5 * 3


def test_steps_within_bound_on_example(fig1):
    layers = _corpus.paper_layers(fig1)
    result = refine(fig1, ["t1a", "t1b", "t2", "t3"], layers)
    assert result.stats.unrolling_steps <= unrolling_step_bound(fig1, layers)


def test_prune_identity_when_nothing_dead(fig1):
    result = refine(fig1, [], AbstractionLayer())
    pruned = prune(result, infer(result.program))
    assert pruned.stats.pruned_transitions == 0
    assert pruned.stats.pruned_locations == 0


def test_prune_drops_constant_false_chain(fig1):
    from pcfr.model import PIP, GeneralTransition, Location, Transition
    from pcfr.syntax import Update

    l0, l1 = Location("a0"), Location("a1")
    dead = Transition(
        "dead", l0, Constraint([Atom(Polynomial.const(0), ">", 1)]), Fraction(1), Update(), l1
    )
    p = PIP([X], [l0, l1], l0, [GeneralTransition("gdead", (dead,))])
    result = refine(p, [], AbstractionLayer())
    pruned = prune(result, infer(result.program))
    assert len(pruned.program.locations) == 1
    assert len(pruned.program.transitions) == 0
    assert pruned.stats.pruned_transitions == 1
    assert pruned.stats.pruned_locations == 1


def test_guard_structure_preserved(fig1):
    """Every refined member guard is the source label conjoined with the
    original guard, and member probabilities/updates are untouched."""
    result = refine(fig1, ["t1a", "t1b", "t2", "t3"], _corpus.paper_layers(fig1))
    for g in result.program.gts:
        original = fig1.gt(result.gt_origin[g.name])
        tau = g.source.label or TRUE
        assert g.guard == tau & original.guard
        assert sorted(t.prob for t in g.members) == sorted(
            t.prob for t in original.members
        )
        assert sorted(t.update.render() for t in g.members) == sorted(
            t.update.render() for t in original.members
        )
        assert g.total_probability() == 1


def test_refined_programs_validate_on_random_corpus():
    rng = random.Random(101)
    for _ in range(25):
        p = _corpus.random_pip(rng)
        s = [t.name for t in p.transitions if rng.random() < 0.7]
        layers = heuristic_layers(p, [p.transition(n) for n in s])
        result = refine(p, s, layers)
        assert validate(result.program) == []
        assert result.stats.unrolling_steps <= unrolling_step_bound(p, layers)
        pruned = prune(result, infer(result.program))
        assert validate(pruned.program) == []


def test_refinement_idempotent_up_to_renaming():
    rng = random.Random(202)
    for _ in range(10):
        p = _corpus.random_pip(rng)
        layers = heuristic_layers(p, p.transitions)
        first, _ = refine_and_prune(p, p.transitions, layers)
        base_layers = {
            loc: layers.of(p.location(loc.base or loc.name))
            for loc in first.program.locations
        }
        second, _ = refine_and_prune(
            first.program,
            first.program.transitions,
            AbstractionLayer(base_layers),
        )
        assert isomorphic(first.program, second.program), (
            f"second refinement changed the program for {p!r}"
        )


def test_labeled_location_naming():
    base = _corpus.fig1().location("l1")
    plain = labeled_location(base, TRUE)
    assert plain.name == "l1"
    split = labeled_location(base, Constraint([X_EQ_0]))
    assert split.name.startswith("l1__")
    assert split.display() == "l1[x=0]"


CLASHING = (
    "vars x;\n"
    "start l0;\n"
    "trans t0 { from l0; guard u >= 0; update x := u; to l1; }\n"
    "trans t1 { from l1; guard x > 0; update x := 0; to l1; }\n"
    "trans t2 { from l1; guard x = 0; to l1__794d66ff; }\n"
)


def test_refined_name_clash_with_user_location_is_reported():
    # l1__794d66ff is the name refine gives l1 under the label x = 0
    from pcfr.textfmt import parse_program

    p = parse_program(CLASHING)
    x = p.program_vars[0]
    x_eq_0 = Atom(Polynomial.var(x), "=", 0)
    assert labeled_location(p.location("l1"), Constraint([x_eq_0])).name == "l1__794d66ff"
    layers = heuristic_layers(
        p, p.transitions,
        pinned={p.location("l0"): [], p.location("l1"): [x_eq_0],
                p.location("l1__794d66ff"): []},
    )
    with pytest.raises(ValueError) as err:
        refine(p, p.transitions, layers)
    message = str(err.value)
    assert "user location 'l1__794d66ff'" in message
    assert "location 'l1' under label x=0" in message


def test_cli_reports_refined_name_clash(capsys, tmp_path):
    import json

    from pcfr.cli import main

    program = tmp_path / "clash.pip"
    program.write_text(CLASHING)
    config = tmp_path / "clash.json"
    config.write_text(json.dumps({
        "S": ["t0", "t1", "t2"],
        "alpha": {"l0": [], "l1": ["x = 0"], "l1__794d66ff": []},
    }))
    code = main(["refine", str(program), "--config", str(config)])
    assert code == 2
    assert "collides with the user location 'l1__794d66ff'" in capsys.readouterr().err


def test_refined_name_clash_with_user_transition_is_reported():
    from pcfr.textfmt import parse_program

    p = parse_program(
        "vars x;\n"
        "start l0;\n"
        "trans t0 { from l0; guard u >= 0; update x := u; to l1; }\n"
        "trans t1 { from l1; guard x > 0; update x := 0; to l1; }\n"
        "trans t1__794d66ff { from l1; guard x < 0; to l1; }\n"
    )
    x_eq_0 = Atom(Polynomial.var(p.program_vars[0]), "=", 0)
    layers = heuristic_layers(
        p, p.transitions, pinned={p.location("l0"): [], p.location("l1"): [x_eq_0]}
    )
    with pytest.raises(ValueError, match="refined transition name 't1__794d66ff' of 't1'"):
        refine(p, p.transitions, layers)
