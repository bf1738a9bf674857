import random

import _corpus
from pcfr.abstraction import heuristic_layers, label
from pcfr.linear import entails
from pcfr.model import outgoing
from pcfr.refine import refine
from pcfr.semantics import SeededPolicy, enumerate_paths
from pcfr.syntax import TRUE, Atom, Constraint, Polynomial, Update, pv, tmp

X, Y = pv("x"), pv("y")
PX, PY = Polynomial.var(X), Polynomial.var(Y)
X_EQ_0 = Atom(PX, "=", 0)


def test_heuristic_covers_worked_example(fig1):
    layers = heuristic_layers(fig1, fig1.transitions)
    l1, l2 = fig1.location("l1"), fig1.location("l2")
    assert X_EQ_0 in layers.of(l1)  # from the guard of t2 at its source
    assert X_EQ_0 in layers.of(l2)  # propagated along t2
    assert layers.of(fig1.location("l0")) == frozenset()


def test_empty_refinement_set_gives_empty_layers(fig1):
    layers = heuristic_layers(fig1, [])
    assert all(layers.of(l) == frozenset() for l in fig1.locations)


def test_temporary_guard_atoms_excluded(fig1):
    layers = heuristic_layers(fig1, fig1.transitions)
    for loc in fig1.locations:
        for atom in layers.of(loc):
            assert all(v.is_program for v in atom.variables())


def test_pinned_layers_override(fig1):
    layers = _corpus.paper_layers(fig1)
    assert layers.of(fig1.location("l1")) == frozenset([X_EQ_0])
    assert layers.of(fig1.location("l2")) == frozenset([X_EQ_0])
    assert layers.of(fig1.location("l0")) == frozenset()


def test_extra_layers_unioned(fig1):
    y_pos = Atom(PY, ">", 0)
    layers = heuristic_layers(fig1, [], extra={fig1.location("l1"): [y_pos]})
    assert layers.of(fig1.location("l1")) == frozenset([y_pos])


def test_split_equalities_toggle(fig1):
    layers = heuristic_layers(
        fig1, fig1.transitions, split_equalities=True
    )
    l1_atoms = layers.of(fig1.location("l1"))
    assert Atom(PX, "<=", 0) in l1_atoms
    assert Atom(PX, ">=", 0) in l1_atoms
    assert X_EQ_0 not in l1_atoms


# --- the label function -----------------------------------------------------


def test_label_identity_update_proves_nothing():
    got = label(TRUE, Constraint([Atom(PX, ">", 0)]), Update(), [X_EQ_0])
    assert got.is_true()


def test_label_zeroing_update_proves_equality():
    got = label(
        TRUE, Constraint([Atom(PX, ">", 0)]), Update({X: Polynomial.const(0)}), [X_EQ_0]
    )
    assert got == Constraint([X_EQ_0])


def test_label_propagates_source_label():
    got = label(
        Constraint([X_EQ_0]), TRUE, Update({X: PX - 1}), [Atom(PX, "=", -1)]
    )
    assert got == Constraint([Atom(PX, "=", -1)])


def test_label_output_subset_of_layer(fig1):
    rng = random.Random(11)
    for _ in range(40):
        p = _corpus.random_pip(rng)
        layers = heuristic_layers(p, p.transitions)
        for t in p.transitions:
            layer = layers.of(t.target)
            got = label(TRUE, t.guard, t.update, layer)
            assert set(got.atoms) <= set(layer)


def test_label_monotone_in_source_label():
    phi = Constraint([Atom(PX, ">", 0)])
    layer = [X_EQ_0, Atom(PY, ">", 0)]
    weak = label(TRUE, phi, Update({X: Polynomial.const(0)}), layer)
    strong = label(
        Constraint([Atom(PY, ">", 0)]), phi, Update({X: Polynomial.const(0)}), layer
    )
    assert set(weak.atoms) <= set(strong.atoms)


def test_labels_sound_on_reachable_states():
    """Every configuration reached in a refined program satisfies the label
    of its location."""
    rng = random.Random(23)
    for _ in range(12):
        p = _corpus.random_pip(rng)
        layers = heuristic_layers(p, p.transitions)
        refined = refine(p, p.transitions, layers).program
        sigma0 = _corpus.random_sigma0(rng, p)
        policy = SeededPolicy(rng.randint(0, 99), temp_values=(0, 1))
        result = enumerate_paths(refined, policy, sigma0, 10, path_cap=20_000)
        for path in result.paths:
            for _, config in path.steps:
                loc = config.location
                if loc.label is None:
                    continue
                assert loc.label.satisfied_by(config.state_dict), (
                    f"label {loc.label} violated at {config}"
                )


def _literal_label(tau, phi, eta, layer):
    return Constraint(psi for psi in layer if entails(tau & phi, eta.apply_to_atom(psi)))


def _assert_labels_literal(p, layers):
    """Every label the refinement can ask for, from each label it reached
    at a location, equals the label's definition."""
    for loc in refine(p, p.transitions, layers).program.locations:
        tau = loc.label if loc.label is not None else TRUE
        for g in outgoing(p, p.location(loc.base or loc.name)):
            for t in g:
                layer = layers.of(t.target)
                got = label(tau, g.guard, t.update, layer)
                assert got == _literal_label(tau, g.guard, t.update, layer), (loc, t)


def test_label_is_its_definition_on_refinements(fig1):
    rng = random.Random(5)
    for p in [fig1, _corpus.gadget_chain(2)[0]] + [
        _corpus.random_pip(rng) for _ in range(60)
    ]:
        _assert_labels_literal(p, heuristic_layers(p, p.transitions))


def test_label_is_its_definition_with_a_temporary_layer_atom(fig1):
    # u > 0 is t0's guard and t0 assigns only x, so the label of l1 keeps it
    # by membership; the coin's guard x > 0 does not prove it
    u_pos = Atom(Polynomial.var(tmp("u")), ">", 0)
    l1 = fig1.location("l1")
    layers = heuristic_layers(fig1, fig1.transitions, pinned={l1: [X_EQ_0, u_pos]})
    _assert_labels_literal(fig1, layers)
    t0 = fig1.transition("t0")
    assert label(TRUE, t0.guard, t0.update, layers.of(l1)) == Constraint([u_pos])


def test_label_is_its_definition_under_a_nonlinear_guard():
    # x >= 1 is an atom of the guard into l2, which y := y + 1 leaves alone,
    # but entails proves nothing from the nonlinear premise, so the label is
    # true; into l1 the same atom is kept from a linear premise
    from fractions import Fraction

    from pcfr.model import PIP, GeneralTransition, Location, Transition

    x_pos, square = Atom(PX, ">=", 1), Atom(PY * PY, ">=", 1)
    l0, l1, l2 = Location("l0"), Location("l1"), Location("l2")
    t0 = Transition("t0", l0, Constraint([x_pos]), Fraction(1), Update(), l1)
    t1 = Transition("t1", l1, Constraint([x_pos, square]), Fraction(1), Update({Y: PY + 1}), l2)
    gts = [GeneralTransition("g0", (t0,)), GeneralTransition("g1", (t1,))]
    p = PIP((X, Y), (l0, l1, l2), l0, gts)
    layers = heuristic_layers(p, p.transitions, pinned={l1: [x_pos], l2: [x_pos]})
    _assert_labels_literal(p, layers)
    assert label(TRUE, t0.guard, t0.update, [x_pos]) == Constraint([x_pos])
    assert label(Constraint([x_pos]), t1.guard, t1.update, [x_pos]).is_true()
