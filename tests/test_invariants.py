import random

import _corpus
import _reference_invariants
from pcfr import invariants
from pcfr.invariants import atom_universe, infer, post_image_atoms
from pcfr.linear import entails
from pcfr.semantics import SeededPolicy, enumerate_paths
from pcfr.syntax import Atom, Constraint, Polynomial, Update, pv, tmp

X, Y = pv("x"), pv("y")
PX, PY = Polynomial.var(X), Polynomial.var(Y)


def test_universe_contains_guard_atoms_not_temporaries(fig1):
    universe = atom_universe(fig1)
    assert Atom(PX, ">", 0) in universe
    assert Atom(PY, ">", 0) in universe
    assert Atom(PX, "=", 0) in universe
    u = tmp("u")
    assert all(u not in a.variables() for a in universe)


def test_universe_of_trivial_guards_is_empty():
    p = _corpus.random_pip(random.Random(1))
    stripped = _strip_guards(p)
    assert atom_universe(stripped) == frozenset()


def _strip_guards(p):
    from dataclasses import replace

    from pcfr.model import PIP, GeneralTransition
    from pcfr.syntax import TRUE

    gts = []
    for g in p.gts:
        gts.append(
            GeneralTransition(
                g.name, tuple(replace(t, guard=TRUE) for t in g.members)
            )
        )
    return PIP(p.program_vars, p.locations, p.initial, gts)


def test_post_image_of_decrement_relaxes_bound():
    # after y := y - 1 under y > 0, the post state satisfies y >= 0
    images = post_image_atoms(Atom(PY, ">", 0), Update({Y: PY - 1}), (X, Y))
    assert Atom(PY, ">=", 0) in images
    assert Atom(PY, ">=", 2) not in images


def test_post_image_of_zeroing_is_equality():
    images = post_image_atoms(Atom(PX, ">", 0), Update({X: Polynomial.const(0)}), (X, Y))
    assert Atom(PX, "=", 0) in images


def test_fig2_invariant_strengthens_coin_source(fig2):
    inv = infer(fig2)
    l1 = fig2.location("l1")
    assert entails(inv.of(l1), Atom(PX, ">", 0))


def test_fig2_tail_loop_invariant(fig2):
    inv = infer(fig2)
    l2_split = [l for l in fig2.locations if l.name.startswith("l2__")][0]
    assert entails(inv.of(l2_split), Atom(PY, ">", 0))
    assert entails(inv.of(l2_split), Atom(PX, "=", 0))


def test_initial_location_has_no_assumptions(fig1, fig2):
    assert infer(fig1).of(fig1.initial).is_true()
    assert infer(fig2).of(fig2.initial).is_true()


def test_fig1_coin_source_has_no_positive_invariant(fig1):
    # t1b loops back to l1 with x = 0, so x > 0 is not invariant there
    inv = infer(fig1)
    assert inv.of(fig1.location("l1")).is_true()
    l2_inv = inv.of(fig1.location("l2"))
    assert entails(l2_inv, Atom(PX, "=", 0))
    assert entails(l2_inv, Atom(PY, ">", 0))


def _infer_over(monkeypatch, p, universe):
    """``infer(p)`` over ``universe`` in place of ``atom_universe(p)``."""
    monkeypatch.setattr(invariants, "atom_universe", lambda q: universe)
    try:
        return infer(p)
    finally:
        monkeypatch.undo()


def test_inference_is_deterministic_and_stable(monkeypatch, fig2):
    first = infer(fig2)
    second = infer(fig2)
    assert first.inv == second.inv
    # stability: feeding the result's atoms back as the universe changes nothing
    universe = atom_universe(fig2) | frozenset(
        a for c in first.inv.values() for a in c.atoms
    )
    again = [_infer_over(monkeypatch, fig2, universe).inv for _ in range(2)]
    assert again[0] == again[1]


def test_soundness_on_reachable_configurations(fig1, fig2):
    rng = random.Random(33)
    programs = [fig1, fig2] + [_corpus.random_pip(rng) for _ in range(8)]
    for p in programs:
        inv = infer(p)
        for seed in (0, 1):
            policy = SeededPolicy(seed, temp_values=(0, 1))
            sigma0 = _corpus.random_sigma0(rng, p)
            result = enumerate_paths(p, policy, sigma0, 12, path_cap=20_000)
            for path in result.paths:
                for _, config in path.steps:
                    if config.location.name == "<terminal>":
                        continue
                    constraint = inv.of(config.location)
                    assert constraint.satisfied_by(config.state_dict), (
                        f"invariant {constraint} violated at {config}"
                    )


def test_termination_bound():
    rng = random.Random(7)
    for _ in range(10):
        p = _corpus.random_pip(rng)
        universe = atom_universe(p)
        # each location's atom set only shrinks, so the fixpoint exists;
        # infer must return constraints drawn from the universe
        inv = infer(p)
        for loc in p.locations:
            if loc == p.initial:
                assert inv.of(loc).is_true()
            else:
                assert set(inv.of(loc).atoms) <= set(universe)


# ---------------------------------------------------------------------------
# The frame and identity shortcuts against the reference inference


def _assert_same_as_reference(p):
    assert atom_universe(p) == _reference_invariants.atom_universe(p)
    assert infer(p).inv == _reference_invariants.infer(p).inv


def _refined_before_pruning(p, s=None):
    from pcfr.abstraction import heuristic_layers
    from pcfr.refine import refine

    s = list(p.transitions) if s is None else s
    return refine(p, [t.name for t in s], heuristic_layers(p, s)).program


def test_infer_matches_reference_on_figures_and_chains(fig1, fig1_parsed, fig2, fig2_parsed):
    from pcfr.textfmt import parse_program

    programs = [fig1, fig1_parsed, fig2, fig2_parsed]
    for k in range(1, 5):
        p = parse_program(_corpus.chain(k))
        entries_kept = [t for t in p.transitions if not t.name.startswith("e")]
        programs += [p, _refined_before_pruning(p, entries_kept)]
    for p in programs:
        _assert_same_as_reference(p)


def test_infer_matches_reference_on_random_programs():
    rng = random.Random(2024)
    for _ in range(300):
        p = _corpus.random_pip(rng)
        _assert_same_as_reference(p)
        _assert_same_as_reference(_refined_before_pruning(p))


def _program(edges):
    """A program over x, y and locations l0..ln from (source, guard atoms, update,
    target) edges, one general transition each; l0 is initial."""
    from fractions import Fraction

    from pcfr.model import PIP, GeneralTransition, Location, Transition

    names = sorted({e[0] for e in edges} | {e[3] for e in edges})
    locs = {n: Location(n) for n in names}
    gts = [
        GeneralTransition(
            f"g{i}",
            (Transition(f"t{i}", locs[s], Constraint(g), Fraction(1), u, locs[d]),),
        )
        for i, (s, g, u, d) in enumerate(edges)
    ]
    return PIP((X, Y), locs.values(), locs["l0"], gts), locs


def test_frame_atom_dropped_under_nonlinear_guard_as_reference():
    # x >= 1 holds at l1 and y := y + 1 leaves it alone, but the guard
    # y*y >= 1 into l2 is nonlinear, so entails proves nothing there; the
    # guard out of l2 reads x, so x >= 1 is live at l1 and l2
    x_pos = Atom(PX, ">=", 1)
    square = Atom(PY * PY, ">=", 1)
    p, locs = _program(
        [
            ("l0", [x_pos], Update(), "l1"),
            ("l1", [square], Update({Y: PY + 1}), "l2"),
            ("l2", [x_pos], Update(), "l3"),
        ]
    )
    assert not entails(Constraint([x_pos, square]), x_pos)
    inv = infer(p)
    assert x_pos in inv.of(locs["l1"]).atoms
    assert inv.of(locs["l2"]).is_true()
    _assert_same_as_reference(p)


def test_trivial_universe_atoms_as_reference(monkeypatch):
    # l0 cannot reach l3 or l4, so both start from the whole universe, and
    # l4 keeps the false atom by membership in l3's invariant
    true_atom, false_atom = Atom(0, "<=", 0), Atom(1, "<=", 0)
    false_eq = Atom(1, "=", 0)
    assert true_atom.is_trivially_true() and false_atom.is_trivially_false()
    x_pos = Atom(PX, ">=", 1)
    p, locs = _program(
        [
            ("l0", [x_pos], Update(), "l1"),
            ("l1", [], Update({X: PX - 1}), "l2"),
            ("l3", [x_pos], Update({Y: PY + 1}), "l4"),
        ]
    )
    universe = atom_universe(p) | {true_atom, false_atom, false_eq}
    inv = _infer_over(monkeypatch, p, universe)
    assert false_atom not in inv.of(locs["l1"]).atoms
    assert {false_atom, false_eq} <= set(inv.of(locs["l3"]).atoms)
    assert {false_atom, false_eq} <= set(inv.of(locs["l4"]).atoms)
    assert atom_universe(p) == _reference_invariants.atom_universe(p)
    assert inv.inv == _reference_invariants.infer(p, universe).inv


def test_identity_post_image_is_the_atom_as_reference():
    from pcfr.syntax import IDENTITY

    atoms = [
        Atom(-PX + PY, "=", 0),
        Atom(-2 * PX - 4 * PY, "=", 6),
        Atom(-PY, "=", 3),
        Atom(3 * PX - 6 * PY, "<=", 4),
        Atom(-PX, ">", 2),
    ]
    for a in atoms:
        assert post_image_atoms(a, IDENTITY, (X, Y)) == [a]
        assert _reference_invariants.post_image_atoms(a, IDENTITY, (X, Y)) == [a]
    # the projection drops a true constant and an atom over a temporary,
    # and turns a false equality into 1 <= 0
    u = Polynomial.var(tmp("u"))
    false_atom = Atom(1, "<=", 0)
    for a, image in (
        (Atom(0, "<=", 0), []),
        (false_atom, [false_atom]),
        (Atom(1, "=", 0), [false_atom]),
        (Atom(PX + u, ">=", 0), []),
    ):
        assert post_image_atoms(a, IDENTITY, (X, Y)) == image
        assert _reference_invariants.post_image_atoms(a, IDENTITY, (X, Y)) == image


def test_frame_update_still_projects_as_reference():
    # a := b + 1 leaves 0 <= b alone, yet the post-image also records a's
    # new value, so only the identity update returns the atom itself
    a, b = pv("a"), pv("b")
    pa, pb = Polynomial.var(a), Polynomial.var(b)
    atom = Atom(pb, ">=", 0)
    update = Update({a: pb + 1})
    got = post_image_atoms(atom, update, (a, b))
    assert got == _reference_invariants.post_image_atoms(atom, update, (a, b))
    assert set(got) == {Atom(pa, "=", pb + 1), atom}
    # only the atom's variables, the assigned ones and those their images
    # read get an equality; d and e are left alone and read by no image
    c, d, e = pv("c"), pv("d"), pv("e")
    pc, pd, pe = Polynomial.var(c), Polynomial.var(d), Polynomial.var(e)
    program_vars = (a, b, c, d, e)
    # a := c, b := c read the unassigned c, whose equality keeps a = b
    # in the image of an atom over d
    atom = Atom(pd, ">=", 0)
    update = Update({a: pc, b: pc})
    got = post_image_atoms(atom, update, program_vars)
    assert got == _reference_invariants.post_image_atoms(atom, update, program_vars)
    assert set(got) == {Atom(pa, "=", pc), Atom(pb, "=", pc), atom}
    assert entails(Constraint(got), Atom(pa, "=", pb))
    # an assigned image that reads the atom's own variable
    atom = Atom(pc + pd, "<=", 4)
    update = Update({a: 2 * pc - pe, c: pc + 1})
    got = post_image_atoms(atom, update, program_vars)
    assert got == _reference_invariants.post_image_atoms(atom, update, program_vars)
    assert set(got) == {Atom(pa, "=", 2 * pc - pe - 2), Atom(pc + pd, "<=", 5)}
    # a nonlinear image of a variable the atom does not read still gives []
    atom = Atom(pd, ">=", 0)
    update = Update({a: pc * pc, b: pb + 1})
    assert post_image_atoms(atom, update, program_vars) == []
    assert _reference_invariants.post_image_atoms(atom, update, program_vars) == []
    # every guard atom of the refined chain and of random programs, as lists
    rng = random.Random(5)
    programs = [_corpus.refined_chain(2)] + [_corpus.random_pip(rng) for _ in range(40)]
    for p in programs:
        for t in p.transitions:
            for atom in t.guard.atoms:
                assert post_image_atoms(
                    atom, t.update, p.program_vars
                ) == _reference_invariants.post_image_atoms(atom, t.update, p.program_vars)


# ---------------------------------------------------------------------------
# The live starting sets


def test_live_start_keeps_atoms_read_after_a_location(monkeypatch):
    # y is read after l1 and l4, x is not; l4 is entered only through a
    # contradictory guard, so it keeps its whole starting set, and l3,
    # which l0 cannot reach, keeps the whole universe
    x_pos, x_nonpos = Atom(PX, ">=", 1), Atom(PX, "<=", 0)
    y_pos, y_nonneg = Atom(PY, ">=", 1), Atom(PY, ">=", 0)
    mixed, false_atom = Atom(PX + PY, ">=", 2), Atom(1, "<=", 0)
    p, locs = _program(
        [
            ("l0", [x_pos, y_pos], Update(), "l1"),
            ("l1", [y_pos], Update({Y: PY - 1}), "l2"),
            ("l3", [x_nonpos], Update(), "l1"),
            ("l0", [x_pos, x_nonpos], Update(), "l4"),
            ("l4", [], Update(), "l1"),
        ]
    )
    universe = atom_universe(p) | {mixed, false_atom}
    assert universe == {x_pos, x_nonpos, y_pos, y_nonneg, mixed, false_atom}
    inv = _infer_over(monkeypatch, p, universe)
    assert set(inv.of(locs["l1"]).atoms) == {y_pos, y_nonneg, mixed}
    assert set(inv.of(locs["l4"]).atoms) == {y_pos, y_nonneg, mixed, false_atom}
    assert inv.of(locs["l2"]).is_true()
    assert set(inv.of(locs["l3"]).atoms) == universe
    full = _reference_invariants.infer_full_universe(p, universe)
    assert set(full.of(locs["l1"]).atoms) == {x_pos, y_pos, y_nonneg, mixed}
    assert inv.inv == _reference_invariants.infer(p, universe).inv


def _live_and_full_prune_alike(r):
    """The live invariants of ``r``'s program lie within the full-universe
    ones at every location, and pruning ``r`` with either prints the same;
    returns the number of locations where the two differ."""
    from pcfr.refine import prune
    from pcfr.textfmt import print_program

    live = infer(r.program)
    full = _reference_invariants.infer_full_universe(r.program)
    for loc in r.program.locations:
        assert set(live.of(loc).atoms) <= set(full.of(loc).atoms), loc
    assert print_program(prune(r, live).program) == print_program(prune(r, full).program)
    return sum(live.of(loc) != full.of(loc) for loc in r.program.locations)


def test_live_invariants_prune_as_full_universe_reference(fig1, fig2):
    from pcfr.abstraction import heuristic_layers
    from pcfr.refine import refine
    from pcfr.textfmt import parse_program

    programs = [(fig1, fig1.transitions), (fig2, fig2.transitions)]
    for k in range(1, 5):
        p = parse_program(_corpus.chain(k))
        programs.append((p, [t for t in p.transitions if not t.name.startswith("e")]))
    programs += [(p, p.transitions) for p, _ in _corpus.differential_programs()]
    programs += [(p, p.transitions) for p in _corpus.population(100)]
    shrunk = 0
    for p, s in programs:
        for members in ([], s):
            names = [t.name for t in members]
            shrunk += _live_and_full_prune_alike(refine(p, names, heuristic_layers(p, members)))
    assert shrunk > 100  # the live start drops atoms that hold (215 locations)
