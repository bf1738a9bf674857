import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfr.syntax import (
    IDENTITY,
    TRUE,
    Atom,
    Constraint,
    Polynomial,
    UnboundVariableError,
    Update,
    pv,
    tmp,
)

X, Y, U = pv("x"), pv("y"), tmp("u")
PX, PY, PU = Polynomial.var(X), Polynomial.var(Y), Polynomial.var(U)


# --- evaluation -----------------------------------------------------------


def test_eval_identity():
    assert PU.evaluate({U: 3}) == 3


def test_eval_update_image():
    # the countdown update y := y - 1 applied at y = 5
    assert (PY - 1).evaluate({Y: 5}) == 4


def test_eval_doubling():
    # independent check: 2*y at y=4 computed by plain arithmetic
    assert (2 * PY).evaluate({Y: 4}) == 2 * 4


def test_eval_unbound_variable_names_it():
    with pytest.raises(UnboundVariableError) as err:
        (PX + PY).evaluate({X: 1})
    assert err.value.variable == Y


# --- substitution ---------------------------------------------------------


def test_substitute_makes_trivial_equality_true():
    c = Constraint([Atom(PX, "=", 0)])
    assert c.substitute({X: Polynomial.const(0)}).is_true()


def test_substitute_shifts_equality():
    c = Constraint([Atom(PX, "=", -1)])
    assert c.substitute({X: PX - 1}) == Constraint([Atom(PX, "=", 0)])


def test_substitute_true_is_fixed_point():
    assert TRUE.substitute({X: PU * PU}) == TRUE


def test_substitute_identity_preserves_structure():
    c = Constraint([Atom(PX + 2 * PY, "<=", 5), Atom(PY, "=", 0)])
    assert c.substitute({}) == c


# --- satisfaction ---------------------------------------------------------


def test_satisfies_positive():
    assert Constraint([Atom(PX, ">", 0)]).satisfied_by({X: 1})


def test_satisfies_guard_conjunction():
    guard = Constraint([Atom(PY, ">", 0), Atom(PX, "=", 0)])
    assert guard.satisfied_by({X: 0, Y: 3})


def test_satisfies_boundary():
    assert not Constraint([Atom(PX, ">", 0)]).satisfied_by({X: 0})


# --- normalization --------------------------------------------------------


def test_strict_becomes_nonstrict():
    assert Atom(PY, ">", 0) == Atom(PY - 1, ">=", 0) == Atom(1, "<=", PY)


def test_gcd_tightening_inequality():
    assert Atom(2 * PX, "<=", 1) == Atom(PX, "<=", 0)


def test_gcd_infeasible_equality_is_false():
    assert Atom(2 * PX, "=", 1).is_trivially_false()


def test_equality_sign_canonical():
    assert Atom(-PX, "=", 0) == Atom(PX, "=", 0)


_RELS = ["<", "<=", "=", ">=", ">"]


@st.composite
def small_polys(draw, vars_pool=(X, Y)):
    poly = Polynomial.const(draw(st.integers(-4, 4)))
    for v in vars_pool:
        poly = poly + draw(st.integers(-4, 4)) * Polynomial.var(v)
    if draw(st.booleans()):
        poly = poly + draw(st.integers(-2, 2)) * Polynomial.var(X) * Polynomial.var(Y)
    return poly


@settings(max_examples=120, deadline=None)
@given(
    lhs=small_polys(),
    rhs=small_polys(),
    rel=st.sampled_from(_RELS),
    x=st.integers(-6, 6),
    y=st.integers(-6, 6),
)
def test_normalization_preserves_integer_truth(lhs, rhs, rel, x, y):
    state = {X: x, Y: y}
    left, right = lhs.evaluate(state), rhs.evaluate(state)
    raw = {
        "<": left < right,
        "<=": left <= right,
        "=": left == right,
        ">=": left >= right,
        ">": left > right,
    }[rel]
    assert Atom(lhs, rel, rhs).satisfied_by(state) == raw


# --- ring-homomorphism property --------------------------------------------


@settings(max_examples=100, deadline=None)
@given(p=small_polys(), q=small_polys(), x=st.integers(-5, 5), y=st.integers(-5, 5))
def test_eval_is_ring_homomorphism(p, q, x, y):
    state = {X: x, Y: y}
    assert (p + q).evaluate(state) == p.evaluate(state) + q.evaluate(state)
    assert (p * q).evaluate(state) == p.evaluate(state) * q.evaluate(state)


@settings(max_examples=60, deadline=None)
@given(p=small_polys(), q=small_polys(), r=small_polys())
def test_polynomial_equality_is_structural(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p - p == Polynomial.const(0)


# --- updates ---------------------------------------------------------------


def test_update_drops_identity_images():
    assert Update({X: PX}) == IDENTITY


def test_update_rejects_temporary_assignment():
    with pytest.raises(ValueError):
        Update({U: PX})


def test_update_apply_to_state_keeps_temporaries():
    up = Update({X: PU, Y: PY + 1})
    out = up.apply_to_state({X: 9, Y: 1, U: 5})
    assert out == {X: 5, Y: 2, U: 5}
    # an unassigned program variable keeps its value, and the images are
    # evaluated simultaneously over the old state
    z = pv("z")
    swap = Update({X: PY, Y: PX + Polynomial.var(z)})
    state = {X: 9, Y: 1, z: 4, U: 5}
    assert swap.apply_to_state(state) == {X: 1, Y: 13, z: 4, U: 5}
    assert state == {X: 9, Y: 1, z: 4, U: 5}


def test_constraint_drops_trivially_true_atoms():
    c = Constraint([Atom(0, "<=", 5), Atom(PX, ">", 0)])
    assert c == Constraint([Atom(PX, ">", 0)])
    assert len(c.atoms) == 1
