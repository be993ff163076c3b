from __future__ import annotations

import dataclasses

import pytest

from refsys.fincat import FinFunction, FinSet
from refsys.kernel import Status, classify
from refsys.structures import check_beta_eta, pullback, pushforward
from refsys.trivial_model import POINT, build_trivial_system


def test_single_index_type():
    two = FinSet("two", (1, 2))
    three = FinSet("three", (1, 2, 3))
    sys = build_trivial_system((two, three))
    assert sys.i_types() == (POINT,)
    assert sys.refines(two) == POINT
    assert list(sys.expressions(POINT, POINT)) == [sys.id_expr(POINT)]


def test_every_function_is_a_derivation():
    two = FinSet("two", (1, 2))
    three = FinSet("three", (1, 2, 3))
    sys = build_trivial_system((two, three))
    ident = sys.id_expr(POINT)
    ms = list(sys.morphisms_over(two, ident, three))
    assert len(ms) == 9
    assert classify(sys, two, ident, three) is Status.DERIVABLE
    assert not sys.proof_irrelevant


def test_empty_target_underivable():
    two = FinSet("two", (1, 2))
    empty = FinSet("empty", ())
    sys = build_trivial_system((two, empty))
    ident = sys.id_expr(POINT)
    assert classify(sys, two, ident, empty) is Status.UNDERIVABLE
    assert classify(sys, empty, ident, two) is Status.DERIVABLE


def test_pull_push_along_the_identity_are_trivial():
    two = FinSet("two", (1, 2))
    sys = build_trivial_system((two,))
    ident = sys.id_expr(POINT)
    w = pullback(sys, ident, two)
    assert w.etype == two
    assert check_beta_eta(w, mode="literal").ok
    w = pushforward(sys, two, ident)
    assert w.etype == two
    assert check_beta_eta(w, mode="literal").ok


def test_monoidal_closed_structure_is_products_and_function_spaces():
    two = FinSet("two", (1, 2))
    sys = build_trivial_system((two,))
    prod = sys.tensor_etype(two, two)
    assert len(prod) == 4
    space = sys.residual_left_etype(two, two)
    assert len(space) == 4
    unit = sys.unit_etype()
    assert len(unit) == 1


def test_membership_mode_refused():
    # completeness of the elementwise check needs proof irrelevance
    from refsys.kernel import CapabilityError
    two = FinSet("two", (1, 2))
    sys = build_trivial_system((two,))
    w = pullback(sys, sys.id_expr(POINT), two)
    with pytest.raises(CapabilityError):
        check_beta_eta(w, mode="membership")


def test_broken_right_rule_is_reported_not_raised():
    # the trivial model's one expression is the string "id", which has no .name
    two = FinSet("two", (1, 2))
    sys = build_trivial_system((two,))
    w = pullback(sys, sys.id_expr(POINT), two)
    swap = FinFunction("swap", two, two, {1: 2, 2: 1})
    broken = dataclasses.replace(w, _factor=lambda m, g: m.then(swap))
    report = check_beta_eta(broken, mode="literal")
    assert report.failures[0] == "beta-law fails at subject two, factor id"
