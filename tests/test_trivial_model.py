from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import pytest

from refsys.fincat import FinFunction, FinSet
from refsys.kernel import IllFormedError, MismatchError, Status, classify
from refsys.structures import check_beta_eta, pullback, pushforward
from refsys.trivial_model import POINT, build_trivial_system

from conftest import DATA


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
    space = sys.residual_etype("left", two, two)
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


def test_unknown_index_types_and_expressions_are_refused():
    two = FinSet("two", (1, 2))
    sys = build_trivial_system((two,))
    assert classify(sys, two, "nope", two) is Status.ILL_FORMED
    for call in (lambda: sys.expr_dom("nope"), lambda: sys.expr_cod("nope"),
                 lambda: sys.id_expr("elsewhere"), lambda: sys.expressions(POINT, "elsewhere"),
                 lambda: sys.morphisms_over(two, "nope", two)):
        with pytest.raises(IllFormedError):
            call()
    with pytest.raises(MismatchError):
        sys.compose_exprs("id", "nope")


def test_the_tensor_of_index_types_is_the_point():
    sys = build_trivial_system((FinSet("two", (1, 2)),))
    assert sys.tensor_itype(POINT, POINT) == POINT == "*"
    for a, b in ((POINT, "elsewhere"), ("elsewhere", POINT), ("elsewhere", "elsewhere")):
        with pytest.raises(IllFormedError):
            sys.tensor_itype(a, b)


def test_unknown_expression_is_ill_formed_under_optimize():
    # the refusals raise explicitly, so `python -O` (which strips asserts) agrees
    code = """
from refsys.fincat import FinSet
from refsys.kernel import classify
from refsys.trivial_model import build_trivial_system
two = FinSet("two", (1, 2))
sys = build_trivial_system((two,))
print(classify(sys, two, "nope", two).name, classify(sys, two, "id", two).name)
"""
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    for flags in ((), ("-O",)):
        proc = subprocess.run([sys.executable, *flags, "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ILL_FORMED", "DERIVABLE"]
