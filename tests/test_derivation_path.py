"""The derivation path computes each fact once.

The cut reads its expression off the composite interpretation (p of the
composite, for the functor p of a refinement system), the subset model's
enumerated morphisms are checked once by ``holds``, and ``e_types_over``
builds the subsets of one carrier only.  Each test compares the fast path
with the construction it replaces.
"""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from refsys.fincat import FinFunction, FinFunctor, FinSet, all_functions
from refsys.kernel import (
    CapabilityError,
    Derivation,
    Judgment,
    RefinementSystem,
    ValidationError,
    compose_derivations,
    conversion,
    derivations_over,
    identity_derivation,
)
from refsys.monadrep import OpExpr, OppositeSystem
from refsys.subset_model import SubsetMor, build_subset_system, subset
from refsys.trivial_model import build_trivial_system


def _small_subset_system():
    return build_subset_system((FinSet("A", (1, 2)), FinSet("B", ("b",))))


def _rename_function(f):
    return FinFunction("renamed", f.dom, f.cod, f.mapping)


def _rename_functor(f):
    return FinFunctor("renamed", f.dom, f.cod, f.object_map, f.arrow_map)


def _derivations(sys):
    """Every derivation between e-types, over every expression."""
    for s, t in itertools.product(sys.e_types(), repeat=2):
        for f in sys.expressions(sys.refines(s), sys.refines(t)):
            yield from derivations_over(sys, s, f, t)


def _assert_cuts_read_p_of_the_composite(sys, rename):
    ds = list(_derivations(sys))
    # a premise rewritten to a table-equal expression carries an interpretation
    # over the original expression; the cut must still agree with compose_exprs
    premises = ds + [conversion(sys, d, rename(d.expr)) for d in ds]
    cuts = 0
    for d1 in premises:
        for d2 in ds:
            if d1.target != d2.subject:
                continue
            cut = compose_derivations(sys, d1, d2)
            assert cut.rule == "C" and cut.premises == (d1, d2)
            assert (cut.subject, cut.target) == (d1.subject, d2.target)
            assert sys.exprs_equal(cut.expr, sys.compose_exprs(d1.expr, d2.expr))
            assert sys.interps_equal(cut.interp, sys.compose_interps(d1.interp, d2.interp))
            cuts += 1
    assert cuts > 0
    return cuts


def test_subset_cut_expression_is_p_of_the_composite():
    sys = _small_subset_system()
    assert _assert_cuts_read_p_of_the_composite(sys, _rename_function) > 100


def test_presheaf_cut_expression_is_p_of_the_composite(arrow_sig):
    _assert_cuts_read_p_of_the_composite(arrow_sig.system, _rename_functor)


def test_trivial_cut_expression_is_p_of_the_composite():
    sys = build_trivial_system((FinSet("S", (1,)), FinSet("T", (1, 2))))
    assert _assert_cuts_read_p_of_the_composite(sys, lambda f: f) > 50


def test_opposite_cut_expression_is_p_of_the_composite():
    sys = OppositeSystem(_small_subset_system())
    _assert_cuts_read_p_of_the_composite(
        sys, lambda f: OpExpr(_rename_function(f.base)))


def test_cut_after_conversion_keeps_the_composite_table():
    sys = _small_subset_system()
    a = sys.i_types()[0]
    swap = FinFunction("swap", a, a, {1: 2, 2: 1})
    s = subset(a, (1, 2))
    d = next(derivations_over(sys, s, swap, s))
    conv = conversion(sys, d, _rename_function(swap))
    cut = compose_derivations(sys, conv, d)
    assert cut.expr == swap.then(swap) == sys.id_expr(a)
    assert cut.expr is cut.interp.expr


# --- e_types_over builds the subsets of one carrier ----------------------------

def test_e_types_over_equals_the_filter_of_e_types():
    a, b = FinSet("A", (1, 2, 3)), FinSet("B", ("x", "y"))
    sys = build_subset_system((a, b))
    unregistered = (FinSet("C", (1,)), FinSet("A", (1, 2)))
    for x in (a, b, FinSet("B", ("x", "y"))) + unregistered:
        expected = tuple(s for s in sys.e_types() if sys.refines(s) == x)
        assert sys.e_types_over(x) == expected
        assert sys.e_types_over(x) == RefinementSystem.e_types_over(sys, x)
        assert [s.name for s in sys.e_types_over(x)] == [s.name for s in expected]
    assert len(sys.e_types_over(a)) == 8
    assert sys.e_types_over(unregistered[0]) == ()
    assert sys.e_types_over(unregistered[1]) == ()


def test_e_types_over_refuses_as_e_types_does():
    small, big = FinSet("A", (1,)), FinSet("Big", tuple(range(17)))
    sys = build_subset_system((small, big))
    with pytest.raises(CapabilityError) as whole:
        sys.e_types()
    for x in (small, big, FinSet("C", (1,))):
        with pytest.raises(CapabilityError) as one:
            sys.e_types_over(x)
        assert str(one.value) == str(whole.value)
    assert str(whole.value) == (
        "refusing to enumerate the 2^17 subsets of 'Big': "
        "it has 17 elements, exceeding the bound 16")


# --- morphisms_over: one check per morphism --------------------------------------

def _mask_subset(of, mask):
    return subset(of, [x for i, x in enumerate(of.elements) if mask >> i & 1])


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_morphisms_over_equal_checked_builds(n_a, n_b, data):
    a = FinSet("A", tuple(f"a{i}" for i in range(n_a)))
    b = FinSet("B", tuple(range(n_b)))
    sys = build_subset_system((a, b))
    s = _mask_subset(a, data.draw(st.integers(0, (1 << n_a) - 1), label="S"))
    t = _mask_subset(b, data.draw(st.integers(0, (1 << n_b) - 1), label="T"))
    fs = list(all_functions(a, b))
    f = fs[data.draw(st.integers(0, len(fs) - 1), label="f")]
    found = list(sys.morphisms_over(s, f, t))
    if sys.holds(s, f, t):
        assert found == [SubsetMor(s, f, t)]
        assert found[0].expr is f and found[0].src is s and found[0].dst is t
    else:
        assert found == []
        with pytest.raises(ValidationError, match="does not map"):
            SubsetMor(s, f, t)


# --- the kernel's value types ----------------------------------------------------

def test_judgments_and_derivations_are_values():
    sys = _small_subset_system()
    a = sys.i_types()[0]
    s = subset(a, (1,))
    j = Judgment(s, sys.id_expr(a), s)
    assert j == Judgment(subject=s, expr=sys.id_expr(a), target=s)
    assert hash(j) == hash(Judgment(s, sys.id_expr(a), s))
    assert j != Judgment(subset(a, (2,)), sys.id_expr(a), s)
    assert repr(j) == f"Judgment(subject={s!r}, expr={j.expr!r}, target={s!r})"
    d = identity_derivation(sys, s)
    same = Derivation("I", j, (), sys.id_interp(s))
    assert d == same and hash(d) == hash(same) and {d: 1}[same] == 1
    assert d != same._replace(rule="ax")
    assert (d.subject, d.expr, d.target) == tuple(j)
    cut = compose_derivations(sys, d, d)
    assert cut.size() == 3
    assert repr(d).startswith("Derivation(rule='I', judgment=Judgment(")
    for value, field in ((j, "expr"), (d, "interp"), (d, "rule")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
