from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from refsys.fincat import FinSet
from refsys.kernel import (
    CapabilityError,
    IllFormedError,
    RefinementError,
    Status,
    axiom,
    check_vertical_iso,
    classify,
    compose_derivations,
    compose_many,
    conversion,
    derivations_equal,
    derivations_over,
    identity_derivation,
    well_formed,
)
from refsys.subset_model import build_subset_system, subset
from refsys.trivial_model import build_trivial_system

from conftest import is_identity_on


def test_trichotomy_on_squaring(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    nonzero = squaring.etype("nonzero")
    whole = squaring.etype("whole")
    positive = squaring.etype("positive")
    assert classify(sys, nonzero, sq, positive) is Status.DERIVABLE
    assert classify(sys, whole, sq, positive) is Status.UNDERIVABLE
    assert classify(sys, positive, sq, positive) is Status.ILL_FORMED


def test_well_formed_checks_boundaries_only(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    assert well_formed(sys, squaring.etype("whole"), sq, squaring.etype("big"))
    assert not well_formed(sys, squaring.etype("big"), sq, squaring.etype("big"))


def test_axiom_carries_the_judgment(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    d = axiom(sys, squaring.etype("nonzero"), sq, squaring.etype("positive"))
    assert d.rule == "ax"
    assert d.subject == squaring.etype("nonzero")
    assert d.target == squaring.etype("positive")
    with pytest.raises(RefinementError):
        axiom(sys, squaring.etype("whole"), sq, squaring.etype("positive"))
    with pytest.raises(IllFormedError):
        axiom(sys, squaring.etype("positive"), sq, squaring.etype("positive"))


def test_identity_laws(squaring):
    sys = squaring.system
    d = axiom(sys, squaring.etype("nonzero"), squaring.expr("sq"),
              squaring.etype("positive"))
    left = compose_derivations(sys, identity_derivation(sys, d.subject), d)
    right = compose_derivations(sys, d, identity_derivation(sys, d.target))
    assert derivations_equal(sys, left, d)
    assert derivations_equal(sys, right, d)
    assert is_identity_on(sys, identity_derivation(sys, d.subject), d.subject)


def test_composition_associative(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    neg = squaring.expr("neg")
    nonzero = squaring.etype("nonzero")
    d1 = axiom(sys, nonzero, neg, nonzero)
    d2 = axiom(sys, nonzero, neg, nonzero)
    d3 = axiom(sys, nonzero, sq, squaring.etype("positive"))
    one = compose_derivations(sys, compose_derivations(sys, d1, d2), d3)
    two = compose_derivations(sys, d1, compose_derivations(sys, d2, d3))
    assert derivations_equal(sys, one, two)
    assert derivations_equal(sys, compose_many(sys, d1, d2, d3), one)


def test_conversion_requires_table_equality(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    neg = squaring.expr("neg")
    nonzero = squaring.etype("nonzero")
    double_neg = sys.compose_exprs(neg, neg)
    d = axiom(sys, nonzero, double_neg, nonzero)
    converted = conversion(sys, d, sys.id_expr(sys.refines(nonzero)))
    assert is_identity_on(sys, converted, nonzero)
    from refsys.kernel import MismatchError
    with pytest.raises(MismatchError):
        conversion(sys, d, neg)


def test_derivations_over_proof_irrelevant_vs_relevant(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    ders = list(derivations_over(sys, squaring.etype("nonzero"), sq,
                                 squaring.etype("positive")))
    assert len(ders) == 1

    triv = build_trivial_system((FinSet("two", (1, 2)),))
    two = triv.e_types()[0]
    ders = list(derivations_over(triv, two, triv.id_expr(triv.refines(two)), two))
    assert len(ders) == 4


def test_vertical_iso_found_and_refused():
    a = FinSet("A", (1, 2, 3))
    sys = build_subset_system((a,))
    s = subset(a, (1, 2))
    t = subset(a, (1, 2))
    same = check_vertical_iso(sys, s, t)
    assert same is not None
    other = check_vertical_iso(sys, s, subset(a, (1,)))
    assert other is None


def test_vertical_iso_search_past_its_bound_is_a_refusal():
    three, two = FinSet("three", (0, 1, 2)), FinSet("two", (0, 1))
    triv = build_trivial_system((three, two))
    # the first bijection of three is the sixth function; its inverse, the
    # identity, is the sixth candidate: pair 5 * 27 + 6 = 141
    iso = check_vertical_iso(triv, three, three, limit=141)
    assert iso.fwd.interp.idx == (0, 1, 2) and iso.bwd.interp.idx == (0, 1, 2)
    with pytest.raises(CapabilityError, match="exceeds the bound of 140 pairs"):
        check_vertical_iso(triv, three, three, limit=140)
    # no iso three ~ two: all 8 * 9 pairs tried within the bound is a
    # refutation, a bound one pair lower a refusal
    assert check_vertical_iso(triv, three, two, limit=72) is None
    with pytest.raises(CapabilityError, match="bound of 71 pairs"):
        check_vertical_iso(triv, three, two, limit=71)


def test_vertical_iso_in_the_presheaf_model(arrow_sig):
    # P and Q have their two points at different objects, so no iso joins them
    sys = arrow_sig.system
    p, q = arrow_sig.etype("P"), arrow_sig.etype("Q")
    iso = check_vertical_iso(sys, p, p)
    assert is_identity_on(sys, compose_derivations(sys, iso.fwd, iso.bwd), p)
    assert is_identity_on(sys, compose_derivations(sys, iso.bwd, iso.fwd), p)
    assert check_vertical_iso(sys, p, q) is None
    assert check_vertical_iso(sys, q, p) is None

@given(st.data())
def test_subset_judgment_matches_image_containment(data):
    # derivability in the subset model is exactly f(S) <= T
    size_a = data.draw(st.integers(1, 4), label="|A|")
    size_b = data.draw(st.integers(1, 4), label="|B|")
    a = FinSet("A", tuple(range(size_a)))
    b = FinSet("B", tuple(range(size_b)))
    sys = build_subset_system((a, b))
    table = data.draw(
        st.fixed_dictionaries({x: st.sampled_from(b.elements) for x in a.elements}),
        label="f")
    from refsys.fincat import FinFunction
    f = FinFunction("f", a, b, table)
    s = subset(a, data.draw(st.sets(st.sampled_from(a.elements)), label="S"))
    t = subset(b, data.draw(st.sets(st.sampled_from(b.elements)), label="T"))
    expected = {table[x] for x in s.elements} <= set(t.elements)
    assert (classify(sys, s, f, t) is Status.DERIVABLE) == expected
