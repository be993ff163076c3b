from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from refsys.fincat import FinFunction, FinSet
from refsys.kernel import LawViolation, derivations_equal, is_identity_on
from refsys.structures import (
    binary_intersection,
    binary_union,
    check_beta_eta,
    composite_pullback_witness,
    composite_pushforward_witness,
    implied_pullback_witness,
    implied_pushforward_witness,
    pull_compose_iso,
    pullback,
    push_compose_iso,
    pushforward,
    three_way,
    three_way_derivations,
    uniqueness_iso,
    weighted_intersection,
    weighted_union,
)
from refsys.subset_model import build_subset_system, subset


def test_pullback_is_the_inverse_image(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    w = pullback(sys, sq, squaring.etype("positive"))
    assert set(w.etype.elements) == {-3, -2, -1, 1, 2, 3}
    w = pullback(sys, sq, squaring.etype("big"))
    assert set(w.etype.elements) == {-3, 3}


def test_pushforward_is_the_direct_image(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    w = pushforward(sys, squaring.etype("nonzero"), sq)
    assert set(w.etype.elements) == {1, 4, 9}
    w = pushforward(sys, squaring.etype("negative"), sq)
    assert set(w.etype.elements) == {1, 4, 9}


def test_beta_eta_rejects_an_unknown_mode(squaring):
    w = pullback(squaring.system, squaring.expr("sq"), squaring.etype("big"))
    with pytest.raises(ValueError, match="unknown mode 'exhaustive'"):
        check_beta_eta(w, mode="exhaustive")


def test_witness_equations_both_modes(squaring, small_sys):
    sys = squaring.system
    sq = squaring.expr("sq")
    for w in (pullback(sys, sq, squaring.etype("big")),
              pushforward(sys, squaring.etype("negative"), sq)):
        assert check_beta_eta(w, mode="membership").ok
    # literal quantification over all subjects and factors needs small carriers
    a, b = small_sys.i_types()
    f = FinFunction("f", a, b, {"a1": 1, "a2": 1})
    for w in (pullback(small_sys, f, subset(b, (1, 2))),
              pushforward(small_sys, subset(a, ("a1",)), f)):
        assert check_beta_eta(w, mode="membership").ok
        rep = check_beta_eta(w, mode="literal")
        assert rep.ok
        assert rep.checked > 0


def test_uniqueness_iso_between_presentations(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    neg = squaring.expr("neg")
    ident = sys.id_expr(sys.expr_dom(sq))
    direct = pullback(sys, sq, squaring.etype("big"))
    pasted = composite_pullback_witness(sys, ident, sq, squaring.etype("big"))
    iso = uniqueness_iso(direct, pasted)
    assert is_identity_on(
        sys,
        sys_compose(sys, iso.fwd, iso.bwd),
        direct.etype)
    # negating first squares to the same table, so these are the same data
    converted = pullback(sys, sys.compose_exprs(neg, sq), squaring.etype("big"))
    uniqueness_iso(direct, converted)
    # a different target is refused
    other = pullback(sys, sq, squaring.etype("positive"))
    from refsys.kernel import MismatchError
    with pytest.raises(MismatchError):
        uniqueness_iso(direct, other)


def sys_compose(sys, d1, d2):
    from refsys.kernel import compose_derivations
    return compose_derivations(sys, d1, d2)


def test_composition_isos_subset(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    neg = squaring.expr("neg")
    for t in ("positive", "big", "squares"):
        pull_compose_iso(sys, neg, sq, squaring.etype(t))
    for s in ("nonzero", "negative", "whole"):
        push_compose_iso(sys, squaring.etype(s), neg, sq)


def test_composition_isos_presheaf(arrow_sig):
    # pasted Lan carries different canonical labels; the isos must bridge them
    sys = arrow_sig.system
    collapse = arrow_sig.expr("collapse")
    ident = sys.id_expr(sys.expr_dom(collapse))
    for s in (arrow_sig.etype("P"), arrow_sig.etype("Q")):
        for f, g in ((ident, ident), (ident, collapse), (collapse, collapse)):
            push_compose_iso(sys, s, f, g)
            pull_compose_iso(sys, f, g, s)


def test_composite_witness_satisfies_the_equations(arrow_sig):
    sys = arrow_sig.system
    collapse = arrow_sig.expr("collapse")
    w = composite_pushforward_witness(sys, arrow_sig.etype("P"), collapse, collapse)
    assert check_beta_eta(w, mode="literal").ok
    w = composite_pullback_witness(sys, collapse, collapse, arrow_sig.etype("Q"))
    assert check_beta_eta(w, mode="literal").ok


def test_two_out_of_three_witnesses(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    neg = squaring.expr("neg")
    fg = sys.compose_exprs(neg, sq)
    t = squaring.etype("big")
    w_fg = pullback(sys, fg, t)
    w_g = pullback(sys, sq, t)
    implied = implied_pullback_witness(sys, w_fg, w_g, neg)
    assert implied.etype == w_fg.etype
    assert check_beta_eta(implied, mode="membership").ok

    s = squaring.etype("negative")
    v_fg = pushforward(sys, s, fg)
    v_f = pushforward(sys, s, neg)
    implied = implied_pushforward_witness(sys, v_fg, v_f, sq)
    assert implied.etype == v_fg.etype
    assert check_beta_eta(implied, mode="membership").ok


def test_three_way_readings_and_derivations(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    tw = three_way(sys, squaring.etype("nonzero"), sq, squaring.etype("positive"))
    assert tw.agree and tw.direct
    tw = three_way(sys, squaring.etype("whole"), sq, squaring.etype("positive"))
    assert tw.agree and not tw.direct
    ders = three_way_derivations(
        sys, squaring.etype("nonzero"), sq, squaring.etype("positive"))
    assert derivations_equal(sys, ders["sub_to_direct_via_push"], ders["direct"])
    assert derivations_equal(sys, ders["sub_to_direct_via_pull"], ders["direct"])


def test_weighted_family_etypes(small_sys):
    sys = small_sys
    a, b = sys.i_types()
    sa = subset(a, ("a1",))
    ta = subset(a, ("a1", "a2"))
    assert set(binary_intersection(sys, sa, ta).elements) == {"a1"}
    assert set(binary_union(sys, sa, ta).elements) == {"a1", "a2"}
    # empty families give top and bottom
    top = weighted_intersection(sys, a, ()).etype
    bot = weighted_union(sys, a, ()).etype
    assert set(top.elements) == set(a.elements)
    assert set(bot.elements) == set()
    # mixed codomains: membership tested through each weight separately
    f = FinFunction("f", a, b, {"a1": 1, "a2": 2})
    fam = ((sys.id_expr(a), ta), (f, subset(b, (1,))))
    both = weighted_intersection(sys, a, fam).etype
    assert set(both.elements) == {"a1"}


def test_weighted_rules_round_trip(small_sys):
    sys = small_sys
    a, b = sys.i_types()
    f = FinFunction("f", a, b, {"a1": 1, "a2": 2})
    g = FinFunction("g", a, b, {"a1": 1, "a2": 1})
    fam = weighted_intersection(
        sys, a, ((f, subset(b, (1, 2))), (g, subset(b, (1,)))))
    from refsys.kernel import axiom
    betas = tuple(
        axiom(sys, fam.etype, sys.compose_exprs(sys.id_expr(a), e), t)
        for e, t in fam.family)
    paired = fam.tuple_rule(betas, sys.id_expr(a))
    assert is_identity_on(sys, paired, fam.etype)


@settings(max_examples=60)
@given(st.data())
def test_three_way_agreement_random(data):
    size_a = data.draw(st.integers(1, 4), label="|A|")
    size_b = data.draw(st.integers(1, 4), label="|B|")
    a = FinSet("A", tuple(range(size_a)))
    b = FinSet("B", tuple(range(10, 10 + size_b)))
    sys = build_subset_system((a, b))
    f = FinFunction("f", a, b, data.draw(
        st.fixed_dictionaries({x: st.sampled_from(b.elements) for x in a.elements}),
        label="f"))
    s = subset(a, data.draw(st.sets(st.sampled_from(a.elements)), label="S"))
    t = subset(b, data.draw(st.sets(st.sampled_from(b.elements)), label="T"))
    assert three_way(sys, s, f, t).agree


@settings(max_examples=40)
@given(st.data())
def test_composition_isos_random(data):
    size = data.draw(st.integers(1, 3), label="size")
    a = FinSet("A", tuple(range(size)))
    sys = build_subset_system((a,))
    draw_table = st.fixed_dictionaries(
        {x: st.sampled_from(a.elements) for x in a.elements})
    f = FinFunction("f", a, a, data.draw(draw_table, label="f"))
    g = FinFunction("g", a, a, data.draw(draw_table, label="g"))
    t = subset(a, data.draw(st.sets(st.sampled_from(a.elements)), label="T"))
    pull_compose_iso(sys, f, g, t)
    push_compose_iso(sys, t, f, g)
