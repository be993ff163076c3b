from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from refsys.fincat import FinFunction, FinSet
from refsys.kernel import (
    IllFormedError,
    MismatchError,
    Status,
    axiom,
    classify,
    is_identity_on,
)
from refsys.structures import (
    check_beta_eta,
    compose_iso,
    composite_witness,
    law_mode,
    pullback,
    pushforward,
    three_way,
    uniqueness_iso,
)
from refsys.presheaf_model import FinPresheaf, build_presheaf_system
from refsys.subset_model import SubsetMor, build_subset_system, subset


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


def test_law_mode_is_read_off_the_system(squaring, trivial2, arrow_sig):
    # membership is complete only where hom-sets have at most one element
    assert law_mode(squaring.system) == "membership"
    assert law_mode(trivial2.system) == "literal"
    assert law_mode(arrow_sig.system) == "literal"


def test_uniqueness_iso_between_presentations(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    neg = squaring.expr("neg")
    ident = sys.id_expr(sys.expr_dom(sq))
    direct = pullback(sys, sq, squaring.etype("big"))
    pasted = composite_witness(sys, "pull", ident, sq, squaring.etype("big"))
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
        compose_iso(sys, "pull", neg, sq, squaring.etype(t))
    for s in ("nonzero", "negative", "whole"):
        compose_iso(sys, "push", neg, sq, squaring.etype(s))


def test_composition_isos_presheaf(arrow_sig):
    # pasted Lan carries different canonical labels; the isos must bridge them
    sys = arrow_sig.system
    collapse = arrow_sig.expr("collapse")
    ident = sys.id_expr(sys.expr_dom(collapse))
    for s in (arrow_sig.etype("P"), arrow_sig.etype("Q")):
        for f, g in ((ident, ident), (ident, collapse), (collapse, collapse)):
            compose_iso(sys, "push", f, g, s)
            compose_iso(sys, "pull", f, g, s)


def test_composite_witness_satisfies_the_equations(arrow_sig):
    sys = arrow_sig.system
    collapse = arrow_sig.expr("collapse")
    w = composite_witness(sys, "push", collapse, collapse, arrow_sig.etype("P"))
    assert check_beta_eta(w, mode="literal").ok
    w = composite_witness(sys, "pull", collapse, collapse, arrow_sig.etype("Q"))
    assert check_beta_eta(w, mode="literal").ok


def test_the_pullback_along_a_composite_is_the_pasted_one(squaring):
    # neg ; sq squares to the same table as sq: the pasted pullback of big is
    # {-3, 3}, it satisfies the equations, and the direct one is iso to it
    sys = squaring.system
    neg, sq, big = squaring.expr("neg"), squaring.expr("sq"), squaring.etype("big")
    direct = pullback(sys, sys.compose_exprs(neg, sq), big)
    pasted = composite_witness(sys, "pull", neg, sq, big)
    assert pasted.etype == direct.etype
    assert set(pasted.etype.elements) == {-3, 3}
    assert check_beta_eta(pasted, mode="membership").ok
    iso = uniqueness_iso(direct, pasted)
    assert is_identity_on(sys, sys_compose(sys, iso.fwd, iso.bwd), direct.etype)


def test_the_pushforward_along_a_composite_is_the_pasted_one(squaring):
    sys = squaring.system
    neg, sq, negative = squaring.expr("neg"), squaring.expr("sq"), squaring.etype("negative")
    direct = pushforward(sys, negative, sys.compose_exprs(neg, sq))
    pasted = composite_witness(sys, "push", neg, sq, negative)
    assert pasted.etype == direct.etype
    assert set(pasted.etype.elements) == {1, 4, 9}
    assert check_beta_eta(pasted, mode="membership").ok
    iso = uniqueness_iso(direct, pasted)
    assert is_identity_on(sys, sys_compose(sys, iso.fwd, iso.bwd), direct.etype)


def test_three_way_readings(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    tw = three_way(sys, squaring.etype("nonzero"), sq, squaring.etype("positive"))
    assert tw.agree and tw.direct
    tw = three_way(sys, squaring.etype("whole"), sq, squaring.etype("positive"))
    assert tw.agree and not tw.direct


def test_three_way_readings_when_none_holds(squaring):
    # sq sends -1 to 1, outside big, so no reading holds
    sys = squaring.system
    tw = three_way(sys, squaring.etype("negative"), squaring.expr("sq"), squaring.etype("big"))
    assert (tw.via_push, tw.direct, tw.via_pull) == (False, False, False)
    assert tw.agree


def test_three_way_readings_in_the_presheaf_model(arrow_sig):
    # E is empty at x, so only what is empty at x maps into it over the
    # identity; collapse reads every presheaf at y, where E has a point
    cat = arrow_sig.system.i_types()[0]
    ex, ey = FinSet("Ex", ()), FinSet("Ey", ("e",))
    e = FinPresheaf("E", cat, {"x": ex, "y": ey},
                    {"id_x": FinFunction.identity(ex), "id_y": FinFunction.identity(ey),
                     "u": FinFunction("u", ex, ey, {})})
    sys = build_presheaf_system((cat,), (arrow_sig.etype("P"), arrow_sig.etype("Q"), e))
    for f in (sys.id_expr(cat), arrow_sig.expr("collapse")):
        for s in sys.e_types():
            for t in sys.e_types():
                tw = three_way(sys, s, f, t)
                assert tw.agree
                assert tw.direct == (f.name == "collapse" or t is not e or s is e), (s, f, t)


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
    compose_iso(sys, "pull", f, g, t)
    compose_iso(sys, "push", f, g, t)


# --- the literal check still catches faults on the subset model ------------------

def _fault_system():
    a = FinSet("A", (1, 2, 3))
    b = FinSet("B", ("x", "y"))
    f = FinFunction("f", a, b, {1: "x", 2: "x", 3: "y"})
    return build_subset_system((a, b)), a, b, f


def _constant(dom, cod, value):
    return FinFunction(f"const_{value}", dom, cod, {x: value for x in dom.elements})


def test_a_pullback_factor_over_another_expression_fails_the_literal_check():
    # the factor answers over a constant h instead of g: h;f and g;f have
    # equal tables here, so only the eta-law can see it
    sys, a, b, f = _fault_system()
    w = pullback(sys, f, subset(b, ("x",)))
    assert check_beta_eta(w, mode="literal").checked == 300
    first = min(w.etype.elements)
    broken = dataclasses.replace(w, _factor=lambda m, g: SubsetMor(
        m.src, _constant(m.src.of, a, first), w.etype))
    report = check_beta_eta(broken, mode="literal")
    assert not report.ok and report.checked == 26
    assert report.failures == [
        f"eta-law fails at subject {s}:A, factor A>A#1"
        for s in ("{}", "{1}", "{2}", "{1,2}", "{3}")
    ]


def test_a_pushforward_factor_over_another_expression_fails_the_literal_check():
    sys, a, b, f = _fault_system()
    w = pushforward(sys, subset(a, (1, 3)), f)
    assert check_beta_eta(w, mode="literal").checked == 60

    def factor(m, g):
        dst = m.dst
        return SubsetMor(w.etype, _constant(b, dst.of, dst.of.elements[min(dst.ix)]), dst)

    report = check_beta_eta(dataclasses.replace(w, _factor=factor), mode="literal")
    assert not report.ok and report.checked == 14
    assert report.failures == [
        f"{law}-law fails at target {t}:A, factor {g}"
        for t, g in (("{1,2}", "B>A#1"), ("{1,2,3}", "B>A#1"), ("{1,3}", "B>A#2"))
        for law in ("beta", "eta")
    ]


def test_the_pull_and_push_rules_still_check_their_premises():
    sys, a, b, f = _fault_system()
    w = pullback(sys, f, subset(b, ("x",)))
    beta = axiom(sys, subset(a, (1,)), f, w.fixed)
    with pytest.raises(MismatchError, match="^pullback right rule: factor has wrong codomain$"):
        w.factor(beta, sys.id_expr(b))
    with pytest.raises(MismatchError, match="^pullback right rule: premise expression is not g;f$"):
        w.factor(beta, _constant(a, a, 3))
    v = pushforward(sys, subset(a, (1, 3)), f)
    beta = axiom(sys, v.fixed, f, subset(b, ("x", "y")))
    with pytest.raises(MismatchError, match="^pushforward left rule: factor has wrong domain$"):
        v.factor(beta, sys.id_expr(a))
    with pytest.raises(MismatchError, match="^pushforward left rule: premise expression is not f;g$"):
        v.factor(beta, _constant(b, b, "x"))


def test_an_ill_formed_judgment_is_still_refused():
    sys, a, b, f = _fault_system()
    x = subset(b, ("x",))
    with pytest.raises(IllFormedError, match=r"^\{x\}:B =\[f\]=> \{x\}:B: boundaries do not match$"):
        list(sys.morphisms_over(x, f, x))
    assert classify(sys, x, f, x) is Status.ILL_FORMED
