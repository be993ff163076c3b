from __future__ import annotations

import itertools

import pytest

from refsys import presheaf_model
from refsys.fincat import FinFunction, FinSet, monoid_category
from refsys.kernel import ValidationError
from refsys.presheaf_model import (
    FinPresheaf,
    check_presheaf,
    constant_presheaf,
    day_star,
    day_star_coend,
    enumerate_monoid_presheaves,
    multiplication_functor,
    representable_presheaf,
    same_values,
)
from refsys.signature import load_signature
from refsys.structures import (
    check_beta_eta,
    composite_witness,
    pullback,
    pushforward,
)

from conftest import data_file

Z2_TABLE = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}


def test_presheaf_functoriality_enforced():
    m = monoid_category("Z2", (0, 1), Z2_TABLE, 0)
    fs = FinSet("X(*)", ("x0", "x1"))
    swap = FinFunction("swap", fs, fs, {"x0": "x1", "x1": "x0"})
    check_presheaf(FinPresheaf("X", m, {"*": fs}, {0: FinFunction.identity(fs), 1: swap}))
    rotate_to_x0 = FinFunction("c", fs, fs, {"x0": "x0", "x1": "x0"})
    # 1;1 = 0 must act as the identity; a collapsing action cannot
    bad = FinPresheaf("bad", m, {"*": fs}, {0: FinFunction.identity(fs), 1: rotate_to_x0})
    with pytest.raises(ValidationError, match="does not respect"):
        check_presheaf(bad)


def test_representable_presheaf_on_the_arrow_category(arrow_sig):
    c = arrow_sig.categories["C"]
    yx = representable_presheaf(c, "x")
    assert len(yx.ob["x"]) == 1
    assert len(yx.ob["y"]) == 1
    yy = representable_presheaf(c, "y")
    assert len(yy.ob["x"]) == 0
    assert len(yy.ob["y"]) == 1


def test_nat_trans_enumeration_is_constrained(arrow_sig):
    sys = arrow_sig.system
    p = arrow_sig.etype("P")
    q = arrow_sig.etype("Q")
    ident = sys.id_expr(sys.refines(p))
    # naturality forces the y-component onto the image of the x-component
    ms = list(sys.morphisms_over(p, ident, q))
    assert len(ms) == 1


def test_pullback_is_restriction(arrow_sig):
    sys = arrow_sig.system
    collapse = arrow_sig.expr("collapse")
    q = arrow_sig.etype("Q")
    w = pullback(sys, collapse, q)
    assert {o: len(w.etype.ob[o]) for o in w.etype.cat.objects} == {"x": 2, "y": 2}
    assert check_beta_eta(w, mode="literal").ok


def test_pushforward_is_the_left_kan_extension(arrow_sig):
    sys = arrow_sig.system
    collapse = arrow_sig.expr("collapse")
    p = arrow_sig.etype("P")
    w = pushforward(sys, p, collapse)
    # both points of P(x) are glued onto the single point of P(y)
    assert {o: len(w.etype.ob[o]) for o in w.etype.cat.objects} == {"x": 0, "y": 1}
    assert check_beta_eta(w, mode="literal").ok


def test_pasted_witnesses_satisfy_beta_eta(arrow_sig):
    # the literal check runs each pasted witness's factor on every subject
    sys = arrow_sig.system
    collapse = arrow_sig.expr("collapse")
    counts = []
    for name in ("P", "Q"):
        t = arrow_sig.etype(name)
        for w in (composite_witness(sys, "pull", collapse, collapse, t),
                  composite_witness(sys, "push", collapse, collapse, t)):
            report = check_beta_eta(w, mode="literal")
            assert report.ok and not report.skipped, str(report)
            counts.append(report.checked)
    assert counts == [12, 18, 36, 30]


def test_residual_index_types_are_functor_categories(arrow_sig):
    sys = arrow_sig.system
    c = arrow_sig.categories["C"]
    one = sys.unit_etype().cat
    # [1,C] has an object per object of C and [C,1] has one, so a swap shows
    assert len(sys.functor_category(one, c).objects) == 2
    assert len(sys.functor_category(c, one).objects) == 1
    for a, b in ((one, c), (c, one)):
        assert sys.residual_itype(a, b) is sys.functor_category(a, b)


def test_enumerate_monoid_presheaves_counts():
    z2 = monoid_category("Z2", (0, 1), Z2_TABLE, 0)
    ps = enumerate_monoid_presheaves(z2, 2)
    assert [len(p.ob["*"]) for p in ps] == [1, 2, 2]
    z3 = monoid_category(
        "Z3", (0, 1, 2),
        {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}, 0)
    ps = enumerate_monoid_presheaves(z3, 2)
    assert [len(p.ob["*"]) for p in ps] == [1, 2]


def test_multiplication_functor_needs_commutativity(day_z2):
    sys = day_z2.system
    z2 = day_z2.categories["Z2"]
    mult = multiplication_functor(sys, z2)
    assert mult.dom.objects == (("*", "*"),)
    # left-zero monoid with adjoined unit: x*y = x for x, y != e
    table = {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
             ("a", "e"): "a", ("b", "e"): "b",
             ("a", "a"): "a", ("a", "b"): "a",
             ("b", "a"): "b", ("b", "b"): "b"}
    lz = monoid_category("LZ", ("e", "a", "b"), table, "e")
    from refsys.presheaf_model import build_presheaf_system
    sys2 = build_presheaf_system((lz,), ())
    with pytest.raises(ValidationError,
                       match=r"^composite \('e', 'a'\);\('b', 'e'\) not preserved$"):
        multiplication_functor(sys2, lz)


def test_day_sizes_z2(day_z2):
    sys = day_z2.system
    z2 = day_z2.categories["Z2"]
    ps = enumerate_monoid_presheaves(z2, 2)
    sizes = [[len(day_star(sys, z2, a, b).ob["*"]) for b in ps] for a in ps]
    assert sizes == [[1, 2, 1], [2, 4, 2], [1, 2, 2]]


def test_day_kan_equals_coend(day_z2, day_z3):
    for sig, cat in ((day_z2, "Z2"), (day_z3, "Z3")):
        sys = sig.system
        m = sig.categories[cat]
        ps = enumerate_monoid_presheaves(m, 2)
        for a, b in itertools.product(ps, repeat=2):
            via_kan = day_star(sys, m, a, b)
            via_coend = day_star_coend(sys, m, a, b)
            assert same_values(via_kan, via_coend)


def test_day_unit_is_the_point(day_z2):
    # the free orbit tensored with the one-point set collapses to a point
    sys = day_z2.system
    z2 = day_z2.categories["Z2"]
    reg = day_z2.etype("Reg")
    pt = day_z2.etype("Pt")
    d = day_star(sys, z2, reg, pt)
    assert len(d.ob["*"]) == 1


def test_constant_presheaf_shape(arrow_sig):
    c = arrow_sig.categories["C"]
    k = constant_presheaf("K", c, FinSet("V", (1, 2)))
    assert all(len(k.ob[o]) == 2 for o in c.objects)
    assert k.ar["u"].mapping == {1: 1, 2: 2}


@pytest.mark.parametrize("fixture", ["day_z2", "arrow_sig"])
def test_the_two_residuals_and_plugs_mirror_each_other(request, fixture):
    # negL[U]{T} and negR[U]{T} have the same values and actions, and plugR
    # sends (F, x) where plugL sends (x, F): F(u);θ_x' = θ_x;G(u) by naturality
    sig = request.getfixturevalue(fixture)
    sys = sig.system
    checked = 0
    for t, u in itertools.product(sig.etypes.values(), repeat=2):
        assert same_values(sys.residual_etype("left", t, u), sys.residual_etype("right", t, u))
        checked += 1
    for a, c in itertools.product(sig.categories.values(), repeat=2):
        left, right = sys.plug_expr("left", a, c), sys.plug_expr("right", a, c)
        for x, fn in left.dom.objects:
            assert right.ob((fn, x)) == left.ob((x, fn))
        for u, nm in left.dom.arrows:
            assert right.ar((nm, u)) == left.ar((u, nm))
        checked += 1
    assert checked == {"day_z2": 10, "arrow_sig": 5}[fixture]


def test_a_system_builds_and_checks_each_day_multiplication_once(monkeypatch):
    checks = []
    check = presheaf_model.check_functor
    monkeypatch.setattr(presheaf_model, "check_functor",
                        lambda f: checks.append(f.name) or check(f))
    sig = load_signature(data_file("day_z2.json"))
    z2 = sig.categories["Z2"]
    reg, fix = sig.etype("Reg"), sig.etype("Fix")
    for _ in range(2):
        day_star(sig.system, z2, reg, fix)
        day_star_coend(sig.system, z2, fix, reg)
        multiplication_functor(sig.system, z2)
    assert checks == ["mult[Z2]"]
    # a non-commutative monoid is refused, and so checked, on every call
    table = {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
             ("a", "e"): "a", ("b", "e"): "b",
             ("a", "a"): "a", ("a", "b"): "a",
             ("b", "a"): "b", ("b", "b"): "b"}
    lz = monoid_category("LZ", ("e", "a", "b"), table, "e")
    for _ in range(2):
        with pytest.raises(ValidationError):
            multiplication_functor(sig.system, lz)
    assert checks == ["mult[Z2]", "mult[LZ]", "mult[LZ]"]
