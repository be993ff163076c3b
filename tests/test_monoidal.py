from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from refsys import monoidal
from refsys.fincat import FinFunction, FinSet
from refsys.kernel import (
    CapabilityError,
    MismatchError,
    Status,
    axiom,
    classify,
    from_interp,
    identity_derivation,
)
from refsys.monoidal import (
    check_monoidal_equations,
    check_residual_laws,
    check_star_wand,
    check_threeway_adjunction,
    double_negation_etype,
    residual,
    residual_subtyping,
    shift_derivation,
    shift_expr,
    star_etype,
    tensor_derivations,
    tensor_iso,
    wand_left_etype,
    wand_right_etype,
)
from refsys.subset_model import (
    SubsetMor,
    SubsetSystem,
    build_subset_system,
    full_subset,
    subset,
)
from refsys.structures import LawReport
from refsys.trivial_model import build_trivial_system

from conftest import is_identity_on


def test_tensor_derivation_boundaries(small_sys):
    sys = small_sys
    a, b = sys.i_types()
    d1 = identity_derivation(sys, subset(a, ("a1",)))
    d2 = identity_derivation(sys, subset(b, (1, 2)))
    d = tensor_derivations(sys, d1, d2)
    assert sys.refines(d.subject) == sys.tensor_itype(a, b)
    assert set(d.subject.elements) == {("a1", 1), ("a1", 2)}


def test_monoidal_equations_hold(small_sys):
    sys = small_sys
    a, b = sys.i_types()
    ds = [identity_derivation(sys, s)
          for s in (subset(a, ("a1",)), full_subset(a), subset(b, (1, 3)))]
    ds.append(axiom(sys, subset(a, ("a1",)), sys.id_expr(a), full_subset(a)))
    report = check_monoidal_equations(sys, tuple(ds))
    assert report.ok
    assert report.checked > 50


class ConstantAssociator(SubsetSystem):
    """A subset system whose associator sends every triple to one element."""

    def coherence_cell(self, kind, etypes):
        cell = super().coherence_cell(kind, etypes)
        if kind != "assoc":
            return cell
        expr = cell.expr
        first = expr.cod.elements[0]
        bad = FinFunction(expr.name, expr.dom, expr.cod, {x: first for x in expr.dom.elements})
        return SubsetMor(cell.src, bad, cell.dst)


def test_wrong_associator_stops_at_max_failures(monkeypatch):
    a, b = FinSet("A", ("a1", "a2")), FinSet("B", (1, 2, 3))
    sys = ConstantAssociator("wrong", (a, b))
    ds = [identity_derivation(sys, full_subset(x)) for x in (a, b)]
    report = check_monoidal_equations(sys, ds)
    assert (report.checked, list(report.failures)) == (29, ["associator cell is not invertible"] * 5)
    monkeypatch.setattr(LawReport, "failure_cap", 100)
    report = check_monoidal_equations(sys, ds)
    assert (report.checked, list(report.failures)) == (
        52, ["associator cell is not invertible"] * 8 + ["triangle equation fails"] * 4)


@pytest.mark.parametrize("bound, checked, refused", [
    # functoriality on identities
    (8, 4, "product (BxB) would have 9 elements, exceeding the bound 8"),
    # associator naturality
    (12, 17, "product ((AxB)xB) would have 18 elements, exceeding the bound 12"),
    (18, 26, "product ((BxB)xB) would have 27 elements, exceeding the bound 18"),
    # the pentagon, the last equation: 88 instances come before it
    (27, 92, "product (((AxA)xB)xB) would have 36 elements, exceeding the bound 27"),
    (36, 101, "product (((AxB)xB)xB) would have 54 elements, exceeding the bound 36"),
    (54, 128, "product (((BxB)xB)xB) would have 81 elements, exceeding the bound 54"),
])
def test_a_refusal_comes_at_the_instance_that_first_needs_the_product(
        bound, checked, refused, monkeypatch):
    """Shared derivations are built on first use, never ahead: the report
    the refusal interrupts holds the instances before it and nothing else."""
    reports = []

    class Kept(LawReport):
        def __init__(self):
            super().__init__()
            reports.append(self)

    monkeypatch.setattr(monoidal, "LawReport", Kept)
    a, b = FinSet("A", ("a1", "a2")), FinSet("B", (1, 2, 3))
    sys = SubsetSystem("bounded", (a, b), max_carrier=bound)
    ds = [identity_derivation(sys, full_subset(a)), identity_derivation(sys, full_subset(b)),
          axiom(sys, subset(b, (1,)), sys.id_expr(b), subset(b, (1, 2)))]
    with pytest.raises(CapabilityError) as exc:
        check_monoidal_equations(sys, ds)
    assert str(exc.value) == refused
    (rep,) = reports
    assert (rep.checked, rep.failures, rep.skipped) == (checked, [], [])


def test_tensor_preservation_isos(small_sys):
    sys = small_sys
    a, b = sys.i_types()
    f = FinFunction("f", a, b, {"a1": 1, "a2": 1})
    g = FinFunction("g", b, a, {1: "a1", 2: "a1", 3: "a2"})
    tensor_iso(sys, "pull", f, subset(b, (1, 2)), g, subset(a, ("a1",)))
    tensor_iso(sys, "push", f, subset(a, ("a2",)), g, subset(b, (2, 3)))


def test_residual_curry_uncurry_round_trip(small_sys):
    sys = small_sys
    a, b = sys.i_types()
    s = subset(a, ("a1",))
    u = subset(b, (1, 2))
    w = residual(sys, "left", s, u)
    # beta : V (x) S => U curries to V => S -o U and back
    v = w.etype
    beta = w.uncurry(identity_derivation(sys, v))
    again = w.curry(beta, v)
    assert is_identity_on(sys, again, v)
    # quantified laws over a small operand type; the function-space carrier
    # itself would make the expression enumeration infeasible
    report = check_residual_laws(w, (subset(a, ("a2",)), full_subset(a)))
    assert report.ok
    assert report.checked > 0


def test_residual_right_mirrors_left(small_sys):
    sys = small_sys
    a, b = sys.i_types()
    u = subset(b, (1,))
    t = subset(a, ("a1", "a2"))
    w = residual(sys, "right", t, u)
    report = check_residual_laws(w, (subset(a, ("a1",)),), expr_cap=60)
    assert report.ok
    assert report.checked > 0


def test_residual_subtyping_variance_subset(small_sys):
    sys = small_sys
    a, b = sys.i_types()
    s_small, s_big = subset(a, ("a1",)), full_subset(a)
    u_small, u_big = subset(b, (1,)), subset(b, (1, 2))
    alpha_s = axiom(sys, s_small, sys.id_expr(a), s_big)
    alpha_u = axiom(sys, u_small, sys.id_expr(b), u_big)
    left = residual_subtyping(sys, "left", alpha_s, alpha_u)
    right = residual_subtyping(sys, "right", alpha_s, alpha_u)
    # contravariant in the fixed side, covariant in the answers
    assert left.subject == sys.residual_etype("left", s_big, u_small)
    assert left.target == sys.residual_etype("left", s_small, u_big)
    assert right.subject == sys.residual_etype("right", s_big, u_small)
    assert right.target == sys.residual_etype("right", s_small, u_big)
    for d in (left, right):
        assert sys.is_identity_expr(d.expr)
        assert classify(sys, d.subject, d.expr, d.target) is Status.DERIVABLE
        assert len(d.subject) == 1 and len(d.target) == 6
    swap = FinFunction("swap", a, a, {"a1": "a2", "a2": "a1"})
    not_sub = axiom(sys, s_small, swap, subset(a, ("a2",)))
    with pytest.raises(MismatchError):
        residual_subtyping(sys, "left", not_sub, alpha_u)
    with pytest.raises(MismatchError):
        residual_subtyping(sys, "right", not_sub, alpha_u)


def test_residual_subtyping_variance_trivial():
    # every expression of the trivial model is the identity, so every
    # derivation is a subtyping and the MismatchError case cannot arise
    two = FinSet("two", (1, 2))
    three = FinSet("three", (1, 2, 3))
    sys = build_trivial_system((two, three))
    alpha_s = from_interp(sys, FinFunction("inc", two, three, {1: 1, 2: 3}))
    alpha_u = from_interp(sys, FinFunction("inc", two, three, {1: 2, 2: 1}))
    left = residual_subtyping(sys, "left", alpha_s, alpha_u)
    right = residual_subtyping(sys, "right", alpha_s, alpha_u)
    assert left.subject == sys.residual_etype("left", three, two)
    assert left.target == sys.residual_etype("left", two, three)
    assert right.subject == sys.residual_etype("right", three, two)
    assert right.target == sys.residual_etype("right", two, three)
    for d in (left, right):
        assert sys.is_identity_expr(d.expr)
        assert classify(sys, d.subject, d.expr, d.target) is Status.DERIVABLE
        # the derived map is t |-> alpha_u . t . alpha_s
        for t in d.subject.elements:
            assert d.interp(t) == tuple(
                alpha_u.interp(t[three.index(alpha_s.interp(x))]) for x in two.elements)


def test_double_negation_sizes():
    two = FinSet("two", (1, 2))
    triv = build_trivial_system((two,))
    t = triv.e_types()[0]
    dn = double_negation_etype(triv, t, t)
    # two -o two has 4 points, (two -o two) -o two has 16
    assert len(dn) == 16



# --- the shift into the double negation -----------------------------------------------

def _two_by_two() -> SubsetSystem:
    return build_subset_system((FinSet("A", ("a1", "a2")), FinSet("B", (1, 2))))


@pytest.mark.parametrize("fixture", ["two_by_two", "trivial2", "day_z2"])
def test_the_shift_lies_over_the_shift_expression(fixture, request):
    sys = _two_by_two() if fixture == "two_by_two" else request.getfixturevalue(fixture).system
    for s, u in itertools.product(sys.e_types(), repeat=2):
        sh = shift_derivation(sys, s, u)
        dn = double_negation_etype(sys, s, u)
        assert (sh.subject, sh.target) == (s, dn)
        assert sys.exprs_equal(sh.expr, shift_expr(sys, sys.refines(s), sys.refines(u)))
        assert classify(sys, s, sh.expr, dn) is Status.DERIVABLE


def test_the_shift_sends_a_point_to_evaluation_at_it():
    # proof relevance: the shift is one-to-one but reaches 2 of the 16 points
    # of the double negation, so no map back can undo it on that side
    two = FinSet("two", (1, 2))
    triv = build_trivial_system((two,))
    t = triv.e_types()[0]
    sh = shift_derivation(triv, t, t)
    negated = triv.residual_etype("right", t, t)
    images = {x: sh.interp(x) for x in two.elements}
    for x, image in images.items():
        assert image == tuple(k[two.index(x)] for k in negated.elements)
    assert len(set(images.values())) == 2
    assert len(sh.target) == 16


def test_the_largest_type_the_shift_sends_into_the_double_negation_is_its_closure():
    # x is sent into negL[U]{negR[U]{S}} iff every k : A -> C that sends S
    # into U sends x into U
    sys = _two_by_two()
    a, c = sys.i_types()
    maps = sys.function_space(a, c).elements
    for s, u in itertools.product(sys.e_types_over(a), sys.e_types_over(c)):
        dn = double_negation_etype(sys, s, u)
        closure, _, _ = sys.pullback_data(shift_expr(sys, a, c), dn)
        into_u = [k for k in maps if all(k[a.index(y)] in u.elements for y in s.elements)]
        assert set(closure.elements) == {
            x for x in a.elements if all(k[a.index(x)] in u.elements for k in into_u)}
        assert set(s.elements) <= set(closure.elements)


@pytest.mark.parametrize("side", ["left", "right"])
def test_residual_laws_in_the_trivial_model(side):
    # every derivation over the identity is a function, so beta and eta are
    # checked on all 16 maps two (x) two -> two and all 16 maps two -> [two->two]
    two = FinSet("two", (1, 2))
    triv = build_trivial_system((two,))
    w = residual(triv, side, two, two)
    report = check_residual_laws(w, (two,))
    assert report.ok
    assert report.checked == 32

def test_star_and_wand_oracles(z4):
    sys = z4.system
    mult = z4.monoid_mult
    one = z4.etype("one")
    two = z4.etype("two")
    three = z4.etype("three")
    assert set(star_etype(sys, mult, one, two).elements) == {3}
    assert set(wand_right_etype(sys, mult, three, two).elements) == {1}
    assert set(wand_left_etype(sys, mult, one, three).elements) == {2}


def test_star_wand_match_displayed_formulas(z4):
    sys = z4.system
    mult = z4.monoid_mult
    h = sys.refines(z4.etype("zero"))
    table = {(x, y): mult.mapping[(x, y)] for x, y in mult.dom.elements}
    subsets = [subset(h, c) for r in range(len(h.elements) + 1)
               for c in itertools.combinations(h.elements, r)]
    for s, t in itertools.product(subsets, repeat=2):
        star = star_etype(sys, mult, s, t)
        assert set(star.elements) == {
            table[(x, y)] for x in s.elements for y in t.elements}
        wr = wand_right_etype(sys, mult, t, s)
        assert set(wr.elements) == {
            x for x in h.elements
            if all(table[(x, y)] in t.elements for y in s.elements)}
        wl = wand_left_etype(sys, mult, s, t)
        assert set(wl.elements) == {
            y for y in h.elements
            if all(table[(x, y)] in t.elements for x in s.elements)}


def test_star_wand_adjunction_all_singletons(z4):
    sys = z4.system
    mult = z4.monoid_mult
    h = sys.refines(z4.etype("zero"))
    singles = [subset(h, (x,)) for x in h.elements]
    for s, t, u in itertools.product(singles, repeat=3):
        assert check_star_wand(sys, mult, s, t, u).ok
        assert check_threeway_adjunction(sys, mult, s, t, u).ok


def test_threeway_adjunction_survives_non_monoid_table():
    # push/pull adjointness needs no unit or associativity from the table
    h = FinSet("H", (0, 1, 2))
    sys = build_subset_system((h,))
    prod = sys.tensor_itype(h, h)
    table = {(x, y): (x * y + 1) % 3 for x in h.elements for y in h.elements}
    assert any(table[(table[(x, y)], z)] != table[(x, table[(y, z)])]
               for x in h.elements for y in h.elements for z in h.elements)
    mult = FinFunction("mult", prod, h, table)
    subsets = [subset(h, c) for r in range(4)
               for c in itertools.combinations(h.elements, r)]
    for s, t, u in itertools.product(subsets[:5], subsets[:5], subsets):
        assert check_threeway_adjunction(sys, mult, s, t, u).ok


@settings(max_examples=40)
@given(st.data())
def test_star_wand_adjunction_random_tables(data):
    size = data.draw(st.integers(1, 3), label="|H|")
    h = FinSet("H", tuple(range(size)))
    sys = build_subset_system((h,))
    prod = sys.tensor_itype(h, h)
    table = data.draw(
        st.fixed_dictionaries({p: st.sampled_from(h.elements)
                               for p in prod.elements}),
        label="table")
    mult = FinFunction("mult", prod, h, table)
    pick = st.sets(st.sampled_from(h.elements))
    s = subset(h, data.draw(pick, label="S"))
    t = subset(h, data.draw(pick, label="T"))
    u = subset(h, data.draw(pick, label="U"))
    assert check_threeway_adjunction(sys, mult, s, t, u).ok
    assert check_star_wand(sys, mult, s, t, u).ok
