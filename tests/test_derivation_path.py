"""The derivation path computes each fact once.

The cut reads its expression off the composite interpretation (p of the
composite, for the functor p of a refinement system), and so do the
identity, unit, tensor, coherence, evaluation and currying rules, which
read their whole judgment off their interpretation.  The subset model's
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
    RefinementSystem,
    ValidationError,
    compose_derivations,
    conversion,
    derivations_over,
    identity_derivation,
)
from refsys.monadrep import OppositeSystem, build_continuation_adjunction
from refsys.monoidal import (
    coherence_derivation,
    residual,
    tensor_derivations,
    unit_derivation,
)
from refsys.subset_model import SubsetMor, build_subset_system, subset
from refsys.trivial_model import POINT_EXPR, build_trivial_system


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
    _assert_cuts_read_p_of_the_composite(sys, _rename_function)


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


# --- structural rules read their judgment off their interpretation -------------

def _small_trivial_system():
    return build_trivial_system((FinSet("S", (1,)), FinSet("T", (1, 2))))


@pytest.fixture(params=["subset", "presheaf", "trivial"])
def system(request):
    """(system, rename) where rename gives a table-equal expression."""
    if request.param == "subset":
        return _small_subset_system(), _rename_function
    if request.param == "presheaf":
        return request.getfixturevalue("arrow_sig").system, _rename_functor
    return _small_trivial_system(), lambda f: f


def _assert_read_off(sys, d):
    """d's judgment is (dom m, p m, cod m) for its interpretation m."""
    m = d.interp
    assert (d.subject, d.expr, d.target) == (sys.interp_src(m), sys.interp_expr(m),
                                             sys.interp_dst(m))


def _regroup(kind, x, unit):
    """The element (or object, or arrow) x moved by the coherence cell kind."""
    if kind == "assoc":
        (a, b), c = x
        return a, (b, c)
    if kind == "assoc_inv":
        a, (b, c) = x
        return (a, b), c
    return {"unit_l": lambda: x[1], "unit_l_inv": lambda: (unit, x),
            "unit_r": lambda: x[0], "unit_r_inv": lambda: (x, unit)}[kind]()


def _regrouping_expr(sys, kind, d):
    """The cell's expression built by its checked constructor, from its ends."""
    a, b = sys.refines(d.subject), sys.refines(d.target)
    if isinstance(a, FinSet):
        return FinFunction("old", a, b, {x: _regroup(kind, x, "*") for x in a.elements})
    if a == "*":
        return POINT_EXPR
    return FinFunctor("old", a, b, {o: _regroup(kind, o, "*") for o in a.objects},
                      {u: _regroup(kind, u, "id") for u in a.arrows})


def test_identity_and_unit_read_their_judgment_off_the_interpretation(system):
    sys, _ = system
    for s in sys.e_types() + (sys.unit_etype(),):
        d = identity_derivation(sys, s)
        _assert_read_off(sys, d)
        assert (d.rule, d.subject, d.target) == ("I", s, s)
        assert sys.exprs_equal(d.expr, sys.id_expr(sys.refines(s)))
    u = unit_derivation(sys)
    _assert_read_off(sys, u)
    assert (u.rule, u.subject, u.target) == ("U", sys.unit_etype(), sys.unit_etype())
    assert sys.exprs_equal(u.expr, sys.id_expr(sys.refines(sys.unit_etype())))


def test_tensor_reads_its_judgment_off_the_interpretation(system):
    sys, rename = system
    ds = list(_derivations(sys))
    premises = ds + [conversion(sys, d, rename(d.expr)) for d in ds]
    for d1, d2 in itertools.product(premises, repeat=2):
        d = tensor_derivations(sys, d1, d2)
        _assert_read_off(sys, d)
        assert (d.rule, d.premises) == ("M", (d1, d2))
        assert d.subject == sys.tensor_etype(d1.subject, d2.subject)
        assert d.target == sys.tensor_etype(d1.target, d2.target)
        assert sys.exprs_equal(d.expr, sys.tensor_expr(d1.expr, d2.expr))


def test_coherence_cells_read_their_judgment_off_the_interpretation(system):
    sys, _ = system
    es = sys.e_types()[:3]
    for kind in ("assoc", "assoc_inv", "unit_l", "unit_l_inv", "unit_r", "unit_r_inv"):
        arity = 3 if kind.startswith("assoc") else 1
        for operands in itertools.product(es, repeat=arity):
            d = coherence_derivation(sys, kind, operands)
            _assert_read_off(sys, d)
            assert d.rule == "coh" and d.interp is sys.coherence_cell(kind, operands)
            assert sys.exprs_equal(d.expr, _regrouping_expr(sys, kind, d))


def test_evaluation_and_currying_read_their_judgment_off_the_interpretation(system):
    sys, rename = system
    es = sys.e_types()[:3]
    curried = 0
    for fixed, u in itertools.product(es, repeat=2):
        for side in ("left", "right"):
            w = residual(sys, side, fixed, u)
            left = side == "left"
            _assert_read_off(sys, w.ev)
            assert w.ev.rule == ("lres-L" if left else "rres-L")
            a, c = sys.refines(fixed), sys.refines(u)
            assert sys.exprs_equal(w.ev.expr, sys.plug_expr(side, a, c))
            assert w.ev.target == u
            assert w.ev.subject == (sys.tensor_etype(fixed, w.etype) if left
                                    else sys.tensor_etype(w.etype, fixed))
            for v in es:
                sv = sys.tensor_etype(fixed, v) if left else sys.tensor_etype(v, fixed)
                for f in sys.expressions(sys.refines(sv), c):
                    for beta in derivations_over(sys, sv, f, u):
                        for premise in (beta, conversion(sys, beta, rename(f))):
                            d = w.curry(premise, v)
                            _assert_read_off(sys, d)
                            assert d.subject is v and d.target is w.etype
                            assert sys.exprs_equal(d.expr, sys.curry_expr(side, premise.expr))
                            curried += 1
    assert curried > 0


@pytest.mark.parametrize("build", [_small_subset_system, _small_trivial_system])
def test_continuation_adjunction_keeps_its_boundaries(build):
    sys = build()
    u = sys.e_types()[-1]
    adj = build_continuation_adjunction(sys, u)
    for t in sys.e_types():
        eps = adj.eps_rule(t)
        assert eps.rule == "eps"
        assert (eps.subject, eps.target) == (adj.l_etype(adj.r_etype(t)), t)
        assert adj.q.exprs_equal(eps.expr, adj.q.interp_expr(eps.interp))
    lifted = 0
    for alpha in _derivations(sys):
        if alpha.subject == alpha.target:
            continue
        la = adj.l_der(alpha)
        assert la.rule == "adj-L" and la.premises == (alpha,)
        assert (la.subject, la.target) == (adj.l_etype(alpha.subject),
                                           adj.l_etype(alpha.target))
        assert adj.q.exprs_equal(la.expr, adj.q.interp_expr(la.interp))
        lifted += 1
    assert lifted > 0


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
    assert str(whole.value) == (
        "refusing to enumerate the 2^17 subsets of 'Big': "
        "it has 17 elements, exceeding the bound 16")
    assert sys.e_types_over(small) == (subset(small, ()), subset(small, (1,)))
    assert sys.e_types_over(FinSet("C", (1,))) == ()
    with pytest.raises(CapabilityError) as one:
        sys.e_types_over(big)
    assert str(one.value) == str(whole.value)


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

def test_derivations_are_values():
    sys = _small_subset_system()
    a = sys.i_types()[0]
    s = subset(a, (1,))
    # a derivation is one flat tuple: its judgment is its three boundaries
    assert Derivation._fields == ("rule", "subject", "expr", "target", "premises", "interp")
    d = identity_derivation(sys, s)
    same = Derivation("I", s, sys.id_expr(a), s, (), sys.id_interp(s))
    assert d == same and hash(d) == hash(same) and {d: 1}[same] == 1
    assert d != same._replace(rule="ax")
    assert d != same._replace(subject=subset(a, (2,)))
    assert (d.subject, d.expr, d.target) == (s, sys.id_expr(a), s)
    cut = compose_derivations(sys, d, d)
    assert cut.premises == (d, d) and d.premises == ()
    assert repr(d).startswith(f"Derivation(rule='I', subject={s!r}, ")
    for field in ("rule", "subject", "expr", "interp"):
        with pytest.raises(AttributeError):
            setattr(d, field, None)
