from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from refsys.fincat import FinFunction, FinSet, all_functions
from refsys.kernel import CapabilityError
from refsys.subset_model import (
    HoareProgram,
    build_classifier_system,
    build_subset_system,
    full_subset,
    subset,
)


def test_subset_validation():
    a = FinSet("A", (1, 2, 3))
    s = subset(a, (3, 1))
    assert s.elements == frozenset({1, 3})
    assert s.name == "{1,3}:A"
    with pytest.raises(AssertionError):
        subset(a, (4,))


def test_e_types_counts(small_sys):
    a, b = small_sys.i_types()
    assert len(small_sys.e_types_over(a)) == 4
    assert len(small_sys.e_types_over(b)) == 8
    assert len(small_sys.e_types()) == 12


def test_proof_irrelevance(small_sys):
    a, b = small_sys.i_types()
    f = FinFunction("f", a, b, {"a1": 1, "a2": 2})
    s = subset(a, ("a1",))
    assert len(list(small_sys.morphisms_over(s, f, subset(b, (1,))))) == 1
    assert len(list(small_sys.morphisms_over(s, f, subset(b, (2,))))) == 0
    assert small_sys.proof_irrelevant


def test_tensor_and_unit(small_sys):
    a, b = small_sys.i_types()
    prod = small_sys.tensor_itype(a, b)
    assert len(prod) == 6
    st_ = small_sys.tensor_etype(subset(a, ("a1",)), subset(b, (2, 3)))
    assert set(st_.elements) == {("a1", 2), ("a1", 3)}
    unit = small_sys.unit_etype()
    assert len(unit) == 1
    assert small_sys.refines(unit) == small_sys.unit_itype()


def test_carrier_bound_refuses_large_products():
    a = FinSet("A", tuple(range(30)))
    sys = build_subset_system((a,), max_carrier=100)
    with pytest.raises(CapabilityError):
        sys.tensor_itype(a, a)


def test_residual_is_the_function_space(small_sys):
    a, b = small_sys.i_types()
    space = small_sys.residual_left_itype(a, b)
    assert len(space) == 9
    s = subset(a, ("a1",))
    u = subset(b, (1,))
    w = small_sys.residual_left_etype(s, u)
    # maps sending the point of S into U
    assert len(w) == 3


def _mask_subset(of: FinSet, mask: int):
    return subset(of, (x for i, x in enumerate(of.elements) if mask >> i & 1))


@settings(max_examples=200)
@given(st.integers(0, 4), st.integers(0, 3), st.data())
def test_residuals_match_the_defining_filter(n_a, n_c, data):
    a = FinSet("A", tuple(f"a{i}" for i in range(n_a)))
    c = FinSet("C", tuple(range(n_c)))
    sys = build_subset_system((a, c))
    s = _mask_subset(a, data.draw(st.integers(0, (1 << n_a) - 1), label="S"))
    u = _mask_subset(c, data.draw(st.integers(0, (1 << n_c) - 1), label="U"))
    fs = sys.function_space(a, c)
    expected = frozenset(
        t for t in fs.elements if all(t[a.index(x)] in u for x in s.elements)
    )
    left = sys.residual_left_etype(s, u)
    right = sys.residual_right_etype(u, s)
    assert left.of == fs and right.of == fs
    assert left.elements == expected
    assert right.elements == expected
    assert len(left) == len(u) ** len(s) * n_c ** (n_a - len(s))
    # members are the function space's own tuples, not copies of them
    own = {id(t) for t in fs.elements}
    assert all(id(t) in own for t in left.elements)
    assert all(id(t) in own for t in right.elements)


def test_hoare_wp_sp_oracles(hoare4):
    prog = hoare4.machine
    high = hoare4.etype("high")
    low = hoare4.etype("low")
    assert set(prog.wp("inc", high).elements) == {"s1", "s2", "s3"}
    assert set(prog.sp(low, "inc").elements) == {"s1", "s2"}
    assert set(prog.wp_fold(("inc", "inc"), high).elements) == {"s0", "s1", "s2", "s3"}
    assert set(prog.sp_fold(low, ("inc", "inc")).elements) == {"s2", "s3"}


def test_hoare_triples(hoare4):
    prog = hoare4.machine
    low = hoare4.etype("low")
    high = hoare4.etype("high")
    init = hoare4.etype("init")
    assert prog.check_triple(low, ("inc", "inc"), high)
    assert not prog.check_triple(low, ("inc",), high)
    assert prog.check_triple(init, ("swap",), low)
    assert prog.check_triple(hoare4.etype("all"), ("reset",), init)


@settings(max_examples=50)
@given(st.data())
def test_hoare_readings_agree_random(hoare4, data):
    prog = hoare4.machine
    states = prog.states.elements
    p = subset(prog.states, data.draw(st.sets(st.sampled_from(states)), label="P"))
    q = subset(prog.states, data.draw(st.sets(st.sampled_from(states)), label="Q"))
    names = data.draw(
        st.lists(st.sampled_from(sorted(prog.commands)), max_size=3), label="cs")
    # check_triple asserts internally that all three readings agree
    prog.check_triple(p, names, q)


def test_classifier_encodings_are_characteristic():
    sys, truth, encodings = build_classifier_system(sizes=(1, 2))
    assert set(truth.elements) == {1}
    for s, chi in encodings.items():
        et, _, _ = sys.pullback_data(chi, truth)
        assert et == s


def test_classifier_encodings_unique():
    sys, truth, encodings = build_classifier_system(sizes=(2,))
    omega = sys.refines(truth)
    (a2,) = [c for c in sys.i_types() if c.name == "A2"]
    for s in sys.e_types_over(a2):
        hits = [f for f in all_functions(a2, omega)
                if sys.pullback_data(f, truth)[0] == s]
        assert len(hits) == 1
        assert hits[0].mapping == encodings[s].mapping
