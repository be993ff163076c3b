from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from refsys.fincat import FinFunction, FinSet, all_functions
from refsys.kernel import CapabilityError, LawViolation, MismatchError, ValidationError
from refsys.subset_model import (
    HoareProgram,
    Subset,
    SubsetMor,
    build_subset_system,
    full_subset,
    subset,
)

from conftest import DATA, build_classifier_system


def test_subset_validation():
    a = FinSet("A", (1, 2, 3))
    s = subset(a, (3, 1))
    assert s.elements == frozenset({1, 3})
    assert s.name == "{1,3}:A"
    with pytest.raises(ValidationError, match="outside carrier"):
        subset(a, (4,))


def test_subset_morphism_validation():
    a, b = FinSet("A", (1, 2)), FinSet("B", (1, 2))
    f = FinFunction("f", a, a, {1: 2, 2: 2})
    assert SubsetMor(subset(a, (1,)), f, subset(a, (2,))).expr is f
    with pytest.raises(ValidationError, match="does not map"):
        SubsetMor(subset(a, (1,)), f, subset(a, (1,)))
    with pytest.raises(ValidationError, match="boundaries"):
        SubsetMor(subset(b, (1,)), f, subset(a, (2,)))


def test_subset_validation_under_optimize():
    # the checks raise explicitly, so `python -O` (which strips asserts) still refuses
    code = """
from refsys.fincat import FinFunction, FinSet
from refsys.kernel import ValidationError
from refsys.subset_model import SubsetMor, subset
a = FinSet("A", (1, 2))
f = FinFunction("f", a, a, {1: 2, 2: 2})
for build in (lambda: subset(a, (3,)), lambda: SubsetMor(subset(a, (1,)), f, subset(a, (1,)))):
    try:
        build()
    except ValidationError as exc:
        print(exc)
"""
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "element 3 outside carrier 'A'", "'f' does not map {1}:A into {1}:A"]


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
    assert small_sys.refines(unit) == small_sys.kit.unit


def test_carrier_bound_refuses_large_products():
    a = FinSet("A", tuple(range(30)))
    sys = build_subset_system((a,), max_carrier=100)
    with pytest.raises(CapabilityError):
        sys.tensor_itype(a, a)


def test_residual_is_the_function_space(small_sys):
    a, b = small_sys.i_types()
    space = small_sys.residual_itype(a, b)
    assert len(space) == 9
    s = subset(a, ("a1",))
    u = subset(b, (1,))
    w = small_sys.residual_etype("left", s, u)
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
    left = sys.residual_etype("left", s, u)
    right = sys.residual_etype("right", s, u)
    assert left.of == fs and right.of == fs
    assert left.elements == expected
    assert right.elements == expected
    # residuals are built without the membership check; the checked build agrees
    assert left == right == Subset(fs, expected)
    assert len(left) == len(u) ** len(s) * n_c ** (n_a - len(s))
    # members are the function space's own tuples, not copies of them
    own = {id(t) for t in fs.elements}
    assert all(id(t) in own for t in left.elements)
    assert all(id(t) in own for t in right.elements)


def test_residuals_equal_checked_builds_on_a8_c4():
    a = FinSet("A8", tuple(f"a{i}" for i in range(8)))
    c = FinSet("C4", ("w", "x", "y", "z"))
    sys = build_subset_system((a, c))
    fs = sys.function_space(a, c)
    for s_elems, u_elems in (((), ("w",)), (("a7",), ("w", "x", "y")),
                             (("a0", "a3"), ("x",)), (("a1", "a2", "a5"), ("w", "z")),
                             (a.elements, c.elements), (a.elements, ())):
        s, u = subset(a, s_elems), subset(c, u_elems)
        expected = Subset(fs, frozenset(
            t for t in fs.elements if all(t[a.index(x)] in u for x in s.elements)))
        assert sys.residual_etype("left", s, u) == expected
        assert sys.residual_etype("right", s, u) == expected


def test_residual_without_a_trailing_free_run_streams_its_last_digit():
    # S = {a7} leaves no trailing position free, so every member is a prefix of
    # the last digit; S = {a0} has the same 49,152 members in runs of 4^7
    a = FinSet("A8", tuple(f"a{i}" for i in range(8)))
    c = FinSet("C4", ("w", "x", "y", "z"))
    u_elems = ("w", "x", "y")

    def peak(s_elems) -> int:
        sys = build_subset_system((a, c))
        s, u = subset(a, s_elems), subset(c, u_elems)
        tracemalloc.start()
        try:
            res = sys.residual_etype("left", s, u)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res) == 3 * 4 ** 7
        return top

    assert peak(("a7",)) <= 1.25 * peak(("a0",))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_cuts_equal_checked_builds(n_a, n_b, data):
    a = FinSet("A", tuple(f"a{i}" for i in range(n_a)))
    b = FinSet("B", tuple(range(n_b)))
    sys = build_subset_system((a, b))
    pick = lambda of, label: _mask_subset(
        of, data.draw(st.integers(0, (1 << len(of)) - 1), label=label))
    s, t, v = pick(a, "S"), pick(b, "T"), pick(b, "V")
    fs = list(all_functions(a, b))
    gs = list(all_functions(b, b))
    f = fs[data.draw(st.integers(0, len(fs) - 1), label="f")]
    g = gs[data.draw(st.integers(0, len(gs) - 1), label="g")]
    # cuts are built without the membership check; the checked build agrees
    for m in sys.morphisms_over(s, f, t):
        for n in sys.morphisms_over(t, g, v):
            cut = sys.compose_interps(m, n)
            assert cut == SubsetMor(m.src, f.then(g), n.dst)


def test_cut_refuses_mismatched_morphisms():
    a = FinSet("A", (1, 2))
    sys = build_subset_system((a,))
    m = sys.id_interp(subset(a, (1,)))
    with pytest.raises(MismatchError, match="cut"):
        sys.compose_interps(m, sys.id_interp(subset(a, (2,))))


def test_e_types_refuses_a_large_carrier_under_both_interpreters():
    # the bound is checked before any subset is built, also under `python -O`
    code = """
from refsys.fincat import FinSet
from refsys.kernel import CapabilityError
from refsys.subset_model import build_subset_system
big = FinSet("Big", tuple(range(17)))
try:
    build_subset_system((FinSet("A", (1,)), big)).e_types()
except CapabilityError as exc:
    print(exc)
"""
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    for flags in ((), ("-O",)):
        proc = subprocess.run([sys.executable, *flags, "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "refusing to enumerate the 2^17 subsets of 'Big': "
            "it has 17 elements, exceeding the bound 16"]


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
    # check_triple raises LawViolation unless all three readings agree
    prog.check_triple(p, names, q)


def test_hoare_command_must_be_an_endomorphism(hoare4):
    prog = hoare4.machine
    other = FinSet("other", ("x",))
    leave = FinFunction("leave", prog.states, other, {s: "x" for s in prog.states.elements})
    with pytest.raises(ValidationError, match="'leave' is not an endo"):
        HoareProgram(prog.sys, prog.states, {"leave": leave})


def test_hoare_disagreeing_readings_raise(hoare4):
    class EverythingIsSafe(HoareProgram):
        def wp(self, name, q):
            return full_subset(self.states)

    prog = hoare4.machine
    broken = EverythingIsSafe(prog.sys, prog.states, prog.commands)
    low, high = hoare4.etype("low"), hoare4.etype("high")
    with pytest.raises(LawViolation, match="readings disagree"):
        broken.check_triple(low, ("inc",), high)


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


def test_composition_hands_back_its_last_composite():
    a, b = FinSet("A", (1, 2)), FinSet("B", ("x", "y"))
    sys_ = build_subset_system((a, b))
    f = FinFunction("f", a, b, {1: "x", 2: "x"})
    g = FinFunction("g", b, a, {"x": 2, "y": 1})
    fresh = FinFunction("f;g", a, a, {1: 2, 2: 2})
    fg = sys_.compose_exprs(f, g)
    again = sys_.compose_exprs(f, g)
    assert again is fg
    assert again == fresh and again.name == fresh.name == "f;g"
    # an equal operand that is another object is composed afresh, under its name
    h = FinFunction("h", b, a, {"x": 2, "y": 1})
    fh = sys_.compose_exprs(f, h)
    assert h == g and fh is not fg
    assert fh == fg and fh.name == "f;h"
    assert sys_.compose_exprs(f, g) == fg and sys_.compose_exprs(f, g).name == "f;g"
    # a boundary mismatch is still refused after a hit on another operand
    sys_.compose_exprs(f, h)
    sys_.compose_exprs(f, h)
    with pytest.raises(MismatchError, match="cannot compose 'f'"):
        sys_.compose_exprs(f, f)
    # the cut composes through the same memo
    m = SubsetMor(subset(a, (1,)), f, subset(b, ("x",)))
    n = SubsetMor(subset(b, ("x",)), g, subset(a, (2,)))
    assert sys_.compose_exprs(f, g) is sys_.compose_interps(m, n).expr


def test_composing_a_long_program_keeps_no_intermediate_composite():
    states = FinSet("S", (0, 1, 2, 3))
    step = FinFunction("step", states, states, {i: (i + 1) % 4 for i in range(4)})
    sys_ = build_subset_system((states,))
    prog = HoareProgram(sys_, states, {"step": step})

    def live_composites():
        gc.collect()
        return sum(1 for o in gc.get_objects()
                   if type(o) is FinFunction and o.name.endswith(";step"))

    assert live_composites() == 0
    out = prog.composite(["step"] * 50)
    assert out.name.count(";step") == 50
    assert live_composites() == 1
    for _ in range(50):
        out = sys_.compose_exprs(out, step)
    # the system's one-entry memo holds the last composite and its left operand
    del out
    assert live_composites() == 2
