"""Subsets held as positions agree with their element-level definitions.

Every subset the model computes is built from positions in its carrier and
the index tables of its expressions.  Each test here builds the same subset
from the defining formula on elements, through the checking constructor,
and compares the two: equality, ``.elements`` and ``.name``.
"""
from __future__ import annotations

import copy
import itertools
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from refsys.fincat import FinFunction, FinSet
from refsys.subset_model import Subset, SubsetMor, build_subset_system, subset

from conftest import DATA


def _same(got: Subset, of: FinSet, elems) -> None:
    """got is the subset of ``of`` with members elems, in every reading."""
    expected = Subset(of, frozenset(elems))
    assert got == expected
    assert got.of == of
    assert got.elements == expected.elements
    assert got.name == expected.name
    assert len(got) == len(expected)


def _system(data):
    """A system on two small carriers, and the carriers: both and their kit product."""
    a = FinSet("A", tuple(f"a{i}" for i in range(data.draw(st.integers(1, 3), label="|A|"))))
    b = FinSet("B", tuple(range(data.draw(st.integers(1, 3), label="|B|"))))
    sys_ = build_subset_system((a, b))
    return sys_, (a, b, sys_.tensor_itype(a, b))


def _pick_subset(data, of: FinSet, label: str) -> Subset:
    return subset(of, data.draw(st.sets(st.sampled_from(of.elements)), label=label))


def _pick_function(data, dom: FinSet, cod: FinSet, label: str) -> FinFunction:
    table = data.draw(st.tuples(*[st.sampled_from(cod.elements) for _ in dom.elements]),
                      label=label)
    return FinFunction(label, dom, cod, dict(zip(dom.elements, table)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_holds_pullback_and_pushforward_match_their_definitions(data):
    sys_, carriers = _system(data)
    dom = data.draw(st.sampled_from(carriers), label="dom")
    cod = data.draw(st.sampled_from(carriers), label="cod")
    f = _pick_function(data, dom, cod, "f")
    s, t = _pick_subset(data, dom, "S"), _pick_subset(data, cod, "T")

    holds = all(f(x) in t.elements for x in s.elements)
    assert sys_.holds(s, f, t) == holds
    assert list(sys_.morphisms_over(s, f, t)) == ([SubsetMor(s, f, t)] if holds else [])

    pull, left, _ = sys_.pullback_data(f, t)
    _same(pull, dom, (x for x in dom.elements if f(x) in t.elements))
    assert left == SubsetMor(pull, f, t)

    push, right, _ = sys_.pushforward_data(s, f)
    _same(push, cod, (f(x) for x in s.elements))
    assert right == SubsetMor(s, f, push)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tensor_matches_the_pairs_of_members(data):
    sys_, carriers = _system(data)
    left_of = data.draw(st.sampled_from(carriers), label="left")
    right_of = data.draw(st.sampled_from(carriers[:2]), label="right")
    s, t = _pick_subset(data, left_of, "S"), _pick_subset(data, right_of, "T")
    _same(sys_.tensor_etype(s, t), sys_.tensor_itype(left_of, right_of),
          itertools.product(s.elements, t.elements))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_residuals_over_a_kit_product_match_the_defining_filter(data):
    sys_, carriers = _system(data)
    a = data.draw(st.sampled_from(carriers), label="A")
    c = data.draw(st.sampled_from(carriers[:2]), label="C")
    s, u = _pick_subset(data, a, "S"), _pick_subset(data, c, "U")
    fs = sys_.function_space(a, c)
    members = [t for t in fs.elements if all(t[a.index(x)] in u.elements for x in s.elements)]
    _same(sys_.residual_etype("left", s, u), fs, members)
    _same(sys_.residual_etype("right", s, u), fs, members)


@pytest.mark.parametrize("size", [0, 1, 2, 3, 4])
def test_e_types_over_list_the_subsets_by_bitmask(size):
    a = FinSet("A", tuple(f"a{i}" for i in range(size)))
    sys_ = build_subset_system((a, FinSet("B", (1, 2))))
    got = sys_.e_types_over(a)
    assert len(got) == 1 << size
    for mask, s in enumerate(got):
        _same(s, a, (x for i, x in enumerate(a.elements) if mask >> i & 1))
    assert sys_.e_types()[:len(got)] == got


# --- memory of the deep continuation instance --------------------------------------

@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from procfs")
def test_deep_retraction_check_stays_under_200_mb():
    # the first retraction check on the deep continuation instance (B = {b},
    # C = {1,2}, carriers up to 1.3M elements) in a process of its own, whose
    # high-water resident set is read from its status file
    code = """
from refsys.fincat import FinSet
from refsys.monadrep import build_continuation_adjunction, check_retraction, search_encodings
from refsys.subset_model import build_subset_system, subset
b, c = FinSet("B", ("b",)), FinSet("C", (1, 2))
deep = build_subset_system((b, c), name="deep", max_carrier=1_300_000)
t, u = subset(b, ("b",)), subset(c, (1,))
adj = build_continuation_adjunction(deep, u)
print(check_retraction(adj, t, u, search_encodings(adj, t, u)[0]).ok)
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ok, hwm_kb = proc.stdout.split()
    assert ok == "True"
    assert int(hwm_kb) < 200 * 1024, f"VmHWM {int(hwm_kb) // 1024} MB"


def test_subsets_and_morphisms_survive_copy_and_pickle():
    # a copy is rebuilt from the members, not from the positions
    a = FinSet("A", ("x", 0, 1))
    s, t = subset(a, (0, 1)), subset(a, ("x", 0, 1))
    m = SubsetMor(s, FinFunction("f", a, a, {"x": 1, 0: "x", 1: 0}), t)
    for value in (s, t, m):
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(s).elements == frozenset({0, 1})
