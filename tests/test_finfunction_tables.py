"""FinFunction's index tables against plain element dicts.

Every table refsys builds without the public constructor's check (composites,
identities, enumerations, the cartesian kit's tables, presheaf candidates)
is compared here with the same table built through that check.
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

import refsys
from refsys.cartesian import CartesianKit
from refsys.fincat import FinFunction, FinSet, all_functions, monoid_category
from refsys.kernel import MismatchError
from refsys.presheaf_model import (
    build_presheaf_system,
    enumerate_monoid_presheaves,
)

ELEMENTS = st.one_of(
    st.integers(-3, 3),
    st.text(alphabet="ab1", max_size=2),
    st.tuples(st.integers(0, 2), st.sampled_from(("x", "y"))),
)


def finsets(name, min_size=0, max_size=4):
    return st.lists(ELEMENTS, min_size=min_size, max_size=max_size, unique=True).map(
        lambda elems: FinSet(name, tuple(elems)))


def table(data, dom: FinSet, cod: FinSet, label: str) -> dict:
    if not len(cod):
        return {}
    return {x: data.draw(st.sampled_from(cod.elements), label=f"{label}({x!r})")
            for x in dom.elements}


def sets_and_tables(data):
    a = data.draw(finsets("A"), label="A")
    b = data.draw(finsets("B", min_size=1 if len(a) else 0), label="B")
    c = data.draw(finsets("C", min_size=1 if len(b) else 0), label="C")
    return a, b, c, table(data, a, b, "f"), table(data, b, c, "g")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_views_and_composition_agree_with_dicts(data):
    a, b, c, ft, gt = sets_and_tables(data)
    f = FinFunction("f", a, b, ft)
    g = FinFunction("g", b, c, gt)
    assert f.mapping == ft
    assert all(f(x) == ft[x] for x in a.elements)
    assert f.idx == tuple(b.index(ft[x]) for x in a.elements)
    fg = f.then(g)
    assert fg.mapping == {x: gt[ft[x]] for x in a.elements}
    assert fg == FinFunction("fg", a, c, {x: gt[ft[x]] for x in a.elements})
    again = FinFunction("other name", a, b, dict(ft))
    assert f == again and hash(f) == hash(again)
    other = table(data, a, b, "h")
    h = FinFunction("h", a, b, other)
    assert (f == h) == (ft == other)
    if ft != other:
        assert hash(f) != hash(h)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_unchecked_constructions_equal_checked_builds(data):
    a, b, c, ft, gt = sets_and_tables(data)
    assert FinFunction.identity(a) == FinFunction("id", a, a, {x: x for x in a.elements})
    enumerated = list(all_functions(a, b))
    checked = [FinFunction("r", a, b, dict(zip(a.elements, values)))
               for values in itertools.product(b.elements, repeat=len(a))]
    assert enumerated == checked
    assert len({hash(f) for f in enumerated}) == len(enumerated)

    kit = CartesianKit()
    f = FinFunction("f", a, b, ft)
    g = FinFunction("g", b, c, gt)
    dom, cod = kit.product(a, b), kit.product(b, c)
    assert dom == FinSet("(AxB)", tuple(itertools.product(a.elements, b.elements)))
    assert kit.function_space(a, b) == FinSet(
        "[A->B]", tuple(itertools.product(b.elements, repeat=len(a))))
    assert kit.pairing(f, g) == FinFunction(
        "r", dom, cod, {(x, y): (f(x), g(y)) for x, y in dom.elements})
    reshape = {
        "assoc": lambda p: (p[0][0], (p[0][1], p[1])),
        "assoc_inv": lambda p: ((p[0], p[1][0]), p[1][1]),
        "unit_l": lambda p: p[1],
        "unit_l_inv": lambda x: ("*", x),
        "unit_r": lambda p: p[0],
        "unit_r_inv": lambda x: (x, "*"),
    }
    for kind, move in reshape.items():
        sets = (a, b, c) if kind.startswith("assoc") else (b,)
        cell = kit.cell(kind, sets)
        assert cell == FinFunction("r", cell.dom, cell.cod,
                                   {x: move(x) for x in cell.dom.elements})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluation_and_currying_equal_checked_builds(data):
    a = data.draw(finsets("A", max_size=3), label="A")
    b = data.draw(finsets("B", max_size=3), label="B")
    c = data.draw(finsets("C", min_size=1, max_size=3), label="C")
    kit = CartesianKit()
    dom = kit.product(a, kit.function_space(a, c))
    assert kit.plug("left", a, c) == FinFunction(
        "r", dom, c, {(x, t): t[a.index(x)] for x, t in dom.elements})
    dom = kit.product(kit.function_space(b, c), b)
    assert kit.plug("right", b, c) == FinFunction(
        "r", dom, c, {(t, y): t[b.index(y)] for t, y in dom.elements})
    ab = kit.product(a, b)
    f = FinFunction("f", ab, c, table(data, ab, c, "f"))
    assert kit.curry("left", f, a, b) == FinFunction(
        "r", b, kit.function_space(a, c),
        {y: tuple(f((x, y)) for x in a.elements) for y in b.elements})
    assert kit.curry("right", f, b, a) == FinFunction(
        "r", a, kit.function_space(b, c),
        {x: tuple(f((x, y)) for y in b.elements) for x in a.elements})


def test_currying_refuses_a_function_off_the_product():
    kit = CartesianKit()
    a, b = FinSet("A", (1, 2)), FinSet("B", ("x",))
    f = FinFunction.identity(kit.product(b, a))
    with pytest.raises(MismatchError, match="not \\(AxB\\)"):
        kit.curry("left", f, a, b)


Z2 = monoid_category("Z2", (0, 1), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, 0)
Z2_SETS = enumerate_monoid_presheaves(Z2, 3)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(Z2_SETS), st.sampled_from(Z2_SETS))
def test_presheaf_candidates_equal_checked_builds(s, t):
    sys_ = build_presheaf_system((Z2,), Z2_SETS)
    f = sys_.id_expr(Z2)
    dom, cod = s.ob["*"], t.ob["*"]
    checked = []
    for values in itertools.product(cod.elements, repeat=len(dom)):
        comp = FinFunction("r", dom, cod, dict(zip(dom.elements, values)))
        if all(comp.then(t.ar[u]) == s.ar[u].then(comp) for u in Z2.arrows):
            checked.append(comp)
    found = [m.components["*"] for m in sys_.morphisms_over(s, f, t)]
    assert found == checked


def test_the_public_constructor_rejects_bad_tables_under_both_interpreters():
    # the check raises explicitly, so `python -O` rejects the same tables
    code = """
from refsys.fincat import FinFunction, FinSet
from refsys.kernel import ValidationError
a, b = FinSet("A", (1, 2)), FinSet("B", ("x", "y"))
for bad in ({1: "x"}, {1: "x", 2: "y", 3: "x"}, {1: "x", 2: "z"}, {1: "x", 2: ["y"]}):
    try:
        FinFunction("f", a, b, bad)
    except ValidationError as exc:
        print(exc)
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(refsys.__file__)))
    for flags in ((), ("-O",)):
        proc = subprocess.run([sys.executable, *flags, "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "'f': table domain mismatch",
            "'f': table domain mismatch",
            "'f': value 'z' at 2 not in codomain 'B'",
            "'f': value ['y'] at 2 not in codomain 'B'",
        ]


def test_composition_checks_the_boundary():
    a, b = FinSet("A", (1, 2)), FinSet("B", ("x", "y"))
    f = FinFunction("f", a, b, {1: "x", 2: "y"})
    with pytest.raises(MismatchError, match="cannot compose 'f'"):
        f.then(f)


def test_functions_survive_copy_and_pickle():
    a = FinSet("A", ("x", 0, 1))
    f = FinFunction("f", a, a, {"x": 1, 0: "x", 1: 0})
    composite = f.then(f)
    hash(f)
    for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert twin is not f
        assert twin == f and hash(twin) == hash(f)
        assert (twin.name, twin.dom, twin.cod, twin.idx) == (f.name, f.dom, f.cod, f.idx)
        assert twin.mapping == f.mapping
        assert twin.then(twin) == composite and twin.then(twin).name == "f;f"


def test_a_pickled_function_hashes_as_a_fresh_one_in_another_process():
    # a function's hash is of strings, which hash differently in each process,
    # so a pickle must not carry the hash it had where it was made
    make = """
import pickle, sys
from refsys.fincat import FinFunction, FinSet
a = FinSet("A", ("x", "y"))
f = FinFunction("f", a, a, {"x": "y", "y": "y"})
hash(f)
sys.stdout.write(pickle.dumps(f).hex())
"""
    load = """
import pickle, sys
from refsys.fincat import FinFunction, FinSet
a = FinSet("A", ("x", "y"))
fresh = FinFunction("f", a, a, {"x": "y", "y": "y"})
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
print(loaded == fresh, hash(loaded) == hash(fresh), {fresh: 1}.get(loaded))
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(refsys.__file__)))
    made = subprocess.run([sys.executable, "-c", make], capture_output=True, text=True,
                          env=dict(env, PYTHONHASHSEED="1"), timeout=120)
    assert made.returncode == 0, made.stderr
    loaded = subprocess.run([sys.executable, "-c", load], input=made.stdout,
                            capture_output=True, text=True,
                            env=dict(env, PYTHONHASHSEED="2"), timeout=120)
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.split() == ["True", "True", "1"]
