from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from refsys.fincat import (
    FinCategory,
    FinFunction,
    FinFunctor,
    FinSet,
    all_functions,
    check_category,
    check_functor,
    enumerate_functors,
    monoid_category,
    product_category,
    terminal_category,
)
from refsys.kernel import MismatchError, ValidationError

Z2_TABLE = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}


def test_finset_basics():
    a = FinSet("A", (3, 1, 2))
    assert len(a) == 3
    assert a.index(1) == a.elements.index(1)
    assert 2 in a.elements
    with pytest.raises(ValidationError, match="duplicate elements in 'dup'"):
        FinSet("dup", (1, 1))


def test_finfunction_compose_and_identity():
    a = FinSet("A", (1, 2))
    b = FinSet("B", ("x", "y", "z"))
    f = FinFunction("f", a, b, {1: "x", 2: "z"})
    ida = FinFunction.identity(a)
    idb = FinFunction.identity(b)
    assert ida.then(f) == f
    assert f.then(idb) == f
    with pytest.raises(ValidationError, match="'partial': table domain mismatch"):
        FinFunction("partial", a, b, {1: "x"})
    with pytest.raises(ValidationError, match="'stray': value 'w' at 2 not in codomain 'B'"):
        FinFunction("stray", a, b, {1: "x", 2: "w"})


def test_all_functions_count():
    a = FinSet("A", (1, 2))
    b = FinSet("B", ("x", "y", "z"))
    fs = list(all_functions(a, b))
    assert len(fs) == 9
    assert len({tuple(sorted(f.mapping.items())) for f in fs}) == 9


def test_monoid_category_z2():
    m = monoid_category("Z2", (0, 1), Z2_TABLE, 0)
    assert m.objects == ("*",)
    assert m.identity("*") == 0
    assert m.compose(1, 1) == 0
    assert set(m.hom("*", "*")) == {0, 1}


def test_category_validation_rejects_missing_composite():
    bad = FinCategory(
        "bad", ("x", "y"),
        {"id_x": ("x", "x"), "id_y": ("y", "y"), "u": ("x", "y")},
        {("id_x", "id_x"): "id_x", ("id_y", "id_y"): "id_y",
         ("id_x", "u"): "u"},
        {"x": "id_x", "y": "id_y"},
    )
    with pytest.raises(ValidationError, match="missing composite"):
        check_category(bad)


def test_terminal_and_product_category():
    one = terminal_category()
    assert len(one.arrows) == 1
    m = monoid_category("Z2", (0, 1), Z2_TABLE, 0)
    prod = product_category(m, m)
    assert len(prod.objects) == 1
    assert len(prod.arrows) == 4
    assert prod.compose((1, 0), (1, 1)) == (0, 1)


def test_functor_identity_and_composition():
    m = monoid_category("Z2", (0, 1), Z2_TABLE, 0)
    ident = FinFunctor.identity(m)
    assert check_functor(ident) is None
    fold = FinFunctor("fold", m, m, {"*": "*"}, {0: 0, 1: 0})
    assert fold.then(ident) == fold
    assert ident.then(fold) == fold
    with pytest.raises(MismatchError, match="cannot compose functors 'fold'"):
        fold.then(FinFunctor.identity(terminal_category()))


def test_functor_law_violation_reported():
    m = monoid_category("Z2", (0, 1), Z2_TABLE, 0)
    # 1 -> 1 but 1;1 = 0 would need 1;1 -> 1: breaks multiplicativity
    bad = FinFunctor("bad", m, m, {"*": "*"}, {0: 0, 1: 1})
    with pytest.raises(ValidationError, match=r"^identity of '\*' not preserved$"):
        check_functor(FinFunctor("broken", m, m, {"*": "*"}, {0: 1, 1: 1}))
    assert check_functor(bad) is None
    z3_table = {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}
    z3 = monoid_category("Z3", (0, 1, 2), z3_table, 0)
    with pytest.raises(ValidationError, match=r"^composite 1;1 not preserved$"):
        check_functor(FinFunctor("skew", z3, z3, {"*": "*"}, {0: 0, 1: 1, 2: 1}))


@pytest.mark.parametrize("object_map, arrow_map, fault", [
    ({}, {}, "object 'x' has no image"),
    ({"x": "z", "y": "y"}, {}, "object image 'z' of 'x' not in 'C'"),
    ({"x": "x", "y": "y", "w": "x"}, {}, "object assignment for unknown 'w'"),
    ({"x": "x", "y": "y"}, {}, "arrow 'id_x' has no image"),
    ({"x": "x", "y": "y"}, {"id_x": "v"}, "arrow image 'v' of 'id_x' not in 'C'"),
    ({"x": "y", "y": "y"}, {"id_x": "id_x"},
     "arrow 'id_x': image endpoints ('x', 'x') != ('y', 'y')"),
    ({"x": "x", "y": "y"}, {"id_x": "id_x", "u": "u", "id_y": "id_y", "w": "u"},
     "arrow assignment for unknown 'w'"),
    ({"x": "x", "y": "x"}, {"id_x": "id_x", "u": "id_x", "id_y": "id_x"}, None),
])
def test_functor_check_names_its_first_fault(object_map, arrow_map, fault):
    # x --u--> y; objects are tested first, then arrows; the last row collapses y onto x
    c = FinCategory("C", ("x", "y"), {"id_x": ("x", "x"), "u": ("x", "y"), "id_y": ("y", "y")},
                    {("id_x", "id_x"): "id_x", ("id_x", "u"): "u", ("u", "id_y"): "u",
                     ("id_y", "id_y"): "id_y"},
                    {"x": "id_x", "y": "id_y"})
    f = FinFunctor("F", c, c, object_map, arrow_map)
    if fault is None:
        assert check_functor(f) is None
    else:
        with pytest.raises(ValidationError, match=f"^{re.escape(fault)}$"):
            check_functor(f)


def test_enumerate_functors_between_monoids():
    # unit-preserving monoid maps Z2 -> Z2: identity and collapse-to-unit
    m = monoid_category("Z2", (0, 1), Z2_TABLE, 0)
    fs = enumerate_functors(m, m)
    assert len(fs) == 2
    images = sorted(f.arrow_map[1] for f in fs)
    assert images == [0, 1]


@given(st.data())
def test_function_composition_associative(data):
    elems = tuple(range(data.draw(st.integers(1, 4), label="size")))
    a = FinSet("A", elems)
    pick = st.sampled_from(elems)
    table = st.fixed_dictionaries({e: pick for e in elems})
    f = FinFunction("f", a, a, data.draw(table, label="f"))
    g = FinFunction("g", a, a, data.draw(table, label="g"))
    h = FinFunction("h", a, a, data.draw(table, label="h"))
    assert f.then(g).then(h) == f.then(g.then(h))
