"""An identity table is observationally the plain tuple (0, ..., n-1).

``FinFunction.identity``, the kit's coherence cells and pairings of such
tables carry an ``IdentityTable``.  Nothing outside ``FinFunction.then`` and
``CartesianKit.pair`` may tell it from a tuple: equality, hashing, pickling,
copying, ``.mapping`` and ``__call__`` read it as the plain table, and the
names of composites and pairings, which reach failure texts, are built as
they were before tables were marked (the strings below were recorded then).
"""
from __future__ import annotations

import copy
import pickle

import pytest

from refsys.cartesian import CartesianKit
from refsys.fincat import FinFunction, FinSet, IdentityTable, identity_table
from refsys.kernel import MismatchError

A = FinSet("A", ("a1", "a2"))
B = FinSet("B", (1, 2, 3))
C = FinSet("C", ("c",))


def test_identity_table_is_the_plain_range_tuple():
    for n in (0, 1, 5):
        t = identity_table(n)
        assert type(t) is IdentityTable
        assert isinstance(t, tuple)
        assert t == tuple(range(n)) and tuple(range(n)) == t
        assert hash(t) == hash(tuple(range(n)))
        assert repr(t) == repr(tuple(range(n)))
    assert not hasattr(identity_table(3), "__dict__")


@pytest.mark.parametrize("a", [A, B, C, FinSet("E", ())])
def test_identity_equals_and_hashes_like_its_element_table(a):
    ident = FinFunction.identity(a)
    plain = FinFunction("id", a, a, {x: x for x in a})
    assert type(ident.idx) is IdentityTable and type(plain.idx) is tuple
    assert ident == plain and plain == ident
    assert hash(ident) == hash(plain)
    assert ident.mapping == plain.mapping == {x: x for x in a}
    assert [ident(x) for x in a] == [plain(x) for x in a] == list(a)


def test_marked_functions_survive_pickle_and_deepcopy():
    kit = CartesianKit()
    marked = [FinFunction.identity(B), kit.cell("assoc", (A, B, C)),
              kit.pair(kit.cell("unit_l", (A,)), FinFunction.identity(B))]
    for f in marked:
        copies = [pickle.loads(pickle.dumps(f, protocol=p))
                  for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for g in copies + [copy.deepcopy(f), copy.copy(f)]:
            assert g == f and hash(g) == hash(f)
            assert g.name == f.name
            assert type(g.idx) is IdentityTable and g.idx == tuple(range(len(f.dom)))
            assert g.mapping == f.mapping
            assert [g(x) for x in g.dom] == [f(x) for x in f.dom]


def test_cells_and_their_pairings_are_marked_and_read_as_bijections():
    kit = CartesianKit()
    cell = kit.cell("assoc", (A, B, C))
    paired = kit.pair(cell, FinFunction.identity(A))
    mixed = kit.pair(cell, FinFunction("f", A, A, {"a1": "a2", "a2": "a2"}))
    assert type(cell.idx) is IdentityTable and type(paired.idx) is IdentityTable
    assert type(mixed.idx) is tuple
    for f in (cell, paired):
        assert len(f.dom) == len(f.cod)
        assert [f(x) for x in f.dom] == list(f.cod.elements)
        assert f.mapping == dict(zip(f.dom.elements, f.cod.elements))


def test_composite_and_pairing_names_are_unchanged():
    kit = CartesianKit()
    assoc, inv = kit.cell("assoc", (A, B, C)), kit.cell("assoc_inv", (A, B, C))
    unit_l, unit_r_inv = kit.cell("unit_l", (A,)), kit.cell("unit_r_inv", (B,))
    f = FinFunction("f", A, A, {"a1": "a2", "a2": "a2"})
    id_a, id_b = FinFunction.identity(A), FinFunction.identity(B)
    assert assoc.then(inv).name == "assoc[A,B,C];assoc_inv[A,B,C]"
    assert kit.pair(unit_l, id_b).name == "(unitl[A]xid_B)"
    assert kit.pairing(kit.pair(id_a, unit_r_inv), f).name == "((id_Axunitr_inv[B])xf)"
    assert unit_l.then(f).then(id_a).name == "unitl[A];f;id_A"
    assert (kit.pair(assoc, unit_l).then(kit.pair(inv, id_a)).name
            == "(assoc[A,B,C]xunitl[A]);(assoc_inv[A,B,C]xid_A)")


def test_a_composite_with_a_marked_side_takes_the_other_table():
    f = FinFunction("f", A, A, {"a1": "a2", "a2": "a2"})
    id_a = FinFunction.identity(A)
    assert id_a.then(f).idx is f.idx
    assert f.then(id_a).idx is f.idx
    assert id_a.then(f) == f == f.then(id_a)


def test_a_boundary_mismatch_still_names_both_functions():
    with pytest.raises(MismatchError) as err:
        FinFunction.identity(A).then(FinFunction.identity(B))
    assert str(err.value) == "cannot compose 'id_A' : ..->'A' with 'id_B' : 'B'->.."
