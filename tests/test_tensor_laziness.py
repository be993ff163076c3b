"""The presheaf model's tensor structure is built only where it is read.

A product category composes through its factors and builds its
``composition`` table on first read; a tensor presheaf pairs its actions on
first read; and a coherence cell's functor, which depends only on the
bases, is built once per kind and bases.  The first test pins how much of
that the law suites build.  The second compares every tensor presheaf and
product category the suites build with the eager constructions they
replaced, which are kept here as references.
"""
from __future__ import annotations

import contextlib
import io
import itertools

import pytest

from conftest import data_file
from refsys import presheaf_model
from refsys.cartesian import CartesianKit
from refsys.cli import main
from refsys.fincat import FinCategory
from refsys.presheaf_model import FinPresheaf, PresheafSystem, same_values


def _eager_product_category(a: FinCategory, b: FinCategory) -> FinCategory:
    """A x B with its composition table built up front."""
    objects = tuple(itertools.product(a.objects, b.objects))
    arrows = {
        (f, g): ((a.src(f), b.src(g)), (a.dst(f), b.dst(g)))
        for f in a.arrows for g in b.arrows
    }
    comp = {}
    for (f1, g1), (_, d1) in arrows.items():
        for (f2, g2), (s2, _) in arrows.items():
            if d1 == s2:
                comp[((f1, g1), (f2, g2))] = (a.compose(f1, f2), b.compose(g1, g2))
    ids = {(x, y): (a.identity(x), b.identity(y)) for x, y in objects}
    return FinCategory(f"({a.name}x{b.name})", objects, arrows, comp, ids)


def _eager_tensor(kit: CartesianKit, s: FinPresheaf, t: FinPresheaf,
                  cat: FinCategory) -> FinPresheaf:
    """S x T over cat with every action paired up front."""
    ob = {(a, b): kit.product(s.ob[a], t.ob[b]) for (a, b) in cat.objects}
    ar = {(u, v): kit.pair(s.ar[u], t.ar[v]) for (u, v) in cat.arrows}
    return FinPresheaf(f"({s.name}x{t.name})", cat, ob, ar)


def _run_laws(name: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["laws", data_file(name), "all"]) == 0


def test_the_law_suites_build_only_the_tensor_structure_they_read(monkeypatch):
    counts = {"pair": 0, "regroup": 0}
    products: list = []
    pair, regroup, product_category = (
        CartesianKit.pair, presheaf_model._regroup, presheaf_model.product_category)

    def counted_pair(self, f, g):
        counts["pair"] += 1
        return pair(self, f, g)

    def counted_regroup(*args):
        counts["regroup"] += 1
        return regroup(*args)

    def recorded_product(a, b):
        products.append(product_category(a, b))
        return products[-1]

    monkeypatch.setattr(CartesianKit, "pair", counted_pair)
    monkeypatch.setattr(presheaf_model, "_regroup", counted_regroup)
    monkeypatch.setattr(presheaf_model, "product_category", recorded_product)
    _run_laws("presheaf_arrow.json")
    # eagerly: 7,840 pairings, 5,308 regroupings and 12 composition tables;
    # the monoidal equations build each shared tensor once, not per instance
    assert counts == {"pair": 728, "regroup": 394}
    assert len(products) == 12
    assert [p for p in products if "composition" in vars(p)] == []


def _composes_as_its_table(p: FinCategory, table: dict) -> None:
    for x, y in itertools.product(p.arrows, repeat=2):
        if (x, y) in table:
            assert p.compose(x, y) == table[(x, y)], (x, y)
            continue
        try:
            p.compose(x, y)
        except KeyError:
            continue
        raise AssertionError(f"{x!r};{y!r} composed in {p.name}")


@pytest.mark.parametrize("name", ("day_z2.json", "presheaf_arrow.json"))
def test_lazy_tensors_and_products_equal_their_eager_builds(name, monkeypatch):
    # each built result, by id, with what it was built from
    products: dict = {}
    tensors: dict = {}
    tensor_itype, tensor_etype = PresheafSystem.tensor_itype, PresheafSystem.tensor_etype

    def recorded_itype(self, a, b):
        p = tensor_itype(self, a, b)
        products[id(p)] = (a, b, p)
        return p

    def recorded_etype(self, s, t):
        st = tensor_etype(self, s, t)
        tensors[id(st)] = (self.kit, s, t, st)
        return st

    monkeypatch.setattr(PresheafSystem, "tensor_itype", recorded_itype)
    monkeypatch.setattr(PresheafSystem, "tensor_etype", recorded_etype)
    _run_laws(name)
    assert products and tensors
    for a, b, p in products.values():
        eager = _eager_product_category(a, b)
        _composes_as_its_table(p, eager.composition)
        assert p == eager
        assert list(p.composition.items()) == list(eager.composition.items())
    for kit, s, t, st in tensors.values():
        eager = _eager_tensor(kit, s, t, _eager_product_category(s.cat, t.cat))
        assert st == eager and same_values(st, eager)
        assert list(st.ar.items()) == list(eager.ar.items())
