"""Each system builds its closed structure once.

The kit keeps its evaluation tables plugL/plugR per carriers, as it keeps
coherence cells, and its curried tables per curried table, keyed by the
table's identity, as it keeps pairings.  The subset model keeps each
residual type per (S, U), as it keeps tensor subsets.  The first test pins
how many of each one retraction round and ``laws continuation.json all``
build.  The second compares everything they and ``laws trivial2.json all``
return with a fresh build by the uncached constructions kept here as
references.  The last ones check
that a refusal is not kept and that a curried table is never mistaken for
an earlier one whose id it took over.
"""
from __future__ import annotations

import collections
import contextlib
import io
import itertools
import sys

import pytest

from conftest import data_file
from refsys import subset_model
from refsys.cartesian import CartesianKit, _positions
from refsys.cli import main
from refsys.fincat import FinFunction, FinSet
from refsys.kernel import CapabilityError, in_place
from refsys.monadrep import (
    build_continuation_adjunction,
    check_retraction,
    check_section,
    count_encodings_elementwise,
    identity_adjunction,
    search_encodings,
)
from refsys.subset_model import SubsetSystem, build_subset_system, subset
from refsys.trivial_model import POINT, build_trivial_system


def _retraction_round() -> None:
    """The criterion-8 sweep with a system per (B, C, U) group, the deep
    instance's search and elementwise count at the raised bound, and the
    two-point retraction and section."""
    for nb, nc in itertools.product((1, 2, 3), repeat=2):
        bset = FinSet("B", tuple(f"b{i}" for i in range(nb)))
        cset = FinSet("C", tuple(range(nc)))
        for r in range(nc + 1):
            for u_elems in itertools.combinations(cset.elements, r):
                sys_ = build_subset_system((bset, cset), name=f"cont{nb}{nc}")
                u = subset(cset, u_elems)
                try:
                    adj = build_continuation_adjunction(sys_, u)
                except CapabilityError:
                    continue
                for t in sys_.e_types_over(bset):
                    try:
                        found = search_encodings(adj, t, u)
                    except CapabilityError:
                        continue
                    for f in found:
                        try:
                            assert check_retraction(adj, t, u, f).ok
                        except CapabilityError:
                            break
    bset, cset = FinSet("B", ("b",)), FinSet("C", (1, 2))
    deep = build_subset_system((bset, cset), name="deep", max_carrier=1_300_000)
    t, u = subset(bset, ("b",)), subset(cset, (1,))
    adj = build_continuation_adjunction(deep, u)
    assert len(search_encodings(adj, t, u)) == count_encodings_elementwise(adj, t, u)[0] == 16
    triv = build_trivial_system((FinSet("two", (1, 2)),))
    two = triv.e_types()[0]
    ident = identity_adjunction(triv)
    f = triv.id_expr(POINT)
    assert check_retraction(ident, two, two, f).ok
    assert check_section(ident, two, two, f) is False


def _laws(name: str):
    def run() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["laws", data_file(name), "all"]) == 0
    return run


RUNS = {
    "retraction round": _retraction_round,
    "laws continuation.json all": _laws("continuation.json"),
    "laws trivial2.json all": _laws("trivial2.json"),
}


BUILDS = {
    # built on every call: residual 1,191, plug 693, curry 443
    "retraction round": {"residual": 153, "plug": 72, "curry": 208},
    # built on every call: residual 82, plug 49, curry 28
    "laws continuation.json all": {"residual": 13, "plug": 7, "curry": 12},
}


@pytest.mark.parametrize("run", sorted(BUILDS))
def test_each_residual_evaluation_and_currying_is_built_once(run, monkeypatch):
    builders = {
        SubsetSystem.residual_etype.__code__: "residual",
        CartesianKit.plug.__code__: "plug",
        CartesianKit.curry.__code__: "curry",
    }
    counts = collections.Counter()
    from_idx, new_subset = FinFunction._from_idx, subset_model._subset

    def note_builder():
        # the frame that called the counted constructor is the builder, if any
        kind = builders.get(sys._getframe(2).f_code)
        if kind:
            counts[kind] += 1

    def counted_from_idx(cls, *args):
        note_builder()
        return from_idx(*args)

    def counted_subset(*args):
        note_builder()
        return new_subset(*args)

    monkeypatch.setattr(FinFunction, "_from_idx", classmethod(counted_from_idx))
    monkeypatch.setattr(subset_model, "_subset", counted_subset)
    RUNS[run]()
    assert dict(counts) == BUILDS[run]


def _fresh_residual(s, u) -> frozenset:
    """The positions in [A->C] of the functions that send S into U, filtered
    from the value positions of every function in the space's order."""
    values = itertools.product(range(len(u.of)), repeat=len(s.of))
    return frozenset(k for k, t in enumerate(values) if all(t[i] in u.ix for i in s.ix))


def _fresh_plug_l(kit, a, c) -> FinFunction:
    fs = kit.function_space(a, c)
    n, m = len(c), len(a)
    idx: list = []
    for i in range(m):
        idx.extend([d for d in range(n) for _ in range(n ** (m - 1 - i))] * n ** i)
    return FinFunction._from_idx(f"plugL[{a.name},{c.name}]", kit.product(a, fs), c, tuple(idx))


def _fresh_plug_r(kit, c, b) -> FinFunction:
    fs = kit.function_space(b, c)
    idx = itertools.chain.from_iterable(itertools.product(range(len(c)), repeat=len(b)))
    return FinFunction._from_idx(f"plugR[{c.name},{b.name}]", kit.product(fs, b), c, tuple(idx))


def _fresh_curry_l(kit, f, a, b) -> FinFunction:
    nb, n = len(b), len(f.cod)
    return FinFunction._from_idx(
        f"lc({f.name})", b, kit.function_space(a, f.cod),
        _positions((f.idx[i * nb:(i + 1) * nb] for i in range(len(a))), nb, n),
    )


def _fresh_curry_r(kit, f, a, b) -> FinFunction:
    nb, n = len(b), len(f.cod)
    return FinFunction._from_idx(
        f"rc({f.name})", a, kit.function_space(b, f.cod),
        _positions((f.idx[j::nb] for j in range(nb)), len(a), n),
    )


def _fresh_plug(kit, side, a, c) -> FinFunction:
    return _fresh_plug_l(kit, a, c) if side == "left" else _fresh_plug_r(kit, c, a)


def _fresh_curry(kit, side, f, a, b) -> FinFunction:
    # the kit takes the fixed operand's set first, the references the product's factors
    return _fresh_curry_l(kit, f, a, b) if side == "left" else _fresh_curry_r(kit, f, b, a)


def _same_table(got: FinFunction, fresh: FinFunction) -> None:
    assert (got.name, got.dom, got.cod, got.idx) == (fresh.name, fresh.dom, fresh.cod, fresh.idx)
    assert (got.dom.name, got.cod.name) == (fresh.dom.name, fresh.cod.name)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_kept_residual_evaluation_and_currying_equals_a_fresh_build(run, monkeypatch):
    # each result, by id, with what it was built from
    built: dict = {}
    originals = {name: getattr(CartesianKit, name) for name in ("plug", "curry")}
    residual = SubsetSystem.residual_etype

    def recorded(name):
        def method(self, side, *args):
            out = originals[name](self, side, *args)
            assert originals[name](self, side, *args) is out
            built[id(out)] = ((name, side), self, (side, *args), out)
            return out
        return method

    def recorded_residual(self, side, s, u):
        res = residual(self, side, s, u)
        built[id(res)] = (("residual", None), self, (s, u), res)
        return res

    for name in originals:
        monkeypatch.setattr(CartesianKit, name, recorded(name))
    monkeypatch.setattr(SubsetSystem, "residual_etype", recorded_residual)
    RUNS[run]()
    kinds = {kind for kind, *_ in built.values()}
    assert kinds >= set(itertools.product(("plug", "curry"), ("left", "right")))
    assert (("residual", None) in kinds) == (run != "laws trivial2.json all")
    fresh_tables = {"plug": _fresh_plug, "curry": _fresh_curry}
    for (name, _), owner, args, out in built.values():
        if name == "residual":
            s, u = args
            assert out.of is owner.function_space(s.of, u.of)
            assert out.ix == _fresh_residual(s, u)
        else:
            _same_table(out, fresh_tables[name](owner, *args))


def test_a_refused_residual_or_evaluation_is_not_kept():
    a = FinSet("A", ("a0", "a1"))
    c = FinSet("C", (0, 1, 2))
    # [A->C] has 9 elements and A x [A->C] 18, so the bound 10 refuses the
    # evaluation but not the residual, and the bound 8 refuses both
    for bound, refused in ((10, ("plugL", "plugR", "left", "right")),
                           (8, ("plugL", "plugR", "left", "right", "residual"))):
        sys_ = build_subset_system((a, c), max_carrier=bound)
        s, u = subset(a, ("a0",)), subset(c, (1,))
        calls = {
            "plugL": lambda: sys_.kit.plug("left", a, c),
            "plugR": lambda: sys_.kit.plug("right", a, c),
            "left": lambda: sys_.residual_data("left", s, u),
            "right": lambda: sys_.residual_data("right", s, u),
            "residual": lambda: sys_.residual_etype("left", s, u),
        }
        for name in refused:
            texts = []
            for _ in range(2):
                with pytest.raises(CapabilityError) as err:
                    calls[name]()
                texts.append(str(err.value))
            assert texts[0] == texts[1]
            assert sys_.kit._plugs == {} and sys_._residuals == {}
        if bound == 10:
            # a kept residual does not move the evaluation's refusal
            res = sys_.residual_etype("left", s, u)
            assert sys_._residuals == {(s, u): res}
            with pytest.raises(CapabilityError, match=r"product \(Ax\[A->C\]\)"):
                sys_.residual_data("left", s, u)
            assert sys_.kit._plugs == {}


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_curried_table_is_never_mistaken_for_one_dropped_before_it(side):
    kit = CartesianKit()
    a, b, c = FinSet("A", (0, 1)), FinSet("B", (0, 1, 2)), FinSet("C", (0, 1))
    dom = kit.product(a, b)
    tables = [(f"f{k}", idx) for k, idx in enumerate(itertools.product(range(2), repeat=6))]
    # each table is dropped as soon as it is curried, so an entry that let its
    # table go would leave its id free for the next table, of the same shape
    curried = []
    for name, idx in tables:
        f = FinFunction._from_idx(name, dom, c, idx)
        curried.append(kit.curry(side, f, *in_place(side, a, b)))
        del f
    for (name, idx), got in zip(tables, curried):
        f = FinFunction._from_idx(name, dom, c, idx)
        _same_table(got, _fresh_curry(kit, side, f, *in_place(side, a, b)))
