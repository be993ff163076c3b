"""Deciding a judgment by existence: ``holds`` against ``morphisms_over``.

``classify`` asks a system's ``holds`` whether some morphism lies over f.
The default reads a first morphism from ``morphisms_over``; the subset
model reads its one-tuple, the presheaf model runs its index-table search
without building a transformation, and the opposite system asks its base
about the reversed judgment.  Here each answer is compared with the first
item of ``morphisms_over`` on every triple of the bundled signatures, and
the presheaf search, which drops the naturality square of an endo-arrow
acting by identity tables on both sides, is compared with the
product-and-filter reference on presheaves whose identity arrows act by
other tables.
"""
from __future__ import annotations

import itertools

import pytest

from conftest import data_file
from refsys import presheaf_model
from refsys.fincat import FinCategory, FinFunction, FinSet, monoid_category
from refsys.kernel import IllFormedError, Status, classify, well_formed
from refsys.monadrep import OppositeSystem
from refsys.presheaf_model import FinPresheaf, build_presheaf_system, natural_components
from refsys.signature import load_signature
from refsys.trivial_model import build_trivial_system
from test_search import ref_natural_components

SIGNATURES = ("day_z2", "presheaf_arrow", "z4", "trivial2", "classifier")


def _system(name: str):
    return load_signature(data_file(f"{name}.json")).system


def _triples(sys_):
    """Every (s, f, t) over the system's index types, well-formed or not."""
    ets = sys_.e_types()
    for a, b in itertools.product(sys_.i_types(), repeat=2):
        for f in sys_.expressions(a, b):
            for s, t in itertools.product(ets, repeat=2):
                yield s, f, t


def _first(sys_, s, f, t):
    return next(iter(sys_.morphisms_over(s, f, t)), None)


def _ill_formed_text(call) -> str:
    with pytest.raises(IllFormedError) as err:
        call()
    return str(err.value)


@pytest.mark.parametrize("opposite", (False, True), ids=("base", "op"))
@pytest.mark.parametrize("name", SIGNATURES)
def test_holds_agrees_with_the_first_morphism(name, opposite):
    sys_ = _system(name)
    if opposite:
        sys_ = OppositeSystem(sys_)
    well = ill = 0
    for s, f, t in _triples(sys_):
        if well_formed(sys_, s, f, t):
            assert sys_.holds(s, f, t) is (_first(sys_, s, f, t) is not None), (s, f, t)
            well += 1
        else:
            assert _ill_formed_text(lambda: sys_.holds(s, f, t)) == \
                _ill_formed_text(lambda: _first(sys_, s, f, t))
            ill += 1
    assert well
    assert ill or len(sys_.i_types()) == 1


def _crossed_triples():
    """Ill-formed triples across two systems of one model: the expression
    of one signature between the refinement types of the other."""
    pairs = (("day_z2", "presheaf_arrow"), ("presheaf_arrow", "day_z2"),
             ("z4", "classifier"), ("classifier", "z4"))
    for mine, other in pairs:
        sys_, alien = _system(mine), _system(other)
        fs = [f for a, b in itertools.product(alien.i_types(), repeat=2)
              for f in itertools.islice(alien.expressions(a, b), 3)]
        for s, t in itertools.product(sys_.e_types()[:3], repeat=2):
            for f in fs:
                yield sys_, s, f, t
                yield OppositeSystem(sys_), s, f, t
    triv = _system("trivial2")
    for s, t in itertools.product(triv.e_types(), repeat=2):
        yield triv, s, "not-an-expression", t
        yield OppositeSystem(triv), s, "not-an-expression", t


def test_ill_formed_triples_raise_the_same_text_from_both():
    n = 0
    for sys_, s, f, t in _crossed_triples():
        text = _ill_formed_text(lambda: sys_.holds(s, f, t))
        assert text == _ill_formed_text(lambda: _first(sys_, s, f, t))
        assert classify(sys_, s, f, t) is Status.ILL_FORMED
        n += 1
    assert n


@pytest.mark.parametrize("name", ("z4", "presheaf_arrow"))
def test_opposite_classify_is_the_base_classify_reversed(name, monkeypatch):
    base = _system(name)
    op = OppositeSystem(base)

    def no_search(*args):
        raise AssertionError("the opposite system searched for a morphism")

    monkeypatch.setattr(op, "morphisms_over", no_search)
    seen = set()
    for s, f, t in _triples(base):
        got = classify(op, t, f, s)
        assert got is classify(base, s, f, t)
        seen.add(got)
    assert Status.DERIVABLE in seen


# --- the search keeps every square that is not c = c ---------------------------------

def _z2() -> FinCategory:
    return monoid_category("Z2", ("e", "s"), {("e", "e"): "e", ("e", "s"): "s",
                                              ("s", "e"): "s", ("s", "s"): "e"}, "e")


def _arrow() -> FinCategory:
    return FinCategory("Arr", ("x", "y"), {"ix": ("x", "x"), "iy": ("y", "y"), "u": ("x", "y")},
                       {("ix", "ix"): "ix", ("iy", "iy"): "iy",
                        ("ix", "u"): "u", ("u", "iy"): "u"}, {"x": "ix", "y": "iy"})


def _table(name: str, dom: FinSet, cod: FinSet, idx) -> FinFunction:
    return FinFunction._from_idx(name, dom, cod, tuple(idx))


def _z2_presheaf(name: str, n: int, e, s) -> FinPresheaf:
    value = FinSet(f"{name}(*)", tuple(range(n)))
    return FinPresheaf(name, _z2(), {"*": value}, {
        "e": _table(f"{name}[e]", value, value, e),
        "s": _table(f"{name}[s]", value, value, s),
    })


def _arrow_presheaf(name: str, nx: int, ny: int, ix, iy, u) -> FinPresheaf:
    cat = _arrow()
    x, y = FinSet(f"{name}(x)", tuple(range(nx))), FinSet(f"{name}(y)", tuple(range(ny)))
    return FinPresheaf(name, cat, {"x": x, "y": y}, {
        "ix": _table(f"{name}[ix]", x, x, ix),
        "iy": _table(f"{name}[iy]", y, y, iy),
        "u": _table(f"{name}[u]", x, y, u),
    })


def _unchecked_bases():
    """Presheaves that break functoriality at an identity arrow (a swap, a
    constant), beside lawful ones, so squares of both kinds meet."""
    yield _z2(), [
        _z2_presheaf("Swap2", 2, (1, 0), (1, 0)),
        _z2_presheaf("Swap3", 3, (1, 0, 2), (0, 1, 2)),
        _z2_presheaf("Const3", 3, (0, 0, 0), (2, 1, 0)),
        _z2_presheaf("Lawful3", 3, (0, 1, 2), (1, 0, 2)),
        _z2_presheaf("Lawful2", 2, (0, 1), (0, 1)),
    ]
    yield _arrow(), [
        _arrow_presheaf("A", 2, 2, (1, 0), (0, 1), (0, 1)),
        _arrow_presheaf("B", 2, 2, (0, 1), (1, 0), (1, 1)),
        _arrow_presheaf("C", 3, 2, (0, 1, 2), (0, 1), (0, 1, 1)),
        _arrow_presheaf("D", 2, 3, (0, 0), (0, 1, 2), (2, 0)),
    ]


def test_unlawful_identity_actions_keep_their_squares():
    for cat, ps in _unchecked_bases():
        sys_ = build_presheaf_system((cat,), ps)
        for s, t in itertools.product(ps, repeat=2):
            for f in sys_.expressions(cat, cat):
                got = list(natural_components(s, f, t))
                want = [tuple(c.idx for c in cs) for cs in ref_natural_components(s, f, t)]
                assert got == want, (s.name, f.name, t.name)
                assert sys_.holds(s, f, t) is bool(want)


def test_classify_builds_no_transformation(monkeypatch):
    built = []
    init = presheaf_model.NatTransOver.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(presheaf_model.NatTransOver, "__init__", counting_init)
    batches = [(build_presheaf_system((cat,), ps), ps) for cat, ps in _unchecked_bases()]
    batches += [(sys_, sys_.e_types()) for sys_ in map(_system, ("day_z2", "presheaf_arrow"))]
    derivable = None
    verdicts = set()
    for sys_, ps in batches:
        for cat in sys_.i_types():
            for f in sys_.expressions(cat, cat):
                for s, t in itertools.product(ps, repeat=2):
                    verdict = classify(sys_, s, f, t)
                    verdicts.add(verdict)
                    if verdict is Status.DERIVABLE:
                        derivable = sys_, s, f, t
    assert verdicts == {Status.DERIVABLE, Status.UNDERIVABLE}
    assert built == []
    # the count is live: the first morphism over a derivable judgment is one
    sys_, s, f, t = derivable
    next(iter(sys_.morphisms_over(s, f, t)))
    assert len(built) == 1
    # a trivial classify builds no function: one exists iff S is empty or T is not
    functions = []
    from_idx = FinFunction._from_idx.__func__

    def counting_from_idx(cls, *args):
        functions.append(args[0])
        return from_idx(cls, *args)

    monkeypatch.setattr(FinFunction, "_from_idx", classmethod(counting_from_idx))
    trivial = build_trivial_system((FinSet("none", ()), FinSet("two", (1, 2))))
    none, two = trivial.e_types()
    assert {(s.name, t.name): classify(trivial, s, "id", t)
            for s, t in itertools.product((none, two), repeat=2)} == {
        ("none", "none"): Status.DERIVABLE, ("none", "two"): Status.DERIVABLE,
        ("two", "none"): Status.UNDERIVABLE, ("two", "two"): Status.DERIVABLE,
    }
    assert functions == []
    next(iter(trivial.morphisms_over(two, "id", two)))
    assert functions == ["two>two#0"]
