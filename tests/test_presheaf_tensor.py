"""The presheaf tensor, built from the cartesian kit, against its element-level definition.

The references below build S x T, the tensor of two morphisms and the six
coherence cells element by element, through the checking ``FinFunction``
constructor, and run ``check_presheaf`` on each reference presheaf.  By
definition (S x T)(a, b) = S(a) x T(b), an action sends (x, y) to (S.u(x), T.v(y)), a
component of m x n sends (x, y) to (m_a(x), n_b(y)), and a cell sends each
element to its regrouped element.  The model takes every one of them from
its kit's products, pairings and cells instead.
"""
from __future__ import annotations

import itertools

import pytest

from refsys.fincat import FinFunction, FinSet
from refsys.presheaf_model import FinPresheaf, check_presheaf

CELL_KINDS = ("assoc", "assoc_inv", "unit_l", "unit_l_inv", "unit_r", "unit_r_inv")

# where a cell sends an element, or an object of its base; "*" is the unit's
REGROUP = {
    "assoc": lambda e: (e[0][0], (e[0][1], e[1])),
    "assoc_inv": lambda e: ((e[0], e[1][0]), e[1][1]),
    "unit_l": lambda e: e[1],
    "unit_l_inv": lambda e: ("*", e),
    "unit_r": lambda e: e[0],
    "unit_r_inv": lambda e: (e, "*"),
}

# arrows regroup as objects do, except that the unit's arrow is "id"
REGROUP_ARROW = dict(REGROUP, unit_l_inv=lambda u: ("id", u), unit_r_inv=lambda u: (u, "id"))


def reference_tensor(sys, s: FinPresheaf, t: FinPresheaf) -> FinPresheaf:
    cat = sys.tensor_itype(s.cat, t.cat)
    ob = {
        (a, b): FinSet(f"({s.ob[a].name}x{t.ob[b].name})",
                       tuple(itertools.product(s.ob[a].elements, t.ob[b].elements)))
        for (a, b) in cat.objects
    }
    ar = {
        (u, v): FinFunction(f"({u}x{v})", ob[a, b], ob[a2, b2],
                            {(x, y): (s.ar[u](x), t.ar[v](y)) for (x, y) in ob[a, b]})
        for (u, v), ((a, b), (a2, b2)) in cat.arrows.items()
    }
    st = FinPresheaf(f"({s.name}x{t.name})", cat, ob, ar)
    check_presheaf(st)
    return st


def reference_cell_end(sys, kind: str, etypes: tuple, source: bool) -> FinPresheaf:
    if kind.startswith("assoc"):
        s, t, v = etypes
        left = (kind == "assoc") == source
        if left:
            return reference_tensor(sys, reference_tensor(sys, s, t), v)
        return reference_tensor(sys, s, reference_tensor(sys, t, v))
    (s,) = etypes
    if kind.endswith("_inv") == source:
        return s
    unit = sys.unit_etype()
    if kind.startswith("unit_l"):
        return reference_tensor(sys, unit, s)
    return reference_tensor(sys, s, unit)


def _morphisms(sys):
    es = sys.e_types()
    return [m for s in es for t in es if s.cat == t.cat
            for f in sys.expressions(s.cat, t.cat) for m in sys.morphisms_over(s, f, t)]


SIGNATURES = ("day_z2", "day_z3", "arrow_sig")


@pytest.mark.parametrize("fixture", SIGNATURES)
def test_tensor_values_and_actions_are_pairs(fixture, request):
    sys = request.getfixturevalue(fixture).system
    operands = sys.e_types() + (sys.unit_etype(),)
    for s, t in itertools.product(operands, repeat=2):
        assert sys.tensor_etype(s, t) == reference_tensor(sys, s, t)


@pytest.mark.parametrize("fixture", SIGNATURES)
def test_tensor_interp_components_are_pairs(fixture, request):
    sys = request.getfixturevalue(fixture).system
    ms = _morphisms(sys)
    assert ms
    for m, n in itertools.product(ms, repeat=2):
        mn = sys.tensor_interp(m, n)
        src = reference_tensor(sys, m.src, n.src)
        dst = reference_tensor(sys, m.dst, n.dst)
        assert (mn.src, mn.dst) == (src, dst)
        assert mn.components == {
            (a, b): FinFunction(
                "mxn", src.ob[a, b], dst.ob[m.expr.ob(a), n.expr.ob(b)],
                {(x, y): (m.components[a](x), n.components[b](y)) for (x, y) in src.ob[a, b]},
            )
            for (a, b) in src.cat.objects
        }


@pytest.mark.parametrize("fixture", SIGNATURES)
@pytest.mark.parametrize("kind", CELL_KINDS)
def test_coherence_cell_components_regroup(fixture, kind, request):
    sys = request.getfixturevalue(fixture).system
    arity = 3 if kind.startswith("assoc") else 1
    for etypes in itertools.product(sys.e_types(), repeat=arity):
        cell = sys.coherence_cell(kind, etypes)
        src = reference_cell_end(sys, kind, etypes, source=True)
        dst = reference_cell_end(sys, kind, etypes, source=False)
        assert (cell.src, cell.dst) == (src, dst)
        regroup = REGROUP[kind]
        assert all(cell.expr.ob(o) == regroup(o) for o in src.cat.objects)
        assert all(cell.expr.ar(u) == REGROUP_ARROW[kind](u) for u in src.cat.arrows)
        assert cell.components == {
            o: FinFunction(kind, src.ob[o], dst.ob[regroup(o)], {e: regroup(e) for e in src.ob[o]})
            for o in src.cat.objects
        }
