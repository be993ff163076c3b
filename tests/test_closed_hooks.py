"""One closed structure for both residual sides.

A model gives its closed structure through five hooks: ``residual_itype``,
which both residuals share, and ``plug_expr``, ``curry_expr``,
``residual_etype`` and ``residual_data``, which take the side and the fixed
operand first.  These tests pin what each model returns on either side, and
the refusal texts of ``residual_data`` as the two-hooks-per-side interface
gave them, and that a model without a structure is refused by that
structure's hooks, the one capability mechanism.
"""
from __future__ import annotations

import dataclasses
import itertools

import pytest

from conftest import data_file
from refsys.fincat import FinSet
from refsys.kernel import CapabilityError, RefinementSystem
from refsys.laws import _suite_structures
from refsys.monadrep import FiberwiseMonad, identity_adjunction
from refsys.presheaf_model import PresheafSystem, same_values
from refsys.signature import load_signature
from refsys.subset_model import SubsetSystem, build_subset_system, subset
from refsys.trivial_model import POINT, build_trivial_system

# the residual index types of (A, C) for A, C over the declared index type
# and the unit's, as the left and right hooks both returned them
ITYPES = {
    "z4.json": ["[H->H]", "[H->1]", "[1->H]", "[1->1]"],
    "trivial2.json": [POINT] * 4,
    "day_z2.json": ["[Z2,Z2]", "[Z2,1]", "[1,Z2]", "[1,1]"],
    "presheaf_arrow.json": ["[C,C]", "[C,1]", "[1,C]", "[1,1]"],
}


@pytest.mark.parametrize("name", sorted(ITYPES))
def test_both_residuals_share_one_index_type(name):
    sys = load_signature(data_file(name)).system
    itypes = list(sys.i_types()) + [sys.refines(sys.unit_etype())]
    got = []
    for a, c in itertools.product(itypes, repeat=2):
        itype = sys.residual_itype(a, c)
        if isinstance(sys, PresheafSystem):
            assert itype is sys.functor_category(a, c)
        elif isinstance(sys, SubsetSystem):
            assert itype is sys.function_space(a, c)
        got.append(getattr(itype, "name", itype))
    assert got == ITYPES[name]


def test_a_subset_residual_is_one_subset_for_both_sides(small_sys):
    es = small_sys.e_types()
    for s, u in itertools.product(es, repeat=2):
        assert small_sys.residual_etype("left", s, u) is small_sys.residual_etype("right", s, u)


def test_a_trivial_residual_is_one_function_space_for_both_sides():
    sys = build_trivial_system((FinSet("two", (1, 2)), FinSet("three", (1, 2, 3))))
    for s, u in itertools.product(sys.e_types(), repeat=2):
        space = sys.function_space(s, u)
        assert sys.residual_etype("left", s, u) is space
        assert sys.residual_etype("right", s, u) is space


@pytest.mark.parametrize("name", ["day_z2.json", "presheaf_arrow.json"])
def test_presheaf_residuals_differ_only_in_their_names_neg_l_and_neg_r(name):
    sys = load_signature(data_file(name)).system

    def names(p) -> list:
        return ([p.name] + [p.ob[o].name for o in p.cat.objects]
                + [p.ar[u].name for u in p.cat.arrows])

    for s, u in itertools.product(sys.e_types(), repeat=2):
        left, right = sys.residual_etype("left", s, u), sys.residual_etype("right", s, u)
        assert same_values(left, right)
        assert left.name.startswith("negL[") and right.name.startswith("negR[")
        assert [n.replace("negL[", "negR[", 1) for n in names(left)] == names(right)


def test_a_system_without_closed_hooks_is_not_closed():
    class Bare(RefinementSystem):
        name = "bare"

    bare = Bare()
    for call in (lambda: bare.residual_itype("A", "C"),
                 lambda: bare.plug_expr("left", "A", "C"),
                 lambda: bare.curry_expr("right", "f"),
                 lambda: bare.residual_etype("left", "S", "U"),
                 lambda: bare.residual_data("right", "S", "U")):
        with pytest.raises(CapabilityError, match=r"^bare: not closed$"):
            call()
    # the hooks are the one capability mechanism: each refuses with its own text
    for call, text in ((lambda: bare.pullback_data("f", "T"), "bare: no pullbacks"),
                       (lambda: bare.pushforward_data("S", "f"), "bare: no pushforwards"),
                       (lambda: bare.tensor_etype("S", "T"), "bare: not monoidal"),
                       (lambda: bare.coherence_cell("assoc", ("S", "T", "U")),
                        "bare: not monoidal")):
        with pytest.raises(CapabilityError) as err:
            call()
        assert str(err.value) == text

    # a model that lacks pullbacks is refused where one is first needed
    class NoPullbacks(SubsetSystem):
        pullback_data = RefinementSystem.pullback_data

    squaring = load_signature(data_file("squaring.json"))
    nopull = NoPullbacks("nopull", tuple(squaring.sets.values()))
    monad = FiberwiseMonad(identity_adjunction(nopull))
    with pytest.raises(CapabilityError) as err:
        monad.carrier(squaring.etype("big"))
    assert str(err.value) == "nopull: no pullbacks"
    # the structures suite notes each pullback it needs, the three-way
    # readings included, and checks the pushforward side of squaring's 396
    rep = _suite_structures(dataclasses.replace(squaring, system=nopull), 3)
    assert rep.ok and rep.checked == 162
    assert rep.skipped == ["nopull: no pullbacks"] * 111


# residual_data's refusals, as the left and right hooks raised them: the
# function space [A->C] first, then the evaluation's carrier
REFUSALS = [
    (8, "A", "C", "function space [A->C] would have 9 elements, exceeding the bound 8",
     "function space [A->C] would have 9 elements, exceeding the bound 8"),
    (8, "A3", "C2", "product (A3x[A3->C2]) would have 24 elements, exceeding the bound 8",
     "product ([A3->C2]xA3) would have 24 elements, exceeding the bound 8"),
    (8, "C", "C", "function space [C->C] would have 27 elements, exceeding the bound 8",
     "function space [C->C] would have 27 elements, exceeding the bound 8"),
    (9, "A", "C", "product (Ax[A->C]) would have 18 elements, exceeding the bound 9",
     "product ([A->C]xA) would have 18 elements, exceeding the bound 9"),
    (9, "A3", "C2", "product (A3x[A3->C2]) would have 24 elements, exceeding the bound 9",
     "product ([A3->C2]xA3) would have 24 elements, exceeding the bound 9"),
    (10, "A", "C", "product (Ax[A->C]) would have 18 elements, exceeding the bound 10",
     "product ([A->C]xA) would have 18 elements, exceeding the bound 10"),
    (10, "C", "C", "function space [C->C] would have 27 elements, exceeding the bound 10",
     "function space [C->C] would have 27 elements, exceeding the bound 10"),
    (10, "C2", "C2", None, None),
    (10, "A", "C2", None, None),
]

SETS = {
    "A": FinSet("A", ("a0", "a1")),
    "A3": FinSet("A3", ("a0", "a1", "a2")),
    "C": FinSet("C", (0, 1, 2)),
    "C2": FinSet("C2", (0, 1)),
}


@pytest.mark.parametrize("model", ["subset", "trivial"])
@pytest.mark.parametrize("bound, fixed, answer, left, right", REFUSALS)
def test_residual_data_refuses_with_the_texts_of_either_side(model, bound, fixed, answer,
                                                             left, right):
    sets = tuple({n: SETS[n] for n in (fixed, answer)}.values())
    if model == "subset":
        sys = build_subset_system(sets, max_carrier=bound)
        s, u = (subset(SETS[n], SETS[n].elements[:1]) for n in (fixed, answer))
    else:
        sys = build_trivial_system(sets, max_carrier=bound)
        s, u = SETS[fixed], SETS[answer]
    for side, text in (("left", left), ("right", right)):
        if text is None:
            et, ev, _ = sys.residual_data(side, s, u)
            plug = ev.expr if model == "subset" else ev
            names = (fixed, answer) if side == "left" else (answer, fixed)
            assert plug.name == f"plug{side[0].upper()}[{','.join(names)}]"
            assert et is sys.residual_etype(side, s, u)
            continue
        for _ in range(2):
            with pytest.raises(CapabilityError) as err:
                sys.residual_data(side, s, u)
            assert str(err.value) == text
