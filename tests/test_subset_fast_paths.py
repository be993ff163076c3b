"""The subset model's fast paths agree with the checked constructor.

``SubsetSystem.morphisms_over`` (and ``holds`` through it) and the factor
rules of ``pullback_data`` and ``pushforward_data`` test carriers by
identity before equality and build their morphism without a second check.
Here every carrier comes twice: the registered one and an equal one rebuilt
with the same name and elements, so each path meets identical, equal and
unequal carriers.  On all of them the verdicts, the morphisms and the
error texts must be those of ``SubsetMor(...)``, under ``python`` and
``python -O``.
"""
from __future__ import annotations

import itertools

import pytest

from refsys.fincat import FinFunction, FinSet
from refsys.kernel import IllFormedError, ValidationError
from refsys.subset_model import SubsetMor, build_subset_system

A = FinSet("A", ("a0", "a1", "a2"))
B = FinSet("B", (0, 1))
SYS = build_subset_system((A, B))
# equal to A and B, but other objects
A_TWIN = FinSet("A", A.elements)
B_TWIN = FinSet("B", B.elements)
CARRIERS = {"A": A, "A-twin": A_TWIN, "B": B, "B-twin": B_TWIN}
_subsets = SYS._subsets


def _functions(dom, cod):
    return [FinFunction._from_idx(f"{dom.name}>{cod.name}#{i}", dom, cod, idx)
            for i, idx in enumerate(itertools.product(range(len(cod)), repeat=len(dom)))]


def _outcome(build):
    """What build() returns, or the type and text of the error it raises."""
    try:
        return build()
    except (IllFormedError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


def _checked(s, f, t):
    """morphisms_over's answer, read off the checked constructor."""
    out = _outcome(lambda: SubsetMor(s, f, t))
    if out == ("ValidationError", f"{f.name!r} does not map {s.name} into {t.name}"):
        return ()
    if isinstance(out, SubsetMor):
        return (out,)
    return out


def test_the_twins_are_equal_and_not_identical():
    assert A_TWIN == A and A_TWIN is not A
    assert B_TWIN == B and B_TWIN is not B


@pytest.mark.parametrize("dom, cod", list(itertools.product(CARRIERS, repeat=2)))
def test_morphisms_over_and_holds_agree_with_the_checked_constructor(dom, cod):
    for f in _functions(CARRIERS[dom], CARRIERS[cod]):
        for s_of, t_of in itertools.product((A, B), repeat=2):
            for s, t in itertools.product(_subsets(s_of), _subsets(t_of)):
                want = _checked(s, f, t)
                if want and want[0] == "ValidationError":
                    # the boundaries do not match: both refuse, each with its own text
                    assert want == ("ValidationError",
                                    "morphism boundaries do not match the expression")
                    want = ("IllFormedError", f"{s.name} =[{f.name}]=> {t.name}: "
                                              "boundaries do not match")
                    assert _outcome(lambda: SYS.holds(s, f, t)) == want
                else:
                    assert SYS.holds(s, f, t) is bool(want)
                assert _outcome(lambda: SYS.morphisms_over(s, f, t)) == want


@pytest.mark.parametrize("g_dom", CARRIERS)
def test_the_pullback_factor_agrees_with_the_checked_constructor(g_dom):
    # f : A -> B, so the factors g : x -> A, taken from each carrier into A and its twin
    for f in _functions(A, B):
        for t in _subsets(B):
            et, _, factor = SYS.pullback_data(f, t)
            for g_cod in (A, A_TWIN):
                for g in _functions(CARRIERS[g_dom], g_cod):
                    for src_of in (A, B):
                        for src in _subsets(src_of):
                            m = SubsetMor(src, SYS.id_expr(src_of), src)
                            assert (_outcome(lambda: factor(m, g))
                                    == _outcome(lambda: SubsetMor(src, g, et)))


@pytest.mark.parametrize("g_cod", CARRIERS)
def test_the_pushforward_factor_agrees_with_the_checked_constructor(g_cod):
    # f : B -> A, so the factors g : A -> x, taken from A and its twin into each carrier
    for f in _functions(B, A):
        for s in _subsets(B):
            et, _, factor = SYS.pushforward_data(s, f)
            for g_dom in (A, A_TWIN):
                for g in _functions(g_dom, CARRIERS[g_cod]):
                    for dst_of in (A, B):
                        for dst in _subsets(dst_of):
                            m = SubsetMor(dst, SYS.id_expr(dst_of), dst)
                            assert (_outcome(lambda: factor(m, g))
                                    == _outcome(lambda: SubsetMor(et, g, dst)))
