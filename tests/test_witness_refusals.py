"""The refusals of the witness layer, pinned by their exact texts.

``uniqueness_iso`` refuses two witnesses of different kinds and two of one
kind for different data; the implied witness of two-out-of-three refuses
expressions that do not factor and witnesses whose fixed ends differ;
``check_beta_eta`` refuses an unknown mode before it looks at what it was
given, and then anything that is not a witness.
"""
from __future__ import annotations

import pytest

from refsys.fincat import FinFunction
from refsys.kernel import MismatchError
from refsys.structures import (
    check_beta_eta,
    implied_witness,
    pullback,
    pushforward,
    uniqueness_iso,
)


def _const(sig, dom, cod, value):
    a, b = sig.sets[dom], sig.sets[cod]
    return FinFunction(f"const{value}", a, b, {x: value for x in a.elements})


def test_uniqueness_refuses_two_kinds(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    pull = pullback(sys, sq, squaring.etype("squares"))
    push = pushforward(sys, squaring.etype("whole"), sq)
    for w1, w2 in ((pull, push), (push, pull)):
        with pytest.raises(TypeError, match="^uniqueness: need two witnesses of the same kind$"):
            uniqueness_iso(w1, w2)


def test_uniqueness_refuses_different_data_of_either_kind(squaring):
    sys = squaring.system
    sq, const = squaring.expr("sq"), _const(squaring, "A", "B", 0)
    big, positive = squaring.etype("big"), squaring.etype("positive")
    nonzero, negative = squaring.etype("nonzero"), squaring.etype("negative")
    pairs = (
        (pullback(sys, sq, big), pullback(sys, sq, positive)),
        (pullback(sys, sq, big), pullback(sys, const, big)),
        (pushforward(sys, nonzero, sq), pushforward(sys, negative, sq)),
        (pushforward(sys, nonzero, sq), pushforward(sys, nonzero, const)),
    )
    for w1, w2 in pairs:
        with pytest.raises(MismatchError, match="^uniqueness: witnesses are for different data$"):
            uniqueness_iso(w1, w2)


def test_the_implied_pullback_refuses_what_does_not_fit(squaring):
    sys = squaring.system
    sq, neg = squaring.expr("sq"), squaring.expr("neg")
    big = squaring.etype("big")
    w_fg = pullback(sys, sys.compose_exprs(neg, sq), big)
    w_g = pullback(sys, sq, big)
    with pytest.raises(MismatchError, match="^two-out-of-three: expressions do not factor$"):
        implied_witness(sys, w_fg, w_g, _const(squaring, "A", "A", 0))
    # an e that does not compose with g is refused by the composite, not by the factor check
    with pytest.raises(MismatchError,
                       match=r"^cannot compose 'sq' : \.\.->'B' with 'sq' : 'A'->\.\.$"):
        implied_witness(sys, w_fg, w_g, sq)
    w_other = pullback(sys, sq, squaring.etype("positive"))
    with pytest.raises(MismatchError, match="^two-out-of-three: witnesses target different types$"):
        implied_witness(sys, w_fg, w_other, neg)


def test_the_implied_pushforward_refuses_what_does_not_fit(squaring):
    sys = squaring.system
    sq, neg = squaring.expr("sq"), squaring.expr("neg")
    s = squaring.etype("negative")
    v_fg = pushforward(sys, s, sys.compose_exprs(neg, sq))
    v_f = pushforward(sys, s, neg)
    with pytest.raises(MismatchError, match="^two-out-of-three: expressions do not factor$"):
        implied_witness(sys, v_fg, v_f, _const(squaring, "A", "B", 0))
    with pytest.raises(MismatchError,
                       match=r"^cannot compose 'sq' : \.\.->'B' with 'neg' : 'A'->\.\.$"):
        implied_witness(sys, v_fg, pushforward(sys, s, sq), neg)
    v_other = pushforward(sys, squaring.etype("nonzero"), neg)
    with pytest.raises(MismatchError,
                       match="^two-out-of-three: witnesses start at different types$"):
        implied_witness(sys, v_fg, v_other, sq)


def test_beta_eta_refuses_a_mode_first_and_then_a_non_witness(squaring):
    w = pushforward(squaring.system, squaring.etype("negative"), squaring.expr("sq"))
    with pytest.raises(ValueError, match="^unknown mode 'exhaustive'$"):
        check_beta_eta(w, mode="exhaustive")
    with pytest.raises(ValueError, match="^unknown mode 'exhaustive'$"):
        check_beta_eta(42, mode="exhaustive")
    for mode in ("literal", "membership"):
        with pytest.raises(TypeError, match="^not a witness: 42$"):
            check_beta_eta(42, mode=mode)
        with pytest.raises(TypeError, match="^not a witness: 'sq'$"):
            check_beta_eta("sq", mode=mode)
