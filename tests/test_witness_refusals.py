"""The refusals of the witness layer, pinned by their exact texts.

``uniqueness_iso`` refuses two witnesses of different kinds and two of one
kind for different data; a composite witness and its iso refuse
expressions that do not compose; ``check_beta_eta`` refuses an unknown
mode before it looks at what it was given, and then anything that is not
a witness.
"""
from __future__ import annotations

import pytest

from refsys.fincat import FinFunction
from refsys.kernel import MismatchError
from refsys.structures import (
    check_beta_eta,
    compose_iso,
    composite_witness,
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


def test_a_composite_pullback_refuses_expressions_that_do_not_compose(squaring):
    # the pasting pulls back along g first and then finds f landing elsewhere;
    # the iso builds the direct witness first and refuses the composite
    sys = squaring.system
    sq, big = squaring.expr("sq"), squaring.etype("big")
    with pytest.raises(MismatchError,
                       match="^pullback: expression must land in the carrier of the target$"):
        composite_witness(sys, "pull", sq, sq, big)
    with pytest.raises(MismatchError,
                       match=r"^cannot compose 'sq' : \.\.->'B' with 'sq' : 'A'->\.\.$"):
        compose_iso(sys, "pull", sq, sq, big)


def test_a_composite_pushforward_refuses_expressions_that_do_not_compose(squaring):
    sys = squaring.system
    sq, neg, negative = squaring.expr("sq"), squaring.expr("neg"), squaring.etype("negative")
    with pytest.raises(MismatchError,
                       match="^pushforward: expression must start at the carrier of the subject$"):
        composite_witness(sys, "push", sq, neg, negative)
    with pytest.raises(MismatchError,
                       match=r"^cannot compose 'sq' : \.\.->'B' with 'neg' : 'A'->\.\.$"):
        compose_iso(sys, "push", sq, neg, negative)

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
