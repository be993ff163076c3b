from __future__ import annotations

import pytest

from refsys.fincat import FinSet
from refsys.kernel import (
    CapabilityError,
    compose_derivations,
    derivations_equal,
    identity_derivation,
    is_identity_on,
)
from refsys.monadrep import (
    FiberwiseMonad,
    build_continuation_adjunction,
    check_adjunction,
    check_comparison,
    check_monad_laws,
    check_reflected,
    check_retraction,
    check_section,
    check_theorem,
    check_universal,
    count_encodings_elementwise,
    double_negation_weakening,
    identity_adjunction,
    mark_pullback,
    mark_pushforward,
    search_encodings,
    two_out_of_three_pull,
    two_out_of_three_push,
)
from refsys.subset_model import build_classifier_system, build_subset_system, subset
from refsys.trivial_model import POINT, build_trivial_system


@pytest.fixture(scope="module")
def trivial_pair():
    sys = build_trivial_system((FinSet("two", (1, 2)), FinSet("one", ("w",))))
    two, one = sys.e_types()
    return sys, two, one


@pytest.fixture(scope="module")
def deep_continuation():
    b = FinSet("B", ("b",))
    c = FinSet("C", (1, 2))
    sys = build_subset_system((b, c), max_carrier=1_300_000)
    u = subset(c, (1,))
    return sys, build_continuation_adjunction(sys, u), subset(b, ("b",)), u


def test_identity_adjunction_laws(small_sys):
    sys = small_sys
    a, b = sys.i_types()
    pool = (subset(a, ("a1",)), subset(b, (1, 2)))
    adj = identity_adjunction(sys)
    ders = tuple(identity_derivation(sys, s) for s in pool)
    rep = check_adjunction(adj, p_etypes=pool, q_etypes=pool,
                           q_derivations=ders,
                           strength_pairs=((pool[0], pool[1]),))
    assert rep.ok
    assert rep.checked > 10


def test_identity_monad_is_trivial(small_sys):
    sys = small_sys
    a, _ = sys.i_types()
    monad = FiberwiseMonad(identity_adjunction(sys))
    t = subset(a, ("a1",))
    assert monad.carrier(t) == t
    assert is_identity_on(sys, monad.unit(t), t)
    rep = check_monad_laws(monad, sys.e_types_over(a))
    assert rep.ok


def test_continuation_adjunction_on_a_proof_relevant_base(trivial_pair):
    sys, two, one = trivial_pair
    adj = build_continuation_adjunction(sys, one)
    qd = identity_derivation(adj.q, two)
    rep = check_adjunction(adj, p_etypes=(two, one), q_etypes=(two, one),
                           q_derivations=(qd,), strength_pairs=((two, two),))
    assert rep.ok
    assert not rep.skipped
    assert check_comparison(adj, two, one).ok


def test_retraction_holds_but_section_fails(trivial_pair):
    # with answers of size two the double negation keeps extra points
    sys, two, _ = trivial_pair
    adj = identity_adjunction(sys)
    f = sys.id_expr(POINT)
    assert check_retraction(adj, two, two, f).ok
    assert check_section(adj, two, two, f) is False


def test_section_holds_when_proof_irrelevant(small_sys):
    sys = small_sys
    a, _ = sys.i_types()
    t = subset(a, ("a1",))
    adj = identity_adjunction(sys)
    enc = sys.id_expr(a)
    assert check_retraction(adj, t, t, enc).ok
    assert check_section(adj, t, t, enc) is True


def test_continuation_monad_laws_exactly(deep_continuation):
    # unit laws and associativity on the full double-negation carriers
    sys, adj, t, u = deep_continuation
    monad = FiberwiseMonad(adj)
    b = sys.refines(t)
    assert monad.carrier(t) == t
    rep = check_monad_laws(monad, tuple(sys.e_types_over(b)))
    assert rep.ok
    assert rep.checked == 6
    assert not rep.skipped


def test_encoding_search_matches_elementwise_count(deep_continuation):
    sys, adj, t, u = deep_continuation
    found = search_encodings(adj, t, u)
    count, example = count_encodings_elementwise(adj, t, u)
    assert len(found) == count == 16
    assert example in found
    for f in found[:2]:
        assert check_retraction(adj, t, u, f).ok


def test_search_certifies_absence_beyond_the_limit(deep_continuation):
    sys, adj, t, u = deep_continuation
    with pytest.raises(CapabilityError):
        search_encodings(adj, t, u, limit=3)


def test_universal_type_and_reflection():
    sys, truth, encodings = build_classifier_system(sizes=(1, 2))
    rep = check_universal(sys, truth, encodings)
    assert rep.ok
    adj = identity_adjunction(sys)
    ref = check_reflected(adj, truth, encodings)
    assert ref.ok
    strict = [v for _, v in ref.double_negation_strict]
    # strictness is informational: most double negations are only isomorphic
    assert sum(strict) == 3
    assert len(strict) == 10


def test_a_missing_encoding_is_a_counted_failure():
    sys, truth, encodings = build_classifier_system(sizes=(1, 2))
    missing = next(t for t in sys.e_types() if t.of.name == "A2")
    partial = {t: e for t, e in encodings.items() if t != missing}
    rep = check_universal(sys, truth, partial, etypes=(missing,))
    assert rep.failures == [f"no encoding for {missing.name}"]
    assert rep.checked >= len(rep.failures)
    ref = check_reflected(identity_adjunction(sys), truth, partial,
                          q_etypes=(missing,), p_etypes=(missing,))
    assert ref.failures == [f"no encoding for q-type {missing.name}",
                            f"no encoding for L[{missing.name}]"]
    assert ref.checked >= len(ref.failures)


def test_representation_theorem_isos():
    sys, truth, encodings = build_classifier_system(sizes=(1, 2))
    adj = identity_adjunction(sys)
    for t in sys.e_types():
        iso = check_theorem(adj, truth, encodings, t)
        fwd_bwd = compose_derivations(sys, iso.fwd, iso.bwd)
        assert is_identity_on(sys, fwd_bwd, iso.fwd.subject)
        bwd_fwd = compose_derivations(sys, iso.bwd, iso.fwd)
        assert is_identity_on(sys, bwd_fwd, iso.bwd.subject)


def test_two_out_of_three(squaring):
    sys = squaring.system
    sq = squaring.expr("sq")
    neg = squaring.expr("neg")
    fg = sys.compose_exprs(neg, sq)
    big = squaring.etype("big")
    rep = two_out_of_three_pull(
        sys, mark_pullback(sys, fg, big), mark_pullback(sys, sq, big), neg,
        mode="membership")
    assert rep.ok
    s = squaring.etype("negative")
    rep = two_out_of_three_push(
        sys, mark_pushforward(sys, s, fg), mark_pushforward(sys, s, neg), sq,
        mode="membership")
    assert rep.ok


def test_answer_weakening_boundaries(small_sys):
    # restricting the answers along f yields a vertical map between the shifted DNs
    sys = small_sys
    a, b = sys.i_types()
    t = subset(a, ("a1",))
    u = subset(b, (1, 2))
    from refsys.fincat import FinFunction
    f = FinFunction("f", b, b, {1: 1, 2: 1, 3: 3})
    d = double_negation_weakening(sys, t, u, f)
    assert sys.refines(d.subject) == sys.refines(t)
    assert sys.refines(d.target) == sys.refines(t)
    assert sys.exprs_equal(d.expr, sys.id_expr(sys.refines(t)))
