from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from refsys.fincat import FinFunction, FinSet
from refsys.kernel import (
    CapabilityError,
    compose_derivations,
    identity_derivation,
    is_identity_on,
)
from refsys.monadrep import (
    FiberwiseMonad,
    OppositeSystem,
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
    identity_adjunction,
    iter_encodings,
    search_encodings,
)
from refsys.subset_model import build_classifier_system, build_subset_system, subset
from refsys.signature import load_signature
from refsys.structures import check_beta_eta, pullback, pushforward
from refsys.trivial_model import POINT, build_trivial_system

from conftest import DATA, data_file


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


# --- a universal type across the continuation adjunction -------------------------

def _continuation_with_universal(tmp_path) -> str:
    doc = json.loads(Path(data_file("continuation.json")).read_text())
    doc["adjunction"]["universal"] = "yes"
    path = tmp_path / "continuation_universal.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_continuation_encodings_are_searched_and_checked_in_q(tmp_path):
    # a q-expression's pullback is p's pushforward along the reversed expression
    sig = load_signature(_continuation_with_universal(tmp_path))
    p, u = sig.system, sig.universal
    q = build_continuation_adjunction(p, sig.answers).q
    pool = p.e_types()
    encodings = {t: f for t in pool for f in itertools.islice(iter_encodings(q, t, u, 20_000), 1)}
    # a q-expression T -> U is the base function U -> T itself
    assert encodings and all((enc.dom, enc.cod) == (p.refines(u), p.refines(t))
                             for t, enc in encodings.items())
    for t, enc in encodings.items():
        et, rule, _ = q.pullback_data(enc, u)
        assert et == t == p.pushforward_data(u, enc)[0]
        assert (q.interp_src(rule), q.interp_dst(rule)) == (t, u)
    # {} has no encoding: pushing {1} forward is never empty
    assert [t.name for t in pool if t not in encodings][0] == "{}:B"
    assert check_universal(q, u, encodings, etypes=list(encodings)).ok


def test_continuation_with_a_universal_type_reports_under_both_interpreters(tmp_path):
    path = _continuation_with_universal(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    outputs = []
    for flags in ((), ("-O",)):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "refsys.cli", "laws", path, "monadrep"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr and proc.stderr == ""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert lines[0].startswith("suite monadrep: FAIL")
    assert lines[1] == "  counterexample: no encoding found for {}:B"


def _z4_cases(sig):
    h = sig.sets["H"]
    succ = FinFunction("succ", h, h, {i: (i + 1) % 4 for i in h})
    double = FinFunction("double", h, h, {i: 2 * i % 4 for i in h})
    return ((succ, sig.etype("one")), (double, sig.etype("evens")),
            (double, sig.etype("odds")))


def _laws_under_both_interpreters(path, suite: str) -> tuple:
    """(exit code, stdout) of `refsys laws path suite`, the same under python and -O."""
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    runs = []
    for flags in ((), ("-O",)):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "refsys.cli", "laws", str(path), suite],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.stderr == "", proc.stderr
        runs.append((proc.returncode, proc.stdout))
    assert runs[0] == runs[1]
    return runs[0]


def _wide_classifier(tmp_path, n: int) -> Path:
    """A subset signature with a universal truth-value type and a set of n elements."""
    doc = {
        "model": "subset",
        "name": f"wide{n}",
        "sets": {"A": [f"a{i}" for i in range(n)], "Omega": [0, 1]},
        "subsets": {"truth": {"of": "Omega", "elements": [1]}},
        "adjunction": {"kind": "identity", "universal": "truth"},
    }
    path = tmp_path / f"wide{n}.json"
    path.write_text(json.dumps(doc))
    return path


def test_a_function_space_too_large_to_print_is_refused_in_power_form(tmp_path):
    # [[A->Omega]->Omega] has 2^16384 elements, more digits than str() allows
    code, out = _laws_under_both_interpreters(_wide_classifier(tmp_path, 14), "monadrep")
    assert code == 0, out
    assert ("function space [[A->Omega]->Omega] would have 2^16384 elements, "
            "exceeding the bound 200000") in out


def test_the_suite_encoding_search_is_bounded(tmp_path):
    # [A->Omega] has 2^20 candidates: the full type's search is refused, not run
    path = _wide_classifier(tmp_path, 20)
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    proc = subprocess.run([sys.executable, "-m", "refsys.cli", "laws", str(path), "monadrep"],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    full = ",".join(f"a{i}" for i in range(20))
    assert (f"  note: encodings of {{{full}}}:A: encoding search exceeds 20000 "
            "candidate expressions") in proc.stdout.splitlines()
    assert "no encoding found" not in proc.stdout


def test_a_trivial_universal_type_is_checked_in_literal_mode(tmp_path):
    doc = json.loads(Path(data_file("trivial2.json")).read_text())
    doc["adjunction"]["universal"] = "two"
    path = tmp_path / "trivial2_universal.json"
    path.write_text(json.dumps(doc))
    code, out = _laws_under_both_interpreters(path, "monadrep")
    lines = out.splitlines()
    assert code == 1, out
    assert lines[0] == "suite monadrep: FAIL (44 instances)"
    # the only expression is the identity, so shift*(DN) keeps DN's 16 elements
    assert ("  counterexample: reflection: condition 2 (shift context) fails at two: "
            "[[two->two]->two] != two") in lines


def test_a_refusal_in_universality_or_reflection_is_a_note(tmp_path):
    # seven answers: reflection's first condition curries into [C->C], which
    # has 7^7 elements, past the bound; the report still completes
    doc = {
        "model": "subset",
        "name": "continuation7",
        "sets": {"B": ["b"], "C": list(range(1, 8))},
        "subsets": {"yes": {"of": "C", "elements": [1]}},
        "adjunction": {"kind": "continuation", "answers": "yes", "universal": "yes"},
    }
    path = tmp_path / "continuation7.json"
    path.write_text(json.dumps(doc))
    code, out = _laws_under_both_interpreters(path, "monadrep")
    lines = out.splitlines()
    assert code == 1, out
    assert lines[0] == "suite monadrep: FAIL (11 instances)"
    assert [line for line in lines if "counterexample" in line] == [
        "  counterexample: no encoding found for {}:B"]
    assert ("  note: function space [C->C] would have 823543 elements, "
            "exceeding the bound 200000") in lines


def _arrow_cases(sig):
    collapse = sig.expr("collapse")
    ident = sig.system.id_expr(collapse.dom)
    return ((collapse, sig.etype("P")), (collapse, sig.etype("Q")), (ident, sig.etype("P")))


@pytest.mark.parametrize("fixture, cases", (("z4", _z4_cases), ("arrow_sig", _arrow_cases)),
                         ids=("z4", "presheaf_arrow"))
def test_opposite_pushforward_is_the_base_pullback_reversed(fixture, cases, request):
    sig = request.getfixturevalue(fixture)
    base = sig.system
    op = OppositeSystem(base)
    for f, s in cases(sig):
        et, rule, factor = op.pushforward_data(s, f)
        base_et, base_rule, base_factor = base.pullback_data(f, s)
        assert et == base_et
        assert rule == base_rule
        # a morphism over g;f factors through the pullback exactly as in the base
        a = base.expr_dom(f)
        factored = 0
        for g in itertools.islice(base.expressions(a, a), 8):
            gf = base.compose_exprs(g, f)
            for z in base.e_types_over(a):
                for m in base.morphisms_over(z, gf, s):
                    assert factor(m, g) == base_factor(m, g)
                    factored += 1
        assert factored
        report = check_beta_eta(pushforward(op, s, f))
        assert report.ok and report.checked, str(report)


@pytest.mark.parametrize("fixture, cases", (("z4", _z4_cases), ("arrow_sig", _arrow_cases)),
                         ids=("z4", "presheaf_arrow"))
def test_opposite_pullback_is_the_base_pushforward_reversed(fixture, cases, request):
    sig = request.getfixturevalue(fixture)
    base = sig.system
    op = OppositeSystem(base)
    for f, t in cases(sig):
        et, rule, factor = op.pullback_data(f, t)
        base_et, base_rule, base_factor = base.pushforward_data(t, f)
        assert et == base_et
        assert rule == base_rule
        # a morphism over f;g factors through the pushforward exactly as in the base
        b = base.expr_cod(f)
        factored = 0
        for g in itertools.islice(base.expressions(b, b), 8):
            fg = base.compose_exprs(f, g)
            for z in base.e_types_over(b):
                for m in base.morphisms_over(t, fg, z):
                    assert factor(m, g) == base_factor(m, g)
                    factored += 1
        assert factored
        report = check_beta_eta(pullback(op, f, t))
        assert report.ok and report.checked, str(report)


def test_opposite_enumerates_only_the_refinements_of_the_asked_carrier():
    # a 17-element carrier beside A: its 2^17 subsets are past the bound,
    # but the opposite is asked only about A, as the base is
    a = FinSet("A", (1, 2))
    base = build_subset_system((a, FinSet("Big", tuple(range(17)))))
    op = OppositeSystem(base)
    assert op.e_types_over(a) == base.e_types_over(a)
    assert len(op.e_types_over(a)) == 4
    swap = FinFunction("swap", a, a, {1: 2, 2: 1})
    # the literal laws quantified over A alone, as they are on the base
    w = pullback(op, swap, subset(a, (1,)))
    report = check_beta_eta(w, mode="literal", x_types=(a,))
    assert report.ok and report.checked, str(report)
    assert report.checked == check_beta_eta(
        pushforward(base, subset(a, (1,)), swap), mode="literal", x_types=(a,)).checked
