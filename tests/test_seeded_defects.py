"""Seeded defects: a wrong model hook must read as a failed law, not a refusal.

Each row replaces one hook of a model class by a plausible mistake and
runs ``refsys laws SIG structures`` and ``... all`` on the row's signature
in a subprocess, under ``python`` and ``python -O``.  The exit-code
contract reads 1 for a failing check and 3 for a refusal, so a defect the
suites catch exits 1 with a counterexample, whatever the interpreter does
with ``assert``.

Rows (a), (b) and (d) break ``SubsetSystem``'s pullback and pushforward
types on squaring.json: (a) drops a position from a pullback, (b) adds
one to a pushforward and (d) adds one to a pullback.  The suite's
membership checks, which recompute each witness's type element by
element, report the defect first; the composite isos still fail behind
them.  Row (d) also breaks the tensor preservation iso, whose factor is
then not a morphism: that is a failed law, not a refusal.  Row (c) keeps
``PresheafSystem``'s pullback type and gives it a factor that returns
another morphism, on presheaf_arrow.json.  The presheaf model is not
proof-irrelevant, so no membership check applies, and the literal
beta/eta loop reports it first.

Run this file as a script, ``python tests/test_seeded_defects.py ROW
ARGS...``, to run the command line ``refsys ARGS...`` with row ROW's
defect in place.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import data_file
from refsys.kernel import CapabilityError, LawViolation
from refsys.monadrep import OppositeSystem
from refsys.monoidal import tensor_iso
from refsys.presheaf_model import PresheafSystem
from refsys.signature import load_signature
from refsys.structures import check_beta_eta, pullback, pushforward
from refsys.subset_model import SubsetMor, SubsetSystem, _mor, _subset

SRC = Path(__file__).resolve().parent.parent / "src"

_pullback_data = SubsetSystem.pullback_data
_pushforward_data = SubsetSystem.pushforward_data
_presheaf_pullback_data = PresheafSystem.pullback_data


def pullback_dropping_the_smallest_position(self, f, t):
    """Row (a): f*T without its smallest preimage position."""
    et, _, _ = _pullback_data(self, f, t)
    et = _subset(et.of, et.ix - {min(et.ix)}) if et.ix else et

    def factor(m, g):
        return SubsetMor(m.src, g, et)

    return et, _mor(et, f, t), factor


def pushforward_adding_a_position(self, s, f):
    """Row (b): fS with the first codomain position outside the image added."""
    et, _, _ = _pushforward_data(self, s, f)
    extra = [i for i in range(len(et.of)) if i not in et.ix][:1]
    et = _subset(et.of, et.ix | set(extra))

    def factor(m, g):
        return SubsetMor(et, g, m.dst)

    return et, _mor(s, f, et), factor


def pullback_adding_a_position(self, f, t):
    """Row (d): f*T with the first domain position outside the preimage added."""
    et, _, _ = _pullback_data(self, f, t)
    extra = [i for i in range(len(et.of)) if i not in et.ix][:1]
    et = _subset(et.of, et.ix | set(extra))

    def factor(m, g):
        return SubsetMor(m.src, g, et)

    return et, _mor(et, f, t), factor


def pullback_factoring_through_another_morphism(self, f, t):
    """Row (c): the right f*T, but a factor that returns another morphism
    over g from m's subject to f*T, when one exists."""
    et, unit, factor = _presheaf_pullback_data(self, f, t)

    def other_factor(m, g):
        right = factor(m, g)
        for n in self.morphisms_over(m.src, g, et):
            if n != right:
                return n
        return right

    return et, unit, other_factor


# per row: the model class, the hook, its defect, the signature, and the
# start of the first counterexample `laws SIG structures` prints: from the
# membership check of the first witness of the row's kind in rows (a), (b)
# and (d), from the literal loop in row (c)
ROWS = {
    "a": (SubsetSystem, "pullback_data", pullback_dropping_the_smallest_position,
          "squaring.json",
          "pullback of {-3,-2,-1,0,1,2,3}:A along id_A: pullback along 'id_A': "
          "constructed {-2,-1,0,1,2,3}:A != canonical "),
    "b": (SubsetSystem, "pushforward_data", pushforward_adding_a_position,
          "squaring.json",
          "pushforward of {}:A along id_A: pushforward along 'id_A': "
          "constructed {-3}:A != canonical "),
    "c": (PresheafSystem, "pullback_data", pullback_factoring_through_another_morphism,
          "presheaf_arrow.json",
          "pullback of P: x -> {p0,p1}; y -> {q0} along Id_C: "
          "beta-law fails at subject P, factor F0_C_C"),
    "d": (SubsetSystem, "pullback_data", pullback_adding_a_position,
          "squaring.json",
          "pullback of {}:A along id_A: pullback along 'id_A': "
          "constructed {-3}:A != canonical {}:A"),
}


def _refsys(row: str, flags: tuple, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *flags, __file__, row, *argv],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
@pytest.mark.parametrize("suite", ["structures", "all"])
@pytest.mark.parametrize("row", sorted(ROWS))
def test_a_seeded_defect_fails_the_structures_suite(row, suite, flags):
    proc = _refsys(row, flags, "laws", data_file(ROWS[row][3]), suite)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    assert "suite structures: FAIL (" in proc.stdout
    counterexamples = [line.strip() for line in proc.stdout.splitlines()
                       if line.strip().startswith("counterexample: ")]
    assert counterexamples[0].startswith("counterexample: " + ROWS[row][4])


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_row_c_fails_the_literal_loop_first(flags):
    proc = _refsys("c", flags, "laws", data_file("presheaf_arrow.json"), "structures")
    assert proc.returncode == 1, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert lines[0] == "suite structures: FAIL (172 instances)"
    assert lines[1] == "counterexample: " + ROWS["c"][4]


@pytest.mark.parametrize("row", ["a", "b"])
def test_the_composite_iso_still_fails_behind_the_membership_checks(row):
    proc = _refsys(row, ("-O",), "laws", data_file("squaring.json"), "structures", "--json")
    assert proc.returncode == 1, proc.stderr
    (suite,) = json.loads(proc.stdout)["suites"]
    noun = {"a": "pullback", "b": "pushforward"}[row]
    assert any(f.startswith(f"{noun} composite iso: uniqueness iso: ")
               for f in suite["failures"])


def test_row_b_names_the_position_it_added():
    proc = _refsys("b", ("-O",), "laws", data_file("squaring.json"), "structures", "--json")
    assert ("pushforward composite iso: uniqueness iso: factor is not a morphism "
            "('id_A' does not map {-3,-2}:A into {-3}:A)") in json.loads(proc.stdout)[
                "suites"][0]["failures"]


@pytest.fixture
def row_a(monkeypatch):
    """Row (a)'s witness of big along sq, {3}:A where {-3,3}:A is right."""
    monkeypatch.setattr(SubsetSystem, "pullback_data", pullback_dropping_the_smallest_position)
    sig = load_signature(data_file("squaring.json"))
    return pullback(sig.system, sig.expr("sq"), sig.etype("big"))


def test_literal_mode_fails_row_a_at_the_beta_law(row_a):
    assert row_a.etype.name == "{3}:A"
    rep = check_beta_eta(row_a, mode="literal")
    assert not rep.ok
    assert any(f.startswith("beta-law fails at subject ") and "does not map" in f
               for f in rep.failures)


def test_membership_mode_fails_row_a(row_a):
    rep = check_beta_eta(row_a, mode="membership")
    assert not rep.ok
    assert rep.failures == ["pullback along 'sq': constructed {3}:A != canonical {-3,3}:A"]
    assert rep.checked == 1


@pytest.fixture
def row_b(monkeypatch):
    """Row (b)'s witness of negative along sq, {0,1,4,9}:B where {1,4,9}:B is right."""
    monkeypatch.setattr(SubsetSystem, "pushforward_data", pushforward_adding_a_position)
    sig = load_signature(data_file("squaring.json"))
    return pushforward(sig.system, sig.etype("negative"), sig.expr("sq"))


def test_membership_mode_fails_row_b(row_b):
    assert row_b.etype.name == "{0,1,4,9}:B"
    rep = check_beta_eta(row_b, mode="membership")
    assert not rep.ok
    assert rep.failures == [
        "pushforward along 'sq': constructed {0,1,4,9}:B != canonical {1,4,9}:B"]
    assert rep.checked == 1


@pytest.mark.parametrize("row, failing, first", [
    # the image of sq misses 2, so row (b) adds a position to every image
    ("b", 128, "pullback along 'sq': constructed {0}:B != canonical {}:B"),
    # row (a) drops a position from every preimage but the 64 empty ones
    ("a", 960, "pushforward along 'sq': constructed {}:A != canonical {0}:A"),
])
def test_membership_mode_on_the_opposite_names_the_expression(row, failing, first,
                                                              monkeypatch):
    """The opposite's pullback along sq is the base's pushforward along sq,
    so row (b) breaks the opposite's pullbacks and row (a) its pushforwards."""
    cls, hook, patch = ROWS[row][:3]
    monkeypatch.setattr(cls, hook, patch)
    sig = load_signature(data_file("squaring.json"))
    op, sq = OppositeSystem(sig.system), sig.expr("sq")
    if row == "b":
        witnesses = [pullback(op, sq, t) for t in op.e_types_over(op.expr_cod(sq))]
    else:
        witnesses = [pushforward(op, s, sq) for s in op.e_types_over(op.expr_dom(sq))]
    failures = [f for w in witnesses for f in check_beta_eta(w, mode="membership").failures]
    assert len(failures) == failing
    assert failures[0] == first


def test_tensor_iso_fails_the_law_when_row_d_factor_is_not_a_morphism(monkeypatch):
    """Row (d)'s pullbacks of big along sq are too big, so the tensored
    witness cannot factor the paired units: a failed law, not a refusal."""
    monkeypatch.setattr(SubsetSystem, "pullback_data", pullback_adding_a_position)
    sig = load_signature(data_file("squaring.json"))
    sq, big = sig.expr("sq"), sig.etype("big")
    with pytest.raises(LawViolation, match=(
            r"^tensor does not preserve this pullback pair: factor is not a morphism "
            r"\('id_\(AxA\)' does not map .* into .*\)$")):
        tensor_iso(sig.system, "pull", sq, big, sq, big)


@pytest.fixture
def row_c(monkeypatch):
    """Row (c)'s witness of P along the identity functor: the right type,
    whose factor returns another morphism."""
    monkeypatch.setattr(PresheafSystem, "pullback_data",
                        pullback_factoring_through_another_morphism)
    sig = load_signature(data_file("presheaf_arrow.json"))
    p = sig.etype("P")
    return pullback(sig.system, sig.system.id_expr(p.cat), p)


def test_literal_mode_fails_row_c_and_membership_mode_does_not_apply(row_c):
    assert row_c.etype.ob == row_c.fixed.ob
    rep = check_beta_eta(row_c, mode="literal")
    assert rep.failures[0] == "beta-law fails at subject P, factor F0_C_C"
    with pytest.raises(CapabilityError, match="proof-irrelevant"):
        check_beta_eta(row_c, mode="membership")


if __name__ == "__main__":
    from refsys.cli import main
    cls, hook, patch = ROWS[sys.argv[1]][:3]
    setattr(cls, hook, patch)
    raise SystemExit(main(sys.argv[2:]))
