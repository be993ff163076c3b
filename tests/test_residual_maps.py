"""Residual data built once, and the functorial action of the residuals.

Each model's ``residual_data`` builds its residual once, on either side,
and shares it with the evaluation and the currying closure, so a witness
curried any number of times builds one residual.  The derivation-level map
``residual_map`` lies over the index-level ``residual_expr``.
"""
from __future__ import annotations

import itertools

import pytest

from refsys.kernel import derivations_over
from refsys.monoidal import residual, residual_expr, residual_map
from refsys.signature import load_signature

from conftest import data_file


def _builds_per_witness(monkeypatch, sys, builder: str, s, u) -> list:
    """How many times each side's witness, curried twice, calls sys.<builder>."""
    calls = []
    build = getattr(sys, builder)
    monkeypatch.setattr(sys, builder, lambda *args: calls.append(args) or build(*args))
    counts = []
    for side in ("left", "right"):
        calls.clear()
        w = residual(sys, side, s, u)
        for _ in range(2):
            # the evaluation is a premise over the fixed operand and the residual
            assert w.curry(w.ev, w.etype).target is w.etype
        counts.append(len(calls))
    return counts


def test_a_presheaf_residual_witness_builds_its_residual_presheaf_once(day_z2, monkeypatch):
    sys = day_z2.system
    s, u = day_z2.etypes["Fix"], day_z2.etypes["Reg"]
    assert _builds_per_witness(monkeypatch, sys, "residual_etype", s, u) == [1, 1]


def test_a_subset_residual_witness_builds_its_residual_once(small_sys, monkeypatch):
    s, u = small_sys.e_types()[1], small_sys.e_types()[-1]
    assert _builds_per_witness(monkeypatch, small_sys, "residual_etype", s, u) == [1, 1]


@pytest.mark.parametrize("name", ["z4.json", "trivial2.json", "day_z2.json"])
def test_residual_maps_lie_over_residual_exprs(name):
    sys = load_signature(data_file(name)).system
    es = sys.e_types()[:3]
    checked = 0
    for s1, s2, u in itertools.product(es, repeat=3):
        c = sys.refines(u)
        for f in itertools.islice(sys.expressions(sys.refines(s1), sys.refines(s2)), 3):
            for alpha in itertools.islice(derivations_over(sys, s1, f, s2), 2):
                for side in ("left", "right"):
                    d = residual_map(sys, side, alpha, u)
                    assert (d.subject, d.target) == (sys.residual_etype(side, s2, u),
                                                     sys.residual_etype(side, s1, u))
                    assert sys.exprs_equal(d.expr, residual_expr(sys, side, f, c))
                checked += 1
    assert checked > 0
