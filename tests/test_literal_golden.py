"""Literal beta/eta reports, pinned against tests/golden/literal.json.

Each case is one pull or push witness with the instance count and the
failure texts of ``check_beta_eta(w, mode="literal", x_types=...)``:

- classifier (subset model): every witness of both kinds along each
  identity and each named expression, at every subset of the fixed end's
  carrier, with the subjects (or targets) over the carriers of at most two
  elements;
- z4 (subset model): every witness of both kinds along the identity of H at
  each named subset, over H;
- presheaf_arrow: every witness of both kinds along the identity functor
  and ``collapse``, at each presheaf, over every index type;
- rows (a) and (b) of tests/test_seeded_defects.py: the classifier
  witnesses of the row's kind again, built with the row's defect in place,
  and one squaring witness that the row breaks at its first factor, over
  every index type (row (a): the pullback of ``big`` along ``sq``; row (b):
  the pushforward of the empty subset of A along ``sq``).

The file was recorded under ``python -O`` by running this file as a
script: ``PYTHONPATH=src python -O tests/test_literal_golden.py >
tests/golden/literal.json``.
"""
from __future__ import annotations

import contextlib
import json
from pathlib import Path

import pytest

from conftest import data_file
from refsys.fincat import FinFunctor
from refsys.signature import load_signature
from refsys.structures import check_beta_eta, witness
from refsys.subset_model import subset
from test_seeded_defects import ROWS

GOLDEN = Path(__file__).resolve().parent / "golden" / "literal.json"
SMALL = 2
ROW_KIND = {"a": "pull", "b": "push"}


@contextlib.contextmanager
def _row(row):
    """Row ``row``'s defect in its model class while the block runs; none for None."""
    if row is None:
        yield
        return
    cls, hook, patch = ROWS[row][:3]
    saved = vars(cls)[hook]
    setattr(cls, hook, patch)
    try:
        yield
    finally:
        setattr(cls, hook, saved)


def _built(row, sys_, kind, f, fixed):
    with _row(row):
        return witness(sys_, kind, f, fixed)


def _cases():
    """(signature, row, witness, x_types) for every case, in the file's order."""
    sig = load_signature(data_file("classifier.json"))
    sys_ = sig.system
    small = tuple(a for a in sys_.i_types() if len(a) <= SMALL)
    exprs = [sys_.id_expr(a) for a in sig.sets.values()] + list(sig.exprs.values())
    for row in (None, "a", "b"):
        for f in exprs:
            for kind in (("pull", "push") if row is None else (ROW_KIND[row],)):
                end = sys_.expr_cod(f) if kind == "pull" else sys_.expr_dom(f)
                for p in sys_.e_types_over(end):
                    yield "classifier.json", row, _built(row, sys_, kind, f, p), small

    sig = load_signature(data_file("z4.json"))
    sys_ = sig.system
    (h,) = sys_.i_types()
    for kind in ("pull", "push"):
        for p in sig.etypes.values():
            yield "z4.json", None, witness(sys_, kind, sys_.id_expr(h), p), (h,)

    sig = load_signature(data_file("presheaf_arrow.json"))
    sys_ = sig.system
    exprs = [FinFunctor.identity(c) for c in sig.categories.values()] + list(sig.exprs.values())
    for f in exprs:
        for kind in ("pull", "push"):
            for p in sig.etypes.values():
                yield "presheaf_arrow.json", None, witness(sys_, kind, f, p), None

    sig = load_signature(data_file("squaring.json"))
    sys_, sq = sig.system, sig.expr("sq")
    yield "squaring.json", "a", _built("a", sys_, "pull", sq, sig.etype("big")), None
    yield "squaring.json", "b", _built("b", sys_, "push", sq, subset(sig.sets["A"], ())), None


def _reports() -> list:
    out = []
    for name, row, w, x_types in _cases():
        rep = check_beta_eta(w, mode="literal", x_types=x_types)
        out.append({"signature": name, "row": row, "kind": w.kind, "expr": w.expr.name,
                    "fixed": w.fixed.name,
                    "x_types": None if x_types is None else [x.name for x in x_types],
                    "checked": rep.checked, "failures": rep.failures})
    return out


def _group(case: dict) -> str:
    return case["signature"] + ("" if case["row"] is None else f"-row-{case['row']}")


GROUPS = sorted({_group(c) for c in json.loads(GOLDEN.read_text())}) if GOLDEN.exists() else []


@pytest.fixture(scope="module")
def reports() -> list:
    return _reports()


@pytest.mark.parametrize("group", GROUPS)
def test_literal_reports_match_their_recorded_counts_and_failures(reports, group):
    recorded = [c for c in json.loads(GOLDEN.read_text()) if _group(c) == group]
    assert [c for c in reports if _group(c) == group] == recorded


def test_the_recorded_cases_include_failing_reports_of_both_rows():
    recorded = json.loads(GOLDEN.read_text())
    for row in ROW_KIND:
        assert any(c["row"] == row and c["failures"] for c in recorded), row
    assert all(c["failures"] == [] for c in recorded if c["row"] is None)


if __name__ == "__main__":
    print(json.dumps(_reports(), indent=1))
