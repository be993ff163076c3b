"""Composites and pairings agree with the plain gather and pairing formula.

``FinFunction.then`` hands back the other operand's table when one side is
an ``IdentityTable``, and ``CartesianKit.pair`` returns the product's
identity table when both sides are marked.  While ``laws <sig> all`` runs,
every composite and pairing is recomputed here by the formulas those
shortcuts skip: the gather ``g[f[i]]`` and the pairing ``f[i]*|B'| + g[j]``.
Every result must equal its recomputation, and every marked table, operand
or result, must be ``(0, ..., n-1)`` on a domain and codomain of length n.
"""
from __future__ import annotations

import contextlib
import io

import pytest

from conftest import data_file
from refsys.cartesian import CartesianKit
from refsys.cli import main
from refsys.fincat import FinFunction, IdentityTable


def _faults(f: FinFunction, plain) -> list:
    """Why f's table is not plain, or is wrongly marked."""
    out = []
    if plain is not None and tuple(f.idx) != tuple(plain):
        out.append(f"{f.name}: table differs from the plain formula")
    if type(f.idx) is IdentityTable and (
            tuple(f.idx) != tuple(range(len(f.dom))) or len(f.dom) != len(f.cod)):
        out.append(f"{f.name}: marked but not an identity table")
    return out


@pytest.mark.parametrize("name", ["z4.json", "hoare4.json", "presheaf_arrow.json", "day_z2.json"])
def test_composites_and_pairings_match_the_plain_formula(monkeypatch, name):
    calls = {"then": 0, "pair": 0, "marked": 0}
    faults: list = []
    then, pair = FinFunction.then, CartesianKit.pair

    def recording_then(f, g):
        h = then(f, g)
        calls["then"] += 1
        calls["marked"] += type(h.idx) is IdentityTable
        faults.extend(_faults(f, None) + _faults(g, None)
                      + _faults(h, [g.idx[i] for i in f.idx]))
        return h

    def recording_pair(kit, f, g):
        h = pair(kit, f, g)
        calls["pair"] += 1
        calls["marked"] += type(h.idx) is IdentityTable
        n = len(g.cod)
        faults.extend(_faults(f, None) + _faults(g, None)
                      + _faults(h, [i * n + j for i in f.idx for j in g.idx]))
        return h

    monkeypatch.setattr(FinFunction, "then", recording_then)
    monkeypatch.setattr(CartesianKit, "pair", recording_pair)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["laws", data_file(name), "all"]) == 0
    assert faults == []
    # the marked shortcuts were taken, not only the plain formulas
    assert calls["then"] and calls["pair"] and calls["marked"]
