"""The literal beta/eta reports, pinned instance count by instance count.

``check_beta_eta(..., mode="literal")`` enumerates subjects (or targets),
factors and derivations, counts every instance and stops at the first
subject after which ``LawReport.failure_cap`` failures are recorded.  Its
reports are pinned here as ``(checked, failures)``:

- a seeded sweep of pull and push witnesses on subset systems with
  |A|, |B| in {2, 3, 4} and the two-point probe carrier X, the shape of
  the benchmark's subset queries;
- every pull and push witness along an endofunctor of the bundled
  ``presheaf_arrow`` and ``day_z2`` signatures;
- presheaf witnesses whose factor rule answers with the wrong natural
  transformation, which reach the cap partway through a factor, so the
  report stops before that factor's last subject (or target).
"""
from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from conftest import data_file
from refsys.fincat import FinFunction, FinSet
from refsys.signature import load_signature
from refsys.structures import LawReport, check_beta_eta, pullback, pushforward
from refsys.subset_model import build_subset_system, subset

# per (|A|, |B|): three (pull checked, push checked) pairs, in sweep order
SUBSET_SWEEP = {
    (2, 2): [(8, 12), (18, 12), (18, 32)],
    (2, 3): [(32, 64), (18, 32), (18, 32)],
    (2, 4): [(18, 128), (8, 64), (32, 64)],
    (3, 2): [(50, 16), (18, 16), (72, 16)],
    (3, 3): [(18, 64), (32, 24), (50, 20)],
    (3, 4): [(32, 128), (18, 64), (50, 48)],
    (4, 2): [(128, 12), (72, 12), (50, 12)],
    (4, 3): [(72, 32), (50, 32), (72, 24)],
    (4, 4): [(128, 48), (50, 48), (128, 64)],
}


def test_a_seeded_subset_sweep_keeps_its_literal_reports():
    rng = random.Random(21)
    for na, nb in itertools.product((2, 3, 4), repeat=2):
        a = FinSet("A", tuple(range(na)))
        b = FinSet("B", tuple("xyzw"[:nb]))
        x = FinSet("X", (0, 1))
        sys_ = build_subset_system((a, b, x))
        got = []
        for _ in range(3):
            f = FinFunction._from_idx("f", a, b, tuple(rng.randrange(nb) for _ in range(na)))
            t = subset(b, [e for e in b.elements if rng.random() < 0.5])
            s = subset(a, [e for e in a.elements if rng.random() < 0.5])
            pull = check_beta_eta(pullback(sys_, f, t), mode="literal", x_types=(x,))
            push = check_beta_eta(pushforward(sys_, s, f), mode="literal", x_types=(x,))
            assert pull.failures == [] and push.failures == []
            got.append((pull.checked, push.checked))
        assert got == SUBSET_SWEEP[na, nb], (na, nb)


# (kind, functor, type, checked): every witness along an endofunctor, in sweep order
PRESHEAF_SWEEP = {
    "presheaf_arrow.json": [
        ("pull", "F0_C_C", "P", 36), ("pull", "F0_C_C", "Q", 12),
        ("push", "F0_C_C", "P", 18), ("push", "F0_C_C", "Q", 30),
        ("pull", "F1_C_C", "P", 28), ("pull", "F1_C_C", "Q", 22),
        ("push", "F1_C_C", "P", 22), ("push", "F1_C_C", "Q", 28),
        ("pull", "F2_C_C", "P", 12), ("pull", "F2_C_C", "Q", 36),
        ("push", "F2_C_C", "P", 18), ("push", "F2_C_C", "Q", 30),
    ],
    "day_z2.json": [
        ("pull", "F0_Z2_Z2", "Reg", 32), ("pull", "F0_Z2_Z2", "Fix", 32),
        ("pull", "F0_Z2_Z2", "Pt", 12),
        ("push", "F0_Z2_Z2", "Reg", 20), ("push", "F0_Z2_Z2", "Fix", 36),
        ("push", "F0_Z2_Z2", "Pt", 20),
        ("pull", "F1_Z2_Z2", "Reg", 20), ("pull", "F1_Z2_Z2", "Fix", 32),
        ("pull", "F1_Z2_Z2", "Pt", 12),
        ("push", "F1_Z2_Z2", "Reg", 20), ("push", "F1_Z2_Z2", "Fix", 28),
        ("push", "F1_Z2_Z2", "Pt", 16),
    ],
}


@pytest.mark.parametrize("name", sorted(PRESHEAF_SWEEP))
def test_every_presheaf_witness_keeps_its_literal_report(name):
    sys_ = load_signature(data_file(name)).system
    (c,) = sys_.i_types()
    got = []
    for f in sys_.expressions(c, c):
        for kind, witness in (("pull", lambda t: pullback(sys_, f, t)),
                              ("push", lambda s: pushforward(sys_, s, f))):
            for p in sys_.e_types_over(c):
                rep = check_beta_eta(witness(p), mode="literal")
                assert rep.failures == []
                got.append((kind, f.name, p.name, rep.checked))
    assert got == PRESHEAF_SWEEP[name]


def _broken(sys_, kind: str, f, p):
    """A witness whose factor rule answers with the first (pull) or last (push)
    natural transformation over the factor, whatever the premise."""
    if kind == "pull":
        w = pullback(sys_, f, p)
        return dataclasses.replace(
            w, _factor=lambda m, g: next(iter(sys_.morphisms_over(m.src, g, w.etype)))
        )
    w = pushforward(sys_, p, f)
    return dataclasses.replace(
        w, _factor=lambda m, g: list(sys_.morphisms_over(w.etype, g, m.dst))[-1]
    )


def test_a_broken_presheaf_pullback_stops_partway_through_a_factor():
    sys_ = load_signature(data_file("day_z2.json")).system
    f = list(sys_.expressions(*sys_.i_types() * 2))[0]
    reg = next(p for p in sys_.e_types_over(f.cod) if p.name == "Reg")
    rep = check_beta_eta(_broken(sys_, "pull", f, reg), mode="literal")
    # Reg and Fix are checked along F0, and the cap is passed within Fix, so
    # neither Pt nor the factor F1 is reached
    assert LawReport.failure_cap == 5
    assert rep.checked == 12
    assert rep.failures == [
        "beta-law fails at subject Reg, factor F0_Z2_Z2",
        "eta-law fails at subject Reg, factor F0_Z2_Z2",
        "beta-law fails at subject Fix, factor F0_Z2_Z2",
        "beta-law fails at subject Fix, factor F0_Z2_Z2",
        "beta-law fails at subject Fix, factor F0_Z2_Z2",
        "eta-law fails at subject Fix, factor F0_Z2_Z2",
        "eta-law fails at subject Fix, factor F0_Z2_Z2",
        "eta-law fails at subject Fix, factor F0_Z2_Z2",
    ]


def test_a_broken_presheaf_pushforward_stops_partway_through_a_factor():
    sys_ = load_signature(data_file("presheaf_arrow.json")).system
    f = list(sys_.expressions(*sys_.i_types() * 2))[1]
    p = next(q for q in sys_.e_types_over(f.dom) if q.name == "P")
    rep = check_beta_eta(_broken(sys_, "push", f, p), mode="literal")
    # along F1 the target P passes the cap, so the target Q and F2 are not reached
    assert rep.checked == 14
    assert rep.failures == [
        "beta-law fails at target P, factor F0_C_C",
        "eta-law fails at target P, factor F0_C_C",
        "beta-law fails at target P, factor F1_C_C",
        "beta-law fails at target P, factor F1_C_C",
        "beta-law fails at target P, factor F1_C_C",
        "eta-law fails at target P, factor F1_C_C",
        "eta-law fails at target P, factor F1_C_C",
        "eta-law fails at target P, factor F1_C_C",
    ]
