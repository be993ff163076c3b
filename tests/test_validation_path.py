"""Constructors store; the check functions validate what the library builds.

``FinCategory``, ``FinPresheaf`` and ``FinFunctor`` never check their
tables, and the library checks only what a signature file gives it.  Every
category, presheaf and functor it builds itself (product and functor
categories, pullbacks, Kan extensions, tensor and residual presheaves,
composites, curried and coherence functors) must therefore be lawful by
construction.  This test records each one built while ``laws <sig> all``
runs, and while the residual beta/eta laws run on one pair of types per side
(the law suites build no residual), and passes it through
``check_category``, ``check_presheaf`` or ``check_functor``.
"""
from __future__ import annotations

import contextlib
import io

import pytest

from conftest import data_file
from refsys.cli import main
from refsys.fincat import FinCategory, FinFunctor, check_category, check_functor
from refsys.monoidal import check_residual_laws, residual
from refsys.presheaf_model import FinPresheaf, check_presheaf
from refsys.signature import load_signature


def _family(cls: type):
    """cls and every subclass of it, at any depth."""
    yield cls
    for sub in cls.__subclasses__():
        yield from _family(sub)


@pytest.fixture
def built(monkeypatch) -> dict:
    """Every instance of the three classes, or of a subclass, constructed
    while the test runs, keyed by its id.

    A subclass that computes some tables from its parts (product categories,
    tensor presheaves) is built without the base ``__init__``, so each
    ``__init__`` in the family is recorded, and an instance whose
    ``__init__`` calls another is kept once.
    """
    seen: dict = {FinCategory: {}, FinPresheaf: {}, FinFunctor: {}}
    for base, out in seen.items():
        for cls in _family(base):
            if "__init__" not in vars(cls):
                continue

            def record(self, *args, init=cls.__init__, out=out, **kwargs):
                init(self, *args, **kwargs)
                out[id(self)] = self

            monkeypatch.setattr(cls, "__init__", record)
    return seen


@pytest.mark.parametrize("name", ("day_z2.json", "presheaf_arrow.json"))
def test_every_structure_the_law_suites_build_passes_its_check(name, built):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["laws", data_file(name), "all"]) == 0
    sys = load_signature(data_file(name)).system
    s, u = sys.e_types()[:2]
    for w in (residual(sys, "left", s, u), residual(sys, "right", u, s)):
        assert check_residual_laws(w, (s, u), expr_cap=2).ok
    # a tensor presheaf and its product category, which compute some of
    # their tables, are recorded too
    st = sys.tensor_etype(s, u)
    assert id(st) in built[FinPresheaf] and id(st.cat) in built[FinCategory]
    cats, presheaves, functors = (list(built[c].values())
                                  for c in (FinCategory, FinPresheaf, FinFunctor))
    # product and functor categories, tensor and residual presheaves, and
    # composite functors are all among them
    assert any(isinstance(o, tuple) for c in cats for o in c.objects)
    assert any(c.name.startswith("[") for c in cats)
    assert any(p.name.startswith("negL[") for p in presheaves)
    assert any(p.name.startswith("negR[") for p in presheaves)
    assert len(functors) > len(cats)
    for c in cats:
        check_category(c)
    for p in presheaves:
        check_presheaf(p)
    for f in functors:
        check_functor(f)
