"""Each refinement system builds its tensor structure once.

The tensor types, the unit, the coherence cells, and in the cartesian kit
the pairings and cells, are cached per system: asking again returns the
same object, which equals (name included) what a fresh system builds, and
a build refused for its size is not cached, so asking again refuses again.
"""
from __future__ import annotations

import pytest

from refsys.fincat import FinSet, terminal_category
from refsys.kernel import CapabilityError
from refsys.presheaf_model import build_presheaf_system, constant_presheaf
from refsys.signature import load_signature
from refsys.subset_model import build_subset_system, full_subset
from refsys.trivial_model import build_trivial_system

from conftest import data_file


def _subset_calls(sig) -> dict:
    sys, e, x = sig.system, sig.etypes, sig.exprs
    state = sig.sets["State"]
    return {
        "tensor_etype": lambda: sys.tensor_etype(e["low"], e["high"]),
        "unit_etype": sys.unit_etype,
        "coherence_cell": lambda: sys.coherence_cell("assoc", (e["init"], e["low"], e["all"])),
        "kit.pairing": lambda: sys.tensor_expr(x["inc"], x["swap"]),
        "kit.cell": lambda: sys.kit.cell("unit_l", (state,)),
    }


def _trivial_calls(sig) -> dict:
    sys = sig.system
    two = sig.etypes["two"]
    m, n = list(sys.morphisms_over(two, "id", two))[1:3]
    return {
        "tensor_etype": lambda: sys.tensor_etype(two, two),
        "unit_etype": sys.unit_etype,
        "coherence_cell": lambda: sys.coherence_cell("unit_r", (two,))[3],
        "kit.pairing": lambda: sys.tensor_interp(m, n),
        "kit.cell": lambda: sys.kit.cell("assoc", (two, two, two)),
    }


def _presheaf_calls(sig) -> dict:
    sys, e = sig.system, sig.etypes
    return {
        "tensor_etype": lambda: sys.tensor_etype(e["P"], e["Q"]),
        "unit_etype": sys.unit_etype,
        "coherence_cell": lambda: sys.coherence_cell("assoc", (e["P"], e["Q"], e["P"])),
        "coherence_cell unit": lambda: sys.coherence_cell("unit_l_inv", (e["Q"],)),
    }


CALLS = {"hoare4": _subset_calls, "trivial2": _trivial_calls,
         "presheaf_arrow": _presheaf_calls}


def _names(x):
    """The names a result shows; FinFunction equality leaves the name out."""
    if isinstance(x, tuple):
        return tuple(_names(v) for v in x)
    return getattr(x, "name", None)


@pytest.mark.parametrize("sig", CALLS)
def test_a_repeated_call_returns_the_same_object(sig):
    calls = CALLS[sig](load_signature(data_file(f"{sig}.json")))
    for what, call in calls.items():
        assert call() is call(), what


@pytest.mark.parametrize("sig", CALLS)
def test_a_cached_result_equals_a_fresh_one(sig):
    cached, fresh = (CALLS[sig](load_signature(data_file(f"{sig}.json"))) for _ in range(2))
    for what, call in cached.items():
        call()
        old, new = call(), fresh[what]()
        assert old is not new, what
        assert old == new, what
        assert _names(old) == _names(new), what


def _refused_subset():
    a = FinSet("A", (1, 2, 3))
    sys = build_subset_system((a,), max_carrier=8)
    s, f = full_subset(a), sys.id_expr(a)
    return [lambda: sys.tensor_etype(s, s), lambda: sys.tensor_expr(f, f),
            lambda: sys.coherence_cell("assoc", (s, s, s)),
            lambda: sys.kit.cell("assoc_inv", (a, a, a))]


def _refused_trivial():
    a = FinSet("A", (1, 2, 3))
    sys = build_trivial_system((a,), max_carrier=8)
    m = sys.id_interp(a)
    return [lambda: sys.tensor_etype(a, a), lambda: sys.tensor_interp(m, m),
            lambda: sys.coherence_cell("assoc", (a, a, a))]


def _refused_presheaf():
    cat = terminal_category("T")
    p = constant_presheaf("P", cat, FinSet("V", (1, 2, 3)))
    sys = build_presheaf_system((cat,), (p,), max_values=8)
    return [lambda: sys.tensor_etype(p, p),
            lambda: sys.coherence_cell("assoc", (p, p, p))]


@pytest.mark.parametrize("refused", [_refused_subset, _refused_trivial, _refused_presheaf])
def test_a_refused_tensor_is_refused_again(refused):
    for call in refused():
        for _ in range(2):
            with pytest.raises(CapabilityError, match="exceeding the bound 8"):
                call()
