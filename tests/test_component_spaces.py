"""The component spaces of the presheaf search: shared while small, and bounded.

``natural_components`` gives the component at each object of S's base the
space of every index table from S(a) into T(fa).  The space of a pair of
sizes is built once and shared by every later search while it has at most
``_SHARED_SPACE_TABLES`` tables, and a space of more tables than the
system's ``max_values`` is refused before it is built, so a judgment is
decided exactly or refused with the bound it would exceed.
"""
from __future__ import annotations

import itertools
import json

import pytest

from refsys import presheaf_model
from refsys.cli import main
from refsys.fincat import FinCategory, FinFunction, FinSet, terminal_category
from refsys.kernel import CapabilityError, Status, classify
from refsys.presheaf_model import FinPresheaf, build_presheaf_system, constant_presheaf


def _constant_judgment(m: int, n: int, **bounds):
    """S =[Id]=> T over the terminal category, S of m elements and T of n."""
    cat = terminal_category()
    s = constant_presheaf(f"S{m}", cat, FinSet(f"V{m}", tuple(range(m))))
    t = constant_presheaf(f"T{n}", cat, FinSet(f"W{n}", tuple(range(n))))
    sys_ = build_presheaf_system((cat,), (s, t), **bounds)
    return sys_, s, sys_.id_expr(cat), t


def _assert_memo_small():
    assert all(len(space) <= presheaf_model._SHARED_SPACE_TABLES
               for space in presheaf_model._spaces.values())


def test_a_space_past_max_values_is_refused_before_it_is_built():
    # 3^12 = 531,441 tables, past the default bound of 200,000; the first is a solution
    sys_, s, f, t = _constant_judgment(12, 3)
    text = (r"component space of S12 =\[Id_1\]=> T3 at \* would have 531441 elements, "
            r"exceeding the bound 200000")
    for decide in (lambda: classify(sys_, s, f, t), lambda: next(sys_.morphisms_over(s, f, t))):
        for _ in range(2):
            with pytest.raises(CapabilityError, match=text):
                decide()
    assert (12, 3) not in presheaf_model._spaces


def _discrete_judgment(s_sizes: tuple, t_sizes: tuple):
    """S =[Id]=> T over the discrete category on x and y, with the given
    numbers of elements at x and at y."""
    d = FinCategory("D", ("x", "y"), {"ix": ("x", "x"), "iy": ("y", "y")},
                    {("ix", "ix"): "ix", ("iy", "iy"): "iy"}, {"x": "ix", "y": "iy"})

    def presheaf(name, sizes):
        vx, vy = (FinSet(f"{name}{o}", tuple(range(k))) for o, k in zip("xy", sizes))
        return FinPresheaf(name, d, {"x": vx, "y": vy},
                           {"ix": FinFunction.identity(vx), "iy": FinFunction.identity(vy)})

    s, t = presheaf("S", s_sizes), presheaf("T", t_sizes)
    sys_ = build_presheaf_system((d,), (s, t))
    return sys_, s, sys_.id_expr(d), t


@pytest.mark.parametrize("big, empty", (("x", "y"), ("y", "x")))
def test_an_empty_space_elsewhere_decides_a_space_past_max_values(big, empty):
    # 3^12 tables at the big object, past the bound, but no table at all
    # from one element into none at the other: there is no transformation
    s_sizes, t_sizes = ((12, 1), (3, 0)) if big == "x" else ((1, 12), (0, 3))
    sys_, s, f, t = _discrete_judgment(s_sizes, t_sizes)
    assert classify(sys_, s, f, t) is Status.UNDERIVABLE
    assert list(sys_.morphisms_over(s, f, t)) == []
    # with an element at the other object the big space is refused as before
    s_sizes, t_sizes = ((12, 1), (3, 1)) if big == "x" else ((1, 12), (1, 3))
    sys_, s, f, t = _discrete_judgment(s_sizes, t_sizes)
    text = (rf"^component space of S =\[Id_D\]=> T at {big} would have 531441 elements, "
            r"exceeding the bound 200000$")
    for decide in (lambda: classify(sys_, s, f, t), lambda: next(sys_.morphisms_over(s, f, t))):
        with pytest.raises(CapabilityError, match=text):
            decide()


def test_a_space_within_max_values_is_searched_and_not_kept():
    # 3^11 = 177,147 tables: within the bound, so decided, but past the shared cap
    sys_, s, f, t = _constant_judgment(11, 3)
    assert classify(sys_, s, f, t) is Status.DERIVABLE
    assert (11, 3) not in presheaf_model._spaces
    _assert_memo_small()


def test_a_shared_space_past_a_smaller_bound_is_refused():
    # the 4 tables from 2 elements into 2 are shared by the first decision,
    # and a system bounded at 3 refuses them all the same
    sys_, s, f, t = _constant_judgment(2, 2)
    assert classify(sys_, s, f, t) is Status.DERIVABLE
    assert (2, 2) in presheaf_model._spaces
    small, s, f, t = _constant_judgment(2, 2, max_values=3)
    with pytest.raises(CapabilityError, match="would have 4 elements, exceeding the bound 3"):
        classify(small, s, f, t)


def test_two_decisions_of_the_same_sizes_share_one_space(monkeypatch):
    seen = []
    search = presheaf_model.solutions

    def recording(domains, constraints):
        seen.append(domains)
        return search(domains, constraints)

    monkeypatch.setattr(presheaf_model, "solutions", recording)
    for _ in range(2):
        sys_, s, f, t = _constant_judgment(3, 2)
        assert classify(sys_, s, f, t) is Status.DERIVABLE
    (first,), (second,) = seen
    assert first is second
    assert first == tuple(itertools.product(range(2), repeat=3))
    _assert_memo_small()


def test_the_command_line_refuses_a_space_past_max_values(tmp_path, capsys):
    doc = {
        "model": "presheaf",
        "categories": {"C": {"objects": ["x"], "arrows": {}}},
        "presheaves": {
            "Big": {"cat": "C", "at": {"x": list(range(12))}, "action": {}},
            "Small": {"cat": "C", "at": {"x": list(range(3))}, "action": {}},
        },
    }
    path = tmp_path / "spaces.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "Big <= Small"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "would have 531441 elements, exceeding the bound 200000" in captured.err
    assert main(["check", str(path), "Small <= Small"]) == 0
