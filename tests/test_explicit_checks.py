"""Validation never depends on `assert`, which `python -O` strips.

The models and the structure witnesses raise their errors explicitly, so
both interpreters refuse the same bad inputs with the same message; an AST
check keeps `assert` statements out of the library.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys

from conftest import DATA

SRC = DATA.parent

# modules allowed to keep `assert` statements; none is left
ASSERT_ALLOWED: set = set()

BAD_INPUTS = """
from refsys.fincat import FinCategory, FinFunction, FinSet, terminal_category
from refsys.kernel import RefinementError, check_vertical_iso
from refsys.presheaf_model import (
    PresheafSystem, constant_presheaf, enumerate_monoid_presheaves, multiplication_functor,
)
from refsys.subset_model import build_subset_system, full_subset
from refsys.trivial_model import TrivialSystem

a, b = FinSet("A", (1, 2)), FinSet("B", ("x",))
sys_ = build_subset_system((a, b))
f = FinFunction("f", a, b, {1: "x", 2: "x"})
sa, sb = full_subset(a), full_subset(b)
one = terminal_category()
arrow = FinCategory("2", ("x", "y"), {"ix": ("x", "x"), "iy": ("y", "y"), "u": ("x", "y")},
                    {("ix", "ix"): "ix", ("iy", "iy"): "iy", ("ix", "u"): "u",
                     ("u", "iy"): "u"}, {"x": "ix", "y": "iy"})
p, q = constant_presheaf("P", one, b), constant_presheaf("Q", arrow, b)
psys = PresheafSystem("psh", (one, arrow), (p, q))
collapse = next(psys.expressions(arrow, one))
triv = TrivialSystem("triv", (a, b))
cases = [
    lambda: build_subset_system((a, FinSet("A", (3,)))),
    lambda: sys_.pullback_data(f, sa),
    lambda: sys_.pushforward_data(sb, f),
    lambda: check_vertical_iso(triv, a, a, limit=3),
    lambda: PresheafSystem("psh", (one, terminal_category()), ()),
    lambda: PresheafSystem("psh", (one,), (q,)),
    lambda: psys.compose_interps(psys.id_interp(p), psys.id_interp(q)),
    lambda: psys.pullback_data(collapse, q),
    lambda: psys.pushforward_data(p, collapse),
    lambda: multiplication_functor(psys, arrow),
    lambda: enumerate_monoid_presheaves(arrow, 1),
    lambda: TrivialSystem("triv", (a, FinSet("A", (3,)))),
    lambda: triv.pullback_data("f", a),
    lambda: triv.pushforward_data(a, "f"),
    lambda: triv.tensor_itype("*", "A"),
    lambda: triv.tensor_expr("id", "f"),
    lambda: triv.curry_expr("left", "f"),
    lambda: triv.curry_expr("right", "f"),
]
for case in cases:
    try:
        case()
    except RefinementError as exc:
        print(f"{type(exc).__name__}: {exc}")
    else:
        print("accepted")
"""

EXPECTED = [
    "ValidationError: subset: duplicate set names",
    "MismatchError: pullback: expression must land in the carrier of the target",
    "MismatchError: pushforward: expression must start at the carrier of the subject",
    "CapabilityError: vertical iso search between A and A exceeds the bound of 3 pairs",
    "ValidationError: psh: duplicate category names",
    "ValidationError: presheaf 'Q' lives over an unregistered category",
    "MismatchError: pasting: boundaries do not match",
    "MismatchError: pullback: functor must land in the base of the target",
    "MismatchError: pushforward: functor must start at the base of the subject",
    "MismatchError: Day multiplication needs a one-object category",
    "MismatchError: M-set enumeration needs a one-object category",
    "ValidationError: triv: duplicate set names",
    "IllFormedError: unknown expression 'f': the only one is 'id'",
    "IllFormedError: unknown expression 'f': the only one is 'id'",
    "IllFormedError: unknown index type 'A': the only one is '*'",
    "IllFormedError: unknown expression 'f': the only one is 'id'",
    "IllFormedError: unknown expression 'f': the only one is 'id'",
    "IllFormedError: unknown expression 'f': the only one is 'id'",
]


def test_bad_inputs_are_refused_under_both_interpreters():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for flags in ((), ("-O",)):
        proc = subprocess.run([sys.executable, *flags, "-c", BAD_INPUTS],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == EXPECTED, flags


def test_no_assert_statements_in_the_library():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        name = str(path.relative_to(SRC))
        if lines and name not in ASSERT_ALLOWED:
            offenders.append(f"{name}: lines {lines}")
    assert offenders == []
    # the allow-list only names modules that still need it
    for name in ASSERT_ALLOWED:
        tree = ast.parse((SRC / name).read_text())
        assert any(isinstance(n, ast.Assert) for n in ast.walk(tree)), name

