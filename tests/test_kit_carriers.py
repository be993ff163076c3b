"""The kit's computed carriers against materialised ones, and refusals that build nothing.

A product or function space of :class:`refsys.cartesian.CartesianKit` keeps
its factors and computes its length, hash, equality and membership from
them.  Here every such carrier is compared with the plain ``FinSet`` built
from an independent materialisation, a refusal is shown to happen before
any large carrier is built, and a pickled carrier is shown to load unbuilt
and to hash as a fresh one in another process.
"""
from __future__ import annotations

import itertools
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import refsys
from refsys.cartesian import CartesianKit, power_exceeds
from refsys.fincat import FinSet
from refsys.kernel import CapabilityError
from refsys.monadrep import (
    build_continuation_adjunction,
    check_retraction,
    search_encodings,
)
from refsys.subset_model import build_subset_system, subset

OUTSIDE = "outside"

# names that collide once combined: (Ax x B) and (A x xB) are both "(AxxB)"
_bases = st.builds(
    lambda name, elems: (name, tuple(elems)),
    st.sampled_from(("A", "B", "Ax", "xB")),
    st.lists(st.sampled_from((0, 1, 2, "a", "b")), max_size=3, unique=True),
)
_trees = st.recursive(
    _bases,
    lambda sub: st.tuples(st.sampled_from(("x", "->")), sub, sub),
    max_leaves=4,
)


def _reference(tree) -> FinSet:
    """The plain FinSet a tree denotes, materialised without the kit."""
    if tree[0] in ("x", "->"):
        op, left, right = tree
        a, b = _reference(left), _reference(right)
        if op == "x":
            return FinSet(f"({a.name}x{b.name})", tuple(itertools.product(a.elements, b.elements)))
        return FinSet(f"[{a.name}->{b.name}]",
                      tuple(itertools.product(b.elements, repeat=len(a))))
    return FinSet(*tree)


def _small(tree, cap: int = 300) -> bool:
    """Whether the carrier of tree and of each subtree has at most cap elements."""
    if tree[0] not in ("x", "->"):
        return len(tree[1]) <= cap
    op, left, right = tree
    if not (_small(left, cap) and _small(right, cap)):
        return False
    a, b = len(_reference(left)), len(_reference(right))
    return a * b <= cap if op == "x" else not power_exceeds(b, a, cap)


def _build(kit: CartesianKit, tree) -> FinSet:
    if tree[0] in ("x", "->"):
        op, left, right = tree
        a, b = _build(kit, left), _build(kit, right)
        return kit.product(a, b) if op == "x" else kit.function_space(a, b)
    return FinSet(*tree)


def _kit_carriers(s: FinSet):
    """s and every kit carrier it is built from."""
    factors = getattr(s, "factors", None)
    if factors is not None:
        yield s
        for f in factors:
            yield from _kit_carriers(f)


def _near_misses(s: FinSet, members) -> list:
    """Values just outside s: wrong arity, a component outside, a non-tuple."""
    out = [0, "a", OUTSIDE, ()]
    for x in members[:3]:
        if isinstance(x, tuple):
            out += [x + (x[0] if x else 0,), x[:-1]]
            out += [x[:i] + (OUTSIDE,) + x[i + 1:] for i in range(len(x))]
    return out


_kit_trees = _trees.filter(lambda t: t[0] in ("x", "->") and _small(t))


@settings(max_examples=150, deadline=None)
@given(_kit_trees)
def test_kit_carrier_matches_its_materialised_build(tree):
    k = _build(CartesianKit(), tree)
    plain = _reference(tree)
    # name, length, hash and membership are computed without building an element
    assert k.name == plain.name
    assert len(k) == len(plain)
    assert hash(k) == hash(plain)
    for x in plain.elements:
        assert x in k
    for x in _near_misses(plain, plain.elements):
        assert (x in k) == (x in plain), x
    assert all("elements" not in vars(c) for c in _kit_carriers(k))
    # equality with a plain set reads the elements; then their order and positions
    assert k == plain and plain == k
    assert not (k != plain) and not (plain != k)
    assert k.elements == plain.elements
    assert list(k) == list(plain)
    assert [k.index(x) for x in plain.elements] == list(range(len(plain)))
    assert repr(k) == repr(plain)


_COLLIDING = (("x", ("Ax", (1,)), ("B", (2,))), ("x", ("A", (1,)), ("xB", (2,))))


@settings(max_examples=150, deadline=None)
@given(_kit_trees, _kit_trees)
@example(*_COLLIDING)
@example(*(("->", t, ("A", (0, 1))) for t in _COLLIDING))
def test_kit_carrier_equality_matches_materialised_equality(t1, t2):
    kit = CartesianKit()
    k1, k2 = _build(kit, t1), _build(CartesianKit(), t2)
    p1, p2 = _reference(t1), _reference(t2)
    same = p1 == p2
    assert (k1 == k2) == same and (k2 == k1) == same
    assert (k1 == p2) == same and (p2 == k1) == same
    if same:
        assert hash(k1) == hash(k2) == hash(p2)
    # the same tree in another kit is an equal carrier
    assert _build(CartesianKit(), t1) == k1


@pytest.mark.parametrize("kind", ["product", "function_space"])
def test_the_guard_builds_at_the_bound_and_refuses_one_below(kind):
    a, c = FinSet("A", (1, 2, 3)), FinSet("C", ("p", "q"))
    size, what = ((6, "product (AxC)") if kind == "product"
                  else (8, "function space [A->C]"))
    built = getattr(CartesianKit(max_carrier=size), kind)(a, c)
    assert len(built) == size
    with pytest.raises(CapabilityError) as exc:
        getattr(CartesianKit(max_carrier=size - 1), kind)(a, c)
    assert str(exc.value) == (
        f"{what} would have {size} elements, exceeding the bound {size - 1}")


def test_kit_carriers_are_distinct_objects_with_one_construction_each():
    kit = CartesianKit()
    a = FinSet("A", (1, 2))
    assert kit.product(a, a) is kit.product(a, a)
    assert kit.function_space(a, a) is kit.function_space(a, a)
    assert kit.factors(kit.product(a, a)) == (a, a)
    with pytest.raises(CapabilityError, match="is not a constructed product"):
        kit.factors(kit.function_space(a, a))


# --- refusals cost no memory -------------------------------------------------------------

def _peak(fn):
    """(peak bytes traced, the CapabilityError fn raised)."""
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError) as exc:
            fn()
        return tracemalloc.get_traced_memory()[1], str(exc.value)
    finally:
        tracemalloc.stop()


def _continuation(nb: int, nc: int, u_elems):
    bset = FinSet("B", tuple(f"b{i}" for i in range(nb)))
    cset = FinSet("C", tuple(range(nc)))
    sys_ = build_subset_system((bset, cset), name=f"cont{nb}{nc}")
    u = subset(cset, u_elems)
    return sys_, bset, u, build_continuation_adjunction(sys_, u)


def test_a_refused_retraction_check_builds_nothing_large():
    sys_, bset, u, adj = _continuation(1, 2, (0,))
    t = sys_.e_types_over(bset)[0]
    f = search_encodings(adj, t, u)[0]
    peak, msg = _peak(lambda: check_retraction(adj, t, u, f))
    assert msg == ("product ([([B->[C->C]]xB)->C]x[[([B->[C->C]]xB)->C]->C]) "
                   "would have 1048576 elements, exceeding the bound 200000")
    assert peak < 1_000_000


def test_a_refused_encoding_search_builds_nothing_large():
    sys_, bset, u, adj = _continuation(2, 3, (0,))
    t = sys_.e_types_over(bset)[0]
    peak, msg = _peak(lambda: search_encodings(adj, t, u))
    assert msg == "encoding search exceeds 200000 candidate expressions"
    assert peak < 1_000_000


@pytest.mark.parametrize("limit", [-1, 0, 1, 2, 3, 15, 16, 17, 81, 1000, 200_000,
                                   4 ** 12 - 1, 4 ** 12])
def test_the_early_exit_bound_agrees_with_the_power(limit):
    for base, exp in itertools.product(range(5), range(13)):
        assert power_exceeds(base, exp, limit) == (base ** exp > limit), (base, exp)


_PICKLED = """
from refsys.cartesian import CartesianKit
from refsys.fincat import FinFunction, FinSet
from refsys.subset_model import Subset
a, b = FinSet("A", (1, 2)), FinSet("B", ("x", "y", "z"))
kit = CartesianKit()
values = {
    "FinSet": a,
    "ProductSet": kit.product(a, b),
    "FunctionSpace": kit.function_space(a, b),
    "Subset": Subset(b, ("x", "z")),
    "FinFunction": FinFunction("f", b, a, {"x": 1, "y": 2, "z": 2}),
}
"""


def test_pickled_carriers_hash_as_fresh_ones_in_another_process():
    # a carrier's hash is of its name, a string, whose hash differs in each
    # process, so a pickle must not carry the hash (or positions) it had
    make = _PICKLED + """
import pickle, sys
for v in values.values():
    hash(v)
    getattr(v, "positions", lambda: None)()
sys.stdout.write(pickle.dumps(values).hex())
"""
    load = _PICKLED + """
import pickle, sys
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
for name, fresh in values.items():
    got = loaded[name]
    print(name, got == fresh, hash(got) == hash(fresh), {fresh: 1}.get(got),
          "elements" in vars(got) if hasattr(got, "factors") else "-",
          {fresh.dom: 1}.get(got.dom) if name == "FinFunction" else "-")
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(refsys.__file__)))
    made = subprocess.run([sys.executable, "-c", make], capture_output=True, text=True,
                          env=dict(env, PYTHONHASHSEED="1"), timeout=120)
    assert made.returncode == 0, made.stderr
    loaded = subprocess.run([sys.executable, "-c", load], input=made.stdout,
                            capture_output=True, text=True,
                            env=dict(env, PYTHONHASHSEED="2"), timeout=120)
    assert loaded.returncode == 0, loaded.stderr
    # equal, hashed alike, found in a dict; a kit carrier loads unbuilt
    assert loaded.stdout.splitlines() == [
        "FinSet True True 1 - -",
        "ProductSet True True 1 False -",
        "FunctionSpace True True 1 False -",
        "Subset True True 1 - -",
        "FinFunction True True 1 - 1",
    ]
