"""The one backtracking search, against product-and-filter.

`solutions` must yield exactly the filtered ``itertools.product``, in the
same order.  Every enumerator built on it (functors, natural
transformations, their nested-tuple encodings, functor categories and
M-sets) is compared with a product-and-filter reference kept in this file,
on seeded random small categories and presheaves, down to the order of the
results and every generated name.
"""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from conftest import data_file
from refsys.fincat import (
    FinCategory,
    FinFunction,
    FinFunctor,
    FinSet,
    all_functions,
    canon_key,
    check_functor,
    enumerate_functors,
    monoid_category,
    solutions,
)
from refsys.kernel import ValidationError
from refsys.presheaf_model import (
    FinPresheaf,
    build_presheaf_system,
    check_presheaf,
    enumerate_monoid_presheaves,
)
from refsys.signature import load_signature


# --- solutions -----------------------------------------------------------------------

def filtered_product(domains, constraints) -> list:
    return [
        t for t in itertools.product(*domains)
        if all(holds(*[t[j] for j in vs]) for vs, holds in constraints)
    ]


def linear_test(salt: int, mod: int):
    return lambda *xs: (salt + sum((i + 1) * x for i, x in enumerate(xs))) % mod != 0


@st.composite
def problems(draw):
    n = draw(st.integers(0, 4), label="variables")
    domains = [draw(st.lists(st.integers(0, 3), max_size=3), label=f"domain {i}")
               for i in range(n)]
    constraints = []
    for _ in range(draw(st.integers(0, 5), label="constraints")):
        # empty, repeated, first-only and last-only variable lists all occur
        vs = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3 if n else 0),
                  label="variables of a constraint")
        holds = linear_test(draw(st.integers(0, 5)), draw(st.integers(2, 3)))
        constraints.append((vs, holds))
    return domains, constraints


@given(problems())
def test_solutions_is_the_filtered_product_in_order(problem):
    domains, constraints = problem
    assert list(solutions(domains, constraints)) == filtered_product(domains, constraints)


def test_solutions_edge_cases():
    never, always = (lambda *xs: False), (lambda *xs: True)
    assert list(solutions([], [])) == [()]
    assert list(solutions([], [((), never)])) == []
    assert list(solutions([[1, 2], []], [])) == []
    assert list(solutions([[1, 2], [3]], [((), always)])) == [(1, 3), (2, 3)]
    first = ((0,), lambda x: x != 1)
    last = ((2,), lambda z: z == "b")
    twice = ((1, 1), lambda y, y2: y == y2)
    domains = [[0, 1, 2], [5, 6], ["a", "b"]]
    want = [(0, 5, "b"), (0, 6, "b"), (2, 5, "b"), (2, 6, "b")]
    assert list(solutions(domains, [first, last, twice])) == want


def test_a_failing_prefix_is_never_extended():
    seen = []

    def late(y):
        seen.append(y)
        return True

    assert list(solutions([[0, 1], [7, 8]], [((0,), lambda x: x == 1), ((1,), late)])) == [
        (1, 7), (1, 8)]
    assert seen == [7, 8]


# --- product-and-filter references ---------------------------------------------------

def ref_functors(dom: FinCategory, cod: FinCategory) -> list:
    out = []
    names = dom.arrow_names()
    for obj_choice in itertools.product(cod.objects, repeat=len(dom.objects)):
        object_map = dict(zip(dom.objects, obj_choice))
        homs = [cod.hom(object_map[dom.src(a)], object_map[dom.dst(a)]) for a in names]
        for arrow_choice in itertools.product(*homs):
            cand = FinFunctor("F", dom, cod, object_map, dict(zip(names, arrow_choice)))
            try:
                check_functor(cand)
            except ValidationError:
                continue
            cand.name = f"F{len(out)}_{dom.name}_{cod.name}"
            out.append(cand)
    return out


def ref_natural_components(s: FinPresheaf, f: FinFunctor, t: FinPresheaf) -> list:
    objs = s.cat.objects
    spaces = [list(all_functions(s.ob[a], t.ob[f.ob(a)], name_prefix="c")) for a in objs]
    out = []
    for choice in itertools.product(*spaces):
        comp = dict(zip(objs, choice))
        if all(comp[a].then(t.ar[f.ar(u)]) == s.ar[u].then(comp[a2])
               for u, (a, a2) in s.cat.arrows.items()):
            out.append(choice)
    return out


def ref_nat_set(s: FinPresheaf, u: FinPresheaf, f: FinFunctor) -> tuple:
    objs = s.cat.objects
    spaces = [tuple(itertools.product(u.ob[f.ob(a)].elements, repeat=len(s.ob[a])))
              for a in objs]
    out = []
    for choice in itertools.product(*spaces):
        tables = {a: dict(zip(s.ob[a].elements, choice[i])) for i, a in enumerate(objs)}
        if all(u.ar[f.ar(w)](tables[a][x]) == tables[a2][s.ar[w](x)]
               for w, (a, a2) in s.cat.arrows.items() for x in s.ob[a].elements):
            out.append(choice)
    return tuple(sorted(out, key=canon_key))


def ref_fcat_arrows(a: FinCategory, c: FinCategory, functors) -> list:
    """The arrows of the functor category [a, c], named and ordered."""
    out = []
    for f in functors:
        for g in functors:
            homs = [c.hom(f.ob(o), g.ob(o)) for o in a.objects]
            idx = 0
            for choice in itertools.product(*homs):
                comp = dict(zip(a.objects, choice))
                if all(c.compose(f.ar(u), comp[o2]) == c.compose(comp[o1], g.ar(u))
                       for u, (o1, o2) in a.arrows.items()):
                    out.append((f"n{idx}[{f.name}>{g.name}]", (f.name, g.name)))
                    idx += 1
    return out


def ref_monoid_presheaves(m: FinCategory, max_elems: int, prefix: str = "X") -> list:
    star = m.objects[0]
    unit = m.identities[star]
    names = m.arrow_names()
    gens = tuple(a for a in names if a != unit)
    out = []
    low = prefix.lower()
    for n in range(1, max_elems + 1):
        elems = tuple(f"{low}{i}" for i in range(n))
        for tables in itertools.product(itertools.product(elems, repeat=n), repeat=len(gens)):
            act = {unit: {e: e for e in elems}}
            act.update((g, dict(zip(elems, tbl))) for g, tbl in zip(gens, tables))
            if all(act[m.compose(u, v)][e] == act[v][act[u][e]]
                   for u in names for v in names for e in elems):
                name = f"{prefix}{len(out)}"
                out.append((name, {u: tuple(act[u].values()) for u in names}))
    return out


# --- random small categories and presheaves ------------------------------------------

def transformation_category(rng: random.Random, name: str, objects: int,
                            max_size: int, max_arrows: int) -> FinCategory:
    """The category generated by a few random functions between small sets.

    Each object is a set of 1..max_size points, and the arrows are all the
    composites of the generators and identities, so the composition is
    associative by construction.
    """
    while True:
        sizes = [rng.randint(1, max_size) for _ in range(objects)]
        arrows = {(o, o, tuple(range(sizes[o]))) for o in range(objects)}
        for _ in range(rng.randint(0, 2)):
            s, d = rng.randrange(objects), rng.randrange(objects)
            arrows.add((s, d, tuple(rng.randrange(sizes[d]) for _ in range(sizes[s]))))
        grown = True
        while grown and len(arrows) <= max_arrows:
            composites = {(s1, d2, tuple(t2[i] for i in t1))
                          for s1, d1, t1 in arrows for s2, d2, t2 in arrows if d1 == s2}
            grown = not composites <= arrows
            arrows |= composites
        if len(arrows) <= max_arrows:
            break
    keys = sorted(arrows)
    label = {k: f"a{i}" for i, k in enumerate(keys)}
    objs = tuple(f"o{i}" for i in range(objects))
    return FinCategory(
        name, objs,
        {label[k]: (objs[k[0]], objs[k[1]]) for k in keys},
        {(label[k1], label[k2]): label[(k1[0], k2[1], tuple(k2[2][i] for i in k1[2]))]
         for k1 in keys for k2 in keys if k1[1] == k2[0]},
        {objs[o]: label[(o, o, tuple(range(sizes[o])))] for o in range(objects)},
    )


def random_presheaf(rng: random.Random, cat: FinCategory, name: str) -> FinPresheaf:
    """A presheaf with 0..2 elements per object, drawn from all of them."""
    idents = set(cat.identities.values())
    free = [u for u in cat.arrow_names() if u not in idents]
    while True:
        ob = {o: FinSet(f"{name}({o})", tuple(range(rng.randint(0, 2)))) for o in cat.objects}
        found = []
        for tables in itertools.product(*[all_functions(ob[cat.src(u)], ob[cat.dst(u)])
                                          for u in free]):
            ar = {u: FinFunction.identity(ob[o]) for o, u in cat.identities.items()}
            ar.update(zip(free, tables))
            candidate = FinPresheaf(name, cat, ob, ar)
            try:
                check_presheaf(candidate)
            except ValidationError:
                continue
            found.append(candidate)
        if found:
            return rng.choice(found)


def functor_rows(functors) -> list:
    return [(f.name, f.object_map, f.arrow_map) for f in functors]


@pytest.mark.parametrize("seed", range(30))
def test_enumerators_match_product_and_filter(seed):
    rng = random.Random(seed)
    cats = (transformation_category(rng, "A", rng.randint(1, 2), 2, 5),
            transformation_category(rng, "B", rng.randint(1, 2), 2, 5))
    ps = [random_presheaf(rng, rng.choice(cats), f"P{i}") for i in range(3)]
    sys_ = build_presheaf_system(cats, ps)
    for a, c in itertools.product(cats, cats):
        functors = enumerate_functors(a, c)
        assert functor_rows(functors) == functor_rows(ref_functors(a, c))
        fcat = sys_.functor_category(a, c)
        assert fcat.objects == tuple(f.name for f in functors)
        assert list(fcat.arrows.items()) == ref_fcat_arrows(a, c, functors)
    for s, t in itertools.product(ps, ps):
        for f in sys_.expressions(s.cat, t.cat):
            got = [tuple(m.components.values()) for m in sys_.morphisms_over(s, f, t)]
            want = ref_natural_components(s, f, t)
            assert [[(c.name, c.idx) for c in cs] for cs in got] == \
                [[(c.name, c.idx) for c in cs] for cs in want]
            assert sys_._nat_set(s, t, f) == ref_nat_set(s, t, f)
    m = transformation_category(rng, f"M{seed}", 1, 3, 6)
    presheaves = enumerate_monoid_presheaves(m, 2, prefix="Y")
    assert [(p.name, {u: tuple(fu.mapping.values()) for u, fu in p.ar.items()}) for p in presheaves] == \
        ref_monoid_presheaves(m, 2, prefix="Y")


def test_enumerators_match_on_the_bundled_categories():
    cats = [c for name in ("presheaf_arrow.json", "day_z2.json", "day_z3.json")
            for c in load_signature(data_file(name)).categories.values()]
    for a, c in itertools.product(cats, cats):
        assert functor_rows(enumerate_functors(a, c)) == functor_rows(ref_functors(a, c))
    z3 = monoid_category("Z3", (0, 1, 2), {(x, y): (x + y) % 3 for x in range(3)
                                           for y in range(3)}, 0)
    got = [(p.name, {u: tuple(fu.mapping.values()) for u, fu in p.ar.items()})
           for p in enumerate_monoid_presheaves(z3, 3)]
    assert got == ref_monoid_presheaves(z3, 3)


# --- wider presheaves: 3-4 elements, involutions, chains, empty values ---------------

def chain_category(n: int) -> FinCategory:
    """o0 -> o1 -> ... -> o(n-1): one arrow i<=j from oi to oj for every i <= j."""
    objs = tuple(f"o{i}" for i in range(n))
    arrows = {f"{i}<={j}": (objs[i], objs[j]) for i in range(n) for j in range(i, n)}
    comp = {(f"{i}<={j}", f"{j}<={k}"): f"{i}<={k}"
            for i in range(n) for j in range(i, n) for k in range(j, n)}
    return FinCategory(f"Ch{n}", objs, arrows, comp, {objs[i]: f"{i}<={i}" for i in range(n)})


def chain_presheaf(rng: random.Random, cat: FinCategory, name: str, sizes) -> FinPresheaf:
    """Values of the given sizes (empty ones only before the first non-empty one),
    each step a random function and every other arrow the composite of its steps."""
    ob = {o: FinSet(f"{name}({o})", tuple(range(k))) for o, k in zip(cat.objects, sizes)}
    steps = [tuple(rng.randrange(sizes[i + 1]) for _ in range(sizes[i]))
             for i in range(len(sizes) - 1)]
    ar = {}
    for u, (a, b) in cat.arrows.items():
        i, j = cat.objects.index(a), cat.objects.index(b)
        idx = tuple(range(sizes[i]))
        for step in steps[i:j]:
            idx = tuple(step[x] for x in idx)
        ar[u] = FinFunction._from_idx(f"{name}[{u}]", ob[a], ob[b], idx)
    return FinPresheaf(name, cat, ob, ar)


def involution_presheaf(rng: random.Random, cat: FinCategory, name: str, n: int) -> FinPresheaf:
    """n points with a random involution as the action of the generator of Z2."""
    points = list(range(n))
    rng.shuffle(points)
    swap = list(range(n))
    while len(points) > 1 and rng.random() < 0.7:
        x, y = points.pop(), points.pop()
        swap[x], swap[y] = y, x
    value = FinSet(f"{name}(*)", tuple(range(n)))
    return FinPresheaf(name, cat, {"*": value}, {
        "e": FinFunction.identity(value),
        "s": FinFunction._from_idx(f"{name}[s]", value, value, tuple(swap)),
    })


def _wide_bases(rng: random.Random):
    z2 = monoid_category("Z2", ("e", "s"), {("e", "e"): "e", ("e", "s"): "s",
                                            ("s", "e"): "s", ("s", "s"): "e"}, "e")
    yield z2, [involution_presheaf(rng, z2, f"I{i}", n) for i, n in enumerate((0, 3, 4, 4))]
    ch2, ch3 = chain_category(2), chain_category(3)
    yield ch2, [chain_presheaf(rng, ch2, f"K{i}", sizes)
                for i, sizes in enumerate(((3, 2), (2, 3), (0, 4), (4, 1)))]
    yield ch3, [chain_presheaf(rng, ch3, f"L{i}", sizes)
                for i, sizes in enumerate(((3, 2, 2), (0, 3, 2), (2, 1, 1), (0, 0, 3)))]


@pytest.mark.parametrize("seed", range(3))
def test_natural_components_match_the_reference_on_wider_presheaves(seed):
    rng = random.Random(seed)
    for cat, ps in _wide_bases(rng):
        for p in ps:
            check_presheaf(p)
        sys_ = build_presheaf_system((cat,), ps)
        for s, t in itertools.product(ps, ps):
            for f in sys_.expressions(cat, cat):
                got = [tuple(m.components.values()) for m in sys_.morphisms_over(s, f, t)]
                want = ref_natural_components(s, f, t)
                assert [[(c.name, c.idx) for c in cs] for cs in got] == \
                    [[(c.name, c.idx) for c in cs] for cs in want]
                assert sys_._nat_set(s, t, f) == ref_nat_set(s, t, f)
