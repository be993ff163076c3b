"""Finite sets, functions, categories, and functors with exhaustive law checking.

Everything here is a plain lookup table.  Elements and arrow names may be any
hashable values (strings, ints, nested tuples); a deterministic total order on
them is provided by :func:`canon_key` so that constructed carriers and reports
are byte-stable.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator

from .kernel import ValidationError


def canon_key(x: Any) -> tuple:
    """Deterministic sort key across the element kinds used in this package."""
    if isinstance(x, tuple):
        return (2, tuple(canon_key(v) for v in x))
    if isinstance(x, bool):
        return (0, int(x))
    if isinstance(x, int):
        return (0, x)
    return (1, str(x))


def render_elem(x: Any) -> str:
    """Compact deterministic rendering of an element for reports."""
    if isinstance(x, tuple):
        return "(" + ",".join(render_elem(v) for v in x) + ")"
    return str(x)


class FinSet:
    """A named finite set with a fixed canonical element order."""

    __slots__ = ("name", "elements", "_index", "_hash", "__dict__")

    def __init__(self, name: str, elements: tuple):
        elements = tuple(elements)
        assert len(set(elements)) == len(elements), f"duplicate elements in {name!r}"
        self.name = name
        self.elements = elements
        self._index = None
        self._hash = None

    def index(self, x: Any) -> int:
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elements)}
        return self._index[x]

    def __contains__(self, x: Any) -> bool:
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elements)}
        return x in self._index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinSet):
            return NotImplemented
        return self.name == other.name and self.elements == other.elements

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.name, len(self.elements)))
        return self._hash

    def __repr__(self):
        return f"FinSet({self.name!r}, {len(self.elements)} elements)"


class FinFunction:
    """A total function between finite sets, stored as a lookup table.

    Equality ignores the name: two functions are equal iff they have equal
    boundaries and equal tables.  That is what makes conversion-style
    reasoning ("these two composites are the same expression") decidable.
    """

    __slots__ = ("name", "dom", "cod", "mapping", "_hash")

    def __init__(self, name: str, dom: FinSet, cod: FinSet, mapping: dict):
        assert set(mapping) == set(dom.elements), f"{name!r}: table domain mismatch"
        for x, y in mapping.items():
            assert y in cod, f"{name!r}: value {y!r} at {x!r} not in codomain {cod.name!r}"
        self.name = name
        self.dom = dom
        self.cod = cod
        self.mapping = mapping
        self._hash = None

    def __call__(self, x: Any) -> Any:
        return self.mapping[x]

    def then(self, other: "FinFunction") -> "FinFunction":
        """Diagrammatic composite self;other."""
        assert self.cod == other.dom, (
            f"cannot compose {self.name!r} : ..->{self.cod.name!r} "
            f"with {other.name!r} : {other.dom.name!r}->.."
        )
        return FinFunction(
            f"{self.name};{other.name}",
            self.dom,
            other.cod,
            {x: other.mapping[y] for x, y in self.mapping.items()},
        )

    @staticmethod
    def identity(a: FinSet) -> "FinFunction":
        return FinFunction(f"id_{a.name}", a, a, {x: x for x in a.elements})

    def image(self, elems) -> frozenset:
        return frozenset(self.mapping[x] for x in elems)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinFunction):
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod and self.mapping == other.mapping

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dom.name, self.cod.name, len(self.mapping)))
        return self._hash

    def __repr__(self):
        return f"FinFunction({self.name!r}: {self.dom.name} -> {self.cod.name})"


def all_functions(dom: FinSet, cod: FinSet, name_prefix: str = "f") -> Iterator[FinFunction]:
    """Lazily enumerate every function dom -> cod in a deterministic order."""
    if len(dom) == 0:
        yield FinFunction(f"{name_prefix}0", dom, cod, {})
        return
    for i, values in enumerate(itertools.product(cod.elements, repeat=len(dom))):
        yield FinFunction(
            f"{name_prefix}{i}", dom, cod, dict(zip(dom.elements, values))
        )


class FinCategory:
    """A finite category given by explicit source/target/composition tables.

    Composition is diagrammatic: ``compose(a, b)`` is "a then b", defined when
    dst(a) == src(b).  Construction validates identities, closure, unit laws,
    and associativity exhaustively and raises ValidationError on the first
    failure (explicitly, so the check also runs under ``python -O``).
    """

    def __init__(self, name: str, objects: tuple, arrows: dict,
                 composition: dict, identities: dict):
        """arrows: name -> (src, dst); composition: (a, b) -> name; identities: obj -> name."""
        self.name = name
        self.objects = tuple(objects)
        self.arrows = dict(arrows)
        self.composition = dict(composition)
        self.identities = dict(identities)
        self._homs: dict = {}
        self._validate()

    def _validate(self):
        if len(set(self.objects)) != len(self.objects):
            raise ValidationError(f"{self.name!r}: duplicate objects")
        for a, (s, d) in self.arrows.items():
            if s not in self.objects or d not in self.objects:
                raise ValidationError(f"arrow {a!r} has unknown endpoint")
        if set(self.identities) != set(self.objects):
            raise ValidationError("identities must cover all objects")
        for o, i in self.identities.items():
            if self.arrows[i] != (o, o):
                raise ValidationError(f"identity of {o!r} has wrong endpoints")
        for a, (_, da) in self.arrows.items():
            for b, (sb, db) in self.arrows.items():
                if da == sb:
                    c = self.composition.get((a, b))
                    if c is None:
                        raise ValidationError(f"missing composite {a!r};{b!r}")
                    if self.arrows[c] != (self.arrows[a][0], db):
                        raise ValidationError(f"composite {a!r};{b!r} has wrong endpoints")
                elif (a, b) in self.composition:
                    raise ValidationError(f"composite of non-composable pair {a!r};{b!r}")
        for a, (s, d) in self.arrows.items():
            if self.composition[(self.identities[s], a)] != a:
                raise ValidationError(f"left unit fails at {a!r}")
            if self.composition[(a, self.identities[d])] != a:
                raise ValidationError(f"right unit fails at {a!r}")
        for a, (_, da) in self.arrows.items():
            for b, (sb, db) in self.arrows.items():
                if da != sb:
                    continue
                for c, (sc, _) in self.arrows.items():
                    if db != sc:
                        continue
                    left = self.composition[(self.composition[(a, b)], c)]
                    right = self.composition[(a, self.composition[(b, c)])]
                    if left != right:
                        raise ValidationError(f"associativity fails at {a!r};{b!r};{c!r}")

    def src(self, a) -> Any:
        return self.arrows[a][0]

    def dst(self, a) -> Any:
        return self.arrows[a][1]

    def compose(self, a, b):
        return self.composition[(a, b)]

    def identity(self, o):
        return self.identities[o]

    def hom(self, x, y) -> tuple:
        key = (x, y)
        if key not in self._homs:
            self._homs[key] = tuple(
                a for a, (s, d) in sorted(self.arrows.items(), key=lambda kv: canon_key(kv[0]))
                if s == x and d == y
            )
        return self._homs[key]

    def arrow_names(self) -> tuple:
        return tuple(sorted(self.arrows, key=canon_key))

    @cached_property
    def _key(self):
        return (
            self.name,
            self.objects,
            tuple(sorted(self.arrows.items(), key=lambda kv: canon_key(kv[0]))),
            tuple(sorted(self.composition.items(), key=lambda kv: canon_key(kv[0]))),
            tuple(sorted(self.identities.items(), key=lambda kv: canon_key(kv[0]))),
        )

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinCategory):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash((self.name, len(self.objects), len(self.arrows)))

    def __repr__(self):
        return f"FinCategory({self.name!r}, {len(self.objects)} objects, {len(self.arrows)} arrows)"


def terminal_category(name: str = "1") -> FinCategory:
    return FinCategory(name, ("*",), {"id": ("*", "*")}, {("id", "id"): "id"}, {"*": "id"})


def monoid_category(name: str, elements: tuple, table: dict, unit) -> FinCategory:
    """One-object category whose arrows are the monoid elements.

    table maps (m, n) to the product m*n; composition is diagrammatic,
    m;n := m*n.
    """
    arrows = {m: ("*", "*") for m in elements}
    comp = {(m, n): table[(m, n)] for m in elements for n in elements}
    return FinCategory(name, ("*",), arrows, comp, {"*": unit})


def product_category(a: FinCategory, b: FinCategory) -> FinCategory:
    objects = tuple(itertools.product(a.objects, b.objects))
    arrows = {
        (f, g): ((a.src(f), b.src(g)), (a.dst(f), b.dst(g)))
        for f in a.arrows for g in b.arrows
    }
    comp = {}
    for (f1, g1), (_, d1) in arrows.items():
        for (f2, g2), (s2, _) in arrows.items():
            if d1 == s2:
                comp[((f1, g1), (f2, g2))] = (a.compose(f1, f2), b.compose(g1, g2))
    ids = {(x, y): (a.identity(x), b.identity(y)) for x, y in objects}
    return FinCategory(f"({a.name}x{b.name})", objects, arrows, comp, ids)


@dataclass(frozen=True)
class FunctorReport:
    ok: bool
    structural_errors: tuple
    law_violations: tuple

    def __str__(self):
        if self.ok:
            return "functor: ok"
        lines = ["functor: INVALID"]
        lines += [f"  structural: {e}" for e in self.structural_errors]
        lines += [f"  law: {e}" for e in self.law_violations]
        return "\n".join(lines)


class FinFunctor:
    """A functor between finite categories given by object/arrow tables."""

    def __init__(self, name: str, dom: FinCategory, cod: FinCategory,
                 object_map: dict, arrow_map: dict, check: bool = True):
        self.name = name
        self.dom = dom
        self.cod = cod
        self.object_map = dict(object_map)
        self.arrow_map = dict(arrow_map)
        if check:
            report = check_functor(self)
            if not report.ok:
                raise ValidationError(str(report))

    @staticmethod
    def unchecked(name, dom, cod, object_map, arrow_map) -> "FinFunctor":
        return FinFunctor(name, dom, cod, object_map, arrow_map, check=False)

    def ob(self, x):
        return self.object_map[x]

    def ar(self, a):
        return self.arrow_map[a]

    def then(self, other: "FinFunctor") -> "FinFunctor":
        assert self.cod == other.dom
        return FinFunctor(
            f"{self.name};{other.name}", self.dom, other.cod,
            {x: other.object_map[y] for x, y in self.object_map.items()},
            {a: other.arrow_map[b] for a, b in self.arrow_map.items()},
            check=False,
        )

    @staticmethod
    def identity(c: FinCategory) -> "FinFunctor":
        return FinFunctor(
            f"Id_{c.name}", c, c,
            {x: x for x in c.objects}, {a: a for a in c.arrows}, check=False,
        )

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinFunctor):
            return NotImplemented
        return (self.dom == other.dom and self.cod == other.cod
                and self.object_map == other.object_map
                and self.arrow_map == other.arrow_map)

    def __hash__(self):
        return hash((self.dom.name, self.cod.name,
                     tuple(sorted(self.arrow_map.items(), key=lambda kv: canon_key(kv[0])))))

    def __repr__(self):
        return f"FinFunctor({self.name!r}: {self.dom.name} -> {self.cod.name})"


def check_functor(p: FinFunctor) -> FunctorReport:
    """Validate a functor table: totality and endpoints, then the two laws.

    Structural errors (missing/dangling assignments, endpoint mismatches) are
    reported separately from law violations (identities or composites not
    preserved), each naming the offending object or arrow pair.
    """
    structural = []
    laws = []
    dom, cod = p.dom, p.cod
    for x in dom.objects:
        if x not in p.object_map:
            structural.append(f"object {x!r} has no image")
        elif p.object_map[x] not in cod.objects:
            structural.append(f"object image {p.object_map[x]!r} of {x!r} not in {cod.name!r}")
    for x in p.object_map:
        if x not in dom.objects:
            structural.append(f"object assignment for unknown {x!r}")
    for a in dom.arrows:
        if a not in p.arrow_map:
            structural.append(f"arrow {a!r} has no image")
            continue
        fa = p.arrow_map[a]
        if fa not in cod.arrows:
            structural.append(f"arrow image {fa!r} of {a!r} not in {cod.name!r}")
            continue
        if a in p.arrow_map and all(x in p.object_map for x in dom.arrows[a]):
            s, d = dom.arrows[a]
            if cod.arrows[fa] != (p.object_map[s], p.object_map[d]):
                structural.append(
                    f"arrow {a!r}: image endpoints {cod.arrows[fa]!r} != "
                    f"({p.object_map[s]!r}, {p.object_map[d]!r})"
                )
    for a in p.arrow_map:
        if a not in dom.arrows:
            structural.append(f"arrow assignment for unknown {a!r}")
    if structural:
        return FunctorReport(False, tuple(structural), ())
    for o in dom.objects:
        if p.arrow_map[dom.identity(o)] != cod.identity(p.object_map[o]):
            laws.append(f"identity of {o!r} not preserved")
    for (a, b), c in dom.composition.items():
        if cod.compose(p.arrow_map[a], p.arrow_map[b]) != p.arrow_map[c]:
            laws.append(f"composite {a!r};{b!r} not preserved")
    return FunctorReport(not laws, (), tuple(laws))


def enumerate_functors(dom: FinCategory, cod: FinCategory) -> tuple:
    """All functors dom -> cod, deterministically ordered.

    Enumeration is by object assignment, then arrow assignments constrained to
    matching homs, filtered by the functor laws.
    """
    out = []
    arrow_names = dom.arrow_names()
    for obj_choice in itertools.product(cod.objects, repeat=len(dom.objects)):
        object_map = dict(zip(dom.objects, obj_choice))
        candidates = []
        feasible = True
        for a in arrow_names:
            s, d = dom.arrows[a]
            hom = cod.hom(object_map[s], object_map[d])
            if not hom:
                feasible = False
                break
            candidates.append(hom)
        if not feasible:
            continue
        for arrow_choice in itertools.product(*candidates):
            arrow_map = dict(zip(arrow_names, arrow_choice))
            cand = FinFunctor.unchecked("F", dom, cod, object_map, arrow_map)
            if check_functor(cand).ok:
                out.append(cand)
    for i, f in enumerate(out):
        f.name = f"F{i}_{dom.name}_{cod.name}"
    return tuple(out)
