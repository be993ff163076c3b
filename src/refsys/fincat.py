"""Finite sets, functions, categories, and functors with exhaustive law checking.

Everything here is a plain lookup table.  Elements and arrow names may be any
hashable values (strings, ints, nested tuples); a deterministic total order on
them is provided by :func:`canon_key` so that constructed carriers and reports
are byte-stable.

A :class:`FinSet` fixes the order of its elements, and a :class:`FinFunction`
is stored against those orders: a tuple holding, for each domain element, the
position of its value in the codomain.  Composition gathers one tuple through
another, and equality and hashing compare tuples.  A function that keeps
every position carries the table ``(0, ..., n-1)`` as an
:class:`IdentityTable`, built by :func:`identity_table`: identities here,
and coherence cells and pairings of such tables in
:mod:`refsys.cartesian`.  Composing with one returns the other operand's
table without a gather.

The public ``FinFunction`` constructor takes an element table (as a
signature file gives it) and checks it as it converts it to positions,
raising ValidationError on a bad one.  Results that are valid by construction
(composites, identities, enumerated tables) are wrapped from index tuples
without a second check.

Categories and functors are stored as given: their constructors never check
their tables.  :func:`check_category` and :func:`check_functor` validate
them, and the signature loader, where tables from outside enter, calls them;
the categories and functors the library builds are lawful by construction.
Code that builds one by hand calls the check itself.  Each check returns
None or raises ValidationError naming its first fault, explicitly, so it
also runs under ``python -O``.

Every search over finite structures (functors here; natural
transformations, functor-category arrows and monoid actions in
:mod:`refsys.presheaf_model`) goes through one depth-first search,
:func:`solutions`.  It yields the tuples of ``itertools.product`` that meet
a list of constraints, in product order, and tests each constraint as soon
as its last variable is fixed, so a failing prefix is cut off instead of
being extended to every full candidate and filtered afterwards.
"""
from __future__ import annotations

import itertools
from functools import cached_property
from typing import Any, Iterator

from .kernel import MismatchError, ValidationError


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
    """A named finite set with a fixed canonical element order.

    A copy or pickle carries the name and elements, not the cached
    positions and hash: a string's hash differs between processes.
    """

    __slots__ = ("name", "elements", "_index", "_hash", "__dict__")

    def __init__(self, name: str, elements: tuple):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise ValidationError(f"duplicate elements in {name!r}")
        self.name = name
        self.elements = elements
        self._index = None
        self._hash = None

    def positions(self) -> dict:
        """Element -> its position in the canonical order, built on first use."""
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elements)}
        return self._index

    def index(self, x: Any) -> int:
        return self.positions()[x]

    def __reduce__(self):
        return type(self), (self.name, self.elements)

    def __contains__(self, x: Any) -> bool:
        return x in self.positions()

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
        return f"FinSet({self.name!r}, {len(self)} elements)"


class IdentityTable(tuple):
    """The index table ``(0, 1, ..., n-1)`` of a function that keeps every
    position, such as an identity or a coherence cell that only regroups.

    It is a tuple, so equality, hashing, pickling and every reader of an
    index table treat it as the plain tuple; the type only tells
    :meth:`FinFunction.then` and :meth:`refsys.cartesian.CartesianKit.pair`
    that they need not gather.  A function whose table is marked has a domain
    and a codomain of the same length.  Build one with :func:`identity_table`.
    """

    __slots__ = ()


def identity_table(n: int) -> IdentityTable:
    """The marked table (0, 1, ..., n-1)."""
    return IdentityTable(range(n))


class FinFunction:
    """A total function between finite sets, stored as a table of indices.

    ``idx[i]`` is the position in ``cod`` of the value at the i-th element of
    ``dom`` (both in canonical order), so composition is an index gather and
    equality a tuple comparison.  ``mapping`` and ``__call__`` read the
    table in terms of elements; ``mapping`` is a dict built on first use.

    The public constructor takes an element table and checks it as it
    converts it to positions: it raises ValidationError unless the table
    covers exactly the domain with values in the codomain.  ``_from_idx``
    wraps an index tuple without checking it, for results that are valid by
    construction (composites, identities, enumerated tables, the tables of
    :class:`refsys.cartesian.CartesianKit`).  Identities carry an
    :class:`IdentityTable`, and a composite with one side marked takes the
    other side's table as it is.

    Equality ignores the name: two functions are equal iff they have equal
    boundaries and equal tables.  That is what makes conversion-style
    reasoning ("these two composites are the same expression") decidable.

    A copy or pickle carries the name, boundaries and table, not the cached
    mapping and hash: a string's hash differs between processes.
    """

    __slots__ = ("name", "dom", "cod", "idx", "_mapping", "_hash")

    def __init__(self, name: str, dom: FinSet, cod: FinSet, mapping: dict):
        at = cod.positions()
        try:
            idx = tuple([at[mapping[x]] for x in dom.elements])
        except (KeyError, TypeError):
            idx = None
        if idx is None or len(mapping) != len(idx):
            raise ValidationError(_table_fault(name, dom, cod, mapping))
        self.name = name
        self.dom = dom
        self.cod = cod
        self.idx = idx
        self._mapping = None
        self._hash = None

    @classmethod
    def _from_idx(cls, name: str, dom: FinSet, cod: FinSet, idx: tuple) -> "FinFunction":
        """The function with index table idx, which must be valid: one
        position in cod for each element of dom.  Not checked."""
        f = cls.__new__(cls)
        f.name = name
        f.dom = dom
        f.cod = cod
        f.idx = idx
        f._mapping = None
        f._hash = None
        return f

    def __reduce__(self):
        return FinFunction._from_idx, (self.name, self.dom, self.cod, self.idx)

    @property
    def mapping(self) -> dict:
        if self._mapping is None:
            cod = self.cod.elements
            self._mapping = dict(zip(self.dom.elements, [cod[j] for j in self.idx]))
        return self._mapping

    def __call__(self, x: Any) -> Any:
        return self.cod.elements[self.idx[self.dom.positions()[x]]]

    def then(self, other: "FinFunction") -> "FinFunction":
        """Diagrammatic composite self;other."""
        if self.cod is not other.dom and self.cod != other.dom:
            raise MismatchError(
                f"cannot compose {self.name!r} : ..->{self.cod.name!r} "
                f"with {other.name!r} : {other.dom.name!r}->.."
            )
        f, g = self.idx, other.idx
        if type(f) is IdentityTable:
            idx = g
        elif type(g) is IdentityTable:
            idx = f
        else:
            idx = tuple([g[i] for i in f])
        return FinFunction._from_idx(f"{self.name};{other.name}", self.dom, other.cod, idx)

    @staticmethod
    def identity(a: FinSet) -> "FinFunction":
        return FinFunction._from_idx(f"id_{a.name}", a, a, identity_table(len(a)))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinFunction):
            return NotImplemented
        return self.idx == other.idx and self.dom == other.dom and self.cod == other.cod

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dom.name, self.cod.name, self.idx))
        return self._hash

    def __repr__(self):
        return f"FinFunction({self.name!r}: {self.dom.name} -> {self.cod.name})"


def _table_fault(name: str, dom: FinSet, cod: FinSet, mapping: dict) -> str:
    """Why mapping is not a table dom -> cod."""
    for x in dom.elements:
        if x not in mapping:
            break
        y = mapping[x]
        try:
            ok = y in cod
        except TypeError:
            ok = False
        if not ok:
            return f"{name!r}: value {y!r} at {x!r} not in codomain {cod.name!r}"
    return f"{name!r}: table domain mismatch"


def all_functions(dom: FinSet, cod: FinSet, name_prefix: str = "f") -> Iterator[FinFunction]:
    """Lazily enumerate every function dom -> cod in a deterministic order:
    lexicographic in the codomain positions of dom's elements."""
    for i, idx in enumerate(itertools.product(range(len(cod)), repeat=len(dom))):
        yield FinFunction._from_idx(f"{name_prefix}{i}", dom, cod, idx)


def solutions(domains, constraints) -> Iterator[tuple]:
    """Every tuple with one value from each domain that meets every constraint.

    The tuples come in ``itertools.product(*domains)`` order.  A constraint
    is a pair ``(variables, holds)``: a sequence of domain positions (it may
    be empty or repeat a position) and a predicate called with the values at
    those positions, in that order.  The search is depth first.  Each
    constraint is tested once for each prefix that fixes the last of its
    variables, so a prefix that fails one is never extended.
    """
    domains = [tuple(d) for d in domains]
    due: list = [[] for _ in domains]
    for variables, holds in constraints:
        variables = tuple(variables)
        if not variables:
            if not holds():
                return
        else:
            due[max(variables)].append((variables, holds))
    if not all(domains):
        return
    if not domains:
        yield ()
        return
    last = len(domains) - 1
    values = [None] * len(domains)
    branches = [iter(domains[0])]
    while branches:
        i = len(branches) - 1
        checks = due[i]
        for values[i] in branches[i]:
            for vs, holds in checks:
                if not holds(*[values[j] for j in vs]):
                    break
            else:
                break
        else:
            branches.pop()
            continue
        if i == last:
            yield tuple(values)
        else:
            branches.append(iter(domains[i + 1]))


class FinCategory:
    """A finite category given by explicit source/target/composition tables.

    Composition is diagrammatic: ``compose(a, b)`` is "a then b", defined when
    dst(a) == src(b).  The constructor stores the tables without checking
    them; :func:`check_category` validates them.
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
        # the name is the key's first field: unequal names build no key
        return self.name == other.name and self._key == other._key

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


class _ProductCategory(FinCategory):
    """A x B, composing through its factors.

    It is built without ``FinCategory.__init__``: its objects, arrows and
    identities are tables as in any category, but ``compose`` composes in
    each factor, and the ``composition`` table, the one table whose size is
    the square of the arrow count, is built only when something reads it.
    """

    def __init__(self, a: FinCategory, b: FinCategory):
        self.name = f"({a.name}x{b.name})"
        self.factors = (a, b)
        self.objects = tuple(itertools.product(a.objects, b.objects))
        self.arrows = {
            (f, g): ((a.src(f), b.src(g)), (a.dst(f), b.dst(g)))
            for f in a.arrows for g in b.arrows
        }
        self.identities = {(x, y): (a.identity(x), b.identity(y)) for x, y in self.objects}
        self._homs = {}

    @cached_property
    def composition(self) -> dict:
        a, b = self.factors
        comp = {}
        for (f1, g1), (_, d1) in self.arrows.items():
            for (f2, g2), (s2, _) in self.arrows.items():
                if d1 == s2:
                    comp[((f1, g1), (f2, g2))] = (a.compose(f1, f2), b.compose(g1, g2))
        return comp

    def compose(self, x, y):
        # (f1, g1);(f2, g2) is defined iff f1;f2 and g1;g2 both are
        a, b = self.factors
        try:
            (f1, g1), (f2, g2) = x, y
            return (a.compose(f1, f2), b.compose(g1, g2))
        except (KeyError, TypeError, ValueError):
            raise KeyError((x, y)) from None


def product_category(a: FinCategory, b: FinCategory) -> FinCategory:
    """A x B: the pairs of objects and of arrows, in ``itertools.product``
    order, composed and with identities componentwise.

    It composes through A and B, and like a table it raises KeyError on a
    pair that does not compose.  Its ``composition`` table, which lists the
    same composites, is built on first read, so a product that is only
    composed in, never checked or compared, never builds it.
    """
    return _ProductCategory(a, b)


def check_category(c: FinCategory) -> None:
    """Validate a category's tables: identities, closure, the unit laws and
    associativity, exhaustively.  Raises ValidationError on the first
    failure (explicitly, so the check also runs under ``python -O``)."""
    if len(set(c.objects)) != len(c.objects):
        raise ValidationError(f"{c.name!r}: duplicate objects")
    for a, (s, d) in c.arrows.items():
        if s not in c.objects or d not in c.objects:
            raise ValidationError(f"arrow {a!r} has unknown endpoint")
    if set(c.identities) != set(c.objects):
        raise ValidationError("identities must cover all objects")
    for o, i in c.identities.items():
        if c.arrows[i] != (o, o):
            raise ValidationError(f"identity of {o!r} has wrong endpoints")
    # after[i][j] = k when arrow k is arrow i;arrow j, numbering the arrows
    # in order: a name may be a nested tuple, which costs a hash per lookup
    names = tuple(c.arrows)
    number = {a: i for i, a in enumerate(names)}
    after: list = [{} for _ in names]
    for a, (sa, da) in c.arrows.items():
        for b, (sb, db) in c.arrows.items():
            if da == sb:
                ab = c.composition.get((a, b))
                if ab is None:
                    raise ValidationError(f"missing composite {a!r};{b!r}")
                if c.arrows[ab] != (sa, db):
                    raise ValidationError(f"composite {a!r};{b!r} has wrong endpoints")
                after[number[a]][number[b]] = number[ab]
            elif (a, b) in c.composition:
                raise ValidationError(f"composite of non-composable pair {a!r};{b!r}")
    for a, (s, d) in c.arrows.items():
        if c.composition[(c.identities[s], a)] != a:
            raise ValidationError(f"left unit fails at {a!r}")
        if c.composition[(a, c.identities[d])] != a:
            raise ValidationError(f"right unit fails at {a!r}")
    for a, then_a in enumerate(after):
        for b, ab in then_a.items():
            then_ab, then_b = after[ab], after[b]
            if [then_ab[x] for x in then_b] != [then_a[bx] for bx in then_b.values()]:
                x = next(x for x, bx in then_b.items() if then_ab[x] != then_a[bx])
                raise ValidationError(
                    f"associativity fails at {names[a]!r};{names[b]!r};{names[x]!r}"
                )


class FinFunctor:
    """A functor between finite categories given by object/arrow tables.

    The constructor stores the tables without checking them;
    :func:`check_functor` validates them.
    """

    def __init__(self, name: str, dom: FinCategory, cod: FinCategory,
                 object_map: dict, arrow_map: dict):
        self.name = name
        self.dom = dom
        self.cod = cod
        self.object_map = dict(object_map)
        self.arrow_map = dict(arrow_map)

    def ob(self, x):
        return self.object_map[x]

    def ar(self, a):
        return self.arrow_map[a]

    def then(self, other: "FinFunctor") -> "FinFunctor":
        if self.cod != other.dom:
            raise MismatchError(f"cannot compose functors {self.name!r} and {other.name!r}")
        return FinFunctor(
            f"{self.name};{other.name}", self.dom, other.cod,
            {x: other.object_map[y] for x, y in self.object_map.items()},
            {a: other.arrow_map[b] for a, b in self.arrow_map.items()},
        )

    @staticmethod
    def identity(c: FinCategory) -> "FinFunctor":
        return FinFunctor(
            f"Id_{c.name}", c, c, {x: x for x in c.objects}, {a: a for a in c.arrows},
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


def check_functor(p: FinFunctor) -> None:
    """Validate a functor's tables: totality and endpoints, then the two laws.

    Raises ValidationError on the first failure (explicitly, so the check
    also runs under ``python -O``), naming the offending object, arrow or
    arrow pair.  The tables are tested in this order: object images,
    unknown object keys, arrow images and their endpoints, unknown arrow
    keys, identities, composites.
    """
    dom, cod, ob, ar = p.dom, p.cod, p.object_map, p.arrow_map
    for x in dom.objects:
        if x not in ob:
            raise ValidationError(f"object {x!r} has no image")
        if ob[x] not in cod.objects:
            raise ValidationError(f"object image {ob[x]!r} of {x!r} not in {cod.name!r}")
    for x in ob:
        if x not in dom.objects:
            raise ValidationError(f"object assignment for unknown {x!r}")
    for a, (s, d) in dom.arrows.items():
        if a not in ar:
            raise ValidationError(f"arrow {a!r} has no image")
        fa = ar[a]
        if fa not in cod.arrows:
            raise ValidationError(f"arrow image {fa!r} of {a!r} not in {cod.name!r}")
        if cod.arrows[fa] != (ob[s], ob[d]):
            raise ValidationError(
                f"arrow {a!r}: image endpoints {cod.arrows[fa]!r} != ({ob[s]!r}, {ob[d]!r})")
    for a in ar:
        if a not in dom.arrows:
            raise ValidationError(f"arrow assignment for unknown {a!r}")
    for o in dom.objects:
        if ar[dom.identity(o)] != cod.identity(ob[o]):
            raise ValidationError(f"identity of {o!r} not preserved")
    for (a, b), c in dom.composition.items():
        if cod.compose(ar[a], ar[b]) != ar[c]:
            raise ValidationError(f"composite {a!r};{b!r} not preserved")


def enumerate_functors(dom: FinCategory, cod: FinCategory) -> tuple:
    """All functors dom -> cod, deterministically ordered.

    The object maps run over their full product.  For each, the arrow images
    are found by :func:`solutions` over the matching hom-sets of cod, with
    the preservation of every identity and every composite as a constraint.
    """
    arrow_names = dom.arrow_names()
    at = {a: i for i, a in enumerate(arrow_names)}

    def preserved(fa, fb, fc):
        return cod.compose(fa, fb) == fc

    composites = [((at[a], at[b], at[c]), preserved) for (a, b), c in dom.composition.items()]
    out = []
    for obj_choice in itertools.product(cod.objects, repeat=len(dom.objects)):
        object_map = dict(zip(dom.objects, obj_choice))
        homs = [cod.hom(object_map[dom.src(a)], object_map[dom.dst(a)]) for a in arrow_names]
        units = [((at[dom.identity(o)],), lambda fa, i=cod.identity(object_map[o]): fa == i)
                 for o in dom.objects]
        for arrow_choice in solutions(homs, units + composites):
            out.append(FinFunctor(
                f"F{len(out)}_{dom.name}_{cod.name}", dom, cod,
                object_map, dict(zip(arrow_names, arrow_choice)),
            ))
    return tuple(out)
