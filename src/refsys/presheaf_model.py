"""Proof-relevant model: set-valued functors over finite categories.

An index type is a finite category A; an expression A -> B is a functor; a
refinement type over A is a covariant presheaf S : A -> FinSet; a morphism
from S to T over f is a natural transformation S => T(f-), given by one
component function per object and checked against every naturality square.
Hom-sets over an expression routinely have several elements, so this is the
model where derivation equality genuinely compares proofs.

A ``FinPresheaf``, like a ``FinCategory`` and a ``FinFunctor``, stores its
tables without checking them.  :func:`check_presheaf` validates one, and the
signature loader calls it on every presheaf a file gives.  The presheaves
built here (pullbacks, Kan extensions, tensors, residuals, M-sets) are
functorial by construction, so none of them is checked again.

Every enumeration here runs on the one depth-first search of
:mod:`refsys.fincat`, :func:`refsys.fincat.solutions`.  For natural
transformations S => T(f-) (:func:`natural_components`, shared by
``holds``, ``morphisms_over`` and the residual values) the variables are the
components, one per object, each ranging over the space of every index
table from its value of S into that of T(f-), in the order of
``itertools.product``.  The space of each pair of sizes is built once and
shared by every later search, in any system, while it has at most 4,096
tables; a larger one is built for the search that asks for it, and one of
more tables than the kit's ``max_carrier`` is refused with a
CapabilityError before it is built.  Each naturality square is a
constraint that compares index tables.  The square of an endo-arrow whose
two actions are the identity tables of their values' sizes holds for every
component, so it is no constraint; the tables are read, so an unchecked
presheaf whose identity acts by another table keeps its square.  Only what
is yielded becomes a function:
``morphisms_over`` wraps each component of a transformation it yields as
the ``FinFunction`` that ``all_functions`` gives at the table's rank,
named ``c{rank}``, and the residual values read the tables directly.
``holds``, which decides a judgment, only asks the search for a first
tuple of tables, and builds no function and no transformation.  For
the arrows of a functor category the variables are the components in the
hom-sets; for M-sets they are the action tables of the generators, under
the composite law of each pair of arrows.  A square is tested as soon as
both of its components are fixed, so a failing partial choice is dropped,
and the results come in the same order as from the full product.

Pullback is precomposition.  Pushforward is a pointwise left Kan extension:
the value at d is the set of pairs (arrow f(a) -> d, element of S(a))
quotiented by the relation generated from the arrows of A, computed by
union-find with least representatives as canonical labels.

Residuals come from the closed structure of the index level.  The residual
index type [A,C] is a materialized functor category, refused past the
``max_functor_objects`` and ``max_functor_arrows`` bounds; it keeps each
object's functor, each arrow's components and the arrow with given ends and
components beside its tables.  The residual value at a functor F is the set
of natural transformations S => U(F-), encoded as nested tuples of images.
The two residuals negL[U]{S} and negR[U]{T} are the same construction with
the fixed operand on either side of the tensor, so plugging, currying,
evaluation and the residual presheaf are each written once, as the hooks
that take the side, and only the order of the two operands, which
:func:`refsys.kernel.in_place` gives, depends on it.  One plugging formula
serves both: plugL's F(u);θ_x' and plugR's θ_x;G(u) are the same arrow, by
the naturality of θ.

The tensor is cartesian in each fibre, and a system takes it from its
:class:`refsys.cartesian.CartesianKit`: the value of S x T at (a, b) is the
kit's product S(a) x T(b), each action and each component of a tensor of
morphisms is a pairing, each component of a coherence cell is the kit's
cell on the values it regroups, and the unit presheaf's value is the kit's
unit.  The kit's ``max_carrier``, set from the ``max_values`` bound, is the
one guard on the size of a value and of a component space.  A system
builds its tensor structure once, and only the parts that are read.
Product categories, the functors between two categories and functor
categories are keyed by their two categories, tensor presheaves by their
two factors, the checked Day multiplication by its monoid category,
coherence cells by their kind and the presheaves they act on, and a cell's
functor, which only regroups, by its kind and the bases of those
presheaves; ``FinPresheaf`` and
``FinCategory`` equality compare names and every table, so an equal key
gives an equal result.  A product category composes through its factors
and builds its composition table on first read
(:func:`refsys.fincat.product_category`).
A tensor presheaf builds its values, and so any refusal, with it, but pairs
its actions only when its ``ar`` table is first read; the pairings are then
kept by it, not by the kit.  A build refused with a CapabilityError is not
cached, so asking again refuses again.

``day_star`` specializes the pushforward to a commutative monoid viewed as a
one-object category, and ``day_star_coend`` recomputes the same presheaf by
an independent fixpoint quotient so tests can compare the two label-for-label.
"""
from __future__ import annotations

import itertools
import operator
from functools import cached_property
from typing import Iterator

from .cartesian import (
    DEFAULT_MAX_CARRIER, CartesianKit, cell_ends, power_exceeds, power_text, refusal,
)
from .fincat import (
    FinCategory,
    FinFunction,
    FinFunctor,
    FinSet,
    _ProductCategory,
    canon_key,
    check_functor,
    enumerate_functors,
    product_category,
    render_elem,
    solutions,
    terminal_category,
)
from .kernel import (
    CapabilityError, IllFormedError, MismatchError, RefinementSystem, ValidationError,
    in_place,
)

DEFAULT_MAX_FUNCTOR_OBJECTS = 64
DEFAULT_MAX_FUNCTOR_ARROWS = 4096


class FinPresheaf:
    """A covariant finite-set-valued functor, stored as lookup tables.

    ob maps each object to a FinSet; ar maps each arrow name to a FinFunction
    between the corresponding value sets.  The constructor stores the tables
    without checking them; :func:`check_presheaf` validates them.  Equality
    compares names, value sets, and action tables.
    """

    def __init__(self, name: str, cat: FinCategory, ob: dict, ar: dict):
        self.name = name
        self.cat = cat
        self.ob = dict(ob)
        self.ar = dict(ar)

    def value(self, o) -> FinSet:
        return self.ob[o]

    def action(self, u) -> FinFunction:
        return self.ar[u]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinPresheaf):
            return NotImplemented
        return (self.name == other.name and self.cat == other.cat
                and self.ob == other.ob and self.ar == other.ar)

    def __hash__(self):
        return hash((self.name, self.cat.name))

    def __repr__(self):
        sizes = ",".join(str(len(self.ob[o])) for o in self.cat.objects)
        return f"FinPresheaf({self.name!r} over {self.cat.name}, sizes [{sizes}])"


class _TensorPresheaf(FinPresheaf):
    """S x T over the product of their bases, its actions paired on first read.

    It is built without ``FinPresheaf.__init__``.  Its values are the kit's
    products S(a) x T(b), built, or refused past the bound, with it.  Each
    action is the kit's pairing of an action of S with one of T; its ends
    are two of those values, so pairing refuses nothing, and the ``ar``
    table is built only when something reads it.
    """

    def __init__(self, kit: CartesianKit, s: FinPresheaf, t: FinPresheaf, cat: FinCategory):
        self.name = f"({s.name}x{t.name})"
        self.cat = cat
        self.ob = {(a, b): kit.product(s.ob[a], t.ob[b]) for (a, b) in cat.objects}
        self._parts = (kit, s, t)

    @cached_property
    def ar(self) -> dict:
        kit, s, t = self._parts
        return {(u, v): kit.pair(s.ar[u], t.ar[v]) for (u, v) in self.cat.arrows}


def check_presheaf(p: FinPresheaf) -> None:
    """Validate a presheaf's tables: a value at every object, an action at
    every arrow between the right values, and functoriality, exhaustively.
    Raises ValidationError on the first failure (explicitly, so the check
    also runs under ``python -O``)."""
    name, cat = p.name, p.cat
    if set(p.ob) != set(cat.objects):
        raise ValidationError(f"{name!r}: values must cover all objects")
    if set(p.ar) != set(cat.arrows):
        raise ValidationError(f"{name!r}: action must cover all arrows")
    for u, (s, d) in cat.arrows.items():
        fu = p.ar[u]
        if fu.dom != p.ob[s] or fu.cod != p.ob[d]:
            raise ValidationError(f"{name!r}: action at {u!r} has wrong boundaries")
    for o in cat.objects:
        if p.ar[cat.identity(o)] != FinFunction.identity(p.ob[o]):
            raise ValidationError(f"{name!r}: identity of {o!r} not sent to the identity")
    # the boundaries match, so u;v is respected iff the index tables compose
    idx = {u: fu.idx for u, fu in p.ar.items()}
    for (u, v), w in cat.composition.items():
        iv = idx[v]
        if tuple([iv[i] for i in idx[u]]) != idx[w]:
            raise ValidationError(f"{name!r}: action does not respect {u!r};{v!r}")


def same_values(p: FinPresheaf, q: FinPresheaf) -> bool:
    """Structural equality ignoring only the display names of the carriers."""
    if p.cat != q.cat:
        return False
    for o in p.cat.objects:
        if p.ob[o].elements != q.ob[o].elements:
            return False
    for u in p.cat.arrows:
        if p.ar[u].idx != q.ar[u].idx:
            return False
    return True


class NatTransOver:
    """A natural transformation S => T(f-): one component per object of S's base."""

    __slots__ = ("src", "expr", "dst", "components")

    def __init__(self, src: FinPresheaf, expr: FinFunctor, dst: FinPresheaf,
                 components: dict):
        self.src = src
        self.expr = expr
        self.dst = dst
        self.components = dict(components)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, NatTransOver):
            return NotImplemented
        return (self.src == other.src and self.dst == other.dst
                and self.expr == other.expr and self.components == other.components)

    def __repr__(self):
        return f"NatTransOver({self.src.name} => {self.dst.name} over {self.expr.name})"


# A space of at most this many index tables is built once and kept for every
# later search, and so is the identity table of each size up to 256.
_SHARED_SPACE_TABLES = 4096
_spaces: dict = {}
_identities = {n: tuple(range(n)) for n in range(257)}


def natural_components(s: FinPresheaf, f: FinFunctor, t: FinPresheaf,
                       max_tables: int = DEFAULT_MAX_CARRIER) -> Iterator[tuple]:
    """The natural transformations S => T(f-), each as the tuple of its
    components' index tables, in lexicographic order.

    The components follow the objects of S's base.  The component at a
    ranges over the space of every index table from S(a) into T(fa), in the
    order of ``itertools.product``; the space of each pair of sizes is built
    once and shared by every search while it has at most
    ``_SHARED_SPACE_TABLES`` tables, and a larger one is built for the
    search that asks for it.  A space of more than max_tables tables is
    refused with a CapabilityError before it is built, unless some object's
    space is empty (S(a) has elements and T(fa) none): then there is no
    transformation, and nothing is searched or refused.  Each naturality
    square is one constraint of the search, and compares index tables,
    except the square of an endo-arrow u whose S(u) and T(fu) tables are
    both the identity tables of their values' sizes: it reads c = c, so it
    holds for every component.  The tables are read, not the identities of
    the base, so a presheaf that acts by a non-identity table at an
    identity arrow keeps its square.
    """
    at, sizes, spaces = {}, {}, []
    for i, a in enumerate(s.cat.objects):
        m, n = len(s.ob[a]), len(t.ob[f.ob(a)])
        space = _spaces.get((m, n))
        if space is None or len(space) > max_tables:
            if power_exceeds(n, m, max_tables):
                # an object whose space is empty leaves no transformation to refuse
                if any(len(s.ob[b]) and not len(t.ob[f.ob(b)]) for b in s.cat.objects):
                    return iter(())
                raise refusal(f"component space of {s.name} =[{f.name}]=> {t.name} "
                              f"at {render_elem(a)}", power_text(n, m), max_tables)
            space = tuple(itertools.product(range(n), repeat=m))
            if len(space) <= _SHARED_SPACE_TABLES:
                _spaces[m, n] = space
        at[a] = i
        sizes[a] = m, n
        spaces.append(space)
    squares = []
    for u, (a, a2) in s.cat.arrows.items():
        s_u, t_u = s.ar[u].idx, t.ar[f.ar(u)].idx
        if a == a2:
            m, n = sizes[a]
            if (s_u == (_identities.get(m) or tuple(range(m)))
                    and t_u == (_identities.get(n) or tuple(range(n)))):
                continue
        squares.append(((at[a], at[a2]), _commutes(t_u, s_u)))
    return solutions(spaces, squares)


def _require_over(s: FinPresheaf, f: FinFunctor, t: FinPresheaf) -> None:
    """Raise IllFormedError unless f runs from the base of s to that of t."""
    if (f.dom is not s.cat and f.dom != s.cat) or (f.cod is not t.cat and f.cod != t.cat):
        raise IllFormedError(f"{s.name} =[{f.name}]=> {t.name}: boundaries do not match")


def _component(dom: FinSet, cod: FinSet, idx: tuple) -> FinFunction:
    """The function with index table idx, as ``all_functions(dom, cod, "c")``
    names it: ``c{rank}``, where the rank is idx's mixed-radix value."""
    n, rank = len(cod), 0
    for j in idx:
        rank = rank * n + j
    return FinFunction._from_idx(f"c{rank}", dom, cod, idx)


def _commutes(t_u: tuple, s_u: tuple):
    """The test that components c, c2 (index tables) make the square
    c;T(fu) = S(u);c2 commute: the boundaries match, so it commutes iff the
    index tables do."""
    return lambda c, c2: list(map(t_u.__getitem__, c)) == list(map(c2.__getitem__, s_u))


def _square(cat: FinCategory, f_u, g_u):
    """The test that arrows x, y of cat make the square f_u;y = x;g_u commute."""
    return lambda x, y: cat.compose(f_u, y) == cat.compose(x, g_u)


class _FunctorCategory(FinCategory):
    """[A,C]: the functors A -> C and the natural transformations between them.

    Besides the tables of a category it keeps what the closed structure
    reads: ``functors`` maps each object to the functor it names,
    ``components`` maps each arrow to its components by object of A, and
    :meth:`arrow` finds an arrow by its ends and components.  The arrows
    from F to G are found by the search over the hom-sets C(F(o), G(o)),
    with the naturality square of each arrow of A as a constraint.
    """

    def __init__(self, a: FinCategory, c: FinCategory, functors: tuple):
        at = {o: i for i, o in enumerate(a.objects)}
        self.functors = {f.name: f for f in functors}
        self.components: dict = {}
        self._by_components: dict = {}
        arrows = {}
        for f in functors:
            for g in functors:
                homs = [c.hom(f.ob(o), g.ob(o)) for o in a.objects]
                squares = [((at[o1], at[o2]), _square(c, f.ar(u), g.ar(u)))
                           for u, (o1, o2) in a.arrows.items()]
                for idx, choice in enumerate(solutions(homs, squares)):
                    nm = f"n{idx}[{f.name}>{g.name}]"
                    arrows[nm] = (f.name, g.name)
                    self.components[nm] = dict(zip(a.objects, choice))
                    self._by_components[f.name, g.name, choice] = nm
        composition = {}
        for n1, (f1, g1) in arrows.items():
            c1 = self.components[n1]
            for n2, (f2, g2) in arrows.items():
                if g1 == f2:
                    c2 = self.components[n2]
                    composition[n1, n2] = self.arrow(
                        f1, g2, tuple(c.compose(c1[o], c2[o]) for o in a.objects))
        identities = {f.name: self.arrow(f.name, f.name,
                                         tuple(c.identity(f.ob(o)) for o in a.objects))
                      for f in functors}
        super().__init__(f"[{a.name},{c.name}]", tuple(self.functors), arrows, composition,
                         identities)

    def arrow(self, f: str, g: str, components: tuple) -> str:
        """The arrow f -> g with these components, in the order of A's objects."""
        return self._by_components[f, g, components]


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def classes(self) -> dict:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


class PresheafSystem(RefinementSystem):
    """The presheaves-over-finite-categories refinement system."""

    proof_irrelevant = False

    def __init__(self, name: str, cats, presheaves,
                 max_values: int = DEFAULT_MAX_CARRIER,
                 max_functor_objects: int = DEFAULT_MAX_FUNCTOR_OBJECTS,
                 max_functor_arrows: int = DEFAULT_MAX_FUNCTOR_ARROWS):
        self.name = name
        self._cats = tuple(cats)
        if len({c.name for c in self._cats}) != len(self._cats):
            raise ValidationError(f"{name}: duplicate category names")
        self._presheaves = tuple(presheaves)
        for p in self._presheaves:
            if p.cat not in self._cats:
                raise ValidationError(
                    f"presheaf {p.name!r} lives over an unregistered category")
        self.kit = CartesianKit(max_values)
        self.max_functor_objects = max_functor_objects
        self.max_functor_arrows = max_functor_arrows
        self._expr_cache: dict = {}
        self._pcat_cache: dict = {}
        self._fcat_cache: dict = {}
        self._mults: dict = {}
        self._unit = constant_presheaf("1", terminal_category(), self.kit.unit)
        self._tensors: dict = {}
        self._cells: dict = {}
        self._cell_functors: dict = {}

    # --- index level -------------------------------------------------------------
    def i_types(self) -> tuple:
        return self._cats

    def expressions(self, a: FinCategory, b: FinCategory) -> Iterator[FinFunctor]:
        functors = self._expr_cache.get((a, b))
        if functors is None:
            functors = self._expr_cache[a, b] = enumerate_functors(a, b)
        return iter(functors)

    def id_expr(self, a: FinCategory) -> FinFunctor:
        return FinFunctor.identity(a)

    def compose_exprs(self, f: FinFunctor, g: FinFunctor) -> FinFunctor:
        return f.then(g)

    expr_dom = staticmethod(operator.attrgetter("dom"))
    expr_cod = staticmethod(operator.attrgetter("cod"))

    # --- refinement level -----------------------------------------------------------
    def e_types(self) -> tuple:
        return self._presheaves

    refines = staticmethod(operator.attrgetter("cat"))

    def holds(self, s: FinPresheaf, f: FinFunctor, t: FinPresheaf) -> bool:
        """Whether the search finds a first tuple of component tables; no
        component function or transformation is built."""
        _require_over(s, f, t)
        for _ in natural_components(s, f, t, self.kit.max_carrier):
            return True
        return False

    def morphisms_over(self, s: FinPresheaf, f: FinFunctor,
                       t: FinPresheaf) -> Iterator[NatTransOver]:
        _require_over(s, f, t)
        ends = [(a, s.ob[a], t.ob[f.ob(a)]) for a in s.cat.objects]
        for tables in natural_components(s, f, t, self.kit.max_carrier):
            yield NatTransOver(s, f, t, {a: _component(dom, cod, idx)
                                         for (a, dom, cod), idx in zip(ends, tables)})

    def id_interp(self, s: FinPresheaf) -> NatTransOver:
        return NatTransOver(
            s, FinFunctor.identity(s.cat), s,
            {a: FinFunction.identity(s.ob[a]) for a in s.cat.objects},
        )

    def compose_interps(self, m: NatTransOver, n: NatTransOver) -> NatTransOver:
        if m.dst != n.src:
            raise MismatchError("pasting: boundaries do not match")
        return NatTransOver(
            m.src, m.expr.then(n.expr), n.dst,
            {a: m.components[a].then(n.components[m.expr.ob(a)])
             for a in m.src.cat.objects},
        )

    interp_expr = staticmethod(operator.attrgetter("expr"))
    interp_src = staticmethod(operator.attrgetter("src"))
    interp_dst = staticmethod(operator.attrgetter("dst"))

    # --- pullback: precomposition ------------------------------------------------------
    def pullback_data(self, f: FinFunctor, t: FinPresheaf):
        if f.cod != t.cat:
            raise MismatchError("pullback: functor must land in the base of the target")
        et = FinPresheaf(
            f"({t.name}o{f.name})", f.dom,
            {a: t.ob[f.ob(a)] for a in f.dom.objects},
            {u: t.ar[f.ar(u)] for u in f.dom.arrows},
        )
        left = NatTransOver(
            et, f, t,
            {a: FinFunction.identity(et.ob[a]) for a in f.dom.objects},
        )

        def factor(m: NatTransOver, g: FinFunctor) -> NatTransOver:
            return NatTransOver(m.src, g, et, m.components)

        return et, left, factor

    # --- pushforward: pointwise left Kan extension ---------------------------------------
    def pushforward_data(self, s: FinPresheaf, f: FinFunctor):
        if f.dom != s.cat:
            raise MismatchError("pushforward: functor must start at the base of the subject")
        c, d = s.cat, f.cod
        label_of: dict = {}
        ob: dict = {}
        name = f"Lan[{f.name}]{s.name}"
        for dd in d.objects:
            raw = [
                (a, h, x)
                for a in c.objects
                for h in d.hom(f.ob(a), dd)
                for x in s.ob[a].elements
            ]
            uf = _UnionFind(raw)
            for u, (a, a2) in c.arrows.items():
                for h in d.hom(f.ob(a2), dd):
                    for x in s.ob[a].elements:
                        uf.union((a, d.compose(f.ar(u), h), x), (a2, h, s.ar[u](x)))
            labels = []
            for members in uf.classes().values():
                label = min(members, key=canon_key)
                labels.append(label)
                for m in members:
                    label_of[(dd, m)] = label
            labels.sort(key=canon_key)
            ob[dd] = FinSet(f"{name}({render_elem(dd)})", tuple(labels))
        ar = {}
        for k, (dd, dd2) in d.arrows.items():
            ar[k] = FinFunction(
                f"{name}[{render_elem(k)}]", ob[dd], ob[dd2],
                {lab: label_of[(dd2, (lab[0], d.compose(lab[1], k), lab[2]))]
                 for lab in ob[dd].elements},
            )
        et = FinPresheaf(name, d, ob, ar)
        right = NatTransOver(
            s, f, et,
            {a: FinFunction(
                f"{name}@{render_elem(a)}", s.ob[a], ob[f.ob(a)],
                {x: label_of[(f.ob(a), (a, d.identity(f.ob(a)), x))]
                 for x in s.ob[a].elements},
            ) for a in c.objects},
        )

        def factor(m: NatTransOver, g: FinFunctor) -> NatTransOver:
            x_presheaf = m.dst
            comps = {}
            for dd in d.objects:
                cod = x_presheaf.ob[g.ob(dd)]
                comps[dd] = FinFunction(
                    f"fac@{render_elem(dd)}", ob[dd], cod,
                    {lab: x_presheaf.ar[g.ar(lab[1])](m.components[lab[0]](lab[2]))
                     for lab in ob[dd].elements},
                )
            return NatTransOver(et, g, x_presheaf, comps)

        return et, right, factor

    # --- monoidal structure: external product ---------------------------------------------
    def tensor_itype(self, a: FinCategory, b: FinCategory) -> FinCategory:
        prod = self._pcat_cache.get((a, b))
        if prod is None:
            prod = self._pcat_cache[a, b] = product_category(a, b)
        return prod

    def tensor_factors(self, p: FinCategory) -> tuple:
        if not isinstance(p, _ProductCategory):
            raise CapabilityError(f"{p.name!r} is not a constructed product category")
        return p.factors

    def tensor_expr(self, f: FinFunctor, g: FinFunctor) -> FinFunctor:
        dom = self.tensor_itype(f.dom, g.dom)
        cod = self.tensor_itype(f.cod, g.cod)
        return FinFunctor(
            f"({f.name}x{g.name})", dom, cod,
            {(x, y): (f.ob(x), g.ob(y)) for (x, y) in dom.objects},
            {(u, v): (f.ar(u), g.ar(v)) for (u, v) in dom.arrows},
        )

    def tensor_etype(self, s: FinPresheaf, t: FinPresheaf) -> FinPresheaf:
        st = self._tensors.get((s, t))
        if st is not None:
            return st
        st = self._tensors[s, t] = _TensorPresheaf(self.kit, s, t,
                                                   self.tensor_itype(s.cat, t.cat))
        return st

    def unit_etype(self) -> FinPresheaf:
        return self._unit

    def tensor_interp(self, m: NatTransOver, n: NatTransOver) -> NatTransOver:
        src = self.tensor_etype(m.src, n.src)
        dst = self.tensor_etype(m.dst, n.dst)
        comps = {(a, b): self.kit.pair(m.components[a], n.components[b])
                 for (a, b) in src.cat.objects}
        return NatTransOver(src, self.tensor_expr(m.expr, n.expr), dst, comps)

    def coherence_cell(self, kind: str, etypes: tuple) -> NatTransOver:
        etypes = tuple(etypes)
        cell = self._cells.get((kind, etypes))
        if cell is not None:
            return cell
        src_e, dst_e = cell_ends(kind, etypes, self.tensor_etype, self._unit)
        src_c = src_e.cat
        # the functor depends only on the bases, so presheaves over them share it
        bases = (kind,) + tuple(e.cat for e in etypes)
        expr = self._cell_functors.get(bases)
        if expr is None:
            expr = self._cell_functors[bases] = FinFunctor(
                f"{kind}[{src_c.name}]", src_c, dst_e.cat,
                {o: _regroup(kind, o, "*") for o in src_c.objects},
                {u: _regroup(kind, u, "id") for u in src_c.arrows},
            )
        comps = {
            o: self.kit.cell(kind, tuple(e.ob[x] for e, x in zip(etypes, _operands(kind, o))))
            for o in src_c.objects
        }
        cell = self._cells[kind, etypes] = NatTransOver(src_e, expr, dst_e, comps)
        return cell

    # --- residuals: functor categories and ends --------------------------------------------
    def functor_category(self, a: FinCategory, c: FinCategory) -> FinCategory:
        fcat = self._fcat_cache.get((a, c))
        if fcat is not None:
            return fcat
        functors = enumerate_functors(a, c)
        if len(functors) > self.max_functor_objects:
            raise CapabilityError(
                f"functor category [{a.name},{c.name}] has {len(functors)} objects, "
                f"exceeding the bound {self.max_functor_objects}"
            )
        candidate_count = 0
        for f in functors:
            for g in functors:
                n = 1
                for o in a.objects:
                    n *= len(c.hom(f.ob(o), g.ob(o)))
                candidate_count += n
        if candidate_count > self.max_functor_arrows:
            raise CapabilityError(
                f"functor category [{a.name},{c.name}] has {candidate_count} candidate "
                f"transformations, exceeding the bound {self.max_functor_arrows}"
            )
        fcat = self._fcat_cache[a, c] = _FunctorCategory(a, c, functors)
        return fcat

    def residual_itype(self, a: FinCategory, c: FinCategory) -> FinCategory:
        return self.functor_category(a, c)

    # Each side's closed structure is written once below, for the fixed operand's
    # base A and the functor category [A,C]; in_place puts the two in the order
    # of the side's tensor.

    def plug_expr(self, side: str, a: FinCategory, c: FinCategory) -> FinFunctor:
        """plugL : A x [A,C] -> C or plugR : [A,C] x A -> C, evaluation.

        An arrow (u, n) is sent to F(u);n at u's target, which naturality
        makes equal to n at u's source followed by G(u)."""
        fcat = self.functor_category(a, c)
        dom = self.tensor_itype(*in_place(side, a, fcat))
        ob, ar = {}, {}
        for p in dom.objects:
            x, fn = in_place(side, *p)
            ob[p] = fcat.functors[fn].ob(x)
        for p in dom.arrows:
            u, nm = in_place(side, *p)
            ar[p] = c.compose(fcat.functors[fcat.src(nm)].ar(u), fcat.components[nm][a.dst(u)])
        return FinFunctor(f"plug{side[0].upper()}[{','.join(in_place(side, a.name, c.name))}]",
                          dom, c, ob, ar)

    def curry_expr(self, side: str, h: FinFunctor) -> FinFunctor:
        """h : A x B -> C curried, lc(h) : B -> [A,C] or rc(h) : A -> [B,C]:
        an object y of the other factor goes to h with y in its place."""
        a, b = in_place(side, *self.tensor_factors(h.dom))
        fcat = self.functor_category(a, h.cod)

        def frozen_at(y) -> str:
            partial = FinFunctor(
                "partial", a, h.cod,
                {x: h.ob(in_place(side, x, y)) for x in a.objects},
                {u: h.ar(in_place(side, u, b.identity(y))) for u in a.arrows},
            )
            for name, f in fcat.functors.items():
                if f == partial:
                    return name
            raise CapabilityError("partial application is not an object of the functor category")

        object_map = {y: frozen_at(y) for y in b.objects}
        arrow_map = {
            v: fcat.arrow(object_map[y], object_map[y2],
                          tuple(h.ar(in_place(side, a.identity(x), v)) for x in a.objects))
            for v, (y, y2) in b.arrows.items()
        }
        return FinFunctor(f"{side[0]}c({h.name})", b, fcat, object_map, arrow_map)

    def _nat_set(self, s: FinPresheaf, u: FinPresheaf, f: FinFunctor) -> tuple:
        """All natural transformations S => U(f-), each encoded as the tuple of
        its components' value tuples, in canonical order."""
        cods = [u.ob[f.ob(a)].elements for a in s.cat.objects]
        out = [tuple(tuple([el[j] for j in idx]) for el, idx in zip(cods, tables))
               for tables in natural_components(s, f, u, self.kit.max_carrier)]
        return tuple(sorted(out, key=canon_key))

    def residual_etype(self, side: str, s: FinPresheaf, u: FinPresheaf) -> FinPresheaf:
        """negL[U]{S} or negR[U]{S} over [A,C]: at F the natural transformations
        S => U(F-), moved along an arrow by its components' actions in U."""
        fcat = self.functor_category(s.cat, u.cat)
        name = f"neg{side[0].upper()}[{u.name}]{{{s.name}}}"
        ob = {fn: FinSet(f"{name}({fn})", self._nat_set(s, u, f))
              for fn, f in fcat.functors.items()}
        ar = {}
        for nm, (fn, gn) in fcat.arrows.items():
            theta = fcat.components[nm]
            mapping = {
                enc: tuple(tuple(u.ar[theta[a]](val) for val in enc[i])
                           for i, a in enumerate(s.cat.objects))
                for enc in ob[fn].elements
            }
            ar[nm] = FinFunction(f"{name}[{nm}]", ob[fn], ob[gn], mapping)
        return FinPresheaf(name, fcat, ob, ar)

    def residual_data(self, side: str, s: FinPresheaf, u: FinPresheaf):
        """The residual of U by the fixed operand S, its evaluation and its currying."""
        res = self.residual_etype(side, s, u)
        src = self.tensor_etype(*in_place(side, s, res))
        expr = self.plug_expr(side, s.cat, u.cat)
        ev = "".join(in_place(side, "e", "v"))  # ev@ on the left, ve@ on the right
        at = {a: i for i, a in enumerate(s.cat.objects)}
        comps = {}
        for p in src.cat.objects:
            a, _ = in_place(side, *p)
            mapping = {}
            for pair in src.ob[p].elements:
                # an encoding lists each component's values in the order of S(a)
                x, enc = in_place(side, *pair)
                mapping[pair] = enc[at[a]][s.ob[a].index(x)]
            comps[p] = FinFunction(f"{ev}@{render_elem(p)}", src.ob[p], u.ob[expr.ob(p)],
                                   mapping)

        def curry(m: NatTransOver, v: FinPresheaf) -> NatTransOver:
            # y is sent to the encoding of m(-, y): one value tuple per object of S's base
            expr = self.curry_expr(side, m.expr)
            comps = {}
            for b in v.cat.objects:
                mapping = {y: tuple(tuple(m.components[in_place(side, a, b)](in_place(side, x, y))
                                          for x in s.ob[a].elements)
                                    for a in s.cat.objects)
                           for y in v.ob[b].elements}
                comps[b] = FinFunction(f"{side[0]}cur@{render_elem(b)}", v.ob[b],
                                       res.ob[expr.ob(b)], mapping)
            return NatTransOver(v, expr, res, comps)

        return res, NatTransOver(src, expr, u, comps), curry


def _operands(kind: str, x) -> tuple:
    """The operands' objects, or arrows, that x is made of in the base of the
    source of a coherence cell."""
    if kind == "assoc":
        (p, q), r = x
        return p, q, r
    if kind == "assoc_inv":
        p, (q, r) = x
        return p, q, r
    return (x[1] if kind == "unit_l" else x[0] if kind == "unit_r" else x,)


def _regroup(kind: str, x, unit):
    """Where a coherence cell's functor sends the object or arrow x; unit is
    the unit category's object or arrow."""
    return cell_ends(kind, _operands(kind, x), lambda p, q: (p, q), unit)[1]


def build_presheaf_system(cats, presheaves, name: str = "presheaf",
                          **bounds) -> PresheafSystem:
    return PresheafSystem(name, cats, presheaves, **bounds)


def constant_presheaf(name: str, cat: FinCategory, value: FinSet) -> FinPresheaf:
    return FinPresheaf(
        name, cat, {o: value for o in cat.objects},
        {u: FinFunction.identity(value) for u in cat.arrows},
    )


def representable_presheaf(cat: FinCategory, o) -> FinPresheaf:
    """The covariant hom presheaf cat(o, -)."""
    name = f"y[{render_elem(o)}]"
    ob = {d: FinSet(f"{name}({render_elem(d)})", cat.hom(o, d)) for d in cat.objects}
    ar = {
        u: FinFunction(
            f"{name}.{render_elem(u)}", ob[cat.src(u)], ob[cat.dst(u)],
            {h: cat.compose(h, u) for h in ob[cat.src(u)].elements},
        )
        for u in cat.arrows
    }
    return FinPresheaf(name, cat, ob, ar)


# --- the Day construction on a commutative monoid --------------------------------------


def multiplication_functor(sys: PresheafSystem, m: FinCategory) -> FinFunctor:
    """The multiplication of a one-object monoid category, as a functor M x M -> M.

    Functoriality of (u, v) -> u;v is exactly commutativity of the monoid,
    so a non-commutative table fails the functor check, whose
    ValidationError names the first composite not preserved.  The system
    keeps the checked functor for each monoid category; a refused one is
    not kept, so it is refused again.
    """
    mult = sys._mults.get(m)
    if mult is not None:
        return mult
    if len(m.objects) != 1:
        raise MismatchError("Day multiplication needs a one-object category")
    dom = sys.tensor_itype(m, m)
    star = m.objects[0]
    mult = FinFunctor(
        f"mult[{m.name}]", dom, m,
        {(star, star): star},
        {(u, v): m.compose(u, v) for (u, v) in dom.arrows},
    )
    check_functor(mult)
    sys._mults[m] = mult
    return mult


def day_star(sys: PresheafSystem, m: FinCategory, s: FinPresheaf,
             t: FinPresheaf) -> FinPresheaf:
    """S * T = pushforward of the external product along the multiplication."""
    mult = multiplication_functor(sys, m)
    et, _, _ = sys.pushforward_data(sys.tensor_etype(s, t), mult)
    return et


def day_star_coend(sys: PresheafSystem, m: FinCategory, s: FinPresheaf,
                   t: FinPresheaf) -> FinPresheaf:
    """The same presheaf by the coend formula, computed independently.

    Raw elements are (object, arrow h, (x, y)); the generated relation is
    closed by fixpoint relabeling instead of union-find, so agreement with
    day_star is a genuine cross-check down to the canonical labels.
    """
    mult = multiplication_functor(sys, m)
    tensor = sys.tensor_etype(s, t)
    star = m.objects[0]
    pair = (star, star)
    raw = [
        (pair, h, xy)
        for h in m.arrow_names()
        for xy in tensor.ob[pair].elements
    ]
    label = {r: r for r in raw}
    changed = True
    while changed:
        changed = False
        for (u, v) in tensor.cat.arrows:
            uv = mult.ar((u, v))
            for h in m.arrow_names():
                for xy in tensor.ob[pair].elements:
                    lhs = (pair, m.compose(uv, h), xy)
                    rhs = (pair, h, tensor.ar[(u, v)](xy))
                    la, lb = label[lhs], label[rhs]
                    if la == lb:
                        continue
                    keep, drop = sorted((la, lb), key=canon_key)
                    for k, val in label.items():
                        if val == drop:
                            label[k] = keep
                    changed = True
    classes = sorted(set(label.values()), key=canon_key)
    name = f"Lan[{mult.name}]{tensor.name}"
    ob = {star: FinSet(f"{name}({render_elem(star)})", tuple(classes))}
    ar = {
        k: FinFunction(
            f"{name}[{render_elem(k)}]", ob[star], ob[star],
            {lab: label[(pair, m.compose(lab[1], k), lab[2])] for lab in classes},
        )
        for k in m.arrows
    }
    return FinPresheaf(name, m, ob, ar)


def enumerate_monoid_presheaves(m: FinCategory, max_elems: int,
                                prefix: str = "X") -> tuple:
    """All M-sets over a one-object category with at most max_elems elements.

    Each result is a presheaf whose single value set is {p0, p1, ...}.  The
    action tables of the non-identity arrows are the variables of one search
    per size, with the composite law of each pair of arrows as a constraint.
    The order is deterministic: by size, then lexicographically by the
    action tables.
    """
    if len(m.objects) != 1:
        raise MismatchError("M-set enumeration needs a one-object category")
    star = m.objects[0]
    unit = m.identities[star]
    names = m.arrow_names()
    gens = tuple(a for a in names if a != unit)
    out = []
    low = prefix.lower()
    for n in range(1, max_elems + 1):
        elems = tuple(f"{low}{i}" for i in range(n))
        tables = list(itertools.product(range(n), repeat=n))
        laws = [_action_law(u, v, m.compose(u, v), gens, unit, tuple(range(n)))
                for u in names for v in names]
        for choice in solutions([tables] * len(gens), laws):
            act = dict(zip(gens, choice))
            act[unit] = tuple(range(n))
            name = f"{prefix}{len(out)}"
            fs = FinSet(f"{name}({render_elem(star)})", elems)
            ar = {
                u: FinFunction._from_idx(f"{name}.{render_elem(u)}", fs, fs, act[u])
                for u in names
            }
            out.append(FinPresheaf(name, m, {star: fs}, ar))
    return tuple(out)


def _action_law(u, v, w, gens: tuple, unit, identity: tuple) -> tuple:
    """The constraint that the action of w = u;v is that of u, then v.

    Its variables are the tables of those of u, v, w that are not the unit,
    whose table is the identity and fixed."""
    named = [x for x in (u, v, w) if x != unit]

    def holds(*tables):
        act = dict(zip(named, tables))
        act[unit] = identity
        t_v = act[v]
        return tuple([t_v[i] for i in act[u]]) == act[w]

    return tuple(gens.index(x) for x in named), holds
