"""Proof-relevant model: set-valued functors over finite categories.

An index type is a finite category A; an expression A -> B is a functor; a
refinement type over A is a covariant presheaf S : A -> FinSet; a morphism
from S to T over f is a natural transformation S => T(f-), given by one
component function per object and checked against every naturality square.
Hom-sets over an expression routinely have several elements, so this is the
model where derivation equality genuinely compares proofs.

Pullback is precomposition.  Pushforward is a pointwise left Kan extension:
the value at d is the set of pairs (arrow f(a) -> d, element of S(a))
quotiented by the relation generated from the arrows of A, computed by
union-find with least representatives as canonical labels.  Residuals come
from the closed structure of the index level: the residual index type is a
materialized functor category (size-guarded), and the residual value at a
functor-object f is the set of natural transformations S => U(f-), encoded
as nested tuples of images.

A system builds its tensor structure once.  Product categories are keyed
by their two factors, tensor presheaves by their two factors, and coherence
cells by their kind and the presheaves they act on; ``FinPresheaf`` and
``FinCategory`` equality compare names and every table, so an equal key
gives an equal result.  The unit presheaf is built with the system.  A
build refused with a CapabilityError is not cached, so asking again refuses
again.

``day_star`` specializes the pushforward to a commutative monoid viewed as a
one-object category, and ``day_star_coend`` recomputes the same presheaf by
an independent fixpoint quotient so tests can compare the two label-for-label.
"""
from __future__ import annotations

import itertools
from typing import Iterator

from .fincat import (
    FinCategory,
    FinFunction,
    FinFunctor,
    FinSet,
    canon_key,
    enumerate_functors,
    product_category,
    render_elem,
    terminal_category,
)
from .kernel import CapabilityError, IllFormedError, RefinementSystem, ValidationError

DEFAULT_MAX_VALUES = 200_000
DEFAULT_MAX_FUNCTOR_OBJECTS = 64
DEFAULT_MAX_FUNCTOR_ARROWS = 4096


class FinPresheaf:
    """A covariant finite-set-valued functor, stored as lookup tables.

    ob maps each object to a FinSet; ar maps each arrow name to a FinFunction
    between the corresponding value sets.  Construction checks functoriality
    exhaustively and raises ValidationError on the first failure.  Equality
    compares names, value sets, and action tables.
    """

    def __init__(self, name: str, cat: FinCategory, ob: dict, ar: dict):
        self.name = name
        self.cat = cat
        self.ob = dict(ob)
        self.ar = dict(ar)
        if set(self.ob) != set(cat.objects):
            raise ValidationError(f"{name!r}: values must cover all objects")
        if set(self.ar) != set(cat.arrows):
            raise ValidationError(f"{name!r}: action must cover all arrows")
        for u, (s, d) in cat.arrows.items():
            fu = self.ar[u]
            if fu.dom != self.ob[s] or fu.cod != self.ob[d]:
                raise ValidationError(f"{name!r}: action at {u!r} has wrong boundaries")
        for o in cat.objects:
            if self.ar[cat.identity(o)] != FinFunction.identity(self.ob[o]):
                raise ValidationError(f"{name!r}: identity of {o!r} not sent to the identity")
        for (u, v), w in cat.composition.items():
            if self.ar[u].then(self.ar[v]) != self.ar[w]:
                raise ValidationError(f"{name!r}: action does not respect {u!r};{v!r}")

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


def same_values(p: FinPresheaf, q: FinPresheaf) -> bool:
    """Structural equality ignoring only the display names of the carriers."""
    if p.cat != q.cat:
        return False
    for o in p.cat.objects:
        if p.ob[o].elements != q.ob[o].elements:
            return False
    for u in p.cat.arrows:
        if p.ar[u].mapping != q.ar[u].mapping:
            return False
    return True


class NatTransOver:
    """A natural transformation S => T(f-): one component per object of S's base."""

    __slots__ = ("src", "expr", "dst", "components")

    def __init__(self, src: FinPresheaf, expr: FinFunctor, dst: FinPresheaf,
                 components: dict, check: bool = True):
        self.src = src
        self.expr = expr
        self.dst = dst
        self.components = dict(components)
        if check:
            assert expr.dom == src.cat and expr.cod == dst.cat, "functor boundary mismatch"
            assert set(self.components) == set(src.cat.objects)
            for a in src.cat.objects:
                c = self.components[a]
                assert c.dom == src.ob[a] and c.cod == dst.ob[expr.ob(a)], \
                    f"component at {a!r} has wrong boundaries"
            for u, (a, a2) in src.cat.arrows.items():
                lhs = self.components[a].then(dst.ar[expr.ar(u)])
                rhs = src.ar[u].then(self.components[a2])
                assert lhs == rhs, f"naturality fails at arrow {u!r}"

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, NatTransOver):
            return NotImplemented
        return (self.src == other.src and self.dst == other.dst
                and self.expr == other.expr and self.components == other.components)

    def __repr__(self):
        return f"NatTransOver({self.src.name} => {self.dst.name} over {self.expr.name})"


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

    has_pullbacks = True
    has_pushforwards = True
    is_monoidal = True
    is_closed = True
    proof_irrelevant = False

    def __init__(self, name: str, cats, presheaves,
                 max_values: int = DEFAULT_MAX_VALUES,
                 max_functor_objects: int = DEFAULT_MAX_FUNCTOR_OBJECTS,
                 max_functor_arrows: int = DEFAULT_MAX_FUNCTOR_ARROWS):
        self.name = name
        self._cats = tuple(cats)
        assert len({c.name for c in self._cats}) == len(self._cats), "duplicate category names"
        self._presheaves = tuple(presheaves)
        for p in self._presheaves:
            assert any(p.cat == c for c in self._cats), \
                f"presheaf {p.name!r} lives over an unregistered category"
        self.max_values = max_values
        self.max_functor_objects = max_functor_objects
        self.max_functor_arrows = max_functor_arrows
        self._expr_cache: dict = {}
        self._pcat_cache: dict = {}
        self._pcat_factors: dict = {}
        self._fcat_cache: dict = {}
        self._fcat_objects: dict = {}
        self._fcat_components: dict = {}
        self._unit_cat = terminal_category()
        unit_set = FinSet("1", ("*",))
        self._unit = FinPresheaf(
            "1", self._unit_cat, {"*": unit_set}, {"id": FinFunction.identity(unit_set)},
        )
        self._tensors: dict = {}
        self._cells: dict = {}

    # --- index level -------------------------------------------------------------
    def i_types(self) -> tuple:
        return self._cats

    def expressions(self, a: FinCategory, b: FinCategory) -> Iterator[FinFunctor]:
        key = (a.name, b.name)
        cached = self._expr_cache.get(key)
        if cached is None or cached[0] != (a, b):
            cached = ((a, b), enumerate_functors(a, b))
            self._expr_cache[key] = cached
        return iter(cached[1])

    def id_expr(self, a: FinCategory) -> FinFunctor:
        return FinFunctor.identity(a)

    def compose_exprs(self, f: FinFunctor, g: FinFunctor) -> FinFunctor:
        return f.then(g)

    def expr_dom(self, f: FinFunctor) -> FinCategory:
        return f.dom

    def expr_cod(self, f: FinFunctor) -> FinCategory:
        return f.cod

    # --- refinement level -----------------------------------------------------------
    def e_types(self) -> tuple:
        return self._presheaves

    def refines(self, s: FinPresheaf) -> FinCategory:
        return s.cat

    def morphisms_over(self, s: FinPresheaf, f: FinFunctor,
                       t: FinPresheaf) -> Iterator[NatTransOver]:
        if not (f.dom == s.cat and f.cod == t.cat):
            raise IllFormedError(
                f"{s.name} =[{f.name}]=> {t.name}: boundaries do not match"
            )
        objs = s.cat.objects
        spaces = []
        for a in objs:
            dom, cod = s.ob[a], t.ob[f.ob(a)]
            tables = []
            for i, values in enumerate(itertools.product(cod.elements, repeat=len(dom))):
                tables.append(FinFunction(
                    f"c{i}", dom, cod, dict(zip(dom.elements, values))
                ))
            spaces.append(tables)
        for choice in itertools.product(*spaces):
            components = dict(zip(objs, choice))
            ok = True
            for u, (a, a2) in s.cat.arrows.items():
                if components[a].then(t.ar[f.ar(u)]) != s.ar[u].then(components[a2]):
                    ok = False
                    break
            if ok:
                yield NatTransOver(s, f, t, components, check=False)

    def id_interp(self, s: FinPresheaf) -> NatTransOver:
        return NatTransOver(
            s, FinFunctor.identity(s.cat), s,
            {a: FinFunction.identity(s.ob[a]) for a in s.cat.objects},
            check=False,
        )

    def compose_interps(self, m: NatTransOver, n: NatTransOver) -> NatTransOver:
        assert m.dst == n.src, "pasting: boundaries do not match"
        return NatTransOver(
            m.src, m.expr.then(n.expr), n.dst,
            {a: m.components[a].then(n.components[m.expr.ob(a)])
             for a in m.src.cat.objects},
            check=False,
        )

    def interp_expr(self, m: NatTransOver) -> FinFunctor:
        return m.expr

    def interp_src(self, m: NatTransOver) -> FinPresheaf:
        return m.src

    def interp_dst(self, m: NatTransOver) -> FinPresheaf:
        return m.dst

    # --- pullback: precomposition ------------------------------------------------------
    def pullback_data(self, f: FinFunctor, t: FinPresheaf):
        assert f.cod == t.cat, "pullback: functor must land in the base of the target"
        et = FinPresheaf(
            f"({t.name}o{f.name})", f.dom,
            {a: t.ob[f.ob(a)] for a in f.dom.objects},
            {u: t.ar[f.ar(u)] for u in f.dom.arrows},
        )
        left = NatTransOver(
            et, f, t,
            {a: FinFunction.identity(et.ob[a]) for a in f.dom.objects},
            check=False,
        )

        def factor(m: NatTransOver, g: FinFunctor) -> NatTransOver:
            return NatTransOver(m.src, g, et, m.components, check=False)

        return et, left, factor

    # --- pushforward: pointwise left Kan extension ---------------------------------------
    def pushforward_data(self, s: FinPresheaf, f: FinFunctor):
        assert f.dom == s.cat, "pushforward: functor must start at the base of the subject"
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
            check=False,
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
            return NatTransOver(et, g, x_presheaf, comps, check=False)

        return et, right, factor

    # --- monoidal structure: external product ---------------------------------------------
    def _guard_values(self, size: int, what: str):
        if size > self.max_values:
            raise CapabilityError(
                f"{what} would have {size} elements, exceeding the bound {self.max_values}"
            )

    def tensor_itype(self, a: FinCategory, b: FinCategory) -> FinCategory:
        prod = self._pcat_cache.get((a, b))
        if prod is None:
            prod = product_category(a, b)
            self._pcat_cache[a, b] = prod
            self._pcat_factors[prod] = (a, b)
        return prod

    def tensor_factors(self, p: FinCategory) -> tuple:
        try:
            return self._pcat_factors[p]
        except KeyError:
            raise CapabilityError(f"{p.name!r} is not a constructed product category") from None

    def unit_itype(self) -> FinCategory:
        return self._unit_cat

    def tensor_expr(self, f: FinFunctor, g: FinFunctor) -> FinFunctor:
        dom = self.tensor_itype(f.dom, g.dom)
        cod = self.tensor_itype(f.cod, g.cod)
        return FinFunctor.unchecked(
            f"({f.name}x{g.name})", dom, cod,
            {(x, y): (f.ob(x), g.ob(y)) for (x, y) in dom.objects},
            {(u, v): (f.ar(u), g.ar(v)) for (u, v) in dom.arrows},
        )

    def tensor_etype(self, s: FinPresheaf, t: FinPresheaf) -> FinPresheaf:
        st = self._tensors.get((s, t))
        if st is not None:
            return st
        cat = self.tensor_itype(s.cat, t.cat)
        name = f"({s.name}x{t.name})"
        ob = {}
        for (a, b) in cat.objects:
            self._guard_values(len(s.ob[a]) * len(t.ob[b]), f"value of {name}")
            ob[(a, b)] = FinSet(
                f"({s.ob[a].name}x{t.ob[b].name})",
                tuple(itertools.product(s.ob[a].elements, t.ob[b].elements)),
            )
        ar = {}
        for (u, v), ((a, b), (a2, b2)) in cat.arrows.items():
            ar[(u, v)] = FinFunction(
                f"({s.name}.{render_elem(u)}x{t.name}.{render_elem(v)})",
                ob[(a, b)], ob[(a2, b2)],
                {(x, y): (s.ar[u](x), t.ar[v](y)) for (x, y) in ob[(a, b)].elements},
            )
        st = self._tensors[s, t] = FinPresheaf(name, cat, ob, ar)
        return st

    def unit_etype(self) -> FinPresheaf:
        return self._unit

    def tensor_interp(self, m: NatTransOver, n: NatTransOver) -> NatTransOver:
        src = self.tensor_etype(m.src, n.src)
        dst = self.tensor_etype(m.dst, n.dst)
        expr = self.tensor_expr(m.expr, n.expr)
        comps = {}
        for (a, b) in src.cat.objects:
            cod = dst.ob[(m.expr.ob(a), n.expr.ob(b))]
            comps[(a, b)] = FinFunction(
                f"(mxn)@{render_elem((a, b))}", src.ob[(a, b)], cod,
                {(x, y): (m.components[a](x), n.components[b](y))
                 for (x, y) in src.ob[(a, b)].elements},
            )
        return NatTransOver(src, expr, dst, comps, check=False)

    def coherence_cell(self, kind: str, etypes: tuple):
        etypes = tuple(etypes)
        cell = self._cells.get((kind, etypes))
        if cell is not None:
            return cell
        if kind in ("assoc", "assoc_inv"):
            s, t, v = etypes
            lhs_e = self.tensor_etype(self.tensor_etype(s, t), v)
            rhs_e = self.tensor_etype(s, self.tensor_etype(t, v))
            if kind == "assoc":
                src_e, dst_e = lhs_e, rhs_e
                ob_map = lambda o: (o[0][0], (o[0][1], o[1]))
                el_map = lambda e: (e[0][0], (e[0][1], e[1]))
            else:
                src_e, dst_e = rhs_e, lhs_e
                ob_map = lambda o: ((o[0], o[1][0]), o[1][1])
                el_map = lambda e: ((e[0], e[1][0]), e[1][1])
        elif kind in ("unit_l", "unit_l_inv"):
            (s,) = etypes
            us = self.tensor_etype(self._unit, s)
            if kind == "unit_l":
                src_e, dst_e = us, s
                ob_map = lambda o: o[1]
                el_map = lambda e: e[1]
            else:
                src_e, dst_e = s, us
                ob_map = lambda o: ("*", o)
                el_map = lambda e: ("*", e)
        elif kind in ("unit_r", "unit_r_inv"):
            (s,) = etypes
            su = self.tensor_etype(s, self._unit)
            if kind == "unit_r":
                src_e, dst_e = su, s
                ob_map = lambda o: o[0]
                el_map = lambda e: e[0]
            else:
                src_e, dst_e = s, su
                ob_map = lambda o: (o, "*")
                el_map = lambda e: (e, "*")
        else:
            raise CapabilityError(f"unknown coherence cell {kind!r}")
        src_c, dst_c = src_e.cat, dst_e.cat
        arrow_map = {}
        for u, (o1, o2) in src_c.arrows.items():
            target = ob_map(o1), ob_map(o2)
            cand = None
            for w, (p1, p2) in dst_c.arrows.items():
                if (p1, p2) == target and _arrow_matches(kind, u, w):
                    cand = w
                    break
            assert cand is not None
            arrow_map[u] = cand
        expr = FinFunctor.unchecked(
            f"{kind}[{src_c.name}]", src_c, dst_c,
            {o: ob_map(o) for o in src_c.objects}, arrow_map,
        )
        comps = {
            o: FinFunction(
                f"{kind}@{render_elem(o)}", src_e.ob[o], dst_e.ob[ob_map(o)],
                {e: el_map(e) for e in src_e.ob[o].elements},
            )
            for o in src_c.objects
        }
        interp = NatTransOver(src_e, expr, dst_e, comps, check=False)
        cell = self._cells[kind, etypes] = (expr, src_e, dst_e, interp)
        return cell

    # --- residuals: functor categories and ends --------------------------------------------
    def functor_category(self, a: FinCategory, c: FinCategory) -> FinCategory:
        key = (a.name, c.name)
        cached = self._fcat_cache.get(key)
        if cached is not None and cached[0] == (a, c):
            return cached[1]
        functors = enumerate_functors(a, c)
        if len(functors) > self.max_functor_objects:
            raise CapabilityError(
                f"functor category [{a.name},{c.name}] has {len(functors)} objects, "
                f"exceeding the bound {self.max_functor_objects}"
            )
        objects = tuple(f.name for f in functors)
        by_name = dict(zip(objects, functors))
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
        arrows: dict = {}
        components: dict = {}
        lookup: dict = {}
        for f in functors:
            for g in functors:
                homs = [c.hom(f.ob(o), g.ob(o)) for o in a.objects]
                idx = 0
                for choice in itertools.product(*homs):
                    comp = dict(zip(a.objects, choice))
                    natural = all(
                        c.compose(f.ar(u), comp[o2]) == c.compose(comp[o1], g.ar(u))
                        for u, (o1, o2) in a.arrows.items()
                    )
                    if not natural:
                        continue
                    nm = f"n{idx}[{f.name}>{g.name}]"
                    idx += 1
                    arrows[nm] = (f.name, g.name)
                    components[nm] = comp
                    lookup[(f.name, g.name, tuple(comp[o] for o in a.objects))] = nm
        composition = {}
        for n1, (f1, g1) in arrows.items():
            for n2, (f2, g2) in arrows.items():
                if g1 != f2:
                    continue
                c1, c2 = components[n1], components[n2]
                key2 = (f1, g2, tuple(c.compose(c1[o], c2[o]) for o in a.objects))
                composition[(n1, n2)] = lookup[key2]
        identities = {}
        for f in functors:
            key2 = (f.name, f.name,
                    tuple(c.identity(f.ob(o)) for o in a.objects))
            identities[f.name] = lookup[key2]
        fcat = FinCategory(f"[{a.name},{c.name}]", objects, arrows, composition, identities)
        self._fcat_cache[key] = ((a, c), fcat)
        self._fcat_objects[fcat.name] = by_name
        self._fcat_components[fcat.name] = components
        return fcat

    def _functor_at(self, fcat: FinCategory, obj: str) -> FinFunctor:
        return self._fcat_objects[fcat.name][obj]

    def residual_left_itype(self, a: FinCategory, c: FinCategory) -> FinCategory:
        return self.functor_category(a, c)

    def residual_right_itype(self, c: FinCategory, b: FinCategory) -> FinCategory:
        return self.functor_category(b, c)

    def plug_l_expr(self, a: FinCategory, c: FinCategory) -> FinFunctor:
        fcat = self.functor_category(a, c)
        comps = self._fcat_components[fcat.name]
        dom = self.tensor_itype(a, fcat)
        return FinFunctor.unchecked(
            f"plugL[{a.name},{c.name}]", dom, c,
            {(x, fn): self._functor_at(fcat, fn).ob(x) for (x, fn) in dom.objects},
            {(u, nm): c.compose(
                self._functor_at(fcat, fcat.src(nm)).ar(u), comps[nm][a.dst(u)]
            ) for (u, nm) in dom.arrows},
        )

    def plug_r_expr(self, c: FinCategory, b: FinCategory) -> FinFunctor:
        fcat = self.functor_category(b, c)
        comps = self._fcat_components[fcat.name]
        dom = self.tensor_itype(fcat, b)
        return FinFunctor.unchecked(
            f"plugR[{c.name},{b.name}]", dom, c,
            {(fn, x): self._functor_at(fcat, fn).ob(x) for (fn, x) in dom.objects},
            {(nm, v): c.compose(
                comps[nm][b.src(v)], self._functor_at(fcat, fcat.dst(nm)).ar(v)
            ) for (nm, v) in dom.arrows},
        )

    def _partial_functor_name(self, h: FinFunctor, fixed, side: str,
                              fcat: FinCategory):
        """The object of fcat equal to h with one argument frozen."""
        a_cat, b_cat = self.tensor_factors(h.dom)
        if side == "left":
            cat = a_cat
            object_map = {x: h.ob((x, fixed)) for x in cat.objects}
            arrow_map = {u: h.ar((u, b_cat.identity(fixed))) for u in cat.arrows}
        else:
            cat = b_cat
            object_map = {y: h.ob((fixed, y)) for y in cat.objects}
            arrow_map = {v: h.ar((a_cat.identity(fixed), v)) for v in cat.arrows}
        target = FinFunctor.unchecked("partial", cat, h.cod, object_map, arrow_map)
        for name, func in self._fcat_objects[fcat.name].items():
            if func == target:
                return name
        raise CapabilityError("partial application is not an object of the functor category")

    def curry_l_expr(self, h: FinFunctor) -> FinFunctor:
        a_cat, b_cat = self.tensor_factors(h.dom)
        fcat = self.functor_category(a_cat, h.cod)
        lookup = {
            (arrows[0], arrows[1], tuple(self._fcat_components[fcat.name][nm][o]
                                         for o in a_cat.objects)): nm
            for nm, arrows in fcat.arrows.items()
        }
        object_map = {
            b: self._partial_functor_name(h, b, "left", fcat) for b in b_cat.objects
        }
        arrow_map = {}
        for v, (b, b2) in b_cat.arrows.items():
            comps = tuple(
                h.ar((a_cat.identity(x), v)) for x in a_cat.objects
            )
            arrow_map[v] = lookup[(object_map[b], object_map[b2], comps)]
        return FinFunctor.unchecked(f"lc({h.name})", b_cat, fcat, object_map, arrow_map)

    def curry_r_expr(self, h: FinFunctor) -> FinFunctor:
        a_cat, b_cat = self.tensor_factors(h.dom)
        fcat = self.functor_category(b_cat, h.cod)
        lookup = {
            (arrows[0], arrows[1], tuple(self._fcat_components[fcat.name][nm][o]
                                         for o in b_cat.objects)): nm
            for nm, arrows in fcat.arrows.items()
        }
        object_map = {
            x: self._partial_functor_name(h, x, "right", fcat) for x in a_cat.objects
        }
        arrow_map = {}
        for u, (x, x2) in a_cat.arrows.items():
            comps = tuple(
                h.ar((u, b_cat.identity(y))) for y in b_cat.objects
            )
            arrow_map[u] = lookup[(object_map[x], object_map[x2], comps)]
        return FinFunctor.unchecked(f"rc({h.name})", a_cat, fcat, object_map, arrow_map)

    def _nat_set(self, s: FinPresheaf, u: FinPresheaf, f: FinFunctor) -> tuple:
        """All natural transformations S => U(f-), encoded as nested tuples."""
        objs = s.cat.objects
        spaces = []
        for a in objs:
            dom, cod = s.ob[a], u.ob[f.ob(a)]
            spaces.append(tuple(itertools.product(cod.elements, repeat=len(dom))))
        out = []
        for choice in itertools.product(*spaces):
            tables = {
                a: dict(zip(s.ob[a].elements, choice[i]))
                for i, a in enumerate(objs)
            }
            ok = True
            for w, (a, a2) in s.cat.arrows.items():
                for x in s.ob[a].elements:
                    if u.ar[f.ar(w)](tables[a][x]) != tables[a2][s.ar[w](x)]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(choice)
        return tuple(sorted(out, key=canon_key))

    def _residual_presheaf(self, s: FinPresheaf, u: FinPresheaf,
                           fcat: FinCategory, name: str) -> FinPresheaf:
        comps = self._fcat_components[fcat.name]
        ob = {}
        for fn in fcat.objects:
            f = self._functor_at(fcat, fn)
            ob[fn] = FinSet(f"{name}({fn})", self._nat_set(s, u, f))
        ar = {}
        objs = s.cat.objects
        for nm, (fn, gn) in fcat.arrows.items():
            theta = comps[nm]
            mapping = {}
            for enc in ob[fn].elements:
                moved = tuple(
                    tuple(u.ar[theta[a]](val) for val in enc[i])
                    for i, a in enumerate(objs)
                )
                mapping[enc] = moved
            ar[nm] = FinFunction(f"{name}[{nm}]", ob[fn], ob[gn], mapping)
        return FinPresheaf(name, fcat, ob, ar)

    def residual_left_etype(self, s: FinPresheaf, u: FinPresheaf) -> FinPresheaf:
        fcat = self.functor_category(s.cat, u.cat)
        return self._residual_presheaf(s, u, fcat, f"negL[{u.name}]{{{s.name}}}")

    def residual_right_etype(self, u: FinPresheaf, t: FinPresheaf) -> FinPresheaf:
        fcat = self.functor_category(t.cat, u.cat)
        return self._residual_presheaf(t, u, fcat, f"negR[{u.name}]{{{t.name}}}")

    def _enc_lookup(self, s: FinPresheaf, enc: tuple, a, x):
        i = s.cat.objects.index(a)
        return enc[i][s.ob[a].index(x)]

    def residual_left_ev_interp(self, s: FinPresheaf, u: FinPresheaf) -> NatTransOver:
        res = self.residual_left_etype(s, u)
        src = self.tensor_etype(s, res)
        expr = self.plug_l_expr(s.cat, u.cat)
        comps = {}
        for (a, fn) in src.cat.objects:
            cod = u.ob[expr.ob((a, fn))]
            comps[(a, fn)] = FinFunction(
                f"ev@{render_elem((a, fn))}", src.ob[(a, fn)], cod,
                {(x, enc): self._enc_lookup(s, enc, a, x)
                 for (x, enc) in src.ob[(a, fn)].elements},
            )
        return NatTransOver(src, expr, u, comps, check=False)

    def residual_right_ev_interp(self, u: FinPresheaf, t: FinPresheaf) -> NatTransOver:
        res = self.residual_right_etype(u, t)
        src = self.tensor_etype(res, t)
        expr = self.plug_r_expr(u.cat, t.cat)
        comps = {}
        for (fn, b) in src.cat.objects:
            cod = u.ob[expr.ob((fn, b))]
            comps[(fn, b)] = FinFunction(
                f"ve@{render_elem((fn, b))}", src.ob[(fn, b)], cod,
                {(enc, x): self._enc_lookup(t, enc, b, x)
                 for (enc, x) in src.ob[(fn, b)].elements},
            )
        return NatTransOver(src, expr, u, comps, check=False)

    def residual_left_curry_interp(self, m: NatTransOver, s: FinPresheaf,
                                   v: FinPresheaf, u: FinPresheaf) -> NatTransOver:
        expr = self.curry_l_expr(m.expr)
        res = self.residual_left_etype(s, u)
        comps = {}
        for b in v.cat.objects:
            cod = res.ob[expr.ob(b)]
            mapping = {}
            for y in v.ob[b].elements:
                enc = tuple(
                    tuple(m.components[(a, b)]((x, y)) for x in s.ob[a].elements)
                    for a in s.cat.objects
                )
                mapping[y] = enc
            comps[b] = FinFunction(f"lcur@{render_elem(b)}", v.ob[b], cod, mapping)
        return NatTransOver(v, expr, res, comps, check=False)

    def residual_right_curry_interp(self, m: NatTransOver, v: FinPresheaf,
                                    t: FinPresheaf, u: FinPresheaf) -> NatTransOver:
        expr = self.curry_r_expr(m.expr)
        res = self.residual_right_etype(u, t)
        comps = {}
        for a in v.cat.objects:
            cod = res.ob[expr.ob(a)]
            mapping = {}
            for x in v.ob[a].elements:
                enc = tuple(
                    tuple(m.components[(a, b)]((x, y)) for y in t.ob[b].elements)
                    for b in t.cat.objects
                )
                mapping[x] = enc
            comps[a] = FinFunction(f"rcur@{render_elem(a)}", v.ob[a], cod, mapping)
        return NatTransOver(v, expr, res, comps, check=False)


def _arrow_matches(kind: str, u, w) -> bool:
    """Does product-category arrow w equal the regrouping of arrow u?"""
    if kind.startswith("assoc"):
        if kind == "assoc":
            return w == (u[0][0], (u[0][1], u[1]))
        return w == ((u[0], u[1][0]), u[1][1])
    if kind == "unit_l":
        return w == u[1]
    if kind == "unit_l_inv":
        return w == ("id", u)
    if kind == "unit_r":
        return w == u[0]
    assert kind == "unit_r_inv"
    return w == (u, "id")


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

    Functoriality of (u, v) -> u;v is exactly commutativity of the monoid;
    the functor check raises on a non-commutative table.
    """
    assert len(m.objects) == 1, "Day multiplication needs a one-object category"
    dom = sys.tensor_itype(m, m)
    star = m.objects[0]
    return FinFunctor(
        f"mult[{m.name}]", dom, m,
        {(star, star): star},
        {(u, v): m.compose(u, v) for (u, v) in dom.arrows},
    )


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

    Each result is a presheaf whose single value set is {p0, p1, ...}; the
    action tables range over every assignment that respects the composition
    table.  The order is deterministic: by size, then lexicographically by
    the action tables.
    """
    assert len(m.objects) == 1, "M-set enumeration needs a one-object category"
    star = m.objects[0]
    unit = m.identities[star]
    names = m.arrow_names()
    gens = tuple(a for a in names if a != unit)
    out = []
    low = prefix.lower()
    for n in range(1, max_elems + 1):
        elems = tuple(f"{low}{i}" for i in range(n))
        for tables in itertools.product(
                itertools.product(elems, repeat=n), repeat=len(gens)):
            act = {unit: {e: e for e in elems}}
            for g, tbl in zip(gens, tables):
                act[g] = dict(zip(elems, tbl))
            ok = all(
                act[m.compose(u, v)][e] == act[v][act[u][e]]
                for u in names for v in names for e in elems
            )
            if not ok:
                continue
            name = f"{prefix}{len(out)}"
            fs = FinSet(f"{name}({render_elem(star)})", elems)
            ar = {
                u: FinFunction(f"{name}.{render_elem(u)}", fs, fs, act[u])
                for u in names
            }
            out.append(FinPresheaf(name, m, {star: fs}, ar))
    return tuple(out)
