"""Finite model where refinement types are subsets and expressions are functions.

An index type is a registered finite set A; an expression is any function
between registered (or constructed) sets; a refinement type is a subset
S of a carrier.  A judgment S =[f]=> T holds iff f maps S into T, and the
model is proof-irrelevant: there is at most one morphism over each
expression, so derivation equality collapses to derivability of the
boundary judgment.

The model provides the full structural repertoire: inverse/direct image
(pullback/pushforward), the cartesian tensor with explicit coherence
cells, and the function-space residuals

    left and right residual of U by S:  { t : A -> C | t(S) <= U }

which coincide (the cartesian tensor is symmetric), so every closed hook
takes the side only to pass it to the kit's evaluation and currying and to
order the evaluation's tensor.  The index level is cartesian closed, so its
carriers (products, function spaces, the unit 1 = {*}) and its tables
(pairing, coherence cells, evaluation, currying) come from the system's
:class:`refsys.cartesian.CartesianKit`, which builds each carrier,
pairing, coherence cell, evaluation table and curried table once and
refuses any carrier larger than ``max_carrier`` with a CapabilityError.
The kit's products and function spaces compute their size, equality and
membership from their factors and build their elements only when
something iterates, indexes or renders them.
The system itself builds each tensor subset once, keyed by its two factors,
each coherence cell once, keyed by its kind and subsets, each residual
once, keyed by (S, U) (equal subsets have equal carriers and positions, so
an equal key gives an equal result), and the unit subset with the system.

A subset holds the positions of its members in its carrier, ``ix``, a
frozenset of ints, just as a :class:`refsys.fincat.FinFunction` holds
positions in its codomain.  Every operation of the model therefore runs on
positions and index tables, with set operations that run in C:

    f maps S into T        T.ix contains f.idx[i] for every i in S.ix
    pullback f*T           the positions i with f.idx[i] in T.ix
    pushforward fS         the positions f.idx[i] for i in S.ix
    tensor S x T           i*|B| + j for i in S.ix and j in T.ix

None of them reads a carrier's elements, so a subset of a kit carrier
never builds that carrier's elements or position dict.  ``elements``,
``name``, ``in`` and ``len`` read the subset in terms of elements;
``elements`` and ``in`` build the carrier's elements, and ``in`` its
position dict, on first use.

The residuals are built as positions too.  A function in [A->C] is the
tuple of its values in A's order, the space lists them in lexicographic
order, so { t | t(S) <= U } is the mixed-radix product of U's positions at
the positions in S and all of C's elsewhere, |U|^|S| * |C|^(|A|-|S|)
positions of the space.  The left residual of U by S and the right
residual of U by S are the same subset, kept once per (S, U) and shared
by both sides.  The guard applies to the function space, which every
residual is built inside, and ``residual_data`` asks for the evaluation
table, over S x [A->C] (or [A->C] x S), first, so a refused evaluation
builds no residual, and a residual kept from an earlier call does not move
that refusal.  No refusal is kept.

``Subset`` and ``SubsetMor`` are named tuples.  Their public constructors,
``Subset(of, elements)`` (and ``subset``) and ``SubsetMor(src, expr, dst)``,
check what they are given and raise ValidationError, also under
``python -O``.  Results that are valid by construction are built from
positions by ``_subset`` and ``_mor`` without a check: every subset the
system computes (pullbacks, pushforwards, tensors, residuals, the unit
and the enumerated e-types), the morphisms of ``morphisms_over`` (it
checks the boundaries and members first), identities, cuts (each step maps
into the next), the pairing of two morphisms, coherence cells (a cell
keeps every position, and so do its two ends) and evaluations (a residual's members send S into U).  The factors
of the pullback and pushforward rules and the curried morphisms are
checked, since they are built from morphisms and expressions that a caller
passes in.  ``morphisms_over`` and the two factor rules make that check in
their own frame: carriers are compared by identity before equality, and the
members by a short loop over the positions; a factor rule whose carriers
are not the same objects, or whose check fails, calls ``SubsetMor(...)``,
so every refusal keeps its text.

``compose_exprs`` keeps its last composite, keyed on the identity of both
operands, and the cut reads that memo inline.  A literal β/η check builds
g;f once per factor g in its witness and then cuts over the same g and f
for every subject, so each cut gets the witness's object back and the
kernel finds the two expressions equal by identity.  The memo holds one
composite per system.  The accessors ``refines``, ``expr_dom``,
``expr_cod`` and ``interp_*`` read one field through a C getter, so the
kernel's rules call no Python function for them.
"""
from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from typing import Iterator

from .cartesian import DEFAULT_MAX_CARRIER, CartesianKit, cell_ends
from .fincat import FinFunction, FinSet, all_functions, render_elem
from .kernel import (
    CapabilityError,
    IllFormedError,
    LawViolation,
    MismatchError,
    RefinementSystem,
    ValidationError,
    _new,
    in_place,
)

MAX_ENUMERATED_CARRIER = 16


class Subset(namedtuple("Subset", "of ix")):
    """A subset of a finite carrier; the refinement types of this model.

    ``ix`` is the frozenset of the members' positions in ``of``.  Equality
    and hashing compare the carrier and the positions, which is comparing
    the members.  The constructor takes the members themselves.  ``len``
    counts the members, so the tuple helpers ``_make`` and ``_replace``,
    which check the length, do not apply.
    """

    __slots__ = ()

    def __new__(cls, of: FinSet, elements) -> "Subset":
        at = of.positions()
        ix = []
        for x in elements:
            i = at.get(x)
            if i is None:
                raise ValidationError(f"element {x!r} outside carrier {of.name!r}")
            ix.append(i)
        return _new(cls, (of, frozenset(ix)))

    def __getnewargs__(self):
        return self.of, self.elements

    @property
    def elements(self) -> frozenset:
        return frozenset(map(self.of.elements.__getitem__, self.ix))

    @property
    def name(self) -> str:
        el = self.of.elements
        return "{" + ",".join(render_elem(el[i]) for i in sorted(self.ix)) + "}:" + self.of.name

    def __contains__(self, x) -> bool:
        return self.of.positions().get(x) in self.ix

    def __len__(self) -> int:
        return len(self.ix)

    def __repr__(self):
        return f"Subset({self.name})"


def _subset(of: FinSet, ix: frozenset) -> Subset:
    """The subset of ``of`` at positions ix, which must be valid.  Not checked."""
    return _new(Subset, (of, ix))


def subset(of: FinSet, elems) -> Subset:
    return Subset(of, frozenset(elems))


def full_subset(of: FinSet) -> Subset:
    return _subset(of, frozenset(range(len(of))))


def _preimage(f: FinFunction, ix: frozenset) -> Iterator[int]:
    """The positions of f's domain that f sends into ix."""
    return itertools.compress(itertools.count(), map(ix.__contains__, f.idx))


class SubsetMor(namedtuple("SubsetMor", "src expr dst")):
    """The at-most-one morphism from src to dst over expr: f maps src into dst."""

    __slots__ = ()

    def __new__(cls, src: Subset, expr: FinFunction, dst: Subset) -> "SubsetMor":
        # comparing tuples finds identical carriers equal without calling FinSet.__eq__
        if (expr.dom, expr.cod) != (src.of, dst.of):
            raise ValidationError("morphism boundaries do not match the expression")
        if not dst.ix.issuperset(map(expr.idx.__getitem__, src.ix)):
            raise ValidationError(f"{expr.name!r} does not map {src.name} into {dst.name}")
        return _new(cls, (src, expr, dst))


def _mor(src: Subset, expr: FinFunction, dst: Subset) -> SubsetMor:
    """The morphism over expr, which must map src into dst.  Not checked."""
    return _new(SubsetMor, (src, expr, dst))


class SubsetSystem(RefinementSystem):
    """The subsets-over-finite-sets refinement system."""

    proof_irrelevant = True

    def __init__(self, name: str, sets, max_carrier: int = DEFAULT_MAX_CARRIER):
        self.name = name
        self._sets = tuple(sets)
        if len({a.name for a in self._sets}) != len(self._sets):
            raise ValidationError(f"{name}: duplicate set names")
        self.kit = CartesianKit(max_carrier)
        self._id_cache: dict = {}
        self._last_composite = (None, None, None)
        self._unit = full_subset(self.kit.unit)
        self._tensors: dict = {}
        self._cells: dict = {}
        self._residuals: dict = {}

    # --- index level -------------------------------------------------------
    def i_types(self) -> tuple:
        return self._sets

    def expressions(self, a: FinSet, b: FinSet) -> Iterator[FinFunction]:
        return all_functions(a, b, name_prefix=f"{a.name}>{b.name}#")

    def id_expr(self, a: FinSet) -> FinFunction:
        f = self._id_cache.get(a)
        if f is None:
            f = self._id_cache[a] = FinFunction.identity(a)
        return f

    def compose_exprs(self, f: FinFunction, g: FinFunction) -> FinFunction:
        """f;g, the same object again while it is asked for the same f and g."""
        last_f, last_g, fg = self._last_composite
        if last_f is not f or last_g is not g:
            fg = f.then(g)
            self._last_composite = (f, g, fg)
        return fg

    expr_dom = staticmethod(operator.attrgetter("dom"))
    expr_cod = staticmethod(operator.attrgetter("cod"))

    # --- refinement level ----------------------------------------------------
    def _check_enumerable(self, carriers) -> None:
        for a in carriers:
            if len(a) > MAX_ENUMERATED_CARRIER:
                raise CapabilityError(
                    f"refusing to enumerate the 2^{len(a)} subsets of {a.name!r}: "
                    f"it has {len(a)} elements, exceeding the bound {MAX_ENUMERATED_CARRIER}"
                )

    @staticmethod
    def _subsets(a: FinSet) -> list:
        """The subsets of a in the order of their bitmasks, bit i for position i."""
        ixs = [frozenset()]
        for i in range(len(a)):
            ixs += [ix | {i} for ix in ixs]
        return [_subset(a, ix) for ix in ixs]

    def e_types(self) -> tuple:
        self._check_enumerable(self._sets)
        return tuple(s for a in self._sets for s in self._subsets(a))

    def e_types_over(self, a: FinSet) -> tuple:
        """The subsets of a, as filtering e_types() would give them, built alone.

        Only the registered carriers equal to a are bounded, so a larger
        carrier elsewhere in the system is not refused here; an unregistered
        carrier has no e-types.
        """
        carriers = [b for b in self._sets if b == a]
        self._check_enumerable(carriers)
        return tuple(s for b in carriers for s in self._subsets(b))

    refines = staticmethod(operator.attrgetter("of"))

    def holds(self, s: Subset, f: FinFunction, t: Subset) -> bool:
        """Whether f maps s into t: ``morphisms_over``'s tuple is not empty."""
        return bool(self.morphisms_over(s, f, t))

    def morphisms_over(self, s: Subset, f: FinFunction, t: Subset) -> tuple:
        """The morphism over f as a one-tuple when f maps s into t, else ().

        It checks the boundaries and every member, so the morphism is built
        unchecked.
        """
        a, b = f.dom, f.cod
        if (a is not s.of and a != s.of) or (b is not t.of and b != t.of):
            raise IllFormedError(
                f"{s.name} =[{f.name}]=> {t.name}: boundaries do not match"
            )
        idx, tix = f.idx, t.ix
        for i in s.ix:
            if idx[i] not in tix:
                return ()
        return (_new(SubsetMor, (s, f, t)),)

    def id_interp(self, s: Subset) -> SubsetMor:
        return _mor(s, self.id_expr(s.of), s)

    def compose_interps(self, m: SubsetMor, n: SubsetMor) -> SubsetMor:
        """The cut of two morphisms: f;g maps m.src into n.dst since each step does."""
        if m.dst is not n.src and m.dst != n.src:
            raise MismatchError(f"cut: target {m.dst.name} != subject {n.src.name}")
        f, g = m.expr, n.expr
        # compose_exprs's memo, read here: a literal check cuts over one g;f many times
        last_f, last_g, fg = self._last_composite
        if last_f is not f or last_g is not g:
            fg = self.compose_exprs(f, g)
        return _new(SubsetMor, (m.src, fg, n.dst))

    interp_expr = staticmethod(operator.attrgetter("expr"))
    interp_src = staticmethod(operator.attrgetter("src"))
    interp_dst = staticmethod(operator.attrgetter("dst"))

    # --- pullback / pushforward ---------------------------------------------
    def pullback_data(self, f: FinFunction, t: Subset):
        if f.cod != t.of:
            raise MismatchError("pullback: expression must land in the carrier of the target")
        a = f.dom
        et = _subset(a, frozenset(_preimage(f, t.ix)))
        left = _mor(et, f, t)
        into = et.ix

        def factor(m: SubsetMor, g: FinFunction) -> SubsetMor:
            # SubsetMor's check, made here while the carriers are the same objects
            src = m.src
            if g.dom is src.of and g.cod is a:
                idx = g.idx
                for i in src.ix:
                    if idx[i] not in into:
                        break
                else:
                    return _new(SubsetMor, (src, g, et))
            return SubsetMor(src, g, et)

        return et, left, factor

    def pushforward_data(self, s: Subset, f: FinFunction):
        if f.dom != s.of:
            raise MismatchError(
                "pushforward: expression must start at the carrier of the subject"
            )
        b = f.cod
        et = _subset(b, frozenset(map(f.idx.__getitem__, s.ix)))
        right = _mor(s, f, et)
        members = et.ix

        def factor(m: SubsetMor, g: FinFunction) -> SubsetMor:
            # SubsetMor's check, made here while the carriers are the same objects
            dst = m.dst
            if g.dom is b and g.cod is dst.of:
                idx, into = g.idx, dst.ix
                for i in members:
                    if idx[i] not in into:
                        break
                else:
                    return _new(SubsetMor, (et, g, dst))
            return SubsetMor(et, g, dst)

        return et, right, factor

    # --- monoidal structure: the kit's products, at the index level ------------
    def tensor_itype(self, a: FinSet, b: FinSet) -> FinSet:
        return self.kit.product(a, b)

    def tensor_expr(self, f: FinFunction, g: FinFunction) -> FinFunction:
        return self.kit.pairing(f, g)

    def tensor_etype(self, s: Subset, t: Subset) -> Subset:
        st = self._tensors.get((s, t))
        if st is None:
            # (a_i, b_j) sits at position i*|B| + j of the product
            n = len(t.of)
            st = self._tensors[s, t] = _subset(
                self.kit.product(s.of, t.of),
                frozenset([i * n + j for i in s.ix for j in t.ix]),
            )
        return st

    def unit_etype(self) -> Subset:
        return self._unit

    def tensor_interp(self, m: SubsetMor, n: SubsetMor) -> SubsetMor:
        # f x g maps S x S' into T x T' when f maps S into T and g maps S' into T'
        return _mor(
            self.tensor_etype(m.src, n.src),
            self.kit.pairing(m.expr, n.expr),
            self.tensor_etype(m.dst, n.dst),
        )

    def coherence_cell(self, kind: str, etypes: tuple) -> SubsetMor:
        etypes = tuple(etypes)
        cell = self._cells.get((kind, etypes))
        if cell is None:
            expr = self.kit.cell(kind, tuple(map(self.refines, etypes)))
            src, dst = cell_ends(kind, etypes, self.tensor_etype, self._unit)
            # a cell regroups, so it keeps every position, and both ends hold the same ones
            cell = self._cells[kind, etypes] = _mor(src, expr, dst)
        return cell

    # --- residuals: subsets of the kit's function spaces ------------------------
    def function_space(self, a: FinSet, c: FinSet) -> FinSet:
        return self.kit.function_space(a, c)

    def residual_itype(self, a: FinSet, c: FinSet) -> FinSet:
        return self.function_space(a, c)

    def plug_expr(self, side: str, a: FinSet, c: FinSet) -> FinFunction:
        return self.kit.plug(side, a, c)

    def curry_expr(self, side: str, f: FinFunction) -> FinFunction:
        return self.kit.curry(side, f, *in_place(side, *self.kit.factors(f.dom)))

    def residual_etype(self, side: str, s: Subset, u: Subset) -> Subset:
        """{ t : A -> C | t(S) <= U } for S <= A and U <= C, built once per (S, U).

        The cartesian tensor is symmetric, so both sides are this subset,
        the same object.  [A->C] lists the tuples of
        ``itertools.product(C, repeat=|A|)`` in lexicographic order, so the
        tuple at position k has the base-|C| digits of k as its value
        positions, the first most significant.  The residual is the
        mixed-radix product in which a position of A in S takes the
        positions of U and every other position all of C; its size is
        |U|^|S| * |C|^(|A|-|S|).  Each prefix followed by free positions is
        one range of the space's positions, so the space's elements are
        never read.  The prefixes of all but the last digit are listed;
        those of the last, the largest level, are streamed into the result.
        The function space [A->C] is subject to the ``max_carrier`` guard,
        and a refused one raises before anything is kept.
        """
        res = self._residuals.get((s, u))
        if res is None:
            fs = self.function_space(s.of, u.of)
            n = len(u.of)
            allowed = sorted(u.ix)
            digits = [allowed if i in s.ix else range(n) for i in range(len(s.of))]
            # trailing positions that allow all of C make each prefix a contiguous run
            run = 1
            while digits and len(digits[-1]) == n:
                digits.pop()
                run *= n
            last = digits.pop() if digits else (0,)
            starts = [0]
            for ds in digits:
                starts = [k * n + d for k in starts for d in ds]
            res = self._residuals[s, u] = _subset(fs, frozenset(itertools.chain.from_iterable(
                range(k * run, (k + 1) * run) for k in (j * n + d for j in starts for d in last)
            )))
        return res

    def residual_data(self, side: str, s: Subset, u: Subset):
        # the evaluation, over S x [A->C] or [A->C] x S, is refused before the residual is built
        plug = self.kit.plug(side, s.of, u.of)
        res = self.residual_etype(side, s, u)
        # a residual's members send S into U, so evaluation maps S x res into U
        ev = _mor(self.tensor_etype(*in_place(side, s, res)), plug, u)
        return res, ev, lambda m, v: SubsetMor(v, self.curry_expr(side, m.expr), res)


def build_subset_system(sets, name: str = "subset",
                        max_carrier: int = DEFAULT_MAX_CARRIER) -> SubsetSystem:
    return SubsetSystem(name, sets, max_carrier)


# --- predicate transformers over a finite state machine -----------------------

class HoareProgram:
    """A finite state set plus named commands (total functions on states).

    Partial-correctness triples {P} c1;..;cn {Q} are judged by the refinement
    system: the triple holds iff the composite expression maps P into Q, iff
    P is contained in the backward predicate transformer fold (inverse
    images), iff the forward fold (direct images) is contained in Q.  All
    three readings are computed and must agree.
    """

    def __init__(self, sys: SubsetSystem, states: FinSet, commands: dict):
        self.sys = sys
        self.states = states
        for name, f in commands.items():
            if f.dom != states or f.cod != states:
                raise ValidationError(f"command {name!r} is not an endo")
        self.commands = dict(commands)

    def composite(self, names) -> FinFunction:
        out = self.sys.id_expr(self.states)
        for n in names:
            out = out.then(self.commands[n])
        return out

    def wp(self, name: str, q: Subset) -> Subset:
        et, _, _ = self.sys.pullback_data(self.commands[name], q)
        return et

    def sp(self, p: Subset, name: str) -> Subset:
        et, _, _ = self.sys.pushforward_data(p, self.commands[name])
        return et

    def wp_fold(self, names, q: Subset) -> Subset:
        out = q
        for n in reversed(list(names)):
            out = self.wp(n, out)
        return out

    def sp_fold(self, p: Subset, names) -> Subset:
        out = p
        for n in names:
            out = self.sp(out, n)
        return out

    def check_triple(self, p: Subset, names, q: Subset) -> bool:
        names = list(names)
        direct = self.sys.holds(p, self.composite(names), q)
        backward = p.ix <= self.wp_fold(names, q).ix
        forward = self.sp_fold(p, names).ix <= q.ix
        if not direct == backward == forward:
            raise LawViolation("predicate transformer readings disagree")
        return direct
