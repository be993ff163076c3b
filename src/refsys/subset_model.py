"""Finite model where refinement types are subsets and expressions are functions.

An index type is a registered finite set A; an expression is any function
between registered (or constructed) sets; a refinement type is a subset
S of a carrier.  A judgment S =[f]=> T holds iff f maps S into T, and the
model is proof-irrelevant: there is at most one morphism over each
expression, so derivation equality collapses to derivability of the
boundary judgment.

The model provides the full structural repertoire: inverse/direct image
(pullback/pushforward), weighted intersections and unions, the cartesian
tensor with explicit coherence cells, and the function-space residuals

    left  residual of U by S:  { t : A -> C | t(S) <= U }
    right residual of U by T:  { t : B -> C | t(T) <= U }

whose carriers coincide (the cartesian tensor is symmetric, so both are the
plain function space).  The index level is cartesian closed, so its
carriers (products, function spaces, the unit 1 = {*}) and its tables
(pairing, coherence cells, evaluation, currying) come from the system's
:class:`refsys.cartesian.CartesianKit`, which builds each carrier,
pairing and coherence cell once and refuses any carrier larger than
``max_carrier`` with a CapabilityError.  The system itself builds each
tensor subset once, keyed by its two factors, each coherence cell once,
keyed by its kind and subsets (equal subsets have equal carriers and
elements, so an equal key gives an equal result), and the unit subset with
the system.

This module adds what is particular to subsets: the subsets over those
carriers, and the residuals, built directly rather than by filtering the
function space.  A function in [A->C] is the tuple of its values in A's
order, the space lists them in lexicographic order, so { t | t(S) <= U } is
the mixed-radix product of U's indices at the positions in S and all of
C's elsewhere, |U|^|S| * |C|^(|A|-|S|) tuples picked from the space by
index.  The guard applies to the function space, which every residual is
built inside.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .cartesian import DEFAULT_MAX_CARRIER, CartesianKit, cell_ends
from .fincat import FinFunction, FinSet, all_functions, render_elem
from .kernel import IllFormedError, LawViolation, RefinementSystem, ValidationError


@dataclass(frozen=True)
class Subset:
    """A subset of a finite carrier; the refinement types of this model."""
    of: FinSet
    elements: frozenset

    def __post_init__(self):
        for x in self.elements:
            if x not in self.of:
                raise ValidationError(f"element {x!r} outside carrier {self.of.name!r}")

    @cached_property
    def name(self) -> str:
        inner = ",".join(
            render_elem(x) for x in sorted(self.elements, key=self.of.index)
        )
        return "{" + inner + "}:" + self.of.name

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"Subset({self.name})"


def subset(of: FinSet, elems) -> Subset:
    return Subset(of, frozenset(elems))


def full_subset(of: FinSet) -> Subset:
    return Subset(of, frozenset(of.elements))


@dataclass(frozen=True)
class SubsetMor:
    """The at-most-one morphism from src to dst over expr: f maps src into dst."""
    src: Subset
    expr: FinFunction
    dst: Subset

    def __post_init__(self):
        if not (self.expr.dom == self.src.of and self.expr.cod == self.dst.of):
            raise ValidationError("morphism boundaries do not match the expression")
        for x in self.src.elements:
            if self.expr(x) not in self.dst:
                raise ValidationError(
                    f"{self.expr.name!r} does not map {self.src.name} into {self.dst.name}"
                )


class SubsetSystem(RefinementSystem):
    """The subsets-over-finite-sets refinement system."""

    has_pullbacks = True
    has_pushforwards = True
    is_monoidal = True
    is_closed = True
    has_weighted = True
    proof_irrelevant = True

    def __init__(self, name: str, sets, max_carrier: int = DEFAULT_MAX_CARRIER):
        self.name = name
        self._sets = tuple(sets)
        assert len({a.name for a in self._sets}) == len(self._sets), "duplicate set names"
        self.kit = CartesianKit(max_carrier)
        self._id_cache: dict = {}
        self._unit = full_subset(self.kit.unit)
        self._tensors: dict = {}
        self._cells: dict = {}

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
        return f.then(g)

    def expr_dom(self, f: FinFunction) -> FinSet:
        return f.dom

    def expr_cod(self, f: FinFunction) -> FinSet:
        return f.cod

    # --- refinement level ----------------------------------------------------
    def e_types(self) -> tuple:
        out = []
        for a in self._sets:
            assert len(a) <= 16, f"refusing to enumerate 2^{len(a)} subsets of {a.name!r}"
            for mask in range(1 << len(a)):
                out.append(Subset(a, frozenset(
                    x for i, x in enumerate(a.elements) if mask >> i & 1
                )))
        return tuple(out)

    def refines(self, s: Subset) -> FinSet:
        return s.of

    def holds(self, s: Subset, f: FinFunction, t: Subset) -> bool:
        if not (f.dom == s.of and f.cod == t.of):
            raise IllFormedError(
                f"{s.name} =[{f.name}]=> {t.name}: boundaries do not match"
            )
        return all(f(x) in t for x in s.elements)

    def morphisms_over(self, s: Subset, f: FinFunction, t: Subset) -> Iterator[SubsetMor]:
        if self.holds(s, f, t):
            yield SubsetMor(s, f, t)

    def id_interp(self, s: Subset) -> SubsetMor:
        return SubsetMor(s, self.id_expr(s.of), s)

    def compose_interps(self, m: SubsetMor, n: SubsetMor) -> SubsetMor:
        assert m.dst == n.src
        return SubsetMor(m.src, m.expr.then(n.expr), n.dst)

    def interp_expr(self, m: SubsetMor) -> FinFunction:
        return m.expr

    def interp_src(self, m: SubsetMor) -> Subset:
        return m.src

    def interp_dst(self, m: SubsetMor) -> Subset:
        return m.dst

    # --- pullback / pushforward ---------------------------------------------
    def pullback_data(self, f: FinFunction, t: Subset):
        assert f.cod == t.of, "pullback: expression must land in the carrier of the target"
        et = Subset(f.dom, frozenset(x for x in f.dom.elements if f(x) in t))
        left = SubsetMor(et, f, t)

        def factor(m: SubsetMor, g: FinFunction) -> SubsetMor:
            return SubsetMor(m.src, g, et)

        return et, left, factor

    def pushforward_data(self, s: Subset, f: FinFunction):
        assert f.dom == s.of, "pushforward: expression must start at the carrier of the subject"
        et = Subset(f.cod, f.image(s.elements))
        right = SubsetMor(s, f, et)

        def factor(m: SubsetMor, g: FinFunction) -> SubsetMor:
            return SubsetMor(et, g, m.dst)

        return et, right, factor

    # --- weighted families ----------------------------------------------------
    def weighted_intersection_etype(self, a: FinSet, family) -> Subset:
        for f, t in family:
            assert f.dom == a and f.cod == t.of
        return Subset(a, frozenset(
            x for x in a.elements if all(f(x) in t for f, t in family)
        ))

    def weighted_union_etype(self, b: FinSet, family) -> Subset:
        elems: set = set()
        for f, s in family:
            assert f.cod == b and f.dom == s.of
            elems |= {f(x) for x in s.elements}
        return Subset(b, frozenset(elems))

    # --- monoidal structure: the kit's products, at the index level ------------
    def tensor_itype(self, a: FinSet, b: FinSet) -> FinSet:
        return self.kit.product(a, b)

    def unit_itype(self) -> FinSet:
        return self.kit.unit

    def tensor_expr(self, f: FinFunction, g: FinFunction) -> FinFunction:
        return self.kit.pairing(f, g)

    def tensor_etype(self, s: Subset, t: Subset) -> Subset:
        st = self._tensors.get((s, t))
        if st is None:
            st = Subset(
                self.kit.product(s.of, t.of),
                frozenset(itertools.product(s.elements, t.elements)),
            )
            self._tensors[s, t] = st
        return st

    def unit_etype(self) -> Subset:
        return self._unit

    def tensor_interp(self, m: SubsetMor, n: SubsetMor) -> SubsetMor:
        return SubsetMor(
            self.tensor_etype(m.src, n.src),
            self.kit.pairing(m.expr, n.expr),
            self.tensor_etype(m.dst, n.dst),
        )

    def coherence_cell(self, kind: str, etypes: tuple):
        etypes = tuple(etypes)
        cell = self._cells.get((kind, etypes))
        if cell is None:
            expr = self.kit.cell(kind, tuple(s.of for s in etypes))
            src, dst = cell_ends(kind, etypes, self.tensor_etype, self._unit)
            cell = self._cells[kind, etypes] = (expr, src, dst, SubsetMor(src, expr, dst))
        return cell

    # --- residuals: subsets of the kit's function spaces ------------------------
    def function_space(self, a: FinSet, c: FinSet) -> FinSet:
        return self.kit.function_space(a, c)

    def residual_left_itype(self, a: FinSet, c: FinSet) -> FinSet:
        return self.function_space(a, c)

    def residual_right_itype(self, c: FinSet, b: FinSet) -> FinSet:
        return self.function_space(b, c)

    def plug_l_expr(self, a: FinSet, c: FinSet) -> FinFunction:
        return self.kit.plug_l(a, c)

    def plug_r_expr(self, c: FinSet, b: FinSet) -> FinFunction:
        return self.kit.plug_r(c, b)

    def curry_l_expr(self, f: FinFunction) -> FinFunction:
        return self.kit.curry_l(f, *self.kit.factors(f.dom))

    def curry_r_expr(self, f: FinFunction) -> FinFunction:
        return self.kit.curry_r(f, *self.kit.factors(f.dom))

    def _residual(self, s: Subset, u: Subset) -> Subset:
        """{ t : A -> C | t(S) <= U } for S <= A and U <= C, built directly.

        [A->C] lists the tuples of ``itertools.product(C, repeat=|A|)`` in
        lexicographic order, so the tuple at index k has the base-|C| digits
        of k as its value indices, the first position most significant.  The
        residual is the mixed-radix product in which a position x in S takes
        the indices of U and every other position all of C; its size is
        |U|^|S| * |C|^(|A|-|S|).  The members are taken from ``fs.elements``
        by index (each prefix followed by free positions is one slice), so the
        residual shares the function space's tuples instead of holding copies
        of them.
        """
        a, c = s.of, u.of
        fs = self.function_space(a, c)
        n = len(c)
        # ascending digits keep the members in the space's order
        allowed = sorted(c.index(y) for y in u.elements)
        digits = [allowed if x in s else range(n) for x in a.elements]
        # trailing positions that allow all of C make each prefix a contiguous run
        run = 1
        while digits and len(digits[-1]) == n:
            digits.pop()
            run *= n
        starts = [0]
        for ds in digits:
            starts = [k * n + d for k in starts for d in ds]
        return Subset(fs, frozenset(itertools.chain.from_iterable(
            fs.elements[k * run:(k + 1) * run] for k in starts
        )))

    def residual_left_etype(self, s: Subset, u: Subset) -> Subset:
        """Left residual of U by S: the functions in [A->C] that map S into U.

        Built directly by :meth:`_residual`, with |U|^|S| * |C|^(|A|-|S|)
        members; the function space [A->C] itself is still subject to the
        ``max_carrier`` guard.
        """
        return self._residual(s, u)

    def residual_right_etype(self, u: Subset, t: Subset) -> Subset:
        """Right residual of U by T: the functions in [B->C] that map T into U.

        The cartesian tensor is symmetric, so this is the same subset as the
        left residual of U by T, built directly by :meth:`_residual` with
        |U|^|T| * |C|^(|B|-|T|) members; [B->C] is still subject to the
        ``max_carrier`` guard.
        """
        return self._residual(t, u)

    def residual_left_ev_interp(self, s: Subset, u: Subset) -> SubsetMor:
        res = self.residual_left_etype(s, u)
        return SubsetMor(
            self.tensor_etype(s, res), self.plug_l_expr(s.of, u.of), u
        )

    def residual_right_ev_interp(self, u: Subset, t: Subset) -> SubsetMor:
        res = self.residual_right_etype(u, t)
        return SubsetMor(
            self.tensor_etype(res, t), self.plug_r_expr(u.of, t.of), u
        )

    def residual_left_curry_interp(self, m: SubsetMor, s: Subset, v: Subset,
                                   u: Subset) -> SubsetMor:
        return SubsetMor(v, self.curry_l_expr(m.expr), self.residual_left_etype(s, u))

    def residual_right_curry_interp(self, m: SubsetMor, v: Subset, t: Subset,
                                    u: Subset) -> SubsetMor:
        return SubsetMor(v, self.curry_r_expr(m.expr), self.residual_right_etype(u, t))


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
        backward = p.elements <= self.wp_fold(names, q).elements
        forward = self.sp_fold(p, names).elements <= q.elements
        if not direct == backward == forward:
            raise LawViolation("predicate transformer readings disagree")
        return direct


def build_classifier_system(sizes=(1, 2, 3), name: str = "classifier"):
    """Carriers of the given sizes plus a two-point answer set Omega.

    Returns (system, truth, encodings) where truth = {1} <= Omega and
    encodings maps every subset S of every registered carrier to its
    characteristic function chi_S, the unique expression whose inverse image
    of truth is S.
    """
    omega = FinSet("Omega", (0, 1))
    carriers = [omega]
    for k in sizes:
        carriers.append(FinSet(f"A{k}", tuple(f"a{i}" for i in range(1, k + 1))))
    sys = SubsetSystem(name, tuple(carriers))
    truth = subset(omega, {1})
    encodings = {}
    for s in sys.e_types():
        encodings[s] = FinFunction(
            f"chi_{s.name}", s.of, omega,
            {x: 1 if x in s else 0 for x in s.of.elements},
        )
    return sys, truth, encodings
