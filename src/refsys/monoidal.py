"""Tensor, residuals, and the separation-logic connectives built from them.

The tensor rule M pairs two derivations; coherence cells (associators and
unitors) are explicit derivations, so the monoidal equations are stated
modulo those cells and checked by interpretation.  ``tensor_iso`` checks
that the tensor preserves pullbacks and pushforwards; like
``structures.witness`` it takes the kind first.  A residual witness
packages a function-space type with its evaluation rule and executable
currying rule:

    left residual  negL[U]{S}:  ev : S (x) negL[U]{S} =[plugL]=> U
                                curry : (S (x) V =[f]=> U)  ->  V =[lc f]=> negL[U]{S}
    right residual negR[U]{T}:  ev : negR[U]{T} (x) T =[plugR]=> U
                                curry : (V (x) T =[f]=> U)  ->  V =[rc f]=> negR[U]{T}

subject to beta/eta equations mirroring the pullback ones.  A model gives
both from one hook, ``residual_data``, that takes the side, as it gives a
pullback with its rules.  Every function here that builds a residual takes
the side too, and :func:`refsys.kernel.in_place` puts the fixed operand in
its place in the tensor.  The functorial action f -o g of a residual is the
curried (f (x) id) ; ev ; g, or (id (x) f) ; ev ; g, on derivations and on
index types.  On top of the residuals: double negation (shift into it),
and the separating conjunction / magic wand pair obtained by pushing the
tensor forward along a multiplication expression and pulling the residual
back along its currying.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .kernel import (
    Derivation,
    LawViolation,
    MismatchError,
    RefinementSystem,
    Status,
    ValidationError,
    VerticalIso,
    classify,
    compose_derivations,
    compose_many,
    conversion,
    derivations_equal,
    derivations_over,
    find_inverse,
    from_interp,
    identity_derivation,
    in_place,
    name_of,
)
from .structures import LawReport, pullback, pushforward, witness


# --- tensor rules ----------------------------------------------------------------

def tensor_derivations(sys: RefinementSystem, d1: Derivation, d2: Derivation) -> Derivation:
    """The congruence rule M: pair two derivations into one over the tensor."""
    return from_interp(sys, sys.tensor_interp(d1.interp, d2.interp), "M", (d1, d2))


def unit_derivation(sys: RefinementSystem) -> Derivation:
    """The nullary rule U: the unit type entails itself."""
    return from_interp(sys, sys.id_interp(sys.unit_etype()), "U")


def coherence_derivation(sys: RefinementSystem, kind: str, etypes: tuple) -> Derivation:
    """A structural cell (assoc/unitors, and their inverses) as a derivation."""
    return from_interp(sys, sys.coherence_cell(kind, tuple(etypes)), "coh")


# --- the monoidal equations -------------------------------------------------------

def check_monoidal_equations(sys: RefinementSystem, ds, cap: int = 2000) -> LawReport:
    """Equations of the tensor, instantiated over the given derivations.

    ds is a sequence of derivations used as raw material; the function forms
    the tuples each equation quantifies over (deterministically, capped at
    `cap` instances per equation):

      functoriality     M(d1,d2);M(e1,e2) == M(d1;e1, d2;e2), M(I,I) == I
      assoc naturality  assoc;(d1 (x) (d2 (x) d3)) == ((d1 (x) d2) (x) d3);assoc
      unitor naturality unit_l;(d) == (U (x) d);unit_l  (and unit_r)
      invertibility     each cell composed with its inverse is an identity
      pentagon/triangle the two classical diagrams, on the subjects of ds

    A derivation that several instances share (the identity on a type, the
    tensor of two derivations of ds, the cut of a composable pair, a
    coherence cell on subjects or targets of ds) is built once, on first
    use, and kept until the call returns.  Nothing is built ahead, so a
    model that refuses a product refuses it at the instance that first
    needs it, as when every instance builds its own.  A cell or tensor the
    model cannot build as a morphism fails the instance that needs it, as
    in tensor_iso, and ends the check there.
    """
    rep = LawReport()
    try:
        for holds, failure in _monoidal_instances(sys, tuple(ds), cap):
            rep.check(holds, failure)
            if rep.full:
                break
    except ValidationError as exc:
        rep.check(False, f"an instance builds a derivation that is not a morphism ({exc})")
    return rep


def _monoidal_instances(sys: RefinementSystem, ds: tuple, cap: int):
    """(holds, failure message) for each instance, equation by equation.

    The memos key a derivation by the ids of its operands.  Every operand
    is kept alive until the call returns, by ds, by the memo entry or by a
    local name, so no id is reused while a memo lives.
    """
    idents, cells = {}, {}

    def ident(s) -> Derivation:
        entry = idents.get(id(s))
        if entry is None:
            entry = idents[id(s)] = (s, identity_derivation(sys, s))
        return entry[1]

    def pairwise(rule):
        """rule(sys, x, y), built once per (x, y)."""
        built = {}

        def get(x, y) -> Derivation:
            d = built.get((id(x), id(y)))
            if d is None:
                d = built[id(x), id(y)] = rule(sys, x, y)
            return d
        return get

    tensor, cut = pairwise(tensor_derivations), pairwise(compose_derivations)

    def cell(kind, *etypes) -> Derivation:
        key = (kind, *map(id, etypes))
        d = cells.get(key)
        if d is None:
            d = cells[key] = coherence_derivation(sys, kind, etypes)
        return d

    # functoriality on identities
    for d1, d2 in itertools.islice(itertools.product(ds, repeat=2), cap):
        lhs = tensor(ident(d1.subject), ident(d2.subject))
        rhs = ident(sys.tensor_etype(d1.subject, d2.subject))
        yield (derivations_equal(sys, lhs, rhs),
               lambda: f"M(I,I) != I at {d1.subject.name}, {d2.subject.name}")

    # functoriality on composites
    composable = [
        (d1, e1) for d1 in ds for e1 in ds if d1.target == e1.subject
    ]
    for (d1, e1), (d2, e2) in itertools.islice(
            itertools.product(composable, repeat=2), cap):
        lhs = compose_derivations(sys, tensor(d1, d2), tensor(e1, e2))
        rhs = tensor_derivations(sys, cut(d1, e1), cut(d2, e2))
        yield derivations_equal(sys, lhs, rhs), "tensor does not respect cut"

    # associator naturality
    for d1, d2, d3 in itertools.islice(itertools.product(ds, repeat=3), cap):
        a_src = cell("assoc", d1.subject, d2.subject, d3.subject)
        a_dst = cell("assoc", d1.target, d2.target, d3.target)
        lhs = compose_derivations(sys, a_src, tensor_derivations(sys, d1, tensor(d2, d3)))
        rhs = compose_derivations(sys, tensor_derivations(sys, tensor(d1, d2), d3), a_dst)
        yield derivations_equal(sys, lhs, rhs), "associator is not natural"

    # unitor naturality and invertibility of all cells
    u = unit_derivation(sys)
    for d in itertools.islice(ds, cap):
        lhs = compose_derivations(sys, cell("unit_l", d.subject), d)
        rhs = compose_derivations(sys, tensor_derivations(sys, u, d), cell("unit_l", d.target))
        yield derivations_equal(sys, lhs, rhs), "left unitor is not natural"
        lhs = compose_derivations(sys, cell("unit_r", d.subject), d)
        rhs = compose_derivations(sys, tensor_derivations(sys, d, u), cell("unit_r", d.target))
        yield derivations_equal(sys, lhs, rhs), "right unitor is not natural"

    def invertible(kind, inv, operands) -> bool:
        fwd = cell(kind, *operands)
        bwd = cell(inv, *operands)
        return (derivations_equal(sys, compose_derivations(sys, fwd, bwd), ident(fwd.subject))
                and derivations_equal(sys, compose_derivations(sys, bwd, fwd),
                                      ident(fwd.target)))

    subjects = []
    for d in ds:
        if d.subject not in subjects:
            subjects.append(d.subject)
    for s in subjects:
        for kind, inv in (("unit_l", "unit_l_inv"), ("unit_r", "unit_r_inv")):
            yield (invertible(kind, inv, (s,)),
                   lambda: f"{kind} cell is not invertible at {s.name}")
    for s, t, v in itertools.islice(itertools.product(subjects, repeat=3), cap):
        yield invertible("assoc", "assoc_inv", (s, t, v)), "associator cell is not invertible"

    # triangle
    unit_et = sys.unit_etype()
    for s, t in itertools.islice(itertools.product(subjects, repeat=2), cap):
        assoc = cell("assoc", s, unit_et, t)
        lam = cell("unit_l", t)
        rho = cell("unit_r", s)
        lhs = compose_derivations(sys, assoc, tensor_derivations(sys, ident(s), lam))
        rhs = tensor_derivations(sys, rho, ident(t))
        yield derivations_equal(sys, lhs, rhs), "triangle equation fails"

    # pentagon
    for s, t, v, w in itertools.islice(itertools.product(subjects, repeat=4), cap):
        i_s, i_w = ident(s), ident(w)
        lhs = compose_many(
            sys,
            tensor_derivations(sys, cell("assoc", s, t, v), i_w),
            coherence_derivation(sys, "assoc", (s, sys.tensor_etype(t, v), w)),
            tensor_derivations(sys, i_s, cell("assoc", t, v, w)),
        )
        rhs = compose_many(
            sys,
            coherence_derivation(sys, "assoc", (sys.tensor_etype(s, t), v, w)),
            coherence_derivation(sys, "assoc", (s, t, sys.tensor_etype(v, w))),
        )
        yield derivations_equal(sys, lhs, rhs), "pentagon equation fails"


# --- tensor preserves pullbacks and pushforwards -----------------------------------

def tensor_iso(sys: RefinementSystem, kind: str, f1, x1, f2, x2) -> VerticalIso:
    """f1*T1 (x) f2*T2 is canonically isomorphic to (f1 (x) f2)*(T1 (x) T2)
    for kind "pull", and (f1 (x) f2)(S1 (x) S2) to f1S1 (x) f2S2 for "push".

    The witness of the tensored data factors the paired units; its inverse
    is searched for.  A factor the model cannot build as a morphism fails
    the law, as in uniqueness_iso.
    """
    w1, w2 = witness(sys, kind, f1, x1), witness(sys, kind, f2, x2)
    w12 = witness(sys, kind, sys.tensor_expr(f1, f2), sys.tensor_etype(x1, x2))
    paired = tensor_derivations(sys, w1.unit, w2.unit)
    try:
        fwd = w12.factor_subtyping(paired)
    except ValidationError as exc:
        raise LawViolation(f"tensor does not preserve this {w1.noun} pair: "
                           f"factor is not a morphism ({exc})") from exc
    bwd = find_inverse(sys, fwd)
    if bwd is None:
        raise LawViolation(f"tensor does not preserve this {w1.noun} pair")
    return VerticalIso(fwd, bwd)


# --- residual witnesses -------------------------------------------------------------

@dataclass
class ResidualWitness:
    """A residual type with its evaluation rule and executable currying rule.

    side "left": etype = negL[U]{S}, fixed = S, everything to the right of S.
    side "right": etype = negR[U]{T}, fixed = T, everything to the left of T.
    transpose(m, v) is the model's currying of m into etype.
    """
    sys: RefinementSystem
    side: str
    fixed: Any
    u: Any
    etype: Any
    ev: Derivation
    transpose: Callable

    def curry(self, beta: Derivation, v) -> Derivation:
        """Transpose beta across the residual; v is the non-fixed operand."""
        sys = self.sys
        if beta.target != self.u:
            raise MismatchError("residual curry: premise has wrong target")
        if beta.subject != sys.tensor_etype(*in_place(self.side, self.fixed, v)):
            shape = "S (x) V" if self.side == "left" else "V (x) T"
            raise MismatchError(f"residual curry: premise subject is not {shape}")
        return from_interp(sys, self.transpose(beta.interp, v), f"{self.side[0]}res-R", (beta,))

    def uncurry(self, gamma: Derivation) -> Derivation:
        """Inverse transpose: pair gamma with the fixed side and evaluate."""
        sys = self.sys
        if gamma.target != self.etype:
            raise MismatchError("residual uncurry: premise has wrong target")
        i_fixed = identity_derivation(sys, self.fixed)
        paired = tensor_derivations(sys, *in_place(self.side, i_fixed, gamma))
        return compose_derivations(sys, paired, self.ev)


def residual(sys: RefinementSystem, side: str, fixed, u) -> ResidualWitness:
    """The residual of u by fixed: negL[U]{S} on the "left", negR[U]{T} on the "right"."""
    et, ev, curry = sys.residual_data(side, fixed, u)
    return ResidualWitness(sys, side, fixed, u, et, from_interp(sys, ev, f"{side[0]}res-L"),
                           curry)


def check_residual_laws(w: ResidualWitness, vs, expr_cap: Optional[int] = None) -> LawReport:
    """beta/eta for a residual witness, quantified by enumeration.

    For each candidate operand type V in vs: every derivation beta of
    S (x) V =[f]=> U must satisfy uncurry(curry(beta)) == beta, and every
    gamma : V =[g]=> negL[U]{S} must satisfy curry(uncurry(gamma)) == gamma.
    expr_cap bounds how many expressions f and g are tried per V.
    """
    sys = w.sys
    rep = LawReport()
    n_itype = sys.refines(w.etype)
    c_itype = sys.refines(w.u)
    for v in vs:
        x = sys.refines(v)
        sv = sys.tensor_etype(*in_place(w.side, w.fixed, v))
        dom_itype = sys.refines(sv)
        for f in itertools.islice(sys.expressions(dom_itype, c_itype), expr_cap):
            for beta in derivations_over(sys, sv, f, w.u):
                rep.check(derivations_equal(sys, w.uncurry(w.curry(beta, v)), beta),
                          lambda: f"beta-law fails at V={v.name}, f={name_of(f)}")
                if rep.full:
                    return rep
        for g in itertools.islice(sys.expressions(x, n_itype), expr_cap):
            for gamma in derivations_over(sys, v, g, w.etype):
                rep.check(derivations_equal(sys, w.curry(w.uncurry(gamma), v), gamma),
                          lambda: f"eta-law fails at V={v.name}, g={name_of(g)}")
                if rep.full:
                    return rep
    return rep


def residual_map(sys: RefinementSystem, side: str, alpha: Derivation, u,
                 beta: Optional[Derivation] = None) -> Derivation:
    """alpha -o beta : negL[U]{S} => negL[U']{S'}, or the same of negR, for
    alpha : S' =[f]=> S and beta : U => U'.

    The transpose of (alpha (x) id) ; ev ; beta on the left and of
    (id (x) alpha) ; ev ; beta on the right, with U' = U when beta is left
    out; then it lies over residual_expr(sys, side, f, C).
    """
    # alpha's target's witness comes before the step and its subject's after, the order refusals name
    w = residual(sys, side, alpha.target, u)
    n = w.etype
    step = compose_derivations(
        sys, tensor_derivations(sys, *in_place(side, alpha, identity_derivation(sys, n))), w.ev
    )
    if beta is not None:
        step = compose_derivations(sys, step, beta)
    return residual(sys, side, alpha.subject, step.target).curry(step, n)


def residual_expr(sys: RefinementSystem, side: str, f, c):
    """f -o C : [A->C] -> [A'->C] for f : A' -> A, the curried (f (x) id) ; plugL
    on the left and (id (x) f) ; plugR on the right."""
    a = sys.expr_cod(f)
    ident = sys.id_expr(sys.residual_itype(a, c))
    inner = sys.compose_exprs(sys.tensor_expr(*in_place(side, f, ident)),
                              sys.plug_expr(side, a, c))
    return sys.curry_expr(side, inner)


def residual_subtyping(sys: RefinementSystem, side: str, alpha_s: Derivation,
                       alpha_u: Derivation) -> Derivation:
    """Both residuals are contravariant in S and covariant in U on subtypings.

    From alpha_s : S' <= S and alpha_u : U <= U' (same carriers), derive
    negL[U]{S} <= negL[U']{S'}, or the same of negR.  The derived expression
    is table-equal to the identity on the function space, and a conversion
    node records that.
    """
    if not (sys.is_identity_expr(alpha_s.expr) and sys.is_identity_expr(alpha_u.expr)):
        raise MismatchError("residual subtyping needs subtyping premises")
    d = residual_map(sys, side, alpha_s, alpha_u.subject, alpha_u)
    return conversion(sys, d, sys.id_expr(sys.refines(d.subject)))


# --- double negation: the shift ------------------------------------------------------

def shift_expr(sys: RefinementSystem, b, c):
    """B -> negL[C]{negR[C]{B}}: send x to evaluation-at-x."""
    return sys.curry_expr("left", sys.plug_expr("right", b, c))


def shift_derivation(sys: RefinementSystem, s, u) -> Derivation:
    """S entails its double negation with answers in U, over the shift expression."""
    w_r = residual(sys, "right", s, u)
    w_l = residual(sys, "left", w_r.etype, u)
    return w_l.curry(w_r.ev, s)


def double_negation_etype(sys: RefinementSystem, s, u):
    return sys.residual_etype("left", sys.residual_etype("right", s, u), u)


# --- separating conjunction and magic wand --------------------------------------------

def star_etype(sys: RefinementSystem, mult, s, t):
    """S * T: push the tensor forward along the multiplication expression."""
    et, _, _ = sys.pushforward_data(sys.tensor_etype(s, t), mult)
    return et


def wand_right_etype(sys: RefinementSystem, mult, u, t):
    """T -* U on the left operand: pull negR[U]{T} back along rc(mult)."""
    et, _, _ = sys.pullback_data(sys.curry_expr("right", mult), sys.residual_etype("right", t, u))
    return et


def wand_left_etype(sys: RefinementSystem, mult, s, u):
    """S -* U on the right operand: pull negL[U]{S} back along lc(mult)."""
    et, _, _ = sys.pullback_data(sys.curry_expr("left", mult), sys.residual_etype("left", s, u))
    return et


def star_rule(sys: RefinementSystem, mult, alpha1: Derivation,
              alpha2: Derivation) -> Derivation:
    """From S1 <= T1 and S2 <= T2 infer S1 * S2 <= T1 * T2."""
    if not (sys.is_identity_expr(alpha1.expr) and sys.is_identity_expr(alpha2.expr)):
        raise MismatchError("star rule needs subtyping premises")
    w_s = pushforward(sys, sys.tensor_etype(alpha1.subject, alpha2.subject), mult)
    w_t = pushforward(sys, sys.tensor_etype(alpha1.target, alpha2.target), mult)
    inner = compose_derivations(
        sys, tensor_derivations(sys, alpha1, alpha2), w_t.unit
    )
    return w_s.factor(inner, sys.id_expr(sys.expr_cod(mult)))


def wand_intro_rule(sys: RefinementSystem, mult, beta: Derivation, s, t) -> Derivation:
    """From S * T <= U infer S <= T -* U (currying across the star)."""
    if not sys.is_identity_expr(beta.expr):
        raise MismatchError("wand introduction needs a subtyping premise")
    w_star = pushforward(sys, sys.tensor_etype(s, t), mult)
    if beta.subject != w_star.etype:
        raise MismatchError("wand introduction: premise subject is not S * T")
    u = beta.target
    step = compose_derivations(sys, w_star.unit, beta)
    w_res = residual(sys, "right", t, u)
    curried = w_res.curry(step, s)
    w_pull = pullback(sys, sys.curry_expr("right", mult), w_res.etype)
    return w_pull.factor(curried, sys.id_expr(sys.expr_dom(curried.expr)))


def wand_elim_rule(sys: RefinementSystem, mult, u, t) -> Derivation:
    """(T -* U) * T <= U (application / modus ponens for the wand)."""
    w_res = residual(sys, "right", t, u)
    w_pull = pullback(sys, sys.curry_expr("right", mult), w_res.etype)
    wand = w_pull.etype
    step = compose_derivations(
        sys,
        tensor_derivations(sys, w_pull.unit, identity_derivation(sys, t)),
        w_res.ev,
    )
    w_star = pushforward(sys, sys.tensor_etype(wand, t), mult)
    return w_star.factor(step, sys.id_expr(sys.refines(u)))


def check_star_wand(sys: RefinementSystem, mult, s, t, u) -> LawReport:
    """The star/wand adjunction round trips on a concrete (S, T, U) triple.

    When S * T <= U holds, introduction then elimination must reproduce the
    original subtyping; when S <= T -* U holds, the reverse round trip must
    reproduce it.  Both are checked by interpretation.
    """
    rep = LawReport()
    star = star_etype(sys, mult, s, t)
    wand = wand_right_etype(sys, mult, u, t)
    ident = sys.id_expr(sys.refines(star))
    fwd_holds = classify(sys, star, ident, u) is Status.DERIVABLE
    bwd_holds = classify(sys, s, sys.id_expr(sys.refines(s)), wand) is Status.DERIVABLE
    if (rep.check(fwd_holds == bwd_holds,
                  "adjunction bijection fails: one side derivable, other not")
            and fwd_holds):
        for beta in derivations_over(sys, star, ident, u):
            intro = wand_intro_rule(sys, mult, beta, s, t)
            elim = wand_elim_rule(sys, mult, u, t)
            alpha2 = identity_derivation(sys, t)
            back = compose_derivations(sys, star_rule(sys, mult, intro, alpha2), elim)
            rep.check(derivations_equal(sys, back, beta),
                      "intro;elim does not reproduce the premise")
            if rep.full:
                break
    return rep


def check_threeway_adjunction(sys: RefinementSystem, mult, s, t, u) -> LawReport:
    """For a generalized multiplication m : A (x) B -> C and S<=A, T<=B, U<=C:

        push_m(S (x) T) <= U   iff   T <= wand_left(S, U)   iff   S <= wand_right(U, T)

    All three judgments are decided independently and must agree.
    """
    star = star_etype(sys, mult, s, t)
    wl = wand_left_etype(sys, mult, s, u)
    wr = wand_right_etype(sys, mult, u, t)
    b1 = classify(sys, star, sys.id_expr(sys.refines(star)), u) is Status.DERIVABLE
    b2 = classify(sys, t, sys.id_expr(sys.refines(t)), wl) is Status.DERIVABLE
    b3 = classify(sys, s, sys.id_expr(sys.refines(s)), wr) is Status.DERIVABLE
    return LawReport(3, [] if b1 == b2 == b3 else [
        f"three-way adjunction disagrees: star<=U is {b1}, "
        f"T<=wand_left is {b2}, S<=wand_right is {b3}"])
