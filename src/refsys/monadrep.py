"""Adjunctions between refinement systems and the double-negation representation.

An adjunction descriptor packages two refinement systems p and q with functors
L : p -> q and R : q -> p at both levels, a unit eta : Id => RL with its
derivation rule, a counit eps : LR => Id, and optionally a strength
sigma : S (x) RL[T] => RL[S (x) T].  Everything is checked by interpretation:
naturality, the triangle laws, and strength compatibility are executable
equations over the finite models.

From the descriptor:

  * the fiberwise monad  M[T] = eta*(RL[T])  with unit, multiplication, and
    functorial action, all packaged as derivations;
  * the comparison  RL[T] => negL[W]{negR[W]{T}}  into the double negation
    with answers W = R[U], whose composite with eta is the shift;
  * to_double_negation : M[T] <= shift*(double negation), total;
  * from_double_negation : the reverse, available exactly when RL[T] is
    exhibited as a pullback of R[U] along some expression - and then a
    retraction of to_double_negation, while the other composite can fail to
    be the identity (the failure is witnessed on a proof-relevant instance);
  * encodings into a universal type, the reflection conditions, and the
    representation theorem: M[T] is canonically isomorphic to the
    shift-pullback of the double negation.  iter_encodings is the one
    candidate loop: it counts expressions, refuses past its limit, and
    yields those along which the pullback of U is T.  search_encodings
    collects every encoding across an adjunction, and the monadrep suite
    takes the first one per type.  check_universal and check_reflected run
    the witness laws in the mode law_mode reads off the system.

The opposite of a refinement system is the base read backwards: the same
expressions and morphisms with their ends swapped, so the continuation
adjunction L = negR[U]{-} -| R = negL[U]{-} between p and p-op is an ordinary
descriptor built from residual rules on p's own objects.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .cartesian import power_exceeds
from .fincat import FinFunction, FinSet
from .kernel import (
    CapabilityError,
    Derivation,
    LawViolation,
    MismatchError,
    RefinementSystem,
    VerticalIso,
    compose_derivations,
    compose_many,
    conversion,
    derivations_equal,
    from_interp,
    identity_derivation,
)
from .structures import (
    LawReport,
    Witness,
    check_beta_eta,
    composite_witness,
    law_mode,
    pullback,
    uniqueness_iso,
)
from .monoidal import (
    coherence_derivation,
    double_negation_etype,
    residual,
    residual_expr,
    residual_map,
    shift_derivation,
    shift_expr,
    tensor_derivations,
)


# --- the opposite refinement system ----------------------------------------------

class OppositeSystem(RefinementSystem):
    """The base system read backwards: the same expressions and morphisms,
    with their ends swapped at both levels.

    An expression A -> B of the opposite is a base expression B -> A, and a
    morphism S =[f]=> T of the opposite is a base morphism T =[f]=> S;
    composites run in the other order.  Pullbacks of the opposite are the
    base's pushforwards and vice versa, data and factor rule unchanged.  The
    refinement level is not reversed.  Monoidal/closed structure is not
    delegated; the opposite is used as the codomain of adjunctions, where
    only the core surface is needed.
    """

    def __init__(self, base: RefinementSystem):
        self.base = base
        self.name = f"{base.name}-op"
        self.proof_irrelevant = base.proof_irrelevant

    # index level
    def i_types(self) -> tuple:
        return self.base.i_types()

    def expressions(self, a, b) -> Iterator:
        return self.base.expressions(b, a)

    def id_expr(self, a):
        return self.base.id_expr(a)

    def compose_exprs(self, f, g):
        return self.base.compose_exprs(g, f)

    def expr_dom(self, f):
        return self.base.expr_cod(f)

    def expr_cod(self, f):
        return self.base.expr_dom(f)

    def exprs_equal(self, f, g) -> bool:
        return self.base.exprs_equal(f, g)

    # refinement level
    def e_types(self) -> tuple:
        return self.base.e_types()

    def e_types_over(self, a) -> tuple:
        return self.base.e_types_over(a)

    def refines(self, s):
        return self.base.refines(s)

    def morphisms_over(self, s, f, t) -> Iterator:
        return self.base.morphisms_over(t, f, s)

    def holds(self, s, f, t) -> bool:
        return self.base.holds(t, f, s)

    def id_interp(self, s):
        return self.base.id_interp(s)

    def compose_interps(self, m, n):
        return self.base.compose_interps(n, m)

    def interps_equal(self, m, n) -> bool:
        return self.base.interps_equal(m, n)

    def interp_expr(self, m):
        return self.base.interp_expr(m)

    def interp_src(self, m):
        return self.base.interp_dst(m)

    def interp_dst(self, m):
        return self.base.interp_src(m)

    # structure by reversal
    def pullback_data(self, f, t):
        return self.base.pushforward_data(t, f)

    def pushforward_data(self, s, f):
        return self.base.pullback_data(f, s)


# --- adjunction descriptors ---------------------------------------------------------

@dataclass
class AdjunctionDescriptor:
    """An adjunction L -| R between refinement systems p and q.

    All functor data is given as callables; unit/counit come both as
    expression formers (eta0/eps0) and as derivation formers (eta_rule/
    eps_rule).  sigma_rule forms the strength derivation
    S (x) RL[T] => RL[S (x) T] over p's tensor.
    """
    name: str
    p: RefinementSystem
    q: RefinementSystem
    l0: Callable
    l1: Callable
    r0: Callable
    r1: Callable
    eta0: Callable
    eps0: Callable
    l_etype: Callable
    l_der: Callable
    r_etype: Callable
    r_der: Callable
    eta_rule: Callable
    eps_rule: Callable
    sigma_rule: Callable

    def rl_etype(self, s):
        return self.r_etype(self.l_etype(s))

    def rl_der(self, d: Derivation) -> Derivation:
        return self.r_der(self.l_der(d))


def identity_adjunction(sys: RefinementSystem) -> AdjunctionDescriptor:
    """L = R = Id on a single system; unit, counit, and strength are identities."""
    ident = lambda x: x

    def sigma_rule(s, t):
        return identity_derivation(sys, sys.tensor_etype(s, t))

    return AdjunctionDescriptor(
        name=f"id-adj[{sys.name}]",
        p=sys, q=sys,
        l0=ident, l1=ident, r0=ident, r1=ident,
        eta0=lambda a: sys.id_expr(a),
        eps0=lambda b: sys.id_expr(b),
        l_etype=ident, l_der=ident, r_etype=ident, r_der=ident,
        eta_rule=lambda s: identity_derivation(sys, s),
        eps_rule=lambda t: identity_derivation(sys, t),
        sigma_rule=sigma_rule,
    )


def build_continuation_adjunction(sys: RefinementSystem, u) -> AdjunctionDescriptor:
    """L = negR[U]{-} -| R = negL[U]{-} between a closed system and its opposite.

    Everything is assembled from the residual rules: the unit is the shift,
    the counit is the transpose of left evaluation, and the strength is the
    canonical regrouping of a continuation with an extra tensor factor.
    """
    q = OppositeSystem(sys)
    c = sys.refines(u)

    def l0(a):
        return sys.residual_itype(a, c)

    def r0(b):
        return sys.residual_itype(b, c)

    def l1(f):
        return residual_expr(sys, "right", f, c)

    def r1(g):
        return residual_expr(sys, "left", g, c)

    def l_etype(s):
        return sys.residual_etype("right", s, u)

    def r_etype(t):
        return sys.residual_etype("left", t, u)

    def l_der(alpha: Derivation) -> Derivation:
        d = residual_map(sys, "right", alpha, u)
        return from_interp(q, d.interp, "adj-L", (alpha,))

    def r_der(beta: Derivation) -> Derivation:
        # a q-derivation from T1 to T2 carries a base morphism T2 -> T1
        d = residual_map(sys, "left", from_interp(sys, beta.interp), u)
        return Derivation("adj-R", d.subject, d.expr, d.target, (beta,), d.interp)

    def eta_rule(s):
        return shift_derivation(sys, s, u)

    def eps_rule(t):
        w_l = residual(sys, "left", t, u)
        w_r = residual(sys, "right", w_l.etype, u)
        d = w_r.curry(w_l.ev, t)
        return from_interp(q, d.interp, "eps", (d,))

    def sigma_rule(s, t):
        rl_t = r_etype(l_etype(t))
        st = sys.tensor_etype(s, t)
        w_r_st = residual(sys, "right", st, u)
        nr_st = w_r_st.etype
        assoc = coherence_derivation(sys, "assoc", (nr_st, s, t))
        inner1 = compose_derivations(sys, assoc, w_r_st.ev)
        w_r_t = residual(sys, "right", t, u)
        inner2 = w_r_t.curry(inner1, sys.tensor_etype(nr_st, s))
        w_l_t = residual(sys, "left", w_r_t.etype, u)
        assoc_inv = coherence_derivation(sys, "assoc_inv", (nr_st, s, rl_t))
        step = compose_many(
            sys,
            assoc_inv,
            tensor_derivations(sys, inner2, identity_derivation(sys, rl_t)),
            w_l_t.ev,
        )
        w_l_st = residual(sys, "left", nr_st, u)
        return w_l_st.curry(step, sys.tensor_etype(s, rl_t))

    return AdjunctionDescriptor(
        name=f"cont[{sys.name};{getattr(u, 'name', u)}]",
        p=sys, q=q,
        l0=l0, l1=l1, r0=r0, r1=r1,
        eta0=lambda a: shift_expr(sys, a, c),
        eps0=lambda b: sys.curry_expr("right", sys.plug_expr("left", b, c)),
        l_etype=l_etype, l_der=l_der, r_etype=r_etype, r_der=r_der,
        eta_rule=eta_rule, eps_rule=eps_rule,
        sigma_rule=sigma_rule,
    )


def check_adjunction(adj: AdjunctionDescriptor, p_etypes=(), q_etypes=(),
                     p_derivations=(), q_derivations=(), strength_pairs=()) -> LawReport:
    """The adjunction equations, instantiated over the given material.

    Checks: commuting squares (e-level data lies over i-level data), the two
    triangle laws at both levels, naturality of unit and counit, functoriality
    of L on derivations, and the strength axioms (left unitor and unit
    compatibility, associativity compatibility) on the given pairs.  Strength
    instances whose carriers exceed the model's bound are reported skipped.
    """
    p, q = adj.p, adj.q
    rep = LawReport()

    for s in p_etypes:
        if rep.full:
            break
        name = getattr(s, "name", s)
        ls = adj.l_etype(s)
        rep.check(q.refines(ls) == adj.l0(p.refines(s)),
                  lambda: f"L does not commute with the base at {name}")
        eta = adj.eta_rule(s)
        rep.check(eta.subject == s and eta.target == adj.rl_etype(s)
                  and p.exprs_equal(eta.expr, adj.eta0(p.refines(s))),
                  lambda: f"unit rule has wrong boundaries at {name}")
        # triangle: L(eta);eps == id at both levels
        tri = compose_derivations(q, adj.l_der(eta), adj.eps_rule(ls))
        rep.check(derivations_equal(q, tri, identity_derivation(q, ls)),
                  lambda: f"triangle L(eta);eps fails at {name}")
        a = p.refines(s)
        lhs = q.compose_exprs(adj.l1(adj.eta0(a)), adj.eps0(adj.l0(a)))
        rep.check(q.exprs_equal(lhs, q.id_expr(adj.l0(a))),
                  "index-level triangle L(eta);eps fails")

    for t in q_etypes:
        if rep.full:
            break
        name = getattr(t, "name", t)
        rt = adj.r_etype(t)
        rep.check(p.refines(rt) == adj.r0(q.refines(t)),
                  lambda: f"R does not commute with the base at {name}")
        eps = adj.eps_rule(t)
        rep.check(eps.subject == adj.l_etype(rt) and eps.target == t
                  and q.exprs_equal(eps.expr, adj.eps0(q.refines(t))),
                  lambda: f"counit rule has wrong boundaries at {name}")
        tri = compose_derivations(p, adj.eta_rule(rt), adj.r_der(eps))
        rep.check(derivations_equal(p, tri, identity_derivation(p, rt)),
                  lambda: f"triangle eta;R(eps) fails at {name}")
        b = q.refines(t)
        lhs = p.compose_exprs(adj.eta0(adj.r0(b)), adj.r1(adj.eps0(b)))
        rep.check(p.exprs_equal(lhs, p.id_expr(adj.r0(b))),
                  "index-level triangle eta;R(eps) fails")

    for alpha in p_derivations:
        if rep.full:
            break
        la = adj.l_der(alpha)
        rep.check(q.exprs_equal(la.expr, adj.l1(alpha.expr))
                  and la.subject == adj.l_etype(alpha.subject)
                  and la.target == adj.l_etype(alpha.target),
                  "L action does not lie over the index-level L")
        nat_l = compose_derivations(p, alpha, adj.eta_rule(alpha.target))
        nat_r = compose_derivations(p, adj.eta_rule(alpha.subject), adj.rl_der(alpha))
        rep.check(derivations_equal(p, nat_l, nat_r), "unit is not natural")
        ida = identity_derivation(p, alpha.subject)
        rep.check(derivations_equal(q, adj.l_der(ida),
                                    identity_derivation(q, adj.l_etype(alpha.subject))),
                  "L does not preserve identities")

    for d1 in p_derivations:
        for d2 in p_derivations:
            if d1.target != d2.subject:
                continue
            if rep.full:
                break
            lhs = adj.l_der(compose_derivations(p, d1, d2))
            rhs = compose_derivations(q, adj.l_der(d1), adj.l_der(d2))
            rep.check(derivations_equal(q, lhs, rhs), "L does not preserve composition")

    for beta in q_derivations:
        if rep.full:
            break
        nat_l = compose_derivations(q, adj.l_der(adj.r_der(beta)),
                                    adj.eps_rule(beta.target))
        nat_r = compose_derivations(q, adj.eps_rule(beta.subject), beta)
        rep.check(derivations_equal(q, nat_l, nat_r), "counit is not natural")

    for (s, t) in strength_pairs:
        if rep.full:
            break
        at = f"({getattr(s, 'name', s)}, {getattr(t, 'name', t)})"
        try:
            sig = adj.sigma_rule(s, t)
            rl_t = adj.rl_etype(t)
            # left unitor compatibility: sigma_{1,T};RL[unit_l] == unit_l
            lam_rl = coherence_derivation(p, "unit_l", (rl_t,))
            lhs = compose_derivations(
                p, adj.sigma_rule(p.unit_etype(), t),
                adj.rl_der(coherence_derivation(p, "unit_l", (t,))),
            )
            rep.check(derivations_equal(p, lhs, lam_rl),
                      lambda: f"strength unitor axiom fails at {getattr(t, 'name', t)}")
            # unit compatibility: (id (x) eta);sigma == eta
            lhs = compose_derivations(
                p,
                tensor_derivations(p, identity_derivation(p, s), adj.eta_rule(t)),
                sig,
            )
            rep.check(derivations_equal(p, lhs, adj.eta_rule(p.tensor_etype(s, t))),
                      lambda: f"strength unit axiom fails at {at}")
            # associativity compatibility, with t doubling as the third operand
            v = t
            rl_v = adj.rl_etype(v)
            lhs = compose_many(
                p,
                coherence_derivation(p, "assoc", (s, t, rl_v)),
                tensor_derivations(p, identity_derivation(p, s), adj.sigma_rule(t, v)),
                adj.sigma_rule(s, p.tensor_etype(t, v)),
            )
            rhs = compose_derivations(
                p,
                adj.sigma_rule(p.tensor_etype(s, t), v),
                adj.rl_der(coherence_derivation(p, "assoc", (s, t, v))),
            )
            rep.check(derivations_equal(p, lhs, rhs),
                      lambda: f"strength associativity axiom fails at {at}")
        except CapabilityError as exc:
            rep.skip(f"strength instance {at}: {exc}")
    return rep


# --- the fiberwise monad --------------------------------------------------------------

class FiberwiseMonad:
    """M[T] = eta*(RL[T]) with unit, multiplication, and functorial action.

    The multiplication is the composite M[M[T]] => RL[M[T]] => RL[RL[T]]
    => RL[T] (the defining pullback's unit rule pull-L, RL of that rule, R
    of the counit at L), which lies over eta by the triangle law; the
    conversion step makes that equation's use explicit, and the pullback's
    factor rule pull-R finishes with the identity factor.
    """

    def __init__(self, adj: AdjunctionDescriptor):
        self.adj = adj
        self.p = adj.p

    def carrier_witness(self, t) -> Witness:
        a = self.p.refines(t)
        return pullback(self.p, self.adj.eta0(a), self.adj.rl_etype(t))

    def carrier(self, t):
        return self.carrier_witness(t).etype

    def unit(self, t) -> Derivation:
        w = self.carrier_witness(t)
        a = self.p.refines(t)
        return w.factor(self.adj.eta_rule(t), self.p.id_expr(a))

    def map(self, alpha: Derivation) -> Derivation:
        """The action of M on a subtyping alpha : S <= T."""
        p = self.p
        if not p.is_identity_expr(alpha.expr):
            raise MismatchError("monad map needs a subtyping premise")
        w_s = self.carrier_witness(alpha.subject)
        w_t = self.carrier_witness(alpha.target)
        step = compose_derivations(p, w_s.unit, self.adj.rl_der(alpha))
        conv = conversion(p, step, w_t.expr)
        return w_t.factor(conv, p.id_expr(p.refines(alpha.subject)))

    def mult(self, t) -> Derivation:
        p, adj = self.p, self.adj
        w1 = self.carrier_witness(t)
        m1 = w1.etype
        w2 = self.carrier_witness(m1)
        step = compose_many(
            p,
            w2.unit,
            adj.rl_der(w1.unit),
            adj.r_der(adj.eps_rule(adj.l_etype(t))),
        )
        a = p.refines(t)
        conv = conversion(p, step, adj.eta0(a))
        return w1.factor(conv, p.id_expr(a))


def check_monad_laws(monad: FiberwiseMonad, etypes) -> LawReport:
    """Unit laws and associativity, by interpretation; infeasible carriers skipped."""
    p = monad.p
    rep = LawReport()
    for t in etypes:
        name = getattr(t, "name", t)
        try:
            mt = monad.carrier(t)
            ident = identity_derivation(p, mt)
            mult = monad.mult(t)
            rep.check(derivations_equal(
                p, compose_derivations(p, monad.unit(mt), mult), ident),
                lambda: f"left unit law fails at {name}")
            rep.check(derivations_equal(
                p, compose_derivations(p, monad.map(monad.unit(t)), mult), ident),
                lambda: f"right unit law fails at {name}")
        except CapabilityError as exc:
            rep.skip(f"unit laws at {name}: {exc}")
            continue
        try:
            lhs = compose_derivations(p, monad.map(monad.mult(t)), mult)
            rhs = compose_derivations(p, monad.mult(mt), mult)
            rep.check(derivations_equal(p, lhs, rhs), lambda: f"associativity fails at {name}")
        except CapabilityError as exc:
            rep.skip(f"associativity at {name}: {exc}")
        if rep.full:
            break
    return rep


# --- double negation: comparison, to/from, retraction ----------------------------------

def double_negation_comparison(adj: AdjunctionDescriptor, t, u) -> Derivation:
    """The canonical RL[T] => negL[W]{negR[W]{T}} with answers W = R[U].

    Built as the currying of sigma ; RL[right evaluation] ; R[counit at U].
    Composed with the unit it interprets to the shift; to_double_negation
    relies on that equation through an explicit conversion step.
    """
    p = adj.p
    w = adj.r_etype(u)
    w_r = residual(p, "right", t, w)
    n = w_r.etype
    rl_t = adj.rl_etype(t)
    step = compose_many(
        p,
        adj.sigma_rule(n, t),
        adj.rl_der(w_r.ev),
        adj.r_der(adj.eps_rule(u)),
    )
    w_l = residual(p, "left", n, w)
    d = w_l.curry(step, rl_t)
    return Derivation("dn-cmp", d.subject, d.expr, d.target, (d,), d.interp)


def check_comparison(adj: AdjunctionDescriptor, t, u) -> LawReport:
    """Both equations for the comparison: expressions and derivations.

    eta ; comparison must equal the shift as an expression table, and the
    composed derivation must equal the shift derivation by interpretation.
    """
    p = adj.p
    rep = LawReport()
    xi = double_negation_comparison(adj, t, u)
    w = adj.r_etype(u)
    b = p.refines(t)
    cw = p.refines(w)
    lhs_expr = p.compose_exprs(adj.eta0(b), xi.expr)
    rep.check(p.exprs_equal(lhs_expr, shift_expr(p, b, cw)),
              "eta;comparison is not the shift expression")
    lhs = compose_derivations(p, adj.eta_rule(t), xi)
    rep.check(derivations_equal(p, lhs, shift_derivation(p, t, w)),
              "eta;comparison is not the shift derivation")
    return rep


def to_double_negation(adj: AdjunctionDescriptor, t, u) -> Derivation:
    """M[T] <= shift*(double negation of T with answers R[U]); always derivable."""
    p = adj.p
    monad = FiberwiseMonad(adj)
    w_eta = monad.carrier_witness(t)
    xi = double_negation_comparison(adj, t, u)
    d1 = compose_derivations(p, w_eta.unit, xi)
    b = p.refines(t)
    w_ans = adj.r_etype(u)
    cw = p.refines(w_ans)
    d2 = conversion(p, d1, shift_expr(p, b, cw))
    dn = double_negation_etype(p, t, w_ans)
    w_shift = pullback(p, shift_expr(p, b, cw), dn)
    return w_shift.factor(d2, p.id_expr(b))


def encoding_witness(adj: AdjunctionDescriptor, t, u, f) -> Witness:
    """The hypothesis of from_double_negation: RL[T] is the pullback of R[U] along f.

    Builds the canonical witness and verifies its type is RL[T]; raises
    LawViolation naming both types otherwise.
    """
    p = adj.p
    w = pullback(p, f, adj.r_etype(u))
    rl_t = adj.rl_etype(t)
    if w.etype != rl_t:
        raise LawViolation(
            f"hypothesis fails: pullback along {getattr(f, 'name', f)!r} is "
            f"{getattr(w.etype, 'name', w.etype)}, not {getattr(rl_t, 'name', rl_t)}"
        )
    return w


def from_double_negation(adj: AdjunctionDescriptor, t, u, f) -> Derivation:
    """shift*(double negation) <= M[T], given that RL[T] is a pullback of R[U].

    The construction picks the point of negR[W]{T} currying unit_l;eta;f,
    pairs it with the shift-pullback's unit, evaluates, and converts
    along the table identity unit_l_inv;(rc(unit_l;eta;f) (x) shift);plugL
    == eta;f before factoring through the hypothesis witness and the monad
    carrier witness.
    """
    p = adj.p
    w_f = encoding_witness(adj, t, u, f)
    w_ans = adj.r_etype(u)
    b = p.refines(t)
    cw = p.refines(w_ans)
    dn = double_negation_etype(p, t, w_ans)
    d1 = compose_derivations(p, adj.eta_rule(t), w_f.unit)
    d2 = compose_derivations(p, coherence_derivation(p, "unit_l", (t,)), d1)
    w_r = residual(p, "right", t, w_ans)
    d3 = w_r.curry(d2, p.unit_etype())
    w_shift = pullback(p, shift_expr(p, b, cw), dn)
    pp = w_shift.etype
    d4 = tensor_derivations(p, d3, w_shift.unit)
    w_l = residual(p, "left", w_r.etype, w_ans)
    d5 = compose_derivations(p, d4, w_l.ev)
    d6 = compose_derivations(p, coherence_derivation(p, "unit_l_inv", (pp,)), d5)
    target_expr = p.compose_exprs(adj.eta0(b), f)
    d7 = conversion(p, d6, target_expr)
    d8 = w_f.factor(d7, adj.eta0(b))
    monad = FiberwiseMonad(adj)
    w_eta = monad.carrier_witness(t)
    return w_eta.factor(d8, p.id_expr(b))


def check_retraction(adj: AdjunctionDescriptor, t, u, f) -> LawReport:
    """from_double_negation retracts to_double_negation: the composite on M[T]
    interprets to the identity, checked exactly."""
    p = adj.p
    fwd = to_double_negation(adj, t, u)
    bwd = from_double_negation(adj, t, u, f)
    monad = FiberwiseMonad(adj)
    mt = monad.carrier(t)
    composite = compose_derivations(p, fwd, bwd)
    rep = LawReport()
    rep.check(derivations_equal(p, composite, identity_derivation(p, mt)),
              "retraction composite is not the identity")
    return rep


def check_section(adj: AdjunctionDescriptor, t, u, f) -> bool:
    """Whether the reverse composite (on the shift-pullback) is the identity.

    Not a theorem: proof-relevant instances refute it, and tests pin one down.
    """
    p = adj.p
    fwd = to_double_negation(adj, t, u)
    bwd = from_double_negation(adj, t, u, f)
    composite = compose_derivations(p, bwd, fwd)
    return derivations_equal(p, composite, identity_derivation(p, bwd.subject))


def search_encodings(adj: AdjunctionDescriptor, t, u,
                     limit: Optional[int] = 200_000) -> tuple:
    """All expressions f with pullback_f(R[U]) = RL[T], by bounded enumeration.

    Exhaustive within `limit` candidate expressions; raises CapabilityError
    when the expression space is larger, so absence within the bound is
    certified rather than silently truncated.
    """
    p = adj.p
    # refuse up front, from the index types alone: building RL[T] and R[U]
    # costs O(|dom|), and so does even one candidate
    dom = adj.r0(adj.l0(p.refines(t)))
    cod = adj.r0(p.refines(u))
    if limit is not None and isinstance(dom, FinSet) and isinstance(cod, FinSet):
        if power_exceeds(len(cod), len(dom), limit):
            raise _search_refusal(limit)
    return tuple(iter_encodings(p, adj.rl_etype(t), adj.r_etype(u), limit))


def iter_encodings(sys: RefinementSystem, t, u, limit: Optional[int]) -> Iterator:
    """Each expression f with pullback_f(U) = T, in sys's expression order.

    Raises CapabilityError when a candidate past the first `limit` is
    reached, so a search run to its end is exhaustive.
    """
    count = 0
    for f in sys.expressions(sys.refines(t), sys.refines(u)):
        count += 1
        if limit is not None and count > limit:
            raise _search_refusal(limit)
        et, _, _ = sys.pullback_data(f, u)
        if et == t:
            yield f


def _search_refusal(limit: int) -> CapabilityError:
    return CapabilityError(f"encoding search exceeds {limit} candidate expressions")


def count_encodings_elementwise(adj: AdjunctionDescriptor, t, u) -> tuple:
    """(count, example) for proof-irrelevant elementwise models.

    For each carrier element x the admissible values of f(x) are those inside
    R[U] when x is in RL[T] and those outside otherwise; an encoding exists
    iff no choice set is empty, and the count is the product of their sizes.
    The example maps each element to its canonically first choice.
    """
    p = adj.p
    if not p.proof_irrelevant:
        raise CapabilityError("elementwise counting needs a proof-irrelevant system")
    rl_t = adj.rl_etype(t)
    r_u = adj.r_etype(u)
    dom = p.refines(rl_t)
    cod = p.refines(r_u)
    count = 1
    table = {}
    for x in dom.elements:
        if x in rl_t:
            choices = [y for y in cod.elements if y in r_u]
        else:
            choices = [y for y in cod.elements if y not in r_u]
        count *= len(choices)
        if choices:
            table[x] = choices[0]
    if count == 0:
        return 0, None
    return count, FinFunction(f"enc[{getattr(t, 'name', t)}]", dom, cod, table)


# --- encodings, universality, reflection, and the representation theorem -------------------

def check_universal(sys: RefinementSystem, u, encodings: dict, etypes=None) -> LawReport:
    """Every e-type is the pullback of U along its encoding, witness laws included
    (in law_mode(sys))."""
    rep = LawReport()
    for s in (etypes if etypes is not None else sys.e_types()):
        name = getattr(s, "name", s)
        if s not in encodings:
            rep.check(False, f"no encoding for {name}")
            continue
        w = pullback(sys, encodings[s], u)
        if rep.check(w.etype == s, lambda: f"encoding of {name} pulls back to {w.etype.name}"):
            rep.absorb(check_beta_eta(w, mode=law_mode(sys)), name)
    return rep


@dataclass
class ReflectionReport(LawReport):
    """A LawReport plus (type name, holds) for the unshifted double negation."""
    double_negation_strict: list = field(default_factory=list)


def _point_expr(adj: AdjunctionDescriptor, t, encodings: dict):
    """unit_l;eta;R[e_{L[T]}] : 1 (x) B -> R0(C), and its currying 1 -> negR space."""
    p = adj.p
    b = p.refines(t)
    lt = adj.l_etype(t)
    e_lt = encodings[lt]
    r_e = adj.r1(e_lt)
    lam = p.interp_expr(p.coherence_cell("unit_l", (t,)))
    inner = p.compose_exprs(p.compose_exprs(lam, adj.eta0(b)), r_e)
    return r_e, p.curry_expr("right", inner)


def _evaluation_expr(adj: AdjunctionDescriptor, t, u, encodings: dict):
    """The evaluation-at-the-encoded-point expression DN-space -> R0(C)."""
    p = adj.p
    w_ans = adj.r_etype(u)
    cw = p.refines(w_ans)
    b = p.refines(t)
    dn = double_negation_etype(p, t, w_ans)
    r_e, point = _point_expr(adj, t, encodings)
    nr_itype = p.residual_itype(b, cw)
    plug = p.plug_expr("left", nr_itype, cw)
    lam_inv = p.interp_expr(p.coherence_cell("unit_l_inv", (dn,)))
    expr2 = p.compose_exprs(
        lam_inv,
        p.compose_exprs(
            p.tensor_expr(point, p.id_expr(p.refines(dn))), plug
        ),
    )
    return r_e, expr2


def check_reflected(adj: AdjunctionDescriptor, u, encodings: dict,
                    q_etypes=None, p_etypes=None) -> ReflectionReport:
    """Both reflection conditions for a universal type across an adjunction.

    Condition 1: R sends each q-side encoding pullback to a p-side pullback
    of R[U] along R1 of the encoding - constructed and law-checked in
    law_mode(p).

    Condition 2: for each p-side T, the double negation of T with answers
    R[U] becomes, in the context of a shift, the pullback of R[U] along
    evaluation at the encoded point: shift*(DN) = (shift;expr2)*(R[U]).
    The unshifted equality DN = expr2*(R[U]) is also computed and reported
    informationally; it can fail (it holds only for degenerate encodings),
    and the theorem needs only the shifted form.
    """
    p, q = adj.p, adj.q
    rep = ReflectionReport()
    for t_q in (q_etypes if q_etypes is not None else q.e_types()):
        name = getattr(t_q, "name", t_q)
        if t_q not in encodings:
            rep.check(False, f"no encoding for q-type {name}")
            continue
        w = pullback(p, adj.r1(encodings[t_q]), adj.r_etype(u))
        if rep.check(w.etype == adj.r_etype(t_q), lambda: (
                f"R does not preserve the encoding pullback at {name}: "
                f"got {getattr(w.etype, 'name', w.etype)}")):
            rep.absorb(check_beta_eta(w, mode=law_mode(p)), f"condition 1 at {name}")
    w_ans = adj.r_etype(u)
    cw = p.refines(w_ans)
    for t in (p_etypes if p_etypes is not None else p.e_types()):
        name = getattr(t, "name", t)
        if adj.l_etype(t) not in encodings:
            rep.check(False, f"no encoding for L[{name}]")
            continue
        try:
            dn = double_negation_etype(p, t, w_ans)
            _, expr2 = _evaluation_expr(adj, t, u, encodings)
            sh = shift_expr(p, p.refines(t), cw)
            lhs, _, _ = p.pullback_data(sh, dn)
            rhs, _, _ = p.pullback_data(p.compose_exprs(sh, expr2), w_ans)
            rep.check(lhs == rhs, lambda: (
                f"condition 2 (shift context) fails at {name}: "
                f"{getattr(lhs, 'name', lhs)} != {getattr(rhs, 'name', rhs)}"))
            unshifted, _, _ = p.pullback_data(expr2, w_ans)
            rep.double_negation_strict.append((name, unshifted == dn))
        except CapabilityError as exc:
            rep.skip(f"condition 2 at {name}: {exc}")
    return rep


def check_theorem(adj: AdjunctionDescriptor, u, encodings: dict, t) -> VerticalIso:
    """The representation theorem at T: M[T] is canonically isomorphic to the
    shift-pullback of the double negation, via the pasted encoding pullbacks.

    The two sides arrive as pullbacks of R[U] along table-equal expressions
    (eta;R1(e) and shift;evaluation-at-the-point), so the uniqueness of
    pullbacks produces the iso; LawViolation if any step fails.
    """
    p = adj.p
    b = p.refines(t)
    w_ans = adj.r_etype(u)
    cw = p.refines(w_ans)
    lt = adj.l_etype(t)
    if lt not in encodings:
        raise LawViolation(f"no encoding for L[{getattr(t, 'name', t)}]")
    r_e, expr2 = _evaluation_expr(adj, t, u, encodings)
    sh = shift_expr(p, b, cw)
    lhs_expr = p.compose_exprs(adj.eta0(b), r_e)
    rhs_expr = p.compose_exprs(sh, expr2)
    if not p.exprs_equal(lhs_expr, rhs_expr):
        raise LawViolation("shift;evaluation does not equal eta;R1(encoding)")
    base_pull, _, _ = p.pullback_data(r_e, w_ans)
    if base_pull != adj.rl_etype(t):
        raise LawViolation("condition 1 fails: R1(encoding) does not pull back to RL[T]")
    dn = double_negation_etype(p, t, w_ans)
    shifted_dn, _, _ = p.pullback_data(sh, dn)
    w1 = composite_witness(p, "pull", adj.eta0(b), r_e, w_ans)
    w2 = composite_witness(p, "pull", sh, expr2, w_ans)
    if w2.etype != shifted_dn:
        raise LawViolation("condition 2 (shift context) fails at the theorem instance")
    monad = FiberwiseMonad(adj)
    if w1.etype != monad.carrier(t):
        raise LawViolation("pasted pullback does not produce the monad carrier")
    return uniqueness_iso(w1, w2)
