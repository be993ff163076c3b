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
    shift-pullback of the double negation.

The opposite of a refinement system is materialized generically (both levels
reversed) so the continuation adjunction L = negR[U]{-} -| R = negL[U]{-}
between p and p-op is an ordinary descriptor built from residual rules.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from .kernel import (
    CapabilityError,
    Derivation,
    Judgment,
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
    PullbackWitness,
    PushforwardWitness,
    check_beta_eta,
    composite_pullback_witness,
    implied_pullback_witness,
    implied_pushforward_witness,
    pullback,
    pushforward,
    uniqueness_iso,
)
from .monoidal import (
    coherence_derivation,
    residual_left,
    residual_right,
    shift_derivation,
    shift_expr,
    tensor_derivations,
)


# --- the opposite refinement system ----------------------------------------------

@dataclass(frozen=True)
class OpExpr:
    """An expression of the opposite system: the base expression, reversed."""
    base: Any


@dataclass(frozen=True)
class OpMor:
    """A morphism of the opposite system: the base morphism, reversed."""
    base: Any


class OppositeSystem(RefinementSystem):
    """Both levels of a refinement system reversed.

    Pullbacks of the opposite are pushforwards of the base and vice versa.
    Monoidal/closed structure is not delegated; the opposite is used as the
    codomain of adjunctions, where only the core surface is needed.
    """

    def __init__(self, base: RefinementSystem):
        self.base = base
        self.name = f"{base.name}-op"
        self.has_pullbacks = base.has_pushforwards
        self.has_pushforwards = base.has_pullbacks
        self.proof_irrelevant = base.proof_irrelevant

    # index level
    def i_types(self) -> tuple:
        return self.base.i_types()

    def expressions(self, a, b) -> Iterator[OpExpr]:
        return (OpExpr(f) for f in self.base.expressions(b, a))

    def id_expr(self, a) -> OpExpr:
        return OpExpr(self.base.id_expr(a))

    def compose_exprs(self, f: OpExpr, g: OpExpr) -> OpExpr:
        return OpExpr(self.base.compose_exprs(g.base, f.base))

    def expr_dom(self, f: OpExpr):
        return self.base.expr_cod(f.base)

    def expr_cod(self, f: OpExpr):
        return self.base.expr_dom(f.base)

    def exprs_equal(self, f: OpExpr, g: OpExpr) -> bool:
        return self.base.exprs_equal(f.base, g.base)

    # refinement level
    def e_types(self) -> tuple:
        return self.base.e_types()

    def refines(self, s):
        return self.base.refines(s)

    def morphisms_over(self, s, f: OpExpr, t) -> Iterator[OpMor]:
        return (OpMor(m) for m in self.base.morphisms_over(t, f.base, s))

    def id_interp(self, s) -> OpMor:
        return OpMor(self.base.id_interp(s))

    def compose_interps(self, m: OpMor, n: OpMor) -> OpMor:
        return OpMor(self.base.compose_interps(n.base, m.base))

    def interps_equal(self, m: OpMor, n: OpMor) -> bool:
        return self.base.interps_equal(m.base, n.base)

    def interp_expr(self, m: OpMor) -> OpExpr:
        return OpExpr(self.base.interp_expr(m.base))

    def interp_src(self, m: OpMor):
        return self.base.interp_dst(m.base)

    def interp_dst(self, m: OpMor):
        return self.base.interp_src(m.base)

    # structure by reversal
    def pullback_data(self, f: OpExpr, t):
        et, right, bfactor = self.base.pushforward_data(t, f.base)

        def factor(m: OpMor, g: OpExpr) -> OpMor:
            return OpMor(bfactor(m.base, g.base))

        return et, OpMor(right), factor

    def pushforward_data(self, s, f: OpExpr):
        et, left, bfactor = self.base.pullback_data(f.base, s)

        def factor(m: OpMor, g: OpExpr) -> OpMor:
            return OpMor(bfactor(m.base, g.base))

        return et, OpMor(left), factor


# --- adjunction descriptors ---------------------------------------------------------

@dataclass
class AdjunctionDescriptor:
    """An adjunction L -| R between refinement systems p and q.

    All functor data is given as callables; unit/counit come both as
    expression formers (eta0/eps0) and as derivation formers (eta_rule/
    eps_rule).  sigma_rule, when present, forms the strength derivation
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
    sigma_rule: Optional[Callable] = None

    def rl_etype(self, s):
        return self.r_etype(self.l_etype(s))

    def rl_der(self, d: Derivation) -> Derivation:
        return self.r_der(self.l_der(d))


def identity_adjunction(sys: RefinementSystem,
                        name: Optional[str] = None) -> AdjunctionDescriptor:
    """L = R = Id on a single system; unit, counit, and strength are identities."""
    ident = lambda x: x

    def sigma_rule(s, t):
        return identity_derivation(sys, sys.tensor_etype(s, t))

    return AdjunctionDescriptor(
        name=name or f"id-adj[{sys.name}]",
        p=sys, q=sys,
        l0=ident, l1=ident, r0=ident, r1=ident,
        eta0=lambda a: sys.id_expr(a),
        eps0=lambda b: sys.id_expr(b),
        l_etype=ident, l_der=ident, r_etype=ident, r_der=ident,
        eta_rule=lambda s: identity_derivation(sys, s),
        eps_rule=lambda t: identity_derivation(sys, t),
        sigma_rule=sigma_rule if sys.is_monoidal else None,
    )


def build_continuation_adjunction(sys: RefinementSystem, u) -> AdjunctionDescriptor:
    """L = negR[U]{-} -| R = negL[U]{-} between a closed system and its opposite.

    Everything is assembled from the residual rules: the unit is the shift,
    the counit is the transpose of left evaluation, and the strength is the
    canonical regrouping of a continuation with an extra tensor factor.
    """
    if not (sys.is_monoidal and sys.is_closed):
        raise CapabilityError("continuation adjunction needs a monoidal closed system")
    q = OppositeSystem(sys)
    c = sys.refines(u)

    def l0(a):
        return sys.residual_right_itype(c, a)

    def r0(b):
        return sys.residual_left_itype(b, c)

    def l1(f):
        a2 = sys.expr_cod(f)
        nr2 = sys.residual_right_itype(c, a2)
        inner = sys.compose_exprs(
            sys.tensor_expr(sys.id_expr(nr2), f), sys.plug_r_expr(c, a2)
        )
        return OpExpr(sys.curry_r_expr(inner))

    def r1(g: OpExpr):
        b = sys.expr_cod(g.base)
        nl = sys.residual_left_itype(b, c)
        inner = sys.compose_exprs(
            sys.tensor_expr(g.base, sys.id_expr(nl)), sys.plug_l_expr(b, c)
        )
        return sys.curry_l_expr(inner)

    def l_etype(s):
        return sys.residual_right_etype(u, s)

    def r_etype(t):
        return sys.residual_left_etype(t, u)

    def l_der(alpha: Derivation) -> Derivation:
        w_t = residual_right(sys, u, alpha.target)
        step = compose_derivations(
            sys,
            tensor_derivations(sys, identity_derivation(sys, w_t.etype), alpha),
            w_t.ev,
        )
        w_s = residual_right(sys, u, alpha.subject)
        d = w_s.curry(step, w_t.etype)
        return Derivation(
            "adj-L",
            Judgment(l_etype(alpha.subject), OpExpr(d.expr), l_etype(alpha.target)),
            (alpha,), OpMor(d.interp),
        )

    def r_der(beta: Derivation) -> Derivation:
        # a q-derivation from T1 to T2 carries a base morphism T2 -> T1
        delta = from_interp(sys, beta.interp.base)
        w1 = residual_left(sys, beta.subject, u)
        step = compose_derivations(
            sys,
            tensor_derivations(sys, delta, identity_derivation(sys, w1.etype)),
            w1.ev,
        )
        w2 = residual_left(sys, beta.target, u)
        d = w2.curry(step, w1.etype)
        return Derivation("adj-R", d.judgment, (beta,), d.interp)

    def eta_rule(s):
        return shift_derivation(sys, s, u)

    def eps_rule(t):
        w_l = residual_left(sys, t, u)
        w_r = residual_right(sys, u, w_l.etype)
        d = w_r.curry(w_l.ev, t)
        return Derivation(
            "eps",
            Judgment(l_etype(r_etype(t)), OpExpr(d.expr), t),
            (d,), OpMor(d.interp),
        )

    def sigma_rule(s, t):
        rl_t = r_etype(l_etype(t))
        st = sys.tensor_etype(s, t)
        w_r_st = residual_right(sys, u, st)
        nr_st = w_r_st.etype
        assoc = coherence_derivation(sys, "assoc", (nr_st, s, t))
        inner1 = compose_derivations(sys, assoc, w_r_st.ev)
        w_r_t = residual_right(sys, u, t)
        inner2 = w_r_t.curry(inner1, sys.tensor_etype(nr_st, s))
        w_l_t = residual_left(sys, w_r_t.etype, u)
        assoc_inv = coherence_derivation(sys, "assoc_inv", (nr_st, s, rl_t))
        step = compose_many(
            sys,
            assoc_inv,
            tensor_derivations(sys, inner2, identity_derivation(sys, rl_t)),
            w_l_t.ev,
        )
        w_l_st = residual_left(sys, nr_st, u)
        return w_l_st.curry(step, sys.tensor_etype(s, rl_t))

    return AdjunctionDescriptor(
        name=f"cont[{sys.name};{getattr(u, 'name', u)}]",
        p=sys, q=q,
        l0=l0, l1=l1, r0=r0, r1=r1,
        eta0=lambda a: shift_expr(sys, a, c),
        eps0=lambda b: OpExpr(sys.curry_r_expr(sys.plug_l_expr(b, c))),
        l_etype=l_etype, l_der=l_der, r_etype=r_etype, r_der=r_der,
        eta_rule=eta_rule, eps_rule=eps_rule,
        sigma_rule=sigma_rule,
    )


def check_adjunction(adj: AdjunctionDescriptor, p_etypes=(), q_etypes=(),
                     p_derivations=(), q_derivations=(), strength_pairs=(),
                     max_failures: int = 5) -> LawReport:
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
        if len(rep.failures) >= max_failures:
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
        if len(rep.failures) >= max_failures:
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
        if len(rep.failures) >= max_failures:
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
            if len(rep.failures) >= max_failures:
                break
            lhs = adj.l_der(compose_derivations(p, d1, d2))
            rhs = compose_derivations(q, adj.l_der(d1), adj.l_der(d2))
            rep.check(derivations_equal(q, lhs, rhs), "L does not preserve composition")

    for beta in q_derivations:
        if len(rep.failures) >= max_failures:
            break
        nat_l = compose_derivations(q, adj.l_der(adj.r_der(beta)),
                                    adj.eps_rule(beta.target))
        nat_r = compose_derivations(q, adj.eps_rule(beta.subject), beta)
        rep.check(derivations_equal(q, nat_l, nat_r), "counit is not natural")

    if adj.sigma_rule is not None:
        unit_et = p.unit_etype()
        for (s, t) in strength_pairs:
            if len(rep.failures) >= max_failures:
                break
            at = f"({getattr(s, 'name', s)}, {getattr(t, 'name', t)})"
            try:
                sig = adj.sigma_rule(s, t)
                rl_t = adj.rl_etype(t)
                # left unitor compatibility: sigma_{1,T};RL[unit_l] == unit_l
                lam_rl = coherence_derivation(p, "unit_l", (rl_t,))
                lhs = compose_derivations(
                    p, adj.sigma_rule(unit_et, t),
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
    => RL[T] (left rule, RL of the left rule, R of the counit at L), which
    lies over eta by the triangle law; the conversion step makes that
    equation's use explicit, and the right rule of the defining pullback
    finishes with the identity factor.
    """

    def __init__(self, adj: AdjunctionDescriptor):
        if not adj.p.has_pullbacks:
            raise CapabilityError("fiberwise monad needs pullbacks in p")
        self.adj = adj
        self.p = adj.p

    def carrier_witness(self, t) -> PullbackWitness:
        a = self.p.refines(t)
        return pullback(self.p, self.adj.eta0(a), self.adj.rl_etype(t))

    def carrier(self, t):
        return self.carrier_witness(t).etype

    def unit(self, t) -> Derivation:
        w = self.carrier_witness(t)
        a = self.p.refines(t)
        return w.right(self.adj.eta_rule(t), self.p.id_expr(a))

    def map(self, alpha: Derivation) -> Derivation:
        """The action of M on a subtyping alpha : S <= T."""
        p = self.p
        if not p.is_identity_expr(alpha.expr):
            raise MismatchError("monad map needs a subtyping premise")
        w_s = self.carrier_witness(alpha.subject)
        w_t = self.carrier_witness(alpha.target)
        step = compose_derivations(p, w_s.left, self.adj.rl_der(alpha))
        conv = conversion(p, step, w_t.expr)
        return w_t.right(conv, p.id_expr(p.refines(alpha.subject)))

    def mult(self, t) -> Derivation:
        p, adj = self.p, self.adj
        w1 = self.carrier_witness(t)
        m1 = w1.etype
        w2 = self.carrier_witness(m1)
        step = compose_many(
            p,
            w2.left,
            adj.rl_der(w1.left),
            adj.r_der(adj.eps_rule(adj.l_etype(t))),
        )
        a = p.refines(t)
        conv = conversion(p, step, adj.eta0(a))
        return w1.right(conv, p.id_expr(a))


def check_monad_laws(monad: FiberwiseMonad, etypes,
                     max_failures: int = 5) -> LawReport:
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
        if len(rep.failures) >= max_failures:
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
    if adj.sigma_rule is None:
        raise CapabilityError("comparison needs a strength")
    w = adj.r_etype(u)
    w_r = residual_right(p, w, t)
    n = w_r.etype
    rl_t = adj.rl_etype(t)
    step = compose_many(
        p,
        adj.sigma_rule(n, t),
        adj.rl_der(w_r.ev),
        adj.r_der(adj.eps_rule(u)),
    )
    w_l = residual_left(p, n, w)
    d = w_l.curry(step, rl_t)
    return Derivation("dn-cmp", d.judgment, (d,), d.interp)


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


def double_negation_etypes(adj: AdjunctionDescriptor, t, u) -> tuple:
    """(N, DN): the single and double negation of T with answers R[U]."""
    p = adj.p
    w = adj.r_etype(u)
    n = p.residual_right_etype(w, t)
    dn = p.residual_left_etype(n, w)
    return n, dn


def to_double_negation(adj: AdjunctionDescriptor, t, u) -> Derivation:
    """M[T] <= shift*(double negation of T with answers R[U]); always derivable."""
    p = adj.p
    monad = FiberwiseMonad(adj)
    w_eta = monad.carrier_witness(t)
    xi = double_negation_comparison(adj, t, u)
    d1 = compose_derivations(p, w_eta.left, xi)
    b = p.refines(t)
    w_ans = adj.r_etype(u)
    cw = p.refines(w_ans)
    d2 = conversion(p, d1, shift_expr(p, b, cw))
    _, dn = double_negation_etypes(adj, t, u)
    w_shift = pullback(p, shift_expr(p, b, cw), dn)
    return w_shift.right(d2, p.id_expr(b))


def encoding_witness(adj: AdjunctionDescriptor, t, u, f) -> PullbackWitness:
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


def from_double_negation(adj: AdjunctionDescriptor, t, u, f,
                         witness: Optional[PullbackWitness] = None) -> Derivation:
    """shift*(double negation) <= M[T], given that RL[T] is a pullback of R[U].

    The construction picks the point of negR[W]{T} currying unit_l;eta;f,
    pairs it with the shift-pullback's left rule, evaluates, and converts
    along the table identity unit_l_inv;(rc(unit_l;eta;f) (x) shift);plugL
    == eta;f before factoring through the hypothesis witness and the monad
    carrier witness.
    """
    p = adj.p
    w_f = witness if witness is not None else encoding_witness(adj, t, u, f)
    if w_f.etype != adj.rl_etype(t):
        raise LawViolation("supplied hypothesis witness has the wrong type")
    w_ans = adj.r_etype(u)
    b = p.refines(t)
    cw = p.refines(w_ans)
    n, dn = double_negation_etypes(adj, t, u)
    d1 = compose_derivations(p, adj.eta_rule(t), w_f.left)
    d2 = compose_derivations(p, coherence_derivation(p, "unit_l", (t,)), d1)
    w_r = residual_right(p, w_ans, t)
    d3 = w_r.curry(d2, p.unit_etype())
    w_shift = pullback(p, shift_expr(p, b, cw), dn)
    pp = w_shift.etype
    d4 = tensor_derivations(p, d3, w_shift.left)
    w_l = residual_left(p, n, w_ans)
    d5 = compose_derivations(p, d4, w_l.ev)
    d6 = compose_derivations(p, coherence_derivation(p, "unit_l_inv", (pp,)), d5)
    target_expr = p.compose_exprs(adj.eta0(b), f)
    d7 = conversion(p, d6, target_expr)
    d8 = w_f.right(d7, adj.eta0(b))
    monad = FiberwiseMonad(adj)
    w_eta = monad.carrier_witness(t)
    return w_eta.right(d8, p.id_expr(b))


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
    rl_t = adj.rl_etype(t)
    r_u = adj.r_etype(u)
    dom = p.refines(rl_t)
    cod = p.refines(r_u)
    if limit is not None and hasattr(dom, "elements") and hasattr(cod, "elements"):
        # refuse up front: building even one candidate costs O(|dom|)
        if len(cod.elements) ** len(dom.elements) > limit:
            raise CapabilityError(
                f"encoding search exceeds {limit} candidate expressions"
            )
    out = []
    count = 0
    for f in p.expressions(dom, cod):
        count += 1
        if limit is not None and count > limit:
            raise CapabilityError(
                f"encoding search exceeds {limit} candidate expressions"
            )
        et, _, _ = p.pullback_data(f, r_u)
        if et == rl_t:
            out.append(f)
    return tuple(out)


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
    from .fincat import FinFunction
    return count, FinFunction(f"enc[{getattr(t, 'name', t)}]", dom, cod, table)


# --- marked diagram judgments and two-out-of-three ---------------------------------------

@dataclass
class DiagramJudgment:
    """A judgment marked as a pullback, a pushforward, or plain.

    The marker is backed by a witness; verify() checks the witness boundaries
    match the judgment and runs the witness laws.
    """
    judgment: Judgment
    kind: str = "plain"
    witness: Any = None

    def verify(self, sys: RefinementSystem, mode: str = "literal",
               x_types=None) -> LawReport:
        j, w = self.judgment, self.witness
        if self.kind == "plain":
            return LawReport()
        if self.kind == "pullback":
            witness_cls, ends = PullbackWitness, lambda: (w.etype, w.target)
        elif self.kind == "pushforward":
            witness_cls, ends = PushforwardWitness, lambda: (w.subject, w.etype)
        else:
            return LawReport(1, [f"unknown marker {self.kind!r}"])
        if not isinstance(w, witness_cls):
            return LawReport(1, [f"{self.kind} marker without a {self.kind} witness"])
        if ends() != (j.subject, j.target) or not sys.exprs_equal(w.expr, j.expr):
            return LawReport(1, [f"{self.kind} witness does not match the judgment"])
        return check_beta_eta(w, mode=mode, x_types=x_types)


def mark_pullback(sys: RefinementSystem, f, t) -> DiagramJudgment:
    w = pullback(sys, f, t)
    return DiagramJudgment(Judgment(w.etype, f, t), "pullback", w)


def mark_pushforward(sys: RefinementSystem, s, f) -> DiagramJudgment:
    w = pushforward(sys, s, f)
    return DiagramJudgment(Judgment(s, f, w.etype), "pushforward", w)


def two_out_of_three_pull(sys: RefinementSystem, dj_fg: DiagramJudgment,
                          dj_g: DiagramJudgment, f, mode: str = "literal",
                          x_types=None) -> LawReport:
    """If S =[f;g]=> U and T =[g]=> U are pullbacks, then S =[f]=> T is one.

    Verifies both hypotheses' markers, constructs the implied witness, and
    runs its laws; the report concatenates all three checks.
    """
    return _two_out_of_three(
        sys, "pullback", dj_fg, dj_g, mode, x_types,
        lambda: implied_pullback_witness(sys, dj_fg.witness, dj_g.witness, f))


def two_out_of_three_push(sys: RefinementSystem, dj_fg: DiagramJudgment,
                          dj_f: DiagramJudgment, g, mode: str = "literal",
                          x_types=None) -> LawReport:
    """If S =[f;g]=> U and S =[f]=> T are pushforwards, then T =[g]=> U is one."""
    return _two_out_of_three(
        sys, "pushforward", dj_fg, dj_f, mode, x_types,
        lambda: implied_pushforward_witness(sys, dj_fg.witness, dj_f.witness, g))


def _two_out_of_three(sys, kind: str, dj_fg, dj_other, mode, x_types, implied) -> LawReport:
    rep = dj_fg.verify(sys, mode=mode, x_types=x_types)
    rep.absorb(dj_other.verify(sys, mode=mode, x_types=x_types))
    if not rep.ok:
        return rep
    if dj_fg.kind != kind or dj_other.kind != kind:
        rep.check(False, f"two-out-of-three needs {kind} markers")
        return rep
    return rep.absorb(check_beta_eta(implied(), mode=mode, x_types=x_types))


# --- answer weakening for the double negation ---------------------------------------------

def double_negation_weakening(sys: RefinementSystem, t, u, f) -> Derivation:
    """shift*(negL[U]{negR[U]{T}}) <= shift*(negL[V]{negR[V]{T}}) for V = f*U.

    Precomposing continuations with f restricts the answers; the derivation
    factors through the pullback defining V and converts along the table
    identity (rc(plugR;f) (x) shift);plugL == plugR;f.
    """
    w_v = pullback(sys, f, u)
    v = w_v.etype
    b = sys.refines(t)
    c = sys.refines(u)
    c2 = sys.expr_dom(f)
    w_r_v = residual_right(sys, v, t)
    nr_v = w_r_v.etype
    step1 = compose_derivations(sys, w_r_v.ev, w_v.left)
    w_r_u = residual_right(sys, u, t)
    step2 = w_r_u.curry(step1, nr_v)
    nr_u = w_r_u.etype
    w_l_u = residual_left(sys, nr_u, u)
    dn_u = w_l_u.etype
    w_shift_u = pullback(sys, shift_expr(sys, b, c), dn_u)
    step3 = tensor_derivations(sys, step2, w_shift_u.left)
    step4 = compose_derivations(sys, step3, w_l_u.ev)
    plug_v = sys.plug_r_expr(c2, b)
    step5 = conversion(sys, step4, sys.compose_exprs(plug_v, f))
    step6 = w_v.right(step5, plug_v)
    w_l_v = residual_left(sys, nr_v, v)
    step7 = w_l_v.curry(step6, w_shift_u.etype)
    w_shift_v = pullback(sys, shift_expr(sys, b, c2), w_l_v.etype)
    return w_shift_v.right(step7, sys.id_expr(b))


# --- encodings, universality, reflection, and the representation theorem -------------------

def check_universal(sys: RefinementSystem, u, encodings: dict, etypes=None,
                    mode: str = "membership", x_types=None) -> LawReport:
    """Every e-type is the pullback of U along its encoding, witness laws included."""
    rep = LawReport()
    for s in (etypes if etypes is not None else sys.e_types()):
        name = getattr(s, "name", s)
        if s not in encodings:
            rep.check(False, f"no encoding for {name}")
            continue
        w = pullback(sys, encodings[s], u)
        if rep.check(w.etype == s, lambda: f"encoding of {name} pulls back to {w.etype.name}"):
            rep.absorb(check_beta_eta(w, mode=mode, x_types=x_types), name)
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
    lam = p.coherence_cell("unit_l", (t,))[0]
    inner = p.compose_exprs(p.compose_exprs(lam, adj.eta0(b)), r_e)
    return r_e, p.curry_r_expr(inner)


def _evaluation_expr(adj: AdjunctionDescriptor, t, u, encodings: dict):
    """The evaluation-at-the-encoded-point expression DN-space -> R0(C)."""
    p = adj.p
    w_ans = adj.r_etype(u)
    cw = p.refines(w_ans)
    b = p.refines(t)
    _, dn = double_negation_etypes(adj, t, u)
    r_e, point = _point_expr(adj, t, encodings)
    nr_itype = p.residual_right_itype(cw, b)
    plug = p.plug_l_expr(nr_itype, cw)
    lam_inv = p.coherence_cell("unit_l_inv", (dn,))[0]
    expr2 = p.compose_exprs(
        lam_inv,
        p.compose_exprs(
            p.tensor_expr(point, p.id_expr(p.refines(dn))), plug
        ),
    )
    return r_e, expr2


def check_reflected(adj: AdjunctionDescriptor, u, encodings: dict,
                    q_etypes=None, p_etypes=None, mode: str = "membership",
                    x_types=None) -> ReflectionReport:
    """Both reflection conditions for a universal type across an adjunction.

    Condition 1: R sends each q-side encoding pullback to a p-side pullback
    of R[U] along R1 of the encoding - constructed and law-checked.

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
            rep.absorb(check_beta_eta(w, mode=mode, x_types=x_types), f"condition 1 at {name}")
    w_ans = adj.r_etype(u)
    cw = p.refines(w_ans)
    for t in (p_etypes if p_etypes is not None else p.e_types()):
        name = getattr(t, "name", t)
        if adj.l_etype(t) not in encodings:
            rep.check(False, f"no encoding for L[{name}]")
            continue
        try:
            _, dn = double_negation_etypes(adj, t, u)
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
    _, dn = double_negation_etypes(adj, t, u)
    shifted_dn, _, _ = p.pullback_data(sh, dn)
    w1 = composite_pullback_witness(p, adj.eta0(b), r_e, w_ans)
    w2 = composite_pullback_witness(p, sh, expr2, w_ans)
    if w2.etype != shifted_dn:
        raise LawViolation("condition 2 (shift context) fails at the theorem instance")
    monad = FiberwiseMonad(adj)
    if w1.etype != monad.carrier(t):
        raise LawViolation("pasted pullback does not produce the monad carrier")
    return uniqueness_iso(w1, w2)
