"""Pullback/pushforward witnesses and the equations that make them universal.

A pullback witness for (f, T) packages the constructed refinement type f*T,
the left rule f*T =[f]=> T, and the right rule: an executable transformation
sending any derivation S =[g;f]=> T together with the factor g to a
derivation S =[g]=> f*T.  The two witness equations say that the round trips
are identities:

    beta-law   (right(beta, g) then left)  ==  beta
    eta-law    right(eta then left, g)     ==  eta

for every derivation beta : S =[g;f]=> T and eta : S =[g]=> f*T.  Pushforward
witnesses are dual (left rule is the transformation, right rule the unit).
check_beta_eta makes the quantification executable: `literal` mode enumerates
subjects, factors, and derivations exactly as the laws quantify; `membership`
mode is an equivalent complete check available in proof-irrelevant models,
where hom-sets over an expression have at most one element, so the laws hold
iff the constructed type has exactly the right elements - an elementwise
bi-implication on the carrier.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .kernel import (
    CapabilityError,
    Derivation,
    Judgment,
    LawViolation,
    MismatchError,
    RefinementSystem,
    Status,
    VerticalIso,
    axiom,
    classify,
    compose_derivations,
    derivations_equal,
    derivations_over,
    identity_derivation,
)


@dataclass
class LawReport:
    """What a law check found: instances checked, failure messages, skipped instances."""
    checked: int = 0
    failures: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, holds: bool, failure) -> bool:
        """Count one instance; on failure record the message (a callable is called then)."""
        self.checked += 1
        if not holds:
            self.failures.append(failure() if callable(failure) else failure)
        return holds

    def skip(self, msg: str) -> None:
        self.skipped.append(msg)

    def absorb(self, other: "LawReport", where: str = "") -> "LawReport":
        """Add other's instances, failures and skips, the latter two prefixed with where."""
        prefix = f"{where}: " if where else ""
        self.checked += other.checked
        self.failures += [prefix + f for f in other.failures]
        self.skipped += [prefix + s for s in other.skipped]
        return self

    def __str__(self):
        head = "ok" if self.ok else "FAILED"
        lines = [f"laws: {head} ({self.checked} instances checked)"]
        lines += [f"  failure: {f}" for f in self.failures]
        lines += [f"  skipped: {s}" for s in self.skipped]
        return "\n".join(lines)


@dataclass
class PullbackWitness:
    """f*T with its left rule and executable right rule."""
    sys: RefinementSystem
    expr: Any
    target: Any
    etype: Any
    left: Derivation
    _factor: Callable

    def right(self, beta: Derivation, g) -> Derivation:
        sys = self.sys
        if beta.target != self.target:
            raise MismatchError("pullback right rule: premise has wrong target")
        if sys.expr_cod(g) != sys.expr_dom(self.expr):
            raise MismatchError("pullback right rule: factor has wrong codomain")
        if not sys.exprs_equal(beta.expr, sys.compose_exprs(g, self.expr)):
            raise MismatchError("pullback right rule: premise expression is not g;f")
        interp = self._factor(beta.interp, g)
        return Derivation(
            "pull-R", Judgment(beta.subject, g, self.etype), (beta,), interp
        )

    def factor_subtyping(self, beta: Derivation) -> Derivation:
        """Special case g = identity: from S =[f]=> T conclude S <= f*T."""
        return self.right(beta, self.sys.id_expr(self.sys.expr_dom(self.expr)))


@dataclass
class PushforwardWitness:
    """fS with its right rule (unit) and executable left rule."""
    sys: RefinementSystem
    subject: Any
    expr: Any
    etype: Any
    right: Derivation
    _factor: Callable

    def left(self, beta: Derivation, g) -> Derivation:
        sys = self.sys
        if beta.subject != self.subject:
            raise MismatchError("pushforward left rule: premise has wrong subject")
        if sys.expr_dom(g) != sys.expr_cod(self.expr):
            raise MismatchError("pushforward left rule: factor has wrong domain")
        if not sys.exprs_equal(beta.expr, sys.compose_exprs(self.expr, g)):
            raise MismatchError("pushforward left rule: premise expression is not f;g")
        interp = self._factor(beta.interp, g)
        return Derivation(
            "push-L", Judgment(self.etype, g, beta.target), (beta,), interp
        )

    def factor_subtyping(self, beta: Derivation) -> Derivation:
        """Special case g = identity: from S =[f]=> T conclude fS <= T."""
        return self.left(beta, self.sys.id_expr(self.sys.expr_cod(self.expr)))


def pullback(sys: RefinementSystem, f, t) -> PullbackWitness:
    et, left_interp, factor = sys.pullback_data(f, t)
    left = Derivation("pull-L", Judgment(et, f, t), (), left_interp)
    return PullbackWitness(sys, f, t, et, left, factor)


def pushforward(sys: RefinementSystem, s, f) -> PushforwardWitness:
    et, right_interp, factor = sys.pushforward_data(s, f)
    right = Derivation("push-R", Judgment(s, f, et), (), right_interp)
    return PushforwardWitness(sys, s, f, et, right, factor)


# --- law checking --------------------------------------------------------------

def check_beta_eta(w, mode: str = "literal", x_types: Optional[tuple] = None,
                   max_failures: int = 5) -> LawReport:
    """Verify the two witness equations.

    literal: quantify over subjects S, factors g, and derivations beta/eta by
    enumeration (x_types restricts which index types the subjects range over).

    membership: complete check for proof-irrelevant systems - recompute the
    constructed type elementwise and compare.  At most one morphism lives over
    each expression in such systems, so boundary derivability determines the
    derivation, and the elementwise bi-implication is exactly the universal
    property quantified over all subjects and factors at once.
    """
    if mode not in ("literal", "membership"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(w, PullbackWitness):
        kind, literal = "pullback", _check_pull
    elif isinstance(w, PushforwardWitness):
        kind, literal = "pushforward", _check_push
    else:
        raise TypeError(f"not a witness: {w!r}")
    if mode == "literal":
        return literal(w, x_types, max_failures)
    sys = w.sys
    if not sys.proof_irrelevant:
        raise CapabilityError("membership mode needs a proof-irrelevant system")
    if kind == "pullback":
        et, _, _ = sys.pullback_data(w.expr, w.target)
    else:
        et, _, _ = sys.pushforward_data(w.subject, w.expr)
    rep = LawReport()
    if rep.check(et == w.etype, lambda: (
            f"{kind} along {_name(w.expr)!r}: "
            f"constructed {_name(w.etype)} != canonical {_name(et)}")):
        rep.checked = len(et.of) if hasattr(et, "of") else 1
    return rep


def _name(x) -> str:
    return getattr(x, "name", x)


def _check_pull(w: PullbackWitness, x_types, max_failures) -> LawReport:
    sys = w.sys
    rep = LawReport()
    a = sys.expr_dom(w.expr)
    for x in (x_types if x_types is not None else sys.i_types()):
        subjects = sys.e_types_over(x)
        for g in sys.expressions(x, a):
            gf = sys.compose_exprs(g, w.expr)
            for s in subjects:
                for beta in derivations_over(sys, s, gf, w.target):
                    round_trip = compose_derivations(sys, w.right(beta, g), w.left)
                    rep.check(derivations_equal(sys, round_trip, beta),
                              lambda: f"beta-law fails at subject {s.name}, factor {_name(g)}")
                for eta in derivations_over(sys, s, g, w.etype):
                    back = w.right(compose_derivations(sys, eta, w.left), g)
                    rep.check(derivations_equal(sys, back, eta),
                              lambda: f"eta-law fails at subject {s.name}, factor {_name(g)}")
                if len(rep.failures) >= max_failures:
                    return rep
    return rep


def _check_push(w: PushforwardWitness, x_types, max_failures) -> LawReport:
    sys = w.sys
    rep = LawReport()
    b = sys.expr_cod(w.expr)
    for x in (x_types if x_types is not None else sys.i_types()):
        targets = sys.e_types_over(x)
        for g in sys.expressions(b, x):
            fg = sys.compose_exprs(w.expr, g)
            for t in targets:
                for beta in derivations_over(sys, w.subject, fg, t):
                    round_trip = compose_derivations(sys, w.right, w.left(beta, g))
                    rep.check(derivations_equal(sys, round_trip, beta),
                              lambda: f"beta-law fails at target {t.name}, factor {_name(g)}")
                for eta in derivations_over(sys, w.etype, g, t):
                    back = w.left(compose_derivations(sys, w.right, eta), g)
                    rep.check(derivations_equal(sys, back, eta),
                              lambda: f"eta-law fails at target {t.name}, factor {_name(g)}")
                if len(rep.failures) >= max_failures:
                    return rep
    return rep


# --- uniqueness and composition ------------------------------------------------

def uniqueness_iso(w1, w2) -> VerticalIso:
    """Any two witnesses for the same data have canonically isomorphic types.

    Both composites are verified to interpret to identities; LawViolation
    otherwise.  The two witnesses may carry expressions that are merely
    table-equal rather than identical.
    """
    sys = w1.sys
    if isinstance(w1, PullbackWitness) and isinstance(w2, PullbackWitness):
        if w1.target != w2.target or not sys.exprs_equal(w1.expr, w2.expr):
            raise MismatchError("uniqueness: witnesses are for different data")
        ident = sys.id_expr(sys.expr_dom(w1.expr))
        fwd = w2.right(w1.left, ident)
        bwd = w1.right(w2.left, ident)
    elif isinstance(w1, PushforwardWitness) and isinstance(w2, PushforwardWitness):
        if w1.subject != w2.subject or not sys.exprs_equal(w1.expr, w2.expr):
            raise MismatchError("uniqueness: witnesses are for different data")
        ident = sys.id_expr(sys.expr_cod(w1.expr))
        fwd = w1.left(w2.right, ident)
        bwd = w2.left(w1.right, ident)
    else:
        raise TypeError("uniqueness: need two witnesses of the same kind")
    round1 = compose_derivations(sys, fwd, bwd)
    round2 = compose_derivations(sys, bwd, fwd)
    if not derivations_equal(sys, round1, identity_derivation(sys, w1.etype)):
        raise LawViolation("uniqueness iso: forward;backward is not the identity")
    if not derivations_equal(sys, round2, identity_derivation(sys, w2.etype)):
        raise LawViolation("uniqueness iso: backward;forward is not the identity")
    return VerticalIso(fwd, bwd)


def composite_pullback_witness(sys, f, g, t) -> PullbackWitness:
    """Exhibit f*(g*T) as a pullback of T along f;g, by pasting two witnesses."""
    w_g = pullback(sys, g, t)
    w_f = pullback(sys, f, w_g.etype)
    left = compose_derivations(sys, w_f.left, w_g.left)

    def factor(m, h):
        return w_f._factor(w_g._factor(m, sys.compose_exprs(h, f)), h)

    return PullbackWitness(sys, sys.compose_exprs(f, g), t, w_f.etype, left, factor)


def composite_pushforward_witness(sys, s, f, g) -> PushforwardWitness:
    """Exhibit g(fS) as a pushforward of S along f;g, by pasting two witnesses."""
    w_f = pushforward(sys, s, f)
    w_g = pushforward(sys, w_f.etype, g)
    right = compose_derivations(sys, w_f.right, w_g.right)

    def factor(m, h):
        return w_g._factor(w_f._factor(m, sys.compose_exprs(g, h)), h)

    return PushforwardWitness(sys, s, sys.compose_exprs(f, g), w_g.etype, right, factor)


def pull_compose_iso(sys, f, g, t) -> VerticalIso:
    """(f;g)*T is canonically isomorphic to f*(g*T)."""
    direct = pullback(sys, sys.compose_exprs(f, g), t)
    pasted = composite_pullback_witness(sys, f, g, t)
    return uniqueness_iso(direct, pasted)


def push_compose_iso(sys, s, f, g) -> VerticalIso:
    """(f;g)S is canonically isomorphic to g(fS)."""
    direct = pushforward(sys, s, sys.compose_exprs(f, g))
    pasted = composite_pushforward_witness(sys, s, f, g)
    return uniqueness_iso(direct, pasted)


def implied_pullback_witness(sys, w_fg: PullbackWitness, w_g: PullbackWitness,
                             f) -> PullbackWitness:
    """Two-out-of-three: from S = (f;g)*U and T = g*U, exhibit S as f*T.

    The caller guarantees w_fg.expr is table-equal to f;(w_g.expr).  The laws
    of the returned witness are not assumed; run check_beta_eta on it.
    """
    if not sys.exprs_equal(w_fg.expr, sys.compose_exprs(f, w_g.expr)):
        raise MismatchError("two-out-of-three: expressions do not factor")
    if w_fg.target != w_g.target:
        raise MismatchError("two-out-of-three: witnesses target different types")
    left = w_g.right(w_fg.left, f)

    def factor(m, h):
        mm = sys.compose_interps(m, w_g.left.interp)
        return w_fg._factor(mm, h)

    return PullbackWitness(sys, f, w_g.etype, w_fg.etype, left, factor)


def implied_pushforward_witness(sys, w_fg: PushforwardWitness,
                                w_f: PushforwardWitness, g) -> PushforwardWitness:
    """Two-out-of-three, dual: from U = (f;g)S and T = fS, exhibit U as gT."""
    if not sys.exprs_equal(w_fg.expr, sys.compose_exprs(w_f.expr, g)):
        raise MismatchError("two-out-of-three: expressions do not factor")
    if w_fg.subject != w_f.subject:
        raise MismatchError("two-out-of-three: witnesses start at different types")
    right = w_f.left(w_fg.right, g)

    def factor(m, h):
        mm = sys.compose_interps(w_f.right.interp, m)
        return w_fg._factor(mm, h)

    return PushforwardWitness(sys, w_f.etype, g, w_fg.etype, right, factor)


# --- the three readings of a typing judgment ------------------------------------

@dataclass(frozen=True)
class ThreeWay:
    via_push: bool
    direct: bool
    via_pull: bool

    @property
    def agree(self) -> bool:
        return self.via_push == self.direct == self.via_pull


def three_way(sys: RefinementSystem, s, f, t) -> ThreeWay:
    """fS <= T iff S =[f]=> T iff S <= f*T; all three computed independently."""
    push_et, _, _ = sys.pushforward_data(s, f)
    pull_et, _, _ = sys.pullback_data(f, t)
    ib = sys.id_expr(sys.expr_cod(f))
    ia = sys.id_expr(sys.expr_dom(f))
    return ThreeWay(
        classify(sys, push_et, ib, t) is Status.DERIVABLE,
        classify(sys, s, f, t) is Status.DERIVABLE,
        classify(sys, s, ia, pull_et) is Status.DERIVABLE,
    )


def three_way_derivations(sys: RefinementSystem, s, f, t) -> dict:
    """When derivable, the actual derivations carrying each reading into the others."""
    out = {}
    w_push = pushforward(sys, s, f)
    w_pull = pullback(sys, f, t)
    direct = axiom(sys, s, f, t)
    out["direct"] = direct
    out["push_to_sub"] = w_push.factor_subtyping(direct)
    out["pull_to_sub"] = w_pull.factor_subtyping(direct)
    sub_push = out["push_to_sub"]
    out["sub_to_direct_via_push"] = compose_derivations(sys, w_push.right, sub_push)
    sub_pull = out["pull_to_sub"]
    out["sub_to_direct_via_pull"] = compose_derivations(sys, sub_pull, w_pull.left)
    return out


# --- weighted intersections and unions ------------------------------------------

@dataclass
class WeightedFamily:
    """A weighted intersection/union with its projection/injection rules.

    For an intersection over (f_i : A -> B_i, T_i), the constructed type W
    refines A, each projection W =[f_i]=> T_i is derivable, and the tupling
    rule turns a family beta_i : S =[g;f_i]=> T_i into S =[g]=> W.  A union
    has the dual injections S_i =[f_i]=> W.  The weights may land in
    distinct index types.
    """
    sys: RefinementSystem
    kind: str
    index_type: Any
    family: tuple
    etype: Any

    def projection(self, i: int) -> Derivation:
        assert self.kind == "intersection"
        f, t = self.family[i]
        return axiom(self.sys, self.etype, f, t)

    def injection(self, i: int) -> Derivation:
        assert self.kind == "union"
        f, s = self.family[i]
        return axiom(self.sys, s, f, self.etype)

    def tuple_rule(self, betas: tuple, g) -> Derivation:
        """intersection: from beta_i : S =[g;f_i]=> T_i, infer S =[g]=> W."""
        assert self.kind == "intersection"
        sys = self.sys
        assert len(betas) == len(self.family)
        subject = None
        for beta, (f, t) in zip(betas, self.family):
            if beta.target != t or not sys.exprs_equal(beta.expr, sys.compose_exprs(g, f)):
                raise MismatchError("tupling: premise does not match its weight")
            if subject is None:
                subject = beta.subject
            elif beta.subject != subject:
                raise MismatchError("tupling: premises have different subjects")
        if subject is None:
            raise MismatchError("tupling with no premises needs cotupling of arity 0 via axiom")
        d = axiom(sys, subject, g, self.etype)
        return Derivation("wint-R", d.judgment, tuple(betas), d.interp)


def weighted_intersection(sys: RefinementSystem, a, family) -> WeightedFamily:
    """family: tuple of (f_i : a -> B_i, T_i over B_i).  Empty family gives the top type."""
    family = tuple(family)
    et = sys.weighted_intersection_etype(a, family)
    return WeightedFamily(sys, "intersection", a, family, et)


def weighted_union(sys: RefinementSystem, b, family) -> WeightedFamily:
    """family: tuple of (f_i : A_i -> b, S_i over A_i).  Empty family gives the bottom type."""
    family = tuple(family)
    et = sys.weighted_union_etype(b, family)
    return WeightedFamily(sys, "union", b, family, et)


def binary_intersection(sys: RefinementSystem, t1, t2):
    a = sys.refines(t1)
    assert sys.refines(t2) == a
    i = sys.id_expr(a)
    return weighted_intersection(sys, a, ((i, t1), (i, t2))).etype


def binary_union(sys: RefinementSystem, s1, s2):
    a = sys.refines(s1)
    assert sys.refines(s2) == a
    i = sys.id_expr(a)
    return weighted_union(sys, a, ((i, s1), (i, s2))).etype
