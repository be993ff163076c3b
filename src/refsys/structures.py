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
bi-implication on the carrier.  law_mode(sys) is the one rule for picking
the mode: membership where sys is proof-irrelevant, literal otherwise.  The
law suites, universality, reflection and two-out-of-three all call it;
check_beta_eta still takes the mode, so tests can run both as cross-checks.

One loop runs the literal mode for both kinds of witness.  A pullback
fixes its target and runs over subjects, a pushforward fixes its subject
and runs over targets; call either the end.  For each factor g and end it
builds the beta and the eta judgment once, and each model morphism over
one of them, taken straight from ``morphisms_over``, is one instance: an
axiom derivation, its round trip through the witness's rules (bound once
per check) and one derivation equality; only a failing instance builds a
message.  A witness builds g;f (or f;g) once per factor g and checks g's
boundary then, and a later premise with the same g reuses both.

The law checkers that loop over instances stop once their report is
`full`: LawReport.failure_cap (5) failures are recorded.  Each checker
tests this at its own break points (once per end in the literal loop), so
a report can hold a few more failures than the cap, and its instance
count is what was checked up to that point.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Optional

from .kernel import (
    CapabilityError,
    Derivation,
    IllFormedError,
    Judgment,
    LawViolation,
    MismatchError,
    RefinementSystem,
    Status,
    VerticalIso,
    _new,
    axiom,
    classify,
    compose_derivations,
    derivations_equal,
    identity_derivation,
    well_formed,
)


@dataclass
class LawReport:
    """What a law check found: instances checked, failure messages, skipped instances."""
    checked: int = 0
    failures: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    failure_cap: ClassVar[int] = 5

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def full(self) -> bool:
        """Whether failure_cap failures are recorded: a checker stops here."""
        return len(self.failures) >= self.failure_cap

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
    _last: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def _through(self, g):
        """g;f, built once for a run of premises with the same factor g, whose
        codomain is checked then."""
        last, gf = self._last
        if last is not g:
            if self.sys.expr_cod(g) != self.sys.expr_dom(self.expr):
                raise MismatchError("pullback right rule: factor has wrong codomain")
            gf = self.sys.compose_exprs(g, self.expr)
            self._last = (g, gf)
        return gf

    def right(self, beta: Derivation, g) -> Derivation:
        sys = self.sys
        j = beta.judgment
        if j.target is not self.target and j.target != self.target:
            raise MismatchError("pullback right rule: premise has wrong target")
        gf = self._through(g)
        if j.expr is not gf and not sys.exprs_equal(j.expr, gf):
            raise MismatchError("pullback right rule: premise expression is not g;f")
        interp = self._factor(beta.interp, g)
        return _new(Derivation, ("pull-R", _new(Judgment, (j.subject, g, self.etype)),
                                 (beta,), interp))

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
    _last: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def _through(self, g):
        """f;g, built once for a run of premises with the same factor g, whose
        domain is checked then."""
        last, fg = self._last
        if last is not g:
            if self.sys.expr_dom(g) != self.sys.expr_cod(self.expr):
                raise MismatchError("pushforward left rule: factor has wrong domain")
            fg = self.sys.compose_exprs(self.expr, g)
            self._last = (g, fg)
        return fg

    def left(self, beta: Derivation, g) -> Derivation:
        sys = self.sys
        j = beta.judgment
        if j.subject is not self.subject and j.subject != self.subject:
            raise MismatchError("pushforward left rule: premise has wrong subject")
        fg = self._through(g)
        if j.expr is not fg and not sys.exprs_equal(j.expr, fg):
            raise MismatchError("pushforward left rule: premise expression is not f;g")
        interp = self._factor(beta.interp, g)
        return _new(Derivation, ("push-L", _new(Judgment, (self.etype, g, j.target)),
                                 (beta,), interp))

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

def law_mode(sys: RefinementSystem) -> str:
    """The check_beta_eta mode for sys: membership when proof-irrelevant, else literal."""
    return "membership" if sys.proof_irrelevant else "literal"


def check_beta_eta(w, mode: str = "literal", x_types: Optional[tuple] = None) -> LawReport:
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
        kind = "pullback"
    elif isinstance(w, PushforwardWitness):
        kind = "pushforward"
    else:
        raise TypeError(f"not a witness: {w!r}")
    if mode == "literal":
        return _check_literal(w, x_types)
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


def _check_literal(w, x_types) -> LawReport:
    """Both literal loops, in the order the laws quantify.

    A pullback f*T fixes its target: the ends are the subjects S over each
    x, the factors run over g : x -> A, beta over S =[g;f]=> T and eta over
    S =[g]=> f*T.  A pushforward fS fixes its subject: the ends are the
    targets T over each x, the factors run over g : B -> x, beta over
    S =[f;g]=> T and eta over fS =[g]=> T.  Each judgment is built once per
    (end, factor), and each morphism over it is one instance.
    """
    sys, etype, pull = w.sys, w.etype, isinstance(w, PullbackWitness)
    # the rule that factors a premise, the unit it is cut with, and the fixed end
    rule, unit, fixed = (w.right, w.left, w.target) if pull else (w.left, w.right, w.subject)
    role = "subject" if pull else "target"
    compose, equal, morphisms_over = compose_derivations, derivations_equal, sys.morphisms_over
    rep = LawReport()
    for x in (x_types if x_types is not None else sys.i_types()):
        ends = sys.e_types_over(x)
        for g in (sys.expressions(x, sys.expr_dom(w.expr)) if pull
                  else sys.expressions(sys.expr_cod(w.expr), x)):
            h = w._through(g)
            for e in ends:
                (s, t), (s2, t2) = ((e, fixed), (e, etype)) if pull else ((fixed, e), (etype, e))
                # every end refines x, so the first one checks the factor's boundaries
                if e is ends[0] and not (well_formed(sys, s, h, t)
                                         and well_formed(sys, s2, g, t2)):
                    raise IllFormedError("ill-formed judgment")
                j = _new(Judgment, (s, h, t))
                for m in morphisms_over(s, h, t):
                    beta = _new(Derivation, ("ax", j, (), m))
                    rep.checked += 1
                    back = (compose(sys, rule(beta, g), unit) if pull
                            else compose(sys, unit, rule(beta, g)))
                    if not equal(sys, back, beta):
                        rep.failures.append(f"beta-law fails at {role} {e.name}, factor {_name(g)}")
                j = _new(Judgment, (s2, g, t2))
                for m in morphisms_over(s2, g, t2):
                    eta = _new(Derivation, ("ax", j, (), m))
                    rep.checked += 1
                    back = rule(compose(sys, eta, unit) if pull else compose(sys, unit, eta), g)
                    if not equal(sys, back, eta):
                        rep.failures.append(f"eta-law fails at {role} {e.name}, factor {_name(g)}")
                if rep.failures and rep.full:
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

    def _require_kind(self, kind: str, rule: str) -> None:
        if self.kind != kind:
            raise MismatchError(f"{rule} applies to a weighted {kind}, not to this {self.kind}")

    def projection(self, i: int) -> Derivation:
        self._require_kind("intersection", "projection")
        f, t = self.family[i]
        return axiom(self.sys, self.etype, f, t)

    def injection(self, i: int) -> Derivation:
        self._require_kind("union", "injection")
        f, s = self.family[i]
        return axiom(self.sys, s, f, self.etype)

    def tuple_rule(self, betas: tuple, g) -> Derivation:
        """intersection: from beta_i : S =[g;f_i]=> T_i, infer S =[g]=> W."""
        self._require_kind("intersection", "tupling")
        sys = self.sys
        if len(betas) != len(self.family):
            raise MismatchError(
                f"tupling: {len(betas)} premises for {len(self.family)} weights"
            )
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
    if sys.refines(t2) != a:
        raise MismatchError("binary intersection: the types refine different index types")
    i = sys.id_expr(a)
    return weighted_intersection(sys, a, ((i, t1), (i, t2))).etype


def binary_union(sys: RefinementSystem, s1, s2):
    a = sys.refines(s1)
    if sys.refines(s2) != a:
        raise MismatchError("binary union: the types refine different index types")
    i = sys.id_expr(a)
    return weighted_union(sys, a, ((i, s1), (i, s2))).etype
