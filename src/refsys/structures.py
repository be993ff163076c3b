"""Pullback/pushforward witnesses and the equations that make them universal.

One class, :class:`Witness`, serves both directions of the bifibration: a
pushforward is a pullback with both ends swapped.  A witness of kind "pull"
for (f, T) packages the constructed refinement type f*T, its unit (the
axiom rule pull-L, f*T =[f]=> T) and its factor rule (pull-R): an
executable transformation sending any derivation S =[g;f]=> T together with
the factor g to a derivation S =[g]=> f*T.  A witness of kind "push" for
(S, f) packages fS, its unit push-R S =[f]=> fS and its factor rule push-L,
sending S =[f;g]=> T with g to fS =[g]=> T.  The two witness equations say
that the round trips are identities; for a pullback

    beta-law   (factor(beta, g) then unit)  ==  beta
    eta-law    factor(eta then unit, g)     ==  eta

for every derivation beta : S =[g;f]=> T and eta : S =[g]=> f*T, and
dually for a pushforward (the unit comes first).  The rule names, the
fault texts and the orientation of judgments are settled once, when a
witness is built, so every function here (the law check, uniqueness, the
pasting of two witnesses) is written once for both kinds.
The functions that build witnesses take the kind first, as ``witness``
does: ``composite_witness`` pastes two witnesses along f;g and
``compose_iso`` compares the pasted one with the direct one.
check_beta_eta makes the quantification executable: `literal` mode enumerates
subjects, factors, and derivations exactly as the laws quantify; `membership`
mode is an equivalent complete check available in proof-irrelevant models,
where hom-sets over an expression have at most one element, so the laws hold
iff the constructed type has exactly the right elements - an elementwise
bi-implication on the carrier.  law_mode(sys) is the one rule for picking
the mode: membership where sys is proof-irrelevant, literal otherwise.  The
law suites, universality and reflection all call it;
check_beta_eta still takes the mode, so tests can run both as cross-checks.

One loop runs the literal mode for both kinds of witness.  A pullback
fixes its target and runs over subjects, a pushforward fixes its subject
and runs over targets; call either the end.  The boundaries of the beta
and the eta judgment at each end are laid out once per index type, so the
loop tests no kind per end, and they are checked once per factor g.  Each
model morphism over a judgment, taken straight from ``morphisms_over``, is
one instance: an axiom derivation (one flat tuple holding the judgment's
boundaries, so no ``Judgment`` is built), its round trip through the
witness's rules (bound once per check) and one derivation equality, and
only a failing instance builds a message.  A witness builds g;f (or f;g)
once per factor g and checks g's boundary then, and a later premise with
the same g reuses both; what its factor rule reads on every call (the
fixed end and its place, the type, the rule name, the fault texts, the
model's factor) is bound once, when the witness is built.

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
    LawViolation,
    MismatchError,
    RefinementSystem,
    Status,
    ValidationError,
    VerticalIso,
    _new,
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


# per kind: the noun, the universal rule, and that rule's fault texts when
# the factor does not meet f, when the premise's fixed end is not the
# witness's, and when the premise does not lie over the composite
_KINDS = {
    "pull": ("pullback", "pull-R", ("pullback right rule: factor has wrong codomain",
                                    "pullback right rule: premise has wrong target",
                                    "pullback right rule: premise expression is not g;f")),
    "push": ("pushforward", "push-L", ("pushforward left rule: factor has wrong domain",
                                       "pushforward left rule: premise has wrong subject",
                                       "pushforward left rule: premise expression is not f;g")),
}


@dataclass
class Witness:
    """A pullback f*T (kind "pull") or a pushforward fS (kind "push") with its rules.

    ``fixed`` is T for a pullback and S for a pushforward, and ``etype`` is
    the constructed type.  ``unit`` is the axiom rule, pull-L f*T =[f]=> T
    or push-R S =[f]=> fS, and ``factor(beta, g)`` the universal rule:
    pull-R takes beta : S =[g;f]=> T to S =[g]=> f*T, push-L takes
    beta : S =[f;g]=> T to fS =[g]=> T.  ``_factor(m, g)`` is the model's
    factoring of beta's morphism.  What depends on the kind (the rule name,
    the fault texts, where the fixed end sits in a judgment) is settled when
    the witness is built, together with the fields ``factor`` reads, so a
    witness is not changed after it is built: ``dataclasses.replace`` builds
    a new one.
    """
    sys: RefinementSystem
    kind: str
    expr: Any
    fixed: Any
    etype: Any
    unit: Derivation
    _factor: Callable
    _last: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        self.noun, rule, faults = _KINDS[self.kind]
        # a pushforward is a pullback with both ends swapped: it reads
        # judgments and composites backwards, and its fixed end is the subject
        self._pull = pull = self.kind == "pull"
        # what factor reads on every call, bound once: the fixed end's field
        # in a derivation, the kind's rule name and fault texts, the model's factor
        self._bound = (3 if pull else 1, self.fixed, self.etype, pull, rule, faults,
                       self._factor)

    def _through(self, g):
        """g;f (pull) or f;g (push), after checking g's end at f; factor
        keeps the last one, for a run of premises with the same g."""
        sys = self.sys
        first, second = (g, self.expr) if self._pull else (self.expr, g)
        a, b = sys.expr_cod(first), sys.expr_dom(second)
        if a is not b and a != b:
            raise MismatchError(_KINDS[self.kind][2][0])
        h = sys.compose_exprs(first, second)
        self._last = (g, h)
        return h

    def factor(self, beta: Derivation, g) -> Derivation:
        at, fixed, etype, pull, rule, faults, model_factor = self._bound
        end = beta[at]
        if end is not fixed and end != fixed:
            raise MismatchError(faults[1])
        last, h = self._last
        if last is not g:
            h = self._through(g)
        f = beta.expr
        if f is not h and not self.sys.exprs_equal(f, h):
            raise MismatchError(faults[2])
        interp = model_factor(beta.interp, g)
        if pull:
            return _new(Derivation, (rule, beta.subject, g, etype, (beta,), interp))
        return _new(Derivation, (rule, etype, g, beta.target, (beta,), interp))

    def factor_subtyping(self, beta: Derivation) -> Derivation:
        """Special case g = identity: from S =[f]=> T conclude S <= f*T or fS <= T."""
        sys, f = self.sys, self.expr
        ident = sys.id_expr(sys.expr_dom(f) if self._pull else sys.expr_cod(f))
        return self.factor(beta, ident)


def pullback(sys: RefinementSystem, f, t) -> Witness:
    et, interp, factor = sys.pullback_data(f, t)
    unit = Derivation("pull-L", et, f, t, (), interp)
    return Witness(sys, "pull", f, t, et, unit, factor)


def pushforward(sys: RefinementSystem, s, f) -> Witness:
    et, interp, factor = sys.pushforward_data(s, f)
    unit = Derivation("push-R", s, f, et, (), interp)
    return Witness(sys, "push", f, s, et, unit, factor)


def witness(sys: RefinementSystem, kind: str, f, fixed) -> Witness:
    """pullback(sys, f, fixed) for kind "pull", pushforward(sys, fixed, f) for "push"."""
    return pullback(sys, f, fixed) if kind == "pull" else pushforward(sys, fixed, f)


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
    property quantified over all subjects and factors at once.  The type is
    recomputed from the expression's values alone (see _elementwise), so a
    model hook that builds the wrong type fails here.
    """
    if mode not in ("literal", "membership"):
        raise ValueError(f"unknown mode {mode!r}")
    if not isinstance(w, Witness):
        raise TypeError(f"not a witness: {w!r}")
    if mode == "literal":
        return _check_literal(w, x_types)
    sys = w.sys
    if not sys.proof_irrelevant:
        raise CapabilityError("membership mode needs a proof-irrelevant system")
    et = _elementwise(w)
    rep = LawReport()
    if rep.check(et == w.etype, lambda: (
            f"{w.noun} along {_name(w.expr)!r}: "
            f"constructed {_name(w.etype)} != canonical {_name(et)}")):
        rep.checked = len(et.of) if hasattr(et, "of") else 1
    return rep


def _elementwise(w: Witness):
    """The type w should have, from its expression's values one element at a
    time: f*T = {x | f(x) in T} and fS = {f(x) | x in S}, built by the
    constructed type's own checked constructor.  A witness of an opposite
    system is its base's witness of the other kind along the same
    expression.  No model hook and no index table is read."""
    from .monadrep import OppositeSystem  # monadrep imports this module

    sys, pull, f = w.sys, w._pull, w.expr
    while isinstance(sys, OppositeSystem):
        sys, pull = sys.base, not pull
    inside = w.fixed.elements
    if pull:
        return type(w.etype)(f.dom, [x for x in f.dom.elements if f(x) in inside])
    return type(w.etype)(f.cod, {f(x) for x in inside})


def _name(x) -> str:
    return getattr(x, "name", x)


def _check_literal(w, x_types) -> LawReport:
    """Both literal loops, in the order the laws quantify.

    A pullback f*T fixes its target: the ends are the subjects S over each
    x, the factors run over g : x -> A, beta over S =[g;f]=> T and eta over
    S =[g]=> f*T.  A pushforward fS fixes its subject: the ends are the
    targets T over each x, the factors run over g : B -> x, beta over
    S =[f;g]=> T and eta over fS =[g]=> T.  Each judgment's boundaries are
    laid out once per index type, and each morphism over it is one
    instance.  A factor the model cannot build as a morphism (a
    ValidationError) fails that law at that end and factor with the
    model's text, and ends that loop.
    """
    sys, etype, fixed, rule, unit = w.sys, w.etype, w.fixed, w.factor, w.unit
    pull = w._pull
    role = "subject" if pull else "target"
    compose, equal, morphisms_over = compose_derivations, derivations_equal, sys.morphisms_over
    rep = LawReport()
    failures = rep.failures
    checked = 0
    for x in (x_types if x_types is not None else sys.i_types()):
        ends = sys.e_types_over(x)
        # per end: the beta judgment's boundaries, then the eta judgment's
        sides = ([(e, e, fixed, e, etype) for e in ends] if pull
                 else [(e, fixed, e, etype, e) for e in ends])
        for g in (sys.expressions(x, sys.expr_dom(w.expr)) if pull
                  else sys.expressions(sys.expr_cod(w.expr), x)):
            h = w._through(g)
            if sides:
                # every end refines x, so the first one checks the factor's boundaries
                _, s, t, s2, t2 = sides[0]
                if not (well_formed(sys, s, h, t) and well_formed(sys, s2, g, t2)):
                    raise IllFormedError("ill-formed judgment")
            for e, s, t, s2, t2 in sides:
                try:
                    for m in morphisms_over(s, h, t):
                        beta = _new(Derivation, ("ax", s, h, t, (), m))
                        checked += 1
                        back = (compose(sys, rule(beta, g), unit) if pull
                                else compose(sys, unit, rule(beta, g)))
                        if not equal(sys, back, beta):
                            failures.append(f"beta-law fails at {role} {e.name}, factor {_name(g)}")
                except ValidationError as exc:
                    failures.append(f"beta-law fails at {role} {e.name}, factor {_name(g)}: {exc}")
                try:
                    for m in morphisms_over(s2, g, t2):
                        eta = _new(Derivation, ("ax", s2, g, t2, (), m))
                        checked += 1
                        back = rule(compose(sys, eta, unit) if pull else compose(sys, unit, eta), g)
                        if not equal(sys, back, eta):
                            failures.append(f"eta-law fails at {role} {e.name}, factor {_name(g)}")
                except ValidationError as exc:
                    failures.append(f"eta-law fails at {role} {e.name}, factor {_name(g)}: {exc}")
                if failures and rep.full:
                    rep.checked = checked
                    return rep
    rep.checked = checked
    return rep


# --- uniqueness and composition ------------------------------------------------

def uniqueness_iso(w1: Witness, w2: Witness) -> VerticalIso:
    """Any two witnesses for the same data have canonically isomorphic types.

    Both composites are verified to interpret to identities; LawViolation
    otherwise, and also when the model cannot build a factor as a morphism.
    The two witnesses may carry expressions that are merely table-equal
    rather than identical.
    """
    _same_kind(w1, w2, "uniqueness")
    sys = w1.sys
    if w1.fixed != w2.fixed or not sys.exprs_equal(w1.expr, w2.expr):
        raise MismatchError("uniqueness: witnesses are for different data")
    # fwd runs from w1's type to w2's: a pullback's factor lands in its own
    # type, a pushforward's starts from it
    a, b = (w2, w1) if w1.kind == "pull" else (w1, w2)
    try:
        fwd = a.factor_subtyping(b.unit)
        bwd = b.factor_subtyping(a.unit)
    except ValidationError as exc:
        # a model whose factor is not a morphism breaks the universal property
        raise LawViolation(f"uniqueness iso: factor is not a morphism ({exc})") from exc
    round1 = compose_derivations(sys, fwd, bwd)
    round2 = compose_derivations(sys, bwd, fwd)
    if not derivations_equal(sys, round1, identity_derivation(sys, w1.etype)):
        raise LawViolation("uniqueness iso: forward;backward is not the identity")
    if not derivations_equal(sys, round2, identity_derivation(sys, w2.etype)):
        raise LawViolation("uniqueness iso: backward;forward is not the identity")
    return VerticalIso(fwd, bwd)


def _same_kind(w1, w2, what: str) -> None:
    if not (isinstance(w1, Witness) and isinstance(w2, Witness) and w1.kind == w2.kind):
        raise TypeError(f"{what}: need two witnesses of the same kind")


def composite_witness(sys, kind: str, f, g, fixed) -> Witness:
    """The witness along f;g pasted from the one along the expression at the
    fixed end (g for a pullback, f for a pushforward) and the one along the
    other expression at its type: f*(g*T) as a pullback of T, or g(fS) as a
    pushforward of S."""
    pull = kind == "pull"
    near, far = (g, f) if pull else (f, g)
    w_near = witness(sys, kind, near, fixed)
    w_far = witness(sys, kind, far, w_near.etype)
    units = (w_far.unit, w_near.unit) if pull else (w_near.unit, w_far.unit)
    unit = compose_derivations(sys, *units)

    def factor(m, h):
        # m lies over h;f;g (or f;g;h): the near witness factors it through h;f (or g;h)
        return w_far._factor(w_near._factor(m, w_far._through(h)), h)

    return Witness(sys, kind, sys.compose_exprs(f, g), fixed, w_far.etype, unit, factor)


def compose_iso(sys, kind: str, f, g, fixed) -> VerticalIso:
    """(f;g)*T is canonically isomorphic to f*(g*T), and (f;g)S to g(fS)."""
    direct = witness(sys, kind, sys.compose_exprs(f, g), fixed)
    return uniqueness_iso(direct, composite_witness(sys, kind, f, g, fixed))


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
