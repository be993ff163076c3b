"""Proof kernel for refinement systems presented as functors into a base of expressions.

A refinement system has two levels: index types A, B, ... with expressions
f : A -> B between them, and refinement types S, T, ... each refining one
index type.  The atomic judgment is the triple S =[f]=> T ("S entails T along
f"), well-formed when f runs from the index of S to the index of T; the
subtyping judgment S <= T is the special case f = identity.

Derivations are finite trees built from:

  I    identity           S <= S
  C    cut/composition    from S =[f]=> T and T =[g]=> U infer S =[f;g]=> U
  conv conversion         replace the expression by an equal one (table equality)
  ax   model axiom        a single morphism of the ambient model over f

plus the structural rules contributed by witnesses in the other modules
(pullback/pushforward factorizations, tensor, residual currying, ...).
Every derivation carries its interpretation - a morphism of the ambient
finite model - and two derivations are equal iff their boundaries agree and
their interpretations are equal.  That makes "these two proof trees denote
the same derivation" an executable check rather than a symbolic one.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterator, Optional


class RefinementError(Exception):
    """Base class for every error raised by the kernel and its models."""


class IllFormedError(RefinementError):
    """A judgment whose boundaries do not match (wrong index types)."""


class MismatchError(RefinementError):
    """Rule applied to premises whose boundaries do not fit together."""


class CapabilityError(RefinementError):
    """The ambient system does not provide the structure a rule needs."""


class LawViolation(RefinementError):
    """A witness failed an equation it is contractually required to satisfy."""


class ValidationError(RefinementError):
    """A finite structure given as tables (category, presheaf) breaks its laws."""


class Status(enum.Enum):
    DERIVABLE = "derivable"
    UNDERIVABLE = "underivable"
    ILL_FORMED = "ill-formed"


@dataclass(frozen=True)
class Judgment:
    """A typing triple subject =[expr]=> target; subtyping when expr is an identity."""
    subject: Any
    expr: Any
    target: Any


@dataclass(frozen=True)
class Derivation:
    """A derivation tree together with its interpretation in the ambient model.

    rule is a short label for the final rule; premises are the sub-derivations;
    interp is a morphism of the model whose boundaries match the judgment.
    """
    rule: str
    judgment: Judgment
    premises: tuple
    interp: Any

    @property
    def subject(self):
        return self.judgment.subject

    @property
    def expr(self):
        return self.judgment.expr

    @property
    def target(self):
        return self.judgment.target

    def size(self) -> int:
        return 1 + sum(p.size() for p in self.premises)


@dataclass(frozen=True)
class VerticalIso:
    """A pair of subtyping derivations composing to identities both ways."""
    fwd: Derivation
    bwd: Derivation


class RefinementSystem:
    """Interface all finite models implement.

    The mandatory surface is enumeration plus composition at both levels.
    Structured capabilities (pullbacks, tensor, residuals, ...) are provided
    through hook methods; the default implementations raise CapabilityError,
    and the corresponding `has_*` / `is_*` flags let callers probe first.
    """

    name = "abstract"
    has_pullbacks = False
    has_pushforwards = False
    is_monoidal = False
    is_closed = False
    has_weighted = False
    proof_irrelevant = False

    # --- index level -------------------------------------------------------
    def i_types(self) -> tuple:
        raise NotImplementedError

    def expressions(self, a, b) -> Iterator:
        raise NotImplementedError

    def id_expr(self, a):
        raise NotImplementedError

    def compose_exprs(self, f, g):
        raise NotImplementedError

    def expr_dom(self, f):
        raise NotImplementedError

    def expr_cod(self, f):
        raise NotImplementedError

    def exprs_equal(self, f, g) -> bool:
        return f == g

    def is_identity_expr(self, f) -> bool:
        return self.exprs_equal(f, self.id_expr(self.expr_dom(f)))

    # --- refinement level ----------------------------------------------------
    def e_types(self) -> tuple:
        raise NotImplementedError

    def refines(self, s):
        raise NotImplementedError

    def morphisms_over(self, s, f, t) -> Iterator:
        """All model morphisms from s to t lying over the expression f."""
        raise NotImplementedError

    def id_interp(self, s):
        raise NotImplementedError

    def compose_interps(self, m, n):
        raise NotImplementedError

    def interps_equal(self, m, n) -> bool:
        return m == n

    def interp_expr(self, m):
        """The expression a model morphism lies over (the functor's action)."""
        raise NotImplementedError

    def interp_src(self, m):
        raise NotImplementedError

    def interp_dst(self, m):
        raise NotImplementedError

    def e_types_over(self, a) -> tuple:
        return tuple(s for s in self.e_types() if self.refines(s) == a)

    # --- capability hooks (models override the ones they support) -----------
    def pullback_data(self, f, t):
        raise CapabilityError(f"{self.name}: no pullbacks")

    def pushforward_data(self, s, f):
        raise CapabilityError(f"{self.name}: no pushforwards")

    def tensor_itype(self, a, b):
        raise CapabilityError(f"{self.name}: not monoidal")

    def unit_itype(self):
        raise CapabilityError(f"{self.name}: not monoidal")

    def tensor_expr(self, f, g):
        raise CapabilityError(f"{self.name}: not monoidal")

    def tensor_etype(self, s, t):
        raise CapabilityError(f"{self.name}: not monoidal")

    def unit_etype(self):
        raise CapabilityError(f"{self.name}: not monoidal")

    def tensor_interp(self, m, n):
        raise CapabilityError(f"{self.name}: not monoidal")

    def coherence_cell(self, kind: str, etypes: tuple):
        """A named structural isomorphism cell.

        kind is one of assoc, assoc_inv, unit_l, unit_l_inv, unit_r,
        unit_r_inv; etypes are the refinement-type operands.  Returns
        (expr, src_etype, dst_etype, interp).
        """
        raise CapabilityError(f"{self.name}: not monoidal")

    def residual_left_itype(self, a, c):
        raise CapabilityError(f"{self.name}: not closed")

    def residual_right_itype(self, c, b):
        raise CapabilityError(f"{self.name}: not closed")

    def plug_l_expr(self, a, c):
        raise CapabilityError(f"{self.name}: not closed")

    def plug_r_expr(self, c, b):
        raise CapabilityError(f"{self.name}: not closed")

    def curry_l_expr(self, f):
        raise CapabilityError(f"{self.name}: not closed")

    def curry_r_expr(self, f):
        raise CapabilityError(f"{self.name}: not closed")

    def residual_left_etype(self, s, u):
        raise CapabilityError(f"{self.name}: not closed")

    def residual_right_etype(self, u, t):
        raise CapabilityError(f"{self.name}: not closed")

    def residual_left_ev_interp(self, s, u):
        raise CapabilityError(f"{self.name}: not closed")

    def residual_right_ev_interp(self, u, t):
        raise CapabilityError(f"{self.name}: not closed")

    def residual_left_curry_interp(self, m, s, v, u):
        raise CapabilityError(f"{self.name}: not closed")

    def residual_right_curry_interp(self, m, v, t, u):
        raise CapabilityError(f"{self.name}: not closed")

    def weighted_intersection_etype(self, a, family):
        raise CapabilityError(f"{self.name}: no weighted limits")

    def weighted_union_etype(self, a, family):
        raise CapabilityError(f"{self.name}: no weighted colimits")


def well_formed(sys: RefinementSystem, s, f, t) -> bool:
    """Boundary check: f must run from the index of s to the index of t."""
    try:
        return sys.expr_dom(f) == sys.refines(s) and sys.expr_cod(f) == sys.refines(t)
    except (KeyError, AssertionError):
        return False


def classify(sys: RefinementSystem, s, f, t) -> Status:
    """Trichotomy for a judgment: derivable, underivable, or ill-formed."""
    if not well_formed(sys, s, f, t):
        return Status.ILL_FORMED
    for _ in sys.morphisms_over(s, f, t):
        return Status.DERIVABLE
    return Status.UNDERIVABLE


def derivable(sys: RefinementSystem, s, f, t) -> bool:
    status = classify(sys, s, f, t)
    if status is Status.ILL_FORMED:
        raise IllFormedError(
            f"judgment {describe(sys, s)} =[..]=> {describe(sys, t)} is ill-formed"
        )
    return status is Status.DERIVABLE


def describe(sys: RefinementSystem, s) -> str:
    return getattr(s, "name", None) or repr(s)


# --- rule constructors -------------------------------------------------------

def from_interp(sys: RefinementSystem, m, rule: str = "ax") -> Derivation:
    """Wrap a model morphism as an axiom derivation."""
    j = Judgment(sys.interp_src(m), sys.interp_expr(m), sys.interp_dst(m))
    return Derivation(rule, j, (), m)


def axiom(sys: RefinementSystem, s, f, t) -> Derivation:
    """The first model morphism over f, as a leaf derivation.

    Raises IllFormedError / RefinementError when the judgment is ill-formed
    or underivable.  In proof-irrelevant models the choice is canonical.
    """
    if not well_formed(sys, s, f, t):
        raise IllFormedError(f"ill-formed judgment over {getattr(f, 'name', f)!r}")
    for m in sys.morphisms_over(s, f, t):
        return Derivation("ax", Judgment(s, f, t), (), m)
    raise RefinementError(f"judgment over {getattr(f, 'name', f)!r} is underivable")


def identity_derivation(sys: RefinementSystem, s) -> Derivation:
    a = sys.refines(s)
    return Derivation("I", Judgment(s, sys.id_expr(a), s), (), sys.id_interp(s))


def compose_derivations(sys: RefinementSystem, d1: Derivation, d2: Derivation) -> Derivation:
    """The cut rule: paste d1 : S=[f]=>T with d2 : T=[g]=>U into S=[f;g]=>U."""
    if d1.target != d2.subject:
        raise MismatchError(
            f"cut: target {describe(sys, d1.target)} != subject {describe(sys, d2.subject)}"
        )
    j = Judgment(d1.subject, sys.compose_exprs(d1.expr, d2.expr), d2.target)
    return Derivation("C", j, (d1, d2), sys.compose_interps(d1.interp, d2.interp))


def compose_many(sys: RefinementSystem, *ds: Derivation) -> Derivation:
    out = ds[0]
    for d in ds[1:]:
        out = compose_derivations(sys, out, d)
    return out


def conversion(sys: RefinementSystem, d: Derivation, g) -> Derivation:
    """Replace the expression of d by g, allowed only when the tables agree."""
    if not (sys.expr_dom(g) == sys.refines(d.subject)
            and sys.expr_cod(g) == sys.refines(d.target)):
        raise MismatchError("conversion: replacement expression has wrong boundaries")
    if not sys.exprs_equal(d.expr, g):
        raise MismatchError(
            f"conversion: expressions differ ({getattr(d.expr, 'name', d.expr)!r} "
            f"vs {getattr(g, 'name', g)!r})"
        )
    return Derivation("conv", Judgment(d.subject, g, d.target), (d,), d.interp)


def derivations_over(sys: RefinementSystem, s, f, t) -> Iterator[Derivation]:
    """All derivations of a judgment, one per model morphism over f."""
    if not well_formed(sys, s, f, t):
        raise IllFormedError("ill-formed judgment")
    for m in sys.morphisms_over(s, f, t):
        yield Derivation("ax", Judgment(s, f, t), (), m)


def derivations_equal(sys: RefinementSystem, d1: Derivation, d2: Derivation) -> bool:
    """Boundary equality plus equality of interpretations."""
    return (d1.subject == d2.subject and d1.target == d2.target
            and sys.exprs_equal(d1.expr, d2.expr)
            and sys.interps_equal(d1.interp, d2.interp))


def is_identity_on(sys: RefinementSystem, d: Derivation, s) -> bool:
    return (d.subject == s and d.target == s
            and derivations_equal(sys, d, identity_derivation(sys, s)))


def check_vertical_iso(sys: RefinementSystem, s, t,
                       limit: Optional[int] = 10000) -> Optional[VerticalIso]:
    """Search for a pair of subtyping derivations composing to identities.

    Enumerates morphism pairs over the identity expression; returns the first
    inverse pair found, or None when the (bounded) search is exhausted.
    """
    a = sys.refines(s)
    if sys.refines(t) != a:
        return None
    ident = sys.id_expr(a)
    id_s = sys.id_interp(s)
    id_t = sys.id_interp(t)
    count = 0
    for m in sys.morphisms_over(s, ident, t):
        for n in sys.morphisms_over(t, ident, s):
            count += 1
            if limit is not None and count > limit:
                return None
            if (sys.interps_equal(sys.compose_interps(m, n), id_s)
                    and sys.interps_equal(sys.compose_interps(n, m), id_t)):
                return VerticalIso(
                    from_interp(sys, m, "iso"), from_interp(sys, n, "iso")
                )
    return None
