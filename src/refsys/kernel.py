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

A judgment S =[f]=> T is derivable exactly when some morphism of the model
lies over f, so :func:`classify` decides it by asking the system's
``holds`` after the boundary check, and no derivation or morphism is built
for a verdict.  Derivations are built only when asked for: by
:func:`axiom`, :func:`derivations_over` and the rules below.

A refinement system is a functor p from its morphisms to its expressions,
so a morphism m fixes its judgment: (dom m, p m, cod m).  A rule's judgment
is therefore read off its interpretation by :func:`from_interp` (identity,
tensor, unit, coherence cells, residual evaluation and currying), unless
the judgment is a given one: an axiom or :func:`derivations_over` states
the judgment it was asked for, :func:`conversion` the replacement
expression, the cut the boundaries of its premises, and the pull/push rules
the factor they were given.

Every literal law instance runs the same few rules: an axiom over one
model morphism, the cut, the pull/push rules and derivation equality.  A
derivation is one flat named tuple ``(rule, subject, expr, target,
premises, interp)``: its judgment is its three boundaries, read through
the tuple's C-level field getters, and ``d.judgment`` builds a
``Judgment`` only for a caller that asks for one.  These rules build each
derivation as one tuple with ``tuple.__new__``, which skips the named
tuple's Python ``__new__``, and compare boundaries by identity before
equality.  Every check they make is an explicit ``if``, so it also runs
under ``python -O``.
"""
from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple, Optional


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


class Judgment(NamedTuple):
    """A typing triple subject =[expr]=> target; subtyping when expr is an identity."""
    subject: Any
    expr: Any
    target: Any


# _new(Cls, fields) builds a named tuple without running its Python __new__
_new = tuple.__new__


class Derivation(NamedTuple):
    """A derivation tree together with its interpretation in the ambient model.

    rule is a short label for the final rule; subject, expr and target are
    the boundaries of its judgment; premises are the sub-derivations;
    interp is a morphism of the model whose boundaries match the judgment.
    Both value types are named tuples: immutable, hashed and compared by
    their fields, and cheaper to build than frozen dataclasses.  The
    judgment is stored flat, so a rule builds one tuple.
    """
    rule: str
    subject: Any
    expr: Any
    target: Any
    premises: tuple
    interp: Any

    @property
    def judgment(self) -> Judgment:
        """The judgment subject =[expr]=> target, built on each read."""
        return Judgment(self.subject, self.expr, self.target)

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
    through hook methods, the one capability mechanism: the default
    implementations raise CapabilityError, so a structure a model lacks is
    refused the first time it is used, one (f, T) at a time.
    """

    name = "abstract"
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

    exprs_equal = staticmethod(operator.eq)

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

    def holds(self, s, f, t) -> bool:
        """Whether some model morphism from s to t lies over f, that is,
        whether S =[f]=> T is derivable.

        Boundaries that do not match raise IllFormedError, as in
        morphisms_over.  This default asks morphisms_over for a first
        morphism; a model that can decide existence without building one
        overrides it.
        """
        for _ in self.morphisms_over(s, f, t):
            return True
        return False

    def id_interp(self, s):
        raise NotImplementedError

    def compose_interps(self, m, n):
        raise NotImplementedError

    interps_equal = staticmethod(operator.eq)

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
        unit_r_inv; etypes are the refinement-type operands.  Returns the
        cell's interpretation, a model morphism; its expression and its two
        ends are read off it by interp_expr, interp_src and interp_dst.
        """
        raise CapabilityError(f"{self.name}: not monoidal")

    # The closed structure gives two residuals of U: negL[U]{S}, with S on the
    # left of the tensor, and negR[U]{S}, with S on its right.  Each hook
    # below serves both: side is "left" or "right", the fixed operand S comes
    # first, and in_place puts it in its place in the tensor.
    def residual_itype(self, a, c):
        """The index type [A->C] of both residuals of an answer over C by a
        fixed operand over A."""
        raise CapabilityError(f"{self.name}: not closed")

    def plug_expr(self, side: str, a, c):
        """Evaluation, plugL : A (x) [A->C] -> C or plugR : [A->C] (x) A -> C."""
        raise CapabilityError(f"{self.name}: not closed")

    def curry_expr(self, side: str, f):
        """The transpose of f : A (x) B -> C (left) or B (x) A -> C (right)
        into the function space of the fixed operand A: lc f or rc f,
        B -> [A->C]."""
        raise CapabilityError(f"{self.name}: not closed")

    def residual_etype(self, side: str, s, u):
        """negL[U]{S} or negR[U]{S}, the residual of U by the fixed operand S."""
        raise CapabilityError(f"{self.name}: not closed")

    def residual_data(self, side: str, s, u):
        """(etype, ev, curry) for the residual of U by S, sharing one built etype.

        ev interprets the evaluation S (x) etype => U on the left and
        etype (x) S => U on the right, and curry(m, v) is the transpose
        V => etype of m : S (x) V => U, or of m : V (x) S => U.
        """
        raise CapabilityError(f"{self.name}: not closed")


def in_place(side: str, fixed, other) -> tuple:
    """The operands of a residual's tensor in order: (fixed, other) on the
    "left" side, (other, fixed) on the "right".  The swap is its own inverse,
    so it also splits a pair of the side's tensor into (fixed, other)."""
    return (fixed, other) if side == "left" else (other, fixed)


def well_formed(sys: RefinementSystem, s, f, t) -> bool:
    """Boundary check: f must run from the index of s to the index of t.

    An index type is equal to itself without a call to its ``__eq__``.
    """
    try:
        a, b = sys.expr_dom(f), sys.refines(s)
        if a is not b and a != b:
            return False
        c, d = sys.expr_cod(f), sys.refines(t)
        return c is d or c == d
    except (KeyError, IllFormedError):
        return False


def classify(sys: RefinementSystem, s, f, t) -> Status:
    """Trichotomy for a judgment: derivable, underivable, or ill-formed."""
    if not well_formed(sys, s, f, t):
        return Status.ILL_FORMED
    return Status.DERIVABLE if sys.holds(s, f, t) else Status.UNDERIVABLE


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

def from_interp(sys: RefinementSystem, m, rule: str = "ax",
                premises: tuple = ()) -> Derivation:
    """The derivation by `rule` from `premises` whose interpretation is m.

    Its judgment is read off m as (dom m, p m, cod m), so it is never stated
    a second time.  Every rule whose judgment is not a given one is built
    here.
    """
    return _new(Derivation, (rule, sys.interp_src(m), sys.interp_expr(m), sys.interp_dst(m),
                             premises, m))


def axiom(sys: RefinementSystem, s, f, t) -> Derivation:
    """The first model morphism over f, as a leaf derivation.

    Raises IllFormedError / RefinementError when the judgment is ill-formed
    or underivable.  In proof-irrelevant models the choice is canonical.
    """
    if not well_formed(sys, s, f, t):
        raise IllFormedError(f"ill-formed judgment over {getattr(f, 'name', f)!r}")
    for m in sys.morphisms_over(s, f, t):
        return Derivation("ax", s, f, t, (), m)
    raise RefinementError(f"judgment over {getattr(f, 'name', f)!r} is underivable")


def identity_derivation(sys: RefinementSystem, s) -> Derivation:
    return from_interp(sys, sys.id_interp(s), "I")


def compose_derivations(sys: RefinementSystem, d1: Derivation, d2: Derivation) -> Derivation:
    """The cut rule: paste d1 : S=[f]=>T with d2 : T=[g]=>U into S=[f;g]=>U.

    A refinement system is a functor p from its morphisms to its
    expressions, so the cut's expression is p of the composite
    interpretation.  By functoriality it equals compose_exprs(f, g), up to
    table equality when a premise went through :func:`conversion`, so the
    expressions are not composed a second time.
    """
    t, s = d1.target, d2.subject
    if t is not s and t != s:
        raise MismatchError(f"cut: target {describe(sys, t)} != subject {describe(sys, s)}")
    m = sys.compose_interps(d1.interp, d2.interp)
    return _new(Derivation, ("C", d1.subject, sys.interp_expr(m), d2.target, (d1, d2), m))


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
    return Derivation("conv", d.subject, g, d.target, (d,), d.interp)


def derivations_over(sys: RefinementSystem, s, f, t) -> Iterator[Derivation]:
    """All derivations of a judgment, one per model morphism over f."""
    if not well_formed(sys, s, f, t):
        raise IllFormedError("ill-formed judgment")
    for m in sys.morphisms_over(s, f, t):
        yield _new(Derivation, ("ax", s, f, t, (), m))


def derivations_equal(sys: RefinementSystem, d1: Derivation, d2: Derivation) -> bool:
    """Boundary equality plus equality of interpretations.

    The same boundary object is equal to itself without a call to its
    ``__eq__`` or the system's.
    """
    return ((d1.subject is d2.subject or d1.subject == d2.subject)
            and (d1.target is d2.target or d1.target == d2.target)
            and (d1.expr is d2.expr or sys.exprs_equal(d1.expr, d2.expr))
            and sys.interps_equal(d1.interp, d2.interp))


def is_identity_on(sys: RefinementSystem, d: Derivation, s) -> bool:
    return (d.subject == s and d.target == s
            and derivations_equal(sys, d, identity_derivation(sys, s)))


def find_inverse(sys: RefinementSystem, fwd: Derivation,
                 candidates: Optional[Iterator] = None) -> Optional[Derivation]:
    """A derivation over the identity inverting fwd on both sides, if one exists.

    The candidates are model morphisms from fwd's target back to its subject,
    by default all of those over the identity; the first inverse is returned.
    """
    if candidates is None:
        ident = sys.id_expr(sys.refines(fwd.target))
        candidates = sys.morphisms_over(fwd.target, ident, fwd.subject)
    id_src = sys.id_interp(fwd.subject)
    id_dst = sys.id_interp(fwd.target)
    for m in candidates:
        if (sys.interps_equal(sys.compose_interps(fwd.interp, m), id_src)
                and sys.interps_equal(sys.compose_interps(m, fwd.interp), id_dst)):
            return from_interp(sys, m, "iso")
    return None


def check_vertical_iso(sys: RefinementSystem, s, t,
                       limit: Optional[int] = 10000) -> Optional[VerticalIso]:
    """Search for a pair of subtyping derivations composing to identities.

    Runs :func:`find_inverse` on each morphism S => T over the identity and
    returns the first inverse pair, or None when there is none.  Trying more
    than `limit` pairs raises CapabilityError, so a refusal never reads as
    "no iso".
    """
    a = sys.refines(s)
    if sys.refines(t) != a:
        return None
    ident = sys.id_expr(a)
    tried = itertools.count(1)

    def backward():
        for n in sys.morphisms_over(t, ident, s):
            if limit is not None and next(tried) > limit:
                raise CapabilityError(
                    f"vertical iso search between {describe(sys, s)} and "
                    f"{describe(sys, t)} exceeds the bound of {limit} pairs"
                )
            yield n

    for m in sys.morphisms_over(s, ident, t):
        fwd = from_interp(sys, m, "iso")
        bwd = find_inverse(sys, fwd, backward())
        if bwd is not None:
            return VerticalIso(fwd, bwd)
    return None
