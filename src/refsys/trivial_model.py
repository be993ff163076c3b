"""Proof-relevant model: finite sets over a single index point.

The index level has one type ("*") and one expression (the identity), so
every judgment S =[id]=> T is well-formed and the refinement level carries
all the content: refinement types are finite sets, and the morphisms over
the identity are ALL functions S -> T.  Hom-sets are therefore genuinely
proof-relevant - two derivations with the same boundary are equal only when
they interpret to the same function - which makes this the model of choice
for exhibiting inequations that proof-irrelevant models cannot see.

Pullback and pushforward along the identity are trivial (the type itself),
while the monoidal and closed structure is real: tensor is the cartesian
product of sets, both residuals of U by S are the full function space
[S->U], and the coherence cells are honest bijections.  The refinement
level is cartesian closed, so these carriers and tables (products,
function spaces, pairing, coherence cells, and evaluation plugL/plugR and
currying lc/rc, which the kit picks by the residual's side) come from the
system's :class:`refsys.cartesian.CartesianKit`, which builds each carrier,
pairing, coherence cell, evaluation table and curried table once and
refuses any carrier larger than ``max_carrier`` with a CapabilityError.
"""
from __future__ import annotations

from typing import Iterator

from .cartesian import DEFAULT_MAX_CARRIER, CartesianKit
from .fincat import FinFunction, FinSet, all_functions
from .kernel import IllFormedError, MismatchError, RefinementSystem, ValidationError

POINT = "*"
POINT_EXPR = "id"


def _require_point(a) -> None:
    if a != POINT:
        raise IllFormedError(f"unknown index type {a!r}: the only one is {POINT!r}")


def _require_expr(f, error=IllFormedError) -> None:
    if f != POINT_EXPR:
        raise error(f"unknown expression {f!r}: the only one is {POINT_EXPR!r}")


class TrivialSystem(RefinementSystem):
    """Finite sets and all functions, fibred over the one-point base."""

    proof_irrelevant = False

    def __init__(self, name: str, sets, max_carrier: int = DEFAULT_MAX_CARRIER):
        self.name = name
        self._sets = tuple(sets)
        if len({a.name for a in self._sets}) != len(self._sets):
            raise ValidationError(f"{name}: duplicate set names")
        self.kit = CartesianKit(max_carrier)

    # --- index level: one point, one expression -------------------------------
    def i_types(self) -> tuple:
        return (POINT,)

    def expressions(self, a, b) -> Iterator[str]:
        _require_point(a)
        _require_point(b)
        return iter((POINT_EXPR,))

    def id_expr(self, a) -> str:
        _require_point(a)
        return POINT_EXPR

    def compose_exprs(self, f: str, g: str) -> str:
        _require_expr(f, MismatchError)
        _require_expr(g, MismatchError)
        return POINT_EXPR

    def expr_dom(self, f: str):
        _require_expr(f)
        return POINT

    def expr_cod(self, f: str):
        _require_expr(f)
        return POINT

    # --- refinement level: sets and all functions ------------------------------
    def e_types(self) -> tuple:
        return self._sets

    def refines(self, s: FinSet):
        return POINT

    def holds(self, s: FinSet, f: str, t: FinSet) -> bool:
        """Whether some function s -> t exists: s is empty or t is not."""
        _require_expr(f)
        return len(s) == 0 or len(t) > 0

    def morphisms_over(self, s: FinSet, f: str, t: FinSet) -> Iterator[FinFunction]:
        _require_expr(f)
        return all_functions(s, t, name_prefix=f"{s.name}>{t.name}#")

    def id_interp(self, s: FinSet) -> FinFunction:
        return FinFunction.identity(s)

    def compose_interps(self, m: FinFunction, n: FinFunction) -> FinFunction:
        return m.then(n)

    def interp_expr(self, m: FinFunction) -> str:
        return POINT_EXPR

    def interp_src(self, m: FinFunction) -> FinSet:
        return m.dom

    def interp_dst(self, m: FinFunction) -> FinSet:
        return m.cod

    # --- pullback / pushforward: trivial along the identity --------------------
    def pullback_data(self, f: str, t: FinSet):
        return _along_identity(f, t)

    def pushforward_data(self, s: FinSet, f: str):
        return _along_identity(f, s)

    # --- monoidal structure: the kit's products, at the refinement level --------
    def tensor_itype(self, a, b):
        _require_point(a)
        _require_point(b)
        return POINT

    def tensor_expr(self, f: str, g: str) -> str:
        _require_expr(f)
        _require_expr(g)
        return POINT_EXPR

    def tensor_etype(self, s: FinSet, t: FinSet) -> FinSet:
        return self.kit.product(s, t)

    def unit_etype(self) -> FinSet:
        return self.kit.unit

    def tensor_interp(self, m: FinFunction, n: FinFunction) -> FinFunction:
        return self.kit.pairing(m, n)

    def coherence_cell(self, kind: str, etypes: tuple) -> FinFunction:
        return self.kit.cell(kind, etypes)

    # --- residuals: the kit's function spaces -------------------------------------
    def function_space(self, s: FinSet, u: FinSet) -> FinSet:
        return self.kit.function_space(s, u)

    def residual_itype(self, a, c):
        return POINT

    def plug_expr(self, side: str, a, c) -> str:
        return POINT_EXPR

    def curry_expr(self, side: str, f: str) -> str:
        _require_expr(f)
        return POINT_EXPR

    def residual_etype(self, side: str, s: FinSet, u: FinSet) -> FinSet:
        return self.function_space(s, u)

    def residual_data(self, side: str, s: FinSet, u: FinSet):
        return (self.function_space(s, u), self.kit.plug(side, s, u),
                lambda m, v: self.kit.curry(side, m, s, v))


def _along_identity(f: str, x: FinSet) -> tuple:
    """Both directions along the one expression: x itself, its identity, and
    a factor that returns each morphism as it is."""
    _require_expr(f)
    return x, FinFunction.identity(x), lambda m, g: m


def build_trivial_system(sets, name: str = "trivial",
                         max_carrier: int = DEFAULT_MAX_CARRIER) -> TrivialSystem:
    return TrivialSystem(name, sets, max_carrier)
