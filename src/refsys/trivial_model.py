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
product of sets, residuals are full function spaces, and the coherence
cells are honest bijections.  The refinement level is cartesian closed, so
these carriers and tables (products, function spaces, pairing, coherence
cells, evaluation plugL/plugR and currying lc/rc) come from the system's
:class:`refsys.cartesian.CartesianKit`, which builds each carrier,
pairing and coherence cell once and refuses any carrier larger than
``max_carrier`` with a CapabilityError.
"""
from __future__ import annotations

from typing import Iterator

from .cartesian import DEFAULT_MAX_CARRIER, CartesianKit
from .fincat import FinFunction, FinSet, all_functions
from .kernel import RefinementSystem

POINT = "*"
POINT_EXPR = "id"


class TrivialSystem(RefinementSystem):
    """Finite sets and all functions, fibred over the one-point base."""

    has_pullbacks = True
    has_pushforwards = True
    is_monoidal = True
    is_closed = True
    proof_irrelevant = False

    def __init__(self, name: str, sets, max_carrier: int = DEFAULT_MAX_CARRIER):
        self.name = name
        self._sets = tuple(sets)
        assert len({a.name for a in self._sets}) == len(self._sets), "duplicate set names"
        self.kit = CartesianKit(max_carrier)

    # --- index level: one point, one expression -------------------------------
    def i_types(self) -> tuple:
        return (POINT,)

    def expressions(self, a, b) -> Iterator[str]:
        assert a == POINT and b == POINT
        yield POINT_EXPR

    def id_expr(self, a) -> str:
        assert a == POINT
        return POINT_EXPR

    def compose_exprs(self, f: str, g: str) -> str:
        assert f == POINT_EXPR and g == POINT_EXPR
        return POINT_EXPR

    def expr_dom(self, f: str):
        assert f == POINT_EXPR, f"unknown expression {f!r}"
        return POINT

    def expr_cod(self, f: str):
        assert f == POINT_EXPR, f"unknown expression {f!r}"
        return POINT

    # --- refinement level: sets and all functions ------------------------------
    def e_types(self) -> tuple:
        return self._sets

    def refines(self, s: FinSet):
        return POINT

    def morphisms_over(self, s: FinSet, f: str, t: FinSet) -> Iterator[FinFunction]:
        assert f == POINT_EXPR
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
        assert f == POINT_EXPR

        def factor(m: FinFunction, g: str) -> FinFunction:
            return m

        return t, FinFunction.identity(t), factor

    def pushforward_data(self, s: FinSet, f: str):
        assert f == POINT_EXPR

        def factor(m: FinFunction, g: str) -> FinFunction:
            return m

        return s, FinFunction.identity(s), factor

    # --- monoidal structure: the kit's products, at the refinement level --------
    def tensor_itype(self, a, b):
        assert a == POINT and b == POINT
        return POINT

    def unit_itype(self):
        return POINT

    def tensor_expr(self, f: str, g: str) -> str:
        assert f == POINT_EXPR and g == POINT_EXPR
        return POINT_EXPR

    def tensor_etype(self, s: FinSet, t: FinSet) -> FinSet:
        return self.kit.product(s, t)

    def unit_etype(self) -> FinSet:
        return self.kit.unit

    def tensor_interp(self, m: FinFunction, n: FinFunction) -> FinFunction:
        return self.kit.pairing(m, n)

    def coherence_cell(self, kind: str, etypes: tuple):
        interp = self.kit.cell(kind, etypes)
        return POINT_EXPR, interp.dom, interp.cod, interp

    # --- residuals: the kit's function spaces -------------------------------------
    def function_space(self, s: FinSet, u: FinSet) -> FinSet:
        return self.kit.function_space(s, u)

    def residual_left_itype(self, a, c):
        return POINT

    def residual_right_itype(self, c, b):
        return POINT

    def plug_l_expr(self, a, c) -> str:
        return POINT_EXPR

    def plug_r_expr(self, c, b) -> str:
        return POINT_EXPR

    def curry_l_expr(self, f: str) -> str:
        assert f == POINT_EXPR
        return POINT_EXPR

    def curry_r_expr(self, f: str) -> str:
        assert f == POINT_EXPR
        return POINT_EXPR

    def residual_left_etype(self, s: FinSet, u: FinSet) -> FinSet:
        return self.function_space(s, u)

    def residual_right_etype(self, u: FinSet, t: FinSet) -> FinSet:
        return self.function_space(t, u)

    def residual_left_ev_interp(self, s: FinSet, u: FinSet) -> FinFunction:
        return self.kit.plug_l(s, u)

    def residual_right_ev_interp(self, u: FinSet, t: FinSet) -> FinFunction:
        return self.kit.plug_r(u, t)

    def residual_left_curry_interp(self, m: FinFunction, s: FinSet, v: FinSet,
                                   u: FinSet) -> FinFunction:
        return self.kit.curry_l(m, s, v)

    def residual_right_curry_interp(self, m: FinFunction, v: FinSet, t: FinSet,
                                    u: FinSet) -> FinFunction:
        return self.kit.curry_r(m, v, t)


def build_trivial_system(sets, name: str = "trivial",
                         max_carrier: int = DEFAULT_MAX_CARRIER) -> TrivialSystem:
    return TrivialSystem(name, sets, max_carrier)
