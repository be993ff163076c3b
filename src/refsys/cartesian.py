"""The cartesian monoidal closed structure of finite sets, built once.

Two models are cartesian closed over finite sets, at different levels: the
subset model at the index level (its index types are finite sets and its
expressions functions) and the trivial model at the refinement level (its
refinement types are finite sets and its morphisms functions).  Both take
their carriers and structural tables from one :class:`CartesianKit`:

    product       A x B, the tensor, with 1 = {*} as its unit
    function      [A->C]: a function is the tuple of its values in A's
    space         order, listed as ``itertools.product(C, repeat=|A|)``
    pairing       f x g : A x B -> A' x B'
    cells         assoc, unit_l, unit_r and their inverses (bijections)
    evaluation    plugL : A x [A->C] -> C      plugR : [B->C] x B -> C
    currying      lc f : B -> [A->C]           rc f : A -> [B->C]
                  for f : A x B -> C

Products and function spaces are cached per kit, keyed by their factors,
so equal operands give the same carrier object.  Every carrier the kit
would build with more than ``max_carrier`` elements is refused with a
CapabilityError that names its size, instead of exhausting memory.
"""
from __future__ import annotations

import itertools

from .fincat import FinFunction, FinSet
from .kernel import CapabilityError

DEFAULT_MAX_CARRIER = 200_000

# each coherence cell as a map on elements, from its source to its target
_RESHAPE = {
    "assoc": lambda p: (p[0][0], (p[0][1], p[1])),
    "assoc_inv": lambda p: ((p[0], p[1][0]), p[1][1]),
    "unit_l": lambda p: p[1],
    "unit_l_inv": lambda x: ("*", x),
    "unit_r": lambda p: p[0],
    "unit_r_inv": lambda x: (x, "*"),
}


def cell_ends(kind: str, operands: tuple, tensor, unit) -> tuple:
    """(source, target) of a coherence cell, arranged with tensor and unit.

    Models apply this to their own types: the kit to carriers, the subset
    model to the subsets over them.
    """
    if kind not in _RESHAPE:
        raise CapabilityError(f"unknown coherence cell {kind!r}")
    base = kind.removesuffix("_inv")
    if base == "assoc":
        s, t, v = operands
        ends = (tensor(tensor(s, t), v), tensor(s, tensor(t, v)))
    else:
        (s,) = operands
        ends = (tensor(unit, s) if base == "unit_l" else tensor(s, unit), s)
    return ends if kind == base else ends[::-1]


class CartesianKit:
    """Products, function spaces and their tables for one refinement system."""

    def __init__(self, max_carrier: int = DEFAULT_MAX_CARRIER):
        self.max_carrier = max_carrier
        self.unit = FinSet("1", ("*",))
        self._products: dict = {}
        self._factors: dict = {}
        self._spaces: dict = {}

    def _guard(self, size: int, what: str):
        if size > self.max_carrier:
            raise CapabilityError(
                f"{what} would have {size} elements, exceeding the bound {self.max_carrier}"
            )

    def product(self, a: FinSet, b: FinSet) -> FinSet:
        p = self._products.get((a, b))
        if p is None:
            self._guard(len(a) * len(b), f"product ({a.name}x{b.name})")
            p = FinSet(f"({a.name}x{b.name})",
                       tuple(itertools.product(a.elements, b.elements)))
            self._products[a, b] = p
            self._factors[p] = (a, b)
        return p

    def factors(self, p: FinSet) -> tuple:
        """(A, B) for a product A x B built by this kit."""
        try:
            return self._factors[p]
        except KeyError:
            raise CapabilityError(f"{p.name!r} is not a constructed product") from None

    def function_space(self, a: FinSet, c: FinSet) -> FinSet:
        fs = self._spaces.get((a, c))
        if fs is None:
            self._guard(len(c) ** len(a), f"function space [{a.name}->{c.name}]")
            fs = FinSet(f"[{a.name}->{c.name}]",
                        tuple(itertools.product(c.elements, repeat=len(a))))
            self._spaces[a, c] = fs
        return fs

    def pairing(self, f: FinFunction, g: FinFunction) -> FinFunction:
        dom = self.product(f.dom, g.dom)
        return FinFunction(f"({f.name}x{g.name})", dom, self.product(f.cod, g.cod),
                           {(x, y): (f(x), g(y)) for x, y in dom.elements})

    def cell(self, kind: str, sets: tuple) -> FinFunction:
        src, dst = cell_ends(kind, sets, self.product, self.unit)
        name = f"{kind.replace('unit_', 'unit')}[{','.join(a.name for a in sets)}]"
        reshape = _RESHAPE[kind]
        return FinFunction(name, src, dst, {x: reshape(x) for x in src.elements})

    def plug_l(self, a: FinSet, c: FinSet) -> FinFunction:
        dom = self.product(a, self.function_space(a, c))
        return FinFunction(f"plugL[{a.name},{c.name}]", dom, c,
                           {(x, t): t[a.index(x)] for x, t in dom.elements})

    def plug_r(self, c: FinSet, b: FinSet) -> FinFunction:
        dom = self.product(self.function_space(b, c), b)
        return FinFunction(f"plugR[{c.name},{b.name}]", dom, c,
                           {(t, x): t[b.index(x)] for t, x in dom.elements})

    def curry_l(self, f: FinFunction, a: FinSet, b: FinSet) -> FinFunction:
        """lc f : B -> [A->C] for f : A x B -> C."""
        return FinFunction(f"lc({f.name})", b, self.function_space(a, f.cod),
                           {y: tuple(f((x, y)) for x in a.elements) for y in b.elements})

    def curry_r(self, f: FinFunction, a: FinSet, b: FinSet) -> FinFunction:
        """rc f : A -> [B->C] for f : A x B -> C."""
        return FinFunction(f"rc({f.name})", a, self.function_space(b, f.cod),
                           {x: tuple(f((x, y)) for y in b.elements) for x in a.elements})
