"""The cartesian monoidal closed structure of finite sets, built once.

Three models take the cartesian structure of finite sets from one
:class:`CartesianKit`, at different levels: the subset model at the index
level (its index types are finite sets and its expressions functions), the
trivial model at the refinement level (its refinement types are finite sets
and its morphisms functions) and the presheaf model in each fibre (the
value of S x T at (a, b) is S(a) x T(b), and its actions and the components
of its morphisms and coherence cells are pairings and cells).  The subset
and trivial models also take the closed structure from it:

    product       A x B, the tensor, with 1 = {*} as its unit
    function      [A->C]: a function is the tuple of its values in A's
    space         order, listed as ``itertools.product(C, repeat=|A|)``
    pairing       f x g : A x B -> A' x B'
    cells         assoc, unit_l, unit_r and their inverses (bijections)
    evaluation    plugL : A x [A->C] -> C      plugR : [A->C] x A -> C
    currying      lc f : B -> [A->C]           rc f : B -> [A->C]
                  for f : A x B -> C           for f : B x A -> C

Evaluation and currying take a side, "left" or "right", and the fixed
operand's set A first; :func:`refsys.kernel.in_place` puts A in its place
in the product, and ``plug`` and ``curry`` each pick their index formula by
the side.

Every table is built as an index table (see
:class:`refsys.fincat.FinFunction`), from positions alone.  A product lists
its pairs lexicographically, so (a_i, b_j) sits at position i*|B| + j: the
pairing sends i*|B| + j to f.idx[i]*|B'| + g.idx[j], and a coherence cell
only regroups, so it keeps every position.  A cell's table is therefore
marked as an :class:`refsys.fincat.IdentityTable`, and so is the pairing of
two marked tables, the identity table of the product, which ``pair``
returns without running the formula.  A composite with a cell takes the
other operand's table (:meth:`refsys.fincat.FinFunction.then`).

The function at position k of [A->C] has its values at the positions given
by the base-|C| digits of k, most significant first: evaluation reads a
digit of k, and currying writes the digits of a row or column of f's
table.

Products and function spaces are computed carriers (:class:`ProductSet`,
:class:`FunctionSpace`).  Each keeps its factors, and its length, hash,
equality and membership are computed from them: (x, y) is in A x B iff x is
in A and y is in B, and t is in [A->C] iff it is a |A|-tuple of elements of
C.  Their ``elements`` tuple, and the position dict that ``index`` reads,
are built only when a caller iterates, indexes or renders the carrier; they
are distinct by construction, so no duplicate check runs.  A carrier past
the bound is therefore refused before any of its members, or any member of
a carrier built over it, exists.

Products, function spaces, pairings, coherence cells and the evaluation and
currying tables are built once per kit, so asking again returns the same
object.  Products and function spaces are keyed by their factors, cells by
their kind and the sets they act on, and evaluation tables by their side
and two sets; equal ``FinSet``s have equal names and elements, so an equal
key gives an equal result.  Pairings are keyed by the identity of the two
functions and curried tables by their side, the identity of the table and
its two factors, and each entry keeps its functions alive, so no id in a
key is reused while the entry lives: ``FinFunction`` equality ignores the
name that the pairing's and the currying's names are made from.  ``pair``
builds a pairing without keeping it, for a caller that keeps what it builds
from it.  Every carrier the kit would build with more than ``max_carrier``
elements is refused with a CapabilityError that names its size, instead of
exhausting memory.  A refusal is raised before anything is kept, so asking
again is refused again, with the same text.
A function space's size is compared with the bound by ``power_exceeds``,
which stops multiplying once past it, and a size with more digits than
Python converts to a string is written as a power, such as ``2^16384``.
"""
from __future__ import annotations

import itertools
from functools import cached_property

from .fincat import FinFunction, FinSet, IdentityTable, identity_table
from .kernel import CapabilityError, MismatchError, in_place

DEFAULT_MAX_CARRIER = 200_000

_CELL_KINDS = ("assoc", "assoc_inv", "unit_l", "unit_l_inv", "unit_r", "unit_r_inv")


class _KitCarrier(FinSet):
    """A carrier computed from its factors; its elements are built on first read.

    It equals, hashes like and lists the same elements as the plain FinSet
    built from its materialised tuple.  It is built without
    ``FinSet.__init__``, whose duplicate check would read the elements, and
    a copy or pickle carries its factors alone, so it stays unbuilt.
    """

    __slots__ = ("factors", "_size")

    def __init__(self, name: str, factors: tuple, size: int):
        self.name = name
        self.factors = factors
        self._size = size
        self._index = None
        self._hash = None

    def __reduce__(self):
        return type(self), self.factors

    @cached_property
    def elements(self) -> tuple:
        return tuple(self._members())

    def __len__(self):
        return self._size

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FinSet):
            return NotImplemented
        return self.name == other.name and _same_elements(self, other)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.name, self._size))
        return self._hash


class ProductSet(_KitCarrier):
    """A x B: its pairs in lexicographic order, (a_i, b_j) at position i*|B| + j."""

    __slots__ = ()

    def __init__(self, a: FinSet, b: FinSet):
        super().__init__(f"({a.name}x{b.name})", (a, b), len(a) * len(b))

    def _members(self):
        a, b = self.factors
        return itertools.product(a.elements, b.elements)

    def __contains__(self, x) -> bool:
        a, b = self.factors
        return isinstance(x, tuple) and len(x) == 2 and x[0] in a and x[1] in b


class FunctionSpace(_KitCarrier):
    """[A->C]: the |A|-tuples of C's elements in lexicographic order."""

    __slots__ = ()

    def __init__(self, a: FinSet, c: FinSet):
        super().__init__(f"[{a.name}->{c.name}]", (a, c), len(c) ** len(a))

    def _members(self):
        a, c = self.factors
        return itertools.product(c.elements, repeat=len(a))

    def __contains__(self, x) -> bool:
        a, c = self.factors
        return isinstance(x, tuple) and len(x) == len(a) and all(v in c for v in x)


def _same_elements(x: FinSet, y: FinSet) -> bool:
    """Whether x and y list the same elements in the same order, names aside.

    Two products or two function spaces are compared through their factors,
    building neither: a nonempty product's pairs fix the elements of both
    factors, and a nonempty function space's tuples fix their length and,
    when that is positive, the elements of the values' set.
    """
    if x is y:
        return True
    if len(x) != len(y):
        return False
    if not len(x):
        return True
    if isinstance(x, ProductSet) and isinstance(y, ProductSet):
        return all(map(_same_elements, x.factors, y.factors))
    if isinstance(x, FunctionSpace) and isinstance(y, FunctionSpace):
        (a, c), (a2, c2) = x.factors, y.factors
        return len(a) == len(a2) and (not len(a) or _same_elements(c, c2))
    return x.elements == y.elements


def power_exceeds(base: int, exp: int, limit: int) -> bool:
    """Whether base ** exp > limit, multiplying no further than past limit."""
    if base < 2:
        return base ** exp > limit
    acc = 1
    for _ in range(exp):
        acc *= base
        if acc > limit:
            return True
    return acc > limit


def refusal(what: str, size, bound: int) -> CapabilityError:
    """The refusal of something that would have size elements, past bound."""
    return CapabilityError(f"{what} would have {size} elements, exceeding the bound {bound}")


def power_text(base: int, exp: int) -> str:
    """base ** exp in decimal, or as base^exp when it has more digits than
    Python converts to a string."""
    try:
        return str(base ** exp)
    except ValueError:
        return f"{base}^{exp}"


def cell_ends(kind: str, operands: tuple, tensor, unit) -> tuple:
    """(source, target) of a coherence cell, arranged with tensor and unit.

    Models apply this to their own types: the kit to carriers, the subset
    model to the subsets over them.
    """
    if kind not in _CELL_KINDS:
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
        self._spaces: dict = {}
        self._pairings: dict = {}
        self._cells: dict = {}
        self._plugs: dict = {}
        self._curries: dict = {}

    def product(self, a: FinSet, b: FinSet) -> FinSet:
        p = self._products.get((a, b))
        if p is None:
            if len(a) * len(b) > self.max_carrier:
                raise refusal(f"product ({a.name}x{b.name})", len(a) * len(b), self.max_carrier)
            p = self._products[a, b] = ProductSet(a, b)
        return p

    @staticmethod
    def factors(p: FinSet) -> tuple:
        """(A, B) for a product A x B built by a kit."""
        if not isinstance(p, ProductSet):
            raise CapabilityError(f"{p.name!r} is not a constructed product")
        return p.factors

    def function_space(self, a: FinSet, c: FinSet) -> FinSet:
        fs = self._spaces.get((a, c))
        if fs is None:
            if power_exceeds(len(c), len(a), self.max_carrier):
                raise refusal(f"function space [{a.name}->{c.name}]",
                              power_text(len(c), len(a)), self.max_carrier)
            fs = self._spaces[a, c] = FunctionSpace(a, c)
        return fs

    def pair(self, f: FinFunction, g: FinFunction) -> FinFunction:
        """f x g, built on every call; ``pairing`` builds it once."""
        dom, cod = self.product(f.dom, g.dom), self.product(f.cod, g.cod)
        if type(f.idx) is IdentityTable and type(g.idx) is IdentityTable:
            idx = identity_table(len(dom))
        else:
            n = len(g.cod)
            idx = tuple([i * n + j for i in f.idx for j in g.idx])
        return FinFunction._from_idx(f"({f.name}x{g.name})", dom, cod, idx)

    def pairing(self, f: FinFunction, g: FinFunction) -> FinFunction:
        key = (id(f), id(g))
        entry = self._pairings.get(key)
        if entry is None:
            # holding f and g keeps their ids from being reused while the entry lives
            entry = self._pairings[key] = (f, g, self.pair(f, g))
        return entry[2]

    def cell(self, kind: str, sets: tuple) -> FinFunction:
        sets = tuple(sets)
        c = self._cells.get((kind, sets))
        if c is None:
            src, dst = cell_ends(kind, sets, self.product, self.unit)
            name = f"{kind.replace('unit_', 'unit')}[{','.join(a.name for a in sets)}]"
            # regrouping keeps the lexicographic position of every element
            c = FinFunction._from_idx(name, src, dst, identity_table(len(src)))
            self._cells[kind, sets] = c
        return c

    def plug(self, side: str, a: FinSet, c: FinSet) -> FinFunction:
        """Evaluation at the fixed operand's set A: plugL : A x [A->C] -> C on
        the left, plugR : [A->C] x A -> C on the right."""
        key = (side, a, c)
        p = self._plugs.get(key)
        if p is None:
            fs = self.function_space(a, c)
            dom = self.product(*in_place(side, a, fs))
            n, m = len(c), len(a)
            if side == "left":
                # (x_i, t_k) is sent to t_k's i-th value, whose position is digit i of k
                idx: list = []
                for i in range(m):
                    idx.extend([d for d in range(n) for _ in range(n ** (m - 1 - i))] * n ** i)
            else:
                # (t_k, x_i) is sent to t_k's i-th value, whose position is digit i of k
                idx = itertools.chain.from_iterable(itertools.product(range(n), repeat=m))
            p = self._plugs[key] = FinFunction._from_idx(
                f"plug{side[0].upper()}[{','.join(in_place(side, a.name, c.name))}]",
                dom, c, tuple(idx))
        return p

    def curry(self, side: str, f: FinFunction, a: FinSet, b: FinSet) -> FinFunction:
        """The transpose B -> [A->C] into the fixed operand's function space:
        lc f for f : A x B -> C on the left, rc f for f : B x A -> C on the right."""
        key = (side, id(f), a, b)
        entry = self._curries.get(key)
        if entry is None:
            self._require_product(f, *in_place(side, a, b))
            na, nb, n = len(a), len(b), len(f.cod)
            if side == "left":
                # digit i of y's position is f at (x_i, y): row i of f's table
                digits = (f.idx[i * nb:(i + 1) * nb] for i in range(na))
            else:
                # digit i of y's position is f at (y, x_i): column i of f's table
                digits = (f.idx[i::na] for i in range(na))
            # holding f keeps its id from being reused while the entry lives
            entry = self._curries[key] = (f, FinFunction._from_idx(
                f"{side[0]}c({f.name})", b, self.function_space(a, f.cod),
                _positions(digits, nb, n),
            ))
        return entry[1]

    def _require_product(self, f: FinFunction, a: FinSet, b: FinSet) -> None:
        if f.dom != self.product(a, b):
            raise MismatchError(f"cannot curry {f.name!r}: its domain is not ({a.name}x{b.name})")


def _positions(digits, count: int, n: int) -> tuple:
    """Positions in [X->C] of `count` functions; digit i holds each one's value at x_i."""
    pos = [0] * count
    for digit in digits:
        pos = [k * n + v for k, v in zip(pos, digit)]
    return tuple(pos)
