"""The law suites: each checks one layer of a signature's model by enumeration.

A suite takes a loaded signature and a carrier bound (carriers with more
elements are sampled, not enumerated) and returns one LawReport, or the reason
it does not apply as a string.  The report's `skipped` list holds refused
instances (the CapabilityError's message) and informational notes, such as
how many encodings were found; `refsys laws` prints both as notes.

    kernel      the judgment trichotomy, search against classification, and
                identity and associativity of composition
    structures  pullback/pushforward beta/eta laws, composite isos, and the
                three readings of a judgment
    monoidal    the monoidal equations, tensor preservation, and (presheaves)
                Day convolution against its coend formula
    sep         the signature's monoid and its star/wand tables and adjunctions
    monadrep    the adjunction, the fiberwise monad, double negation, and the
                representation theorem
"""
from __future__ import annotations

import itertools
from contextlib import contextmanager

from .fincat import FinFunction, FinFunctor, FinSet, render_elem
from .kernel import (
    CapabilityError,
    LawViolation,
    MismatchError,
    Status,
    ValidationError,
    axiom,
    classify,
    compose_derivations,
    derivations_equal,
    identity_derivation,
)
from .monoidal import (
    check_monoidal_equations,
    check_star_wand,
    check_threeway_adjunction,
    star_etype,
    tensor_iso,
    wand_left_etype,
    wand_right_etype,
)
from .monadrep import (
    FiberwiseMonad,
    build_continuation_adjunction,
    check_adjunction,
    check_comparison,
    check_monad_laws,
    check_reflected,
    check_retraction,
    check_section,
    check_theorem,
    check_universal,
    identity_adjunction,
    iter_encodings,
    search_encodings,
)
from .presheaf_model import (
    FinPresheaf,
    day_star,
    day_star_coend,
    multiplication_functor,
    same_values,
)
from .signature import Signature
from .structures import (
    _KINDS,
    LawReport,
    check_beta_eta,
    compose_iso,
    law_mode,
    three_way,
    witness,
)
from .subset_model import Subset, full_subset, subset


# --- labels ---------------------------------------------------------------------

def etype_label(et) -> str:
    if isinstance(et, Subset):
        return et.name
    if isinstance(et, FinSet):
        inner = ",".join(render_elem(x) for x in et.elements)
        return f"{et.name} = {{{inner}}}"
    if isinstance(et, FinPresheaf):
        parts = []
        for o in et.cat.objects:
            inner = ",".join(render_elem(x) for x in et.ob[o].elements)
            parts.append(f"{render_elem(o)} -> {{{inner}}}")
        return f"{et.name}: " + "; ".join(parts)
    return str(et)


def _expr_label(f) -> str:
    if isinstance(f, (FinFunction, FinFunctor)):
        return f.name
    return str(f)


@contextmanager
def _refusals(rep: LawReport):
    """Record a CapabilityError raised in the block as a skipped instance."""
    try:
        yield
    except CapabilityError as exc:
        rep.skip(str(exc))


@contextmanager
def _law(rep: LawReport, law: str, count: int = 1, fails=(LawViolation,)):
    """Count the block as `count` instances of law; an exception in fails is
    one failed instance, and a refusal is recorded as skipped."""
    with _refusals(rep):
        try:
            yield
        except fails as exc:
            rep.check(False, f"{law}: {exc}")
        else:
            rep.checked += count


# --- the instance pools ---------------------------------------------------------

def _etype_pool(sig: Signature, max_set: int) -> tuple:
    sys_ = sig.system
    if sig.kind == "subset":
        pool = []
        for fs in sig.sets.values():
            if len(fs.elements) <= max_set:
                pool.extend(sys_.e_types_over(fs))
            else:
                pool.append(subset(fs, ()))
                pool.append(full_subset(fs))
                pool.extend(s for s in sig.etypes.values() if s.of == fs)
        seen = set()
        out = []
        for s in pool:
            if s.name not in seen:
                seen.add(s.name)
                out.append(s)
        return tuple(out)
    if sig.kind == "trivial":
        return tuple(fs for fs in sig.sets.values() if len(fs.elements) <= max_set) \
            or tuple(sig.sets.values())[:1]
    return tuple(sig.etypes.values())


def _expr_pool(sig: Signature) -> tuple:
    sys_ = sig.system
    if sig.kind == "trivial":
        return ("id",)
    if sig.kind == "presheaf":
        idents = tuple(FinFunctor.identity(c) for c in sig.categories.values())
        return idents + tuple(sig.exprs.values())
    idents = tuple(sys_.id_expr(fs) for fs in sig.sets.values())
    named = tuple(sig.exprs.values())
    extra = (sig.monoid_mult,) if sig.monoid_mult is not None else ()
    return idents + named + extra


def _over(sys_, etypes: tuple, x, n: int) -> list:
    """The first n types in etypes over the index type x."""
    return [e for e in etypes if sys_.refines(e) == x][:n]


# --- the suites -------------------------------------------------------------------

def _suite_kernel(sig: Signature, max_set: int) -> LawReport:
    sys_ = sig.system
    rep = LawReport()
    etypes = _etype_pool(sig, max_set)
    exprs = _expr_pool(sig)
    ders = []
    for f in exprs:
        a, b = sys_.expr_dom(f), sys_.expr_cod(f)
        for s in etypes:
            for t in etypes:
                status = classify(sys_, s, f, t)
                well = sys_.refines(s) == a and sys_.refines(t) == b
                if not rep.check(well != (status is Status.ILL_FORMED), lambda: (
                        f"trichotomy: {etype_label(s)} =[{_expr_label(f)}]=> "
                        f"{etype_label(t)} is {status.name} but well-formedness is {well}")):
                    continue
                if not well:
                    continue
                found = next(iter(sys_.morphisms_over(s, f, t)), None)
                if not rep.check((found is not None) == (status is Status.DERIVABLE), lambda: (
                        f"search disagrees with classification at {etype_label(s)} "
                        f"=[{_expr_label(f)}]=> {etype_label(t)}")):
                    continue
                if status is Status.DERIVABLE and len(ders) < 12:
                    d = axiom(sys_, s, f, t)
                    if rep.check(d.subject == s and d.target == t, "axiom boundary mismatch"):
                        ders.append(d)
    for d in ders:
        left = compose_derivations(sys_, identity_derivation(sys_, d.subject), d)
        right = compose_derivations(sys_, d, identity_derivation(sys_, d.target))
        rep.check(derivations_equal(sys_, left, d), lambda: f"I;d != d over {_expr_label(d.expr)}")
        rep.check(derivations_equal(sys_, right, d), lambda: f"d;I != d over {_expr_label(d.expr)}")
    pairs = [(d1, d2) for d1 in ders for d2 in ders if d1.target == d2.subject]
    for (d1, d2), d3 in itertools.islice(
            ((p, d) for p in pairs for d in ders if p[1].target == d.subject), 64):
        lhs = compose_derivations(sys_, compose_derivations(sys_, d1, d2), d3)
        rhs = compose_derivations(sys_, d1, compose_derivations(sys_, d2, d3))
        rep.check(derivations_equal(sys_, lhs, rhs),
                  "composition of derivations is not associative")
    for f, g, h in itertools.islice(
            ((f, g, h) for f in exprs for g in exprs for h in exprs
             if sys_.expr_cod(f) == sys_.expr_dom(g)
             and sys_.expr_cod(g) == sys_.expr_dom(h)), 64):
        lhs = sys_.compose_exprs(sys_.compose_exprs(f, g), h)
        rhs = sys_.compose_exprs(f, sys_.compose_exprs(g, h))
        rep.check(sys_.exprs_equal(lhs, rhs), "composition of expressions is not associative")
    return rep


def _suite_structures(sig: Signature, max_set: int) -> LawReport:
    sys_ = sig.system
    rep = LawReport()
    etypes = _etype_pool(sig, max_set)
    exprs = _expr_pool(sig)
    mode = law_mode(sys_)
    for f in exprs:
        for kind, x in (("pull", sys_.expr_cod(f)), ("push", sys_.expr_dom(f))):
            for e in _over(sys_, etypes, x, 6):
                with _refusals(rep):
                    w = witness(sys_, kind, f, e)
                    rep.absorb(check_beta_eta(w, mode=mode),
                               f"{w.noun} of {etype_label(e)} along {_expr_label(f)}")
    composable = [(f, g) for f in exprs for g in exprs
                  if sys_.expr_cod(f) == sys_.expr_dom(g)]
    for f, g in composable[:12]:
        for kind, x in (("pull", sys_.expr_cod(g)), ("push", sys_.expr_dom(f))):
            for e in _over(sys_, etypes, x, 2):
                with _law(rep, f"{_KINDS[kind][0]} composite iso"):
                    compose_iso(sys_, kind, f, g, e)
    for f in exprs:
        for s, t in itertools.product(_over(sys_, etypes, sys_.expr_dom(f), 6),
                                      _over(sys_, etypes, sys_.expr_cod(f), 6)):
            with _refusals(rep):
                rep.check(three_way(sys_, s, f, t).agree, lambda: (
                    f"three-way readings disagree at {etype_label(s)} "
                    f"=[{_expr_label(f)}]=> {etype_label(t)}"))
    return rep


def _suite_monoidal(sig: Signature, max_set: int) -> LawReport:
    sys_ = sig.system
    rep = LawReport()
    if sig.kind == "presheaf":
        for cname, cat in sig.categories.items():
            if len(cat.objects) != 1:
                rep.skip(f"category {cname} has several objects; convolution not attempted")
                continue
            try:
                multiplication_functor(sys_, cat)
            except ValidationError as exc:
                rep.skip(f"category {cname}: multiplication is not a functor: {exc}")
                continue
            pool = [p for p in sig.etypes.values() if p.cat == cat]
            for s, t in itertools.product(pool, pool):
                with _refusals(rep):
                    lhs = day_star(sys_, cat, s, t)
                    rhs = day_star_coend(sys_, cat, s, t)
                    rep.check(same_values(lhs, rhs), lambda: (
                        f"convolution disagrees with its coend at {s.name} * {t.name}"))
        ds = [identity_derivation(sys_, p) for p in list(sig.etypes.values())[:3]]
        if ds:
            with _refusals(rep):
                rep.absorb(check_monoidal_equations(sys_, ds, cap=64), "equations")
        return rep
    etypes = _etype_pool(sig, max_set)
    ds = [identity_derivation(sys_, s) for s in etypes[:6]]
    for s, t in itertools.product(etypes, etypes):
        if len(ds) >= 10:
            break
        if s.name == t.name or sys_.refines(s) != sys_.refines(t):
            continue
        if classify(sys_, s, sys_.id_expr(sys_.refines(s)), t) is Status.DERIVABLE:
            ds.append(axiom(sys_, s, sys_.id_expr(sys_.refines(s)), t))
    with _refusals(rep):
        rep.absorb(check_monoidal_equations(sys_, ds, cap=200), "equations")
    exprs = _expr_pool(sig)
    combos = 0
    for f1, f2 in itertools.product(exprs, exprs):
        if combos >= 8:
            break
        ends = [(kind, _over(sys_, etypes, end(f1), 1), _over(sys_, etypes, end(f2), 1))
                for kind, end in (("pull", sys_.expr_cod), ("push", sys_.expr_dom))]
        if not all(x1 and x2 for _, x1, x2 in ends):
            continue
        combos += 1
        with _law(rep, "tensor preservation", count=2):
            for kind, (x1,), (x2,) in ends:
                tensor_iso(sys_, kind, f1, x1, f2, x2)
    return rep


def _suite_sep(sig: Signature, max_set: int) -> LawReport | str:
    if sig.monoid_mult is None:
        return "no monoid stanza"
    sys_ = sig.system
    rep = LawReport()
    mult, car, unit = sig.monoid_mult, sig.monoid_carrier, sig.monoid_unit
    tbl = mult.mapping
    for a in car.elements:
        rep.check(tbl[unit, a] == a,
                  lambda: f"unit law fails: e * {render_elem(a)} != {render_elem(a)}")
        rep.check(tbl[a, unit] == a,
                  lambda: f"unit law fails: {render_elem(a)} * e != {render_elem(a)}")
    for a, b, c in itertools.product(car.elements, repeat=3):
        left, right = tbl[tbl[a, b], c], tbl[a, tbl[b, c]]
        rep.check(left == right, lambda: (
            "associativity fails at ({0},{1},{2}): ({0}*{1})*{2} = {3} but {0}*({1}*{2}) = {4}"
            .format(*map(render_elem, (a, b, c, left, right)))))
        if rep.full:
            break
    if len(car.elements) <= 6:
        subs = list(sys_.e_types_over(car))
    else:
        subs = [subset(car, ()), full_subset(car)]
        subs += [s for s in sig.etypes.values() if s.of == car]
    for s, t in itertools.product(subs, subs):
        expect = {tbl[x, y] for x in s.elements for y in t.elements}
        rep.check(star_etype(sys_, mult, s, t).elements == frozenset(expect),
                  lambda: f"star table wrong at {s.name} * {t.name}")
    for u, t in itertools.product(subs, subs):
        expect = {x for x in car.elements
                  if all(tbl[x, y] in u for y in t.elements)}
        rep.check(wand_right_etype(sys_, mult, u, t).elements == frozenset(expect),
                  lambda: f"right wand table wrong at {t.name} -* {u.name}")
    for s, u in itertools.product(subs, subs):
        expect = {y for y in car.elements
                  if all(tbl[x, y] in u for x in s.elements)}
        rep.check(wand_left_etype(sys_, mult, s, u).elements == frozenset(expect),
                  lambda: f"left wand table wrong at {s.name} *- {u.name}")
    for s, t, u in itertools.product(subs, subs, subs):
        rep.absorb(check_threeway_adjunction(sys_, mult, s, t, u))
        if rep.full:
            return rep
    triples = list(itertools.product(subs, subs, subs))
    stride = max(1, len(triples) // 48)
    for s, t, u in triples[::stride]:
        rep.absorb(check_star_wand(sys_, mult, s, t, u),
                   f"round trip at ({s.name},{t.name},{u.name})")
        if rep.full:
            return rep
    return rep


def _suite_monadrep(sig: Signature, max_set: int) -> LawReport | str:
    if sig.adjunction_kind is None:
        return "no adjunction stanza"
    sys_ = sig.system
    rep = LawReport()
    if sig.adjunction_kind == "identity":
        adj = identity_adjunction(sys_)
    else:
        adj = build_continuation_adjunction(sys_, sig.answers)
    pool = list(_etype_pool(sig, max_set))
    if sig.adjunction_kind == "continuation":
        # double negation carriers grow twice-exponentially in the base size
        if sig.kind == "subset":
            pool = [t for t in pool if len(t.of.elements) <= 2][:4]
        else:
            pool = [t for t in pool if len(t.elements) <= 2][:2]
    else:
        pool = pool[:8]
    ders = [identity_derivation(sys_, t) for t in pool[:3]]
    strength = [(a, b) for a in pool[:2] for b in pool[:2]]
    with _refusals(rep):
        rep.absorb(check_adjunction(adj, p_etypes=pool, q_etypes=pool,
                                    p_derivations=ders,
                                    q_derivations=ders if sig.adjunction_kind == "identity" else (),
                                    strength_pairs=strength), "adjunction")
    monad = FiberwiseMonad(adj)
    # each continuation multiplication materializes a million-element tensor
    monad_pool = pool[:1] if sig.adjunction_kind == "continuation" else pool[:4]
    with _refusals(rep):
        rep.absorb(check_monad_laws(monad, monad_pool), "monad")
    if sig.answers is not None:
        u = sig.answers
        enc_pool = pool[:2] if sig.adjunction_kind == "continuation" else pool[:3]
        for t in enc_pool:
            with _refusals(rep):
                et = monad.carrier(t)
                rep.checked += 1
                rep.skip(f"monad carrier at {etype_label(t)}: {etype_label(et)}")
        for t in enc_pool:
            with _refusals(rep):
                rep.absorb(check_comparison(adj, t, u), f"comparison at {etype_label(t)}")
        for t in enc_pool:
            with _refusals(rep):
                found = search_encodings(adj, t, u, limit=20_000)
                rep.checked += 1
                rep.skip(f"encodings of {etype_label(t)}: {len(found)} found")
                for f in found[:1]:
                    with _refusals(rep):
                        rep.absorb(check_retraction(adj, t, u, f),
                                   f"retraction at {etype_label(t)}")
                        sec = check_section(adj, t, u, f)
                        rep.skip(f"section at {etype_label(t)}: "
                                 + ("holds" if sec else "fails"))
    if sig.universal is not None:
        u = sig.universal
        full_pool = list(_etype_pool(sig, max_set))
        # encodings are q-expressions: R sends them to p through r1
        encodings = {}
        for t in full_pool:
            try:
                f = next(iter_encodings(adj.q, t, u, limit=20_000), None)
            except CapabilityError as exc:
                rep.skip(f"encodings of {etype_label(t)}: {exc}")
                continue
            if f is None:
                rep.check(False, f"no encoding found for {etype_label(t)}")
            else:
                encodings[t] = f
        if encodings:
            with _refusals(rep):
                rep.absorb(check_universal(adj.q, u, encodings, etypes=list(encodings)),
                           "universality")
            with _refusals(rep):
                ref = check_reflected(adj, u, encodings,
                                      q_etypes=list(encodings), p_etypes=list(encodings))
                rep.absorb(ref, "reflection")
                strict_holds = sum(1 for _, s in ref.double_negation_strict if s)
                rep.skip(f"strict double negation holds at {strict_holds} of "
                         f"{len(ref.double_negation_strict)} types (informational)")
            for t in list(encodings)[:3]:
                with _law(rep, f"representation at {etype_label(t)}",
                          fails=(LawViolation, MismatchError)):
                    check_theorem(adj, u, encodings, t)
    return rep


SUITE_FNS = {
    "kernel": _suite_kernel,
    "structures": _suite_structures,
    "monoidal": _suite_monoidal,
    "sep": _suite_sep,
    "monadrep": _suite_monadrep,
}
SUITES = tuple(SUITE_FNS)
