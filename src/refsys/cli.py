"""Command line front end: judge judgments, compute structure, run law suites.

Every subcommand takes a signature file first (see docs/signature_schema.md)
and emits byte-identical output for identical inputs.  Exit codes: 0 for a
derivable judgment or a passing check, 1 for underivable or failing, 2 for an
ill-formed judgment, 3 for parse errors, bad signatures, or unknown names.
"""
from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from dataclasses import dataclass

from .fincat import FinFunction, FinFunctor, FinSet, render_elem
from .kernel import (
    CapabilityError,
    IllFormedError,
    LawViolation,
    MismatchError,
    RefinementError,
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
    residual_left,
    residual_right,
    star_etype,
    tensor_pull_iso,
    tensor_push_iso,
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
    search_encodings,
)
from .presheaf_model import (
    FinPresheaf,
    day_star,
    day_star_coend,
    multiplication_functor,
    same_values,
)
from .signature import Signature, SignatureError, load_signature
from .structures import (
    pull_compose_iso,
    pullback,
    push_compose_iso,
    pushforward,
    three_way,
)
from .subset_model import Subset, full_subset, subset

SUITES = ("kernel", "structures", "monoidal", "sep", "monadrep")


class UsageError(Exception):
    """Bad command line or unparsable argument; mapped to exit code 3."""


# --- rendering ---------------------------------------------------------------

def _etype_label(et) -> str:
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


def _etype_json(et):
    if isinstance(et, Subset):
        return {
            "kind": "subset",
            "carrier": et.of.name,
            "elements": sorted((render_elem(x) for x in et.elements)),
        }
    if isinstance(et, FinSet):
        return {
            "kind": "set",
            "name": et.name,
            "elements": [render_elem(x) for x in et.elements],
        }
    if isinstance(et, FinPresheaf):
        return {
            "kind": "presheaf",
            "name": et.name,
            "values": {
                render_elem(o): [render_elem(x) for x in et.ob[o].elements]
                for o in et.cat.objects
            },
        }
    return {"kind": "opaque", "text": str(et)}


def _expr_label(sig: Signature, f) -> str:
    if isinstance(f, (FinFunction, FinFunctor)):
        return f.name
    return str(f)


def _emit(args, lines, payload) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))


# --- judgment parsing ----------------------------------------------------------

def _parse_judgment(text: str):
    """S =[f]=> T and S <=[f] T parse to (S, f, T); S <= T parses to (S, None, T)."""
    for pat, has_expr in (
        (r"^\s*(\S+)\s*=\[\s*(\S+)\s*\]=>\s*(\S+)\s*$", True),
        (r"^\s*(\S+)\s*<=\[\s*(\S+)\s*\]\s*(\S+)\s*$", True),
        (r"^\s*(\S+)\s*<=\s*(\S+)\s*$", False),
    ):
        m = re.match(pat, text)
        if m:
            if has_expr:
                return m.group(1), m.group(2), m.group(3)
            return m.group(1), None, m.group(2)
    raise UsageError(
        f"cannot parse judgment {text!r} (expected 'S =[f]=> T', 'S <=[f] T', or 'S <= T')"
    )


# --- plain subcommands ----------------------------------------------------------

def cmd_check(sig: Signature, args) -> int:
    s_name, f_name, t_name = _parse_judgment(args.judgment)
    s = sig.etype(s_name)
    t = sig.etype(t_name)
    if f_name is None:
        f = sig.system.id_expr(sig.system.refines(s))
        shown = f"{s_name} <= {t_name}"
    else:
        f = sig.expr(f_name)
        shown = f"{s_name} =[{f_name}]=> {t_name}"
    status = classify(sig.system, s, f, t)
    word = {
        Status.DERIVABLE: "derivable",
        Status.UNDERIVABLE: "underivable",
        Status.ILL_FORMED: "ill-formed",
    }[status]
    _emit(args, [f"{shown}: {word}"], {"judgment": shown, "status": word})
    return {Status.DERIVABLE: 0, Status.UNDERIVABLE: 1, Status.ILL_FORMED: 2}[status]


def cmd_pull(sig: Signature, args) -> int:
    f = sig.expr(args.expr)
    t = sig.etype(args.etype)
    w = pullback(sig.system, f, t)
    lines = [f"pullback of {args.etype} along {args.expr}: {_etype_label(w.etype)}"]
    _emit(args, lines, {
        "operation": "pullback",
        "expr": args.expr,
        "etype": args.etype,
        "result": _etype_json(w.etype),
    })
    return 0


def cmd_push(sig: Signature, args) -> int:
    s = sig.etype(args.etype)
    f = sig.expr(args.expr)
    w = pushforward(sig.system, s, f)
    lines = [f"pushforward of {args.etype} along {args.expr}: {_etype_label(w.etype)}"]
    _emit(args, lines, {
        "operation": "pushforward",
        "expr": args.expr,
        "etype": args.etype,
        "result": _etype_json(w.etype),
    })
    return 0


def cmd_residual(sig: Signature, args) -> int:
    if not sig.system.is_closed:
        raise UsageError(f"system {sig.name!r} has no residuals")
    a = sig.etype(args.first)
    b = sig.etype(args.second)
    if args.side == "left":
        w = residual_left(sig.system, a, b)
        shown = f"left residual of {args.second} by {args.first}"
    else:
        w = residual_right(sig.system, a, b)
        shown = f"right residual of {args.first} by {args.second}"
    lines = [f"{shown}: {_etype_label(w.etype)}"]
    _emit(args, lines, {
        "operation": f"residual_{args.side}",
        "first": args.first,
        "second": args.second,
        "result": _etype_json(w.etype),
    })
    return 0


def _need_monoid(sig: Signature):
    if sig.monoid_mult is None:
        raise UsageError(f"signature {sig.name!r} has no monoid stanza")
    return sig.monoid_mult


def cmd_star(sig: Signature, args) -> int:
    mult = _need_monoid(sig)
    s = sig.etype(args.s)
    t = sig.etype(args.t)
    et = star_etype(sig.system, mult, s, t)
    lines = [f"{args.s} * {args.t}: {_etype_label(et)}"]
    _emit(args, lines, {
        "operation": "star",
        "s": args.s,
        "t": args.t,
        "result": _etype_json(et),
    })
    return 0


def cmd_wand(sig: Signature, args) -> int:
    mult = _need_monoid(sig)
    operand = sig.etype(args.operand)
    u = sig.etype(args.answer)
    if args.side == "right":
        et = wand_right_etype(sig.system, mult, u, operand)
        shown = f"{args.operand} -* {args.answer}"
    else:
        et = wand_left_etype(sig.system, mult, operand, u)
        shown = f"{args.operand} *- {args.answer}"
    lines = [f"{shown}: {_etype_label(et)}"]
    _emit(args, lines, {
        "operation": f"wand_{args.side}",
        "operand": args.operand,
        "answer": args.answer,
        "result": _etype_json(et),
    })
    return 0


def cmd_hoare(sig: Signature, args) -> int:
    if sig.machine is None:
        raise UsageError(f"signature {sig.name!r} has no machine stanza")
    m = re.match(r"^\s*\{(.*?)\}\s*(.*?)\s*\{(.*?)\}\s*$", args.triple)
    if not m:
        raise UsageError(f"cannot parse triple {args.triple!r} (expected '{{P}} c1;c2 {{Q}}')")
    p = sig.etype(m.group(1).strip())
    q = sig.etype(m.group(3).strip())
    names = [c.strip() for c in m.group(2).split(";") if c.strip()]
    for n in names:
        if n not in sig.machine.commands:
            raise UsageError(f"unknown command {n!r}")
    shown = f"{{{m.group(1).strip()}}} {';'.join(names)} {{{m.group(3).strip()}}}"
    lines = [f"triple: {shown}"]
    wp_chain = []
    cur = q
    for n in reversed(names):
        cur = sig.machine.wp(n, cur)
        wp_chain.append((n, cur))
    for n, et in wp_chain:
        lines.append(f"wp[{n}]: {_etype_label(et)}")
    sp_chain = []
    cur = p
    for n in names:
        cur = sig.machine.sp(cur, n)
        sp_chain.append((n, cur))
    for n, et in sp_chain:
        lines.append(f"sp[{n}]: {_etype_label(et)}")
    holds = sig.machine.check_triple(p, names, q)
    lines.append("holds" if holds else "fails")
    _emit(args, lines, {
        "triple": shown,
        "wp": [{"command": n, "result": _etype_json(et)} for n, et in wp_chain],
        "sp": [{"command": n, "result": _etype_json(et)} for n, et in sp_chain],
        "holds": holds,
    })
    return 0 if holds else 1


# --- law suites -------------------------------------------------------------------

@dataclass
class SuiteResult:
    suite: str
    applicable: bool = True
    reason: str = ""
    checked: int = 0
    failures: tuple = ()
    notes: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def absorb(self, report, where: str = "") -> None:
        self.checked += report.checked
        prefix = f"{where}: " if where else ""
        self.failures += tuple(f"{prefix}{f}" for f in report.failures)
        self.notes += tuple(f"{prefix}{s}" for s in getattr(report, "skipped", ()))

    def fail(self, msg: str) -> None:
        self.checked += 1
        self.failures += (msg,)

    def note(self, msg: str) -> None:
        self.notes += (msg,)


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


def _suite_kernel(sig: Signature, max_set: int) -> SuiteResult:
    sys_ = sig.system
    res = SuiteResult("kernel")
    etypes = _etype_pool(sig, max_set)
    exprs = _expr_pool(sig)
    ders = []
    for f in exprs:
        a, b = sys_.expr_dom(f), sys_.expr_cod(f)
        for s in etypes:
            for t in etypes:
                status = classify(sys_, s, f, t)
                well = sys_.refines(s) == a and sys_.refines(t) == b
                res.checked += 1
                if well == (status is Status.ILL_FORMED):
                    res.failures += (
                        f"trichotomy: {_etype_label(s)} =[{_expr_label(sig, f)}]=> "
                        f"{_etype_label(t)} is {status.name} but well-formedness is {well}",
                    )
                    continue
                if not well:
                    continue
                found = next(iter(sys_.morphisms_over(s, f, t)), None)
                res.checked += 1
                if (found is not None) != (status is Status.DERIVABLE):
                    res.failures += (
                        f"search disagrees with classification at {_etype_label(s)} "
                        f"=[{_expr_label(sig, f)}]=> {_etype_label(t)}",
                    )
                    continue
                if status is Status.DERIVABLE and len(ders) < 12:
                    d = axiom(sys_, s, f, t)
                    res.checked += 1
                    if d.subject != s or d.target != t:
                        res.failures += ("axiom boundary mismatch",)
                    else:
                        ders.append(d)
    for d in ders:
        left = compose_derivations(sys_, identity_derivation(sys_, d.subject), d)
        right = compose_derivations(sys_, d, identity_derivation(sys_, d.target))
        res.checked += 2
        if not derivations_equal(sys_, left, d):
            res.failures += (f"I;d != d over {_expr_label(sig, d.expr)}",)
        if not derivations_equal(sys_, right, d):
            res.failures += (f"d;I != d over {_expr_label(sig, d.expr)}",)
    pairs = [(d1, d2) for d1 in ders for d2 in ders if d1.target == d2.subject]
    for (d1, d2), d3 in itertools.islice(
            ((p, d) for p in pairs for d in ders if p[1].target == d.subject), 64):
        lhs = compose_derivations(sys_, compose_derivations(sys_, d1, d2), d3)
        rhs = compose_derivations(sys_, d1, compose_derivations(sys_, d2, d3))
        res.checked += 1
        if not derivations_equal(sys_, lhs, rhs):
            res.failures += ("composition of derivations is not associative",)
    for f, g, h in itertools.islice(
            ((f, g, h) for f in exprs for g in exprs for h in exprs
             if sys_.expr_cod(f) == sys_.expr_dom(g)
             and sys_.expr_cod(g) == sys_.expr_dom(h)), 64):
        lhs = sys_.compose_exprs(sys_.compose_exprs(f, g), h)
        rhs = sys_.compose_exprs(f, sys_.compose_exprs(g, h))
        res.checked += 1
        if not sys_.exprs_equal(lhs, rhs):
            res.failures += ("composition of expressions is not associative",)
    return res


def _suite_structures(sig: Signature, max_set: int) -> SuiteResult:
    from .structures import check_beta_eta

    sys_ = sig.system
    res = SuiteResult("structures")
    etypes = _etype_pool(sig, max_set)
    exprs = _expr_pool(sig)
    mode = "membership" if sys_.proof_irrelevant else "literal"
    for f in exprs:
        a, b = sys_.expr_dom(f), sys_.expr_cod(f)
        if sys_.has_pullbacks:
            for t in [t for t in etypes if sys_.refines(t) == b][:6]:
                try:
                    w = pullback(sys_, f, t)
                    res.absorb(check_beta_eta(w, mode=mode),
                               f"pullback of {_etype_label(t)} along {_expr_label(sig, f)}")
                except CapabilityError as exc:
                    res.note(str(exc))
        if sys_.has_pushforwards:
            for s in [s for s in etypes if sys_.refines(s) == a][:6]:
                try:
                    w = pushforward(sys_, s, f)
                    res.absorb(check_beta_eta(w, mode=mode),
                               f"pushforward of {_etype_label(s)} along {_expr_label(sig, f)}")
                except CapabilityError as exc:
                    res.note(str(exc))
    composable = [(f, g) for f in exprs for g in exprs
                  if sys_.expr_cod(f) == sys_.expr_dom(g)]
    for f, g in composable[:12]:
        c = sys_.expr_cod(g)
        a = sys_.expr_dom(f)
        if sys_.has_pullbacks:
            for t in [t for t in etypes if sys_.refines(t) == c][:2]:
                try:
                    pull_compose_iso(sys_, f, g, t)
                    res.checked += 1
                except CapabilityError as exc:
                    res.note(str(exc))
                except LawViolation as exc:
                    res.fail(f"pullback composite iso: {exc}")
        if sys_.has_pushforwards:
            for s in [s for s in etypes if sys_.refines(s) == a][:2]:
                try:
                    push_compose_iso(sys_, s, f, g)
                    res.checked += 1
                except CapabilityError as exc:
                    res.note(str(exc))
                except LawViolation as exc:
                    res.fail(f"pushforward composite iso: {exc}")
    if sys_.has_pullbacks and sys_.has_pushforwards:
        for f in exprs:
            a, b = sys_.expr_dom(f), sys_.expr_cod(f)
            ss = [s for s in etypes if sys_.refines(s) == a][:6]
            ts = [t for t in etypes if sys_.refines(t) == b][:6]
            for s, t in itertools.product(ss, ts):
                try:
                    tw = three_way(sys_, s, f, t)
                except CapabilityError as exc:
                    res.note(str(exc))
                    continue
                res.checked += 1
                if not tw.agree:
                    res.failures += (
                        f"three-way readings disagree at {_etype_label(s)} "
                        f"=[{_expr_label(sig, f)}]=> {_etype_label(t)}",
                    )
    return res


def _suite_monoidal(sig: Signature, max_set: int) -> SuiteResult:
    sys_ = sig.system
    if not sys_.is_monoidal:
        return SuiteResult("monoidal", applicable=False, reason="system is not monoidal")
    res = SuiteResult("monoidal")
    if sig.kind == "presheaf":
        for cname, cat in sig.categories.items():
            if len(cat.objects) != 1:
                res.note(f"category {cname} has several objects; convolution not attempted")
                continue
            try:
                multiplication_functor(sys_, cat)
            except ValidationError as exc:
                res.note(f"category {cname}: {exc}")
                continue
            pool = [p for p in sig.etypes.values() if p.cat == cat]
            for s, t in itertools.product(pool, pool):
                try:
                    lhs = day_star(sys_, cat, s, t)
                    rhs = day_star_coend(sys_, cat, s, t)
                except CapabilityError as exc:
                    res.note(str(exc))
                    continue
                res.checked += 1
                if not same_values(lhs, rhs):
                    res.failures += (
                        f"convolution disagrees with its coend at {s.name} * {t.name}",
                    )
        ds = [identity_derivation(sys_, p) for p in list(sig.etypes.values())[:3]]
        if ds:
            try:
                res.absorb(check_monoidal_equations(sys_, ds, cap=64), "equations")
            except CapabilityError as exc:
                res.note(str(exc))
        return res
    etypes = _etype_pool(sig, max_set)
    ds = [identity_derivation(sys_, s) for s in etypes[:6]]
    for s, t in itertools.product(etypes, etypes):
        if len(ds) >= 10:
            break
        if s.name == t.name or sys_.refines(s) != sys_.refines(t):
            continue
        if classify(sys_, s, sys_.id_expr(sys_.refines(s)), t) is Status.DERIVABLE:
            ds.append(axiom(sys_, s, sys_.id_expr(sys_.refines(s)), t))
    try:
        res.absorb(check_monoidal_equations(sys_, ds, cap=200), "equations")
    except CapabilityError as exc:
        res.note(str(exc))
    exprs = _expr_pool(sig)
    combos = 0
    for f1, f2 in itertools.product(exprs, exprs):
        if combos >= 8:
            break
        t1s = [t for t in etypes if sys_.refines(t) == sys_.expr_cod(f1)][:1]
        t2s = [t for t in etypes if sys_.refines(t) == sys_.expr_cod(f2)][:1]
        s1s = [s for s in etypes if sys_.refines(s) == sys_.expr_dom(f1)][:1]
        s2s = [s for s in etypes if sys_.refines(s) == sys_.expr_dom(f2)][:1]
        if not (t1s and t2s and s1s and s2s):
            continue
        combos += 1
        try:
            tensor_pull_iso(sys_, f1, t1s[0], f2, t2s[0])
            tensor_push_iso(sys_, s1s[0], f1, s2s[0], f2)
            res.checked += 2
        except CapabilityError as exc:
            res.note(str(exc))
        except LawViolation as exc:
            res.fail(f"tensor preservation: {exc}")
    return res


def _suite_sep(sig: Signature, max_set: int) -> SuiteResult:
    if sig.monoid_mult is None:
        return SuiteResult("sep", applicable=False, reason="no monoid stanza")
    sys_ = sig.system
    res = SuiteResult("sep")
    mult, car, unit = sig.monoid_mult, sig.monoid_carrier, sig.monoid_unit
    tbl = mult.mapping
    for a in car.elements:
        res.checked += 2
        if tbl[(unit, a)] != a:
            res.failures += (f"unit law fails: e * {render_elem(a)} != {render_elem(a)}",)
        if tbl[(a, unit)] != a:
            res.failures += (f"unit law fails: {render_elem(a)} * e != {render_elem(a)}",)
    for a, b, c in itertools.product(car.elements, repeat=3):
        res.checked += 1
        if tbl[(tbl[(a, b)], c)] != tbl[(a, tbl[(b, c)])]:
            res.failures += (
                f"associativity fails at ({render_elem(a)},{render_elem(b)},{render_elem(c)}): "
                f"({render_elem(a)}*{render_elem(b)})*{render_elem(c)} = "
                f"{render_elem(tbl[(tbl[(a, b)], c)])} but "
                f"{render_elem(a)}*({render_elem(b)}*{render_elem(c)}) = "
                f"{render_elem(tbl[(a, tbl[(b, c)])])}",
            )
            if len(res.failures) >= 5:
                break
    if len(car.elements) <= 6:
        subs = list(sys_.e_types_over(car))
    else:
        subs = [subset(car, ()), full_subset(car)]
        subs += [s for s in sig.etypes.values() if s.of == car]
    for s, t in itertools.product(subs, subs):
        star = star_etype(sys_, mult, s, t)
        expect = {tbl[(x, y)] for x in s.elements for y in t.elements}
        res.checked += 1
        if star.elements != frozenset(expect):
            res.failures += (f"star table wrong at {s.name} * {t.name}",)
    for u, t in itertools.product(subs, subs):
        wr = wand_right_etype(sys_, mult, u, t)
        expect = {x for x in car.elements
                  if all(tbl[(x, y)] in u.elements for y in t.elements)}
        res.checked += 1
        if wr.elements != frozenset(expect):
            res.failures += (f"right wand table wrong at {t.name} -* {u.name}",)
    for s, u in itertools.product(subs, subs):
        wl = wand_left_etype(sys_, mult, s, u)
        expect = {y for y in car.elements
                  if all(tbl[(x, y)] in u.elements for x in s.elements)}
        res.checked += 1
        if wl.elements != frozenset(expect):
            res.failures += (f"left wand table wrong at {s.name} *- {u.name}",)
    for s, t, u in itertools.product(subs, subs, subs):
        res.absorb(check_threeway_adjunction(sys_, mult, s, t, u))
        if len(res.failures) >= 5:
            return res
    triples = list(itertools.product(subs, subs, subs))
    stride = max(1, len(triples) // 48)
    for s, t, u in triples[::stride]:
        res.absorb(check_star_wand(sys_, mult, s, t, u),
                   f"round trip at ({s.name},{t.name},{u.name})")
        if len(res.failures) >= 5:
            return res
    return res


def _find_encodings(sig: Signature, pool, u) -> dict:
    sys_ = sig.system
    target = sys_.refines(u)
    encodings = {}
    for t in pool:
        a = sys_.refines(t)
        for f in sys_.expressions(a, target):
            et, _, _ = sys_.pullback_data(f, u)
            if et == t:
                encodings[t] = f
                break
    return encodings


def _suite_monadrep(sig: Signature, max_set: int) -> SuiteResult:
    if sig.adjunction_kind is None:
        return SuiteResult("monadrep", applicable=False, reason="no adjunction stanza")
    sys_ = sig.system
    res = SuiteResult("monadrep")
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
    try:
        res.absorb(check_adjunction(adj, p_etypes=pool, q_etypes=pool,
                                    p_derivations=ders,
                                    q_derivations=ders if sig.adjunction_kind == "identity" else (),
                                    strength_pairs=strength), "adjunction")
    except CapabilityError as exc:
        res.note(str(exc))
    monad = FiberwiseMonad(adj)
    # each continuation multiplication materializes a million-element tensor
    monad_pool = pool[:1] if sig.adjunction_kind == "continuation" else pool[:4]
    try:
        res.absorb(check_monad_laws(monad, monad_pool), "monad")
    except CapabilityError as exc:
        res.note(str(exc))
    if sig.answers is not None:
        u = sig.answers
        enc_pool = pool[:2] if sig.adjunction_kind == "continuation" else pool[:3]
        for t in enc_pool:
            try:
                et = monad.carrier(t)
                res.checked += 1
                res.note(f"monad carrier at {_etype_label(t)}: {_etype_label(et)}")
            except CapabilityError as exc:
                res.note(str(exc))
        for t in enc_pool:
            try:
                res.absorb(check_comparison(adj, t, u), f"comparison at {_etype_label(t)}")
            except CapabilityError as exc:
                res.note(str(exc))
        for t in enc_pool:
            try:
                found = search_encodings(adj, t, u, limit=20_000)
                res.checked += 1
                res.note(f"encodings of {_etype_label(t)}: {len(found)} found")
            except CapabilityError as exc:
                res.note(str(exc))
                continue
            for f in found[:1]:
                try:
                    res.absorb(check_retraction(adj, t, u, f),
                               f"retraction at {_etype_label(t)}")
                    sec = check_section(adj, t, u, f)
                    res.note(f"section at {_etype_label(t)}: "
                             + ("holds" if sec else "fails"))
                except CapabilityError as exc:
                    res.note(str(exc))
    if sig.universal is not None:
        u = sig.universal
        full_pool = list(_etype_pool(sig, max_set))
        encodings = _find_encodings(sig, full_pool, u)
        missing = [t for t in full_pool if t not in encodings]
        for t in missing:
            res.fail(f"no encoding found for {_etype_label(t)}")
        if encodings:
            res.absorb(check_universal(sys_, u, encodings, etypes=list(encodings)),
                       "universality")
            rep = check_reflected(adj, u, encodings,
                                  q_etypes=list(encodings), p_etypes=list(encodings))
            res.checked += rep.checked
            res.failures += tuple(f"reflection: {f}" for f in rep.failures)
            res.notes += tuple(f"reflection: {s}" for s in rep.skipped)
            strict_holds = sum(1 for _, s in rep.double_negation_strict if s)
            res.note(f"strict double negation holds at {strict_holds} of "
                     f"{len(rep.double_negation_strict)} types (informational)")
            for t in list(encodings)[:3]:
                try:
                    check_theorem(adj, u, encodings, t)
                    res.checked += 1
                except CapabilityError as exc:
                    res.note(str(exc))
                except (LawViolation, MismatchError) as exc:
                    res.fail(f"representation at {_etype_label(t)}: {exc}")
    return res


_SUITE_FNS = {
    "kernel": _suite_kernel,
    "structures": _suite_structures,
    "monoidal": _suite_monoidal,
    "sep": _suite_sep,
    "monadrep": _suite_monadrep,
}


def cmd_laws(sig: Signature, args) -> int:
    if args.suite != "all" and args.suite not in _SUITE_FNS:
        raise UsageError(
            f"unknown suite {args.suite!r} (choose from {', '.join(SUITES)}, all)")
    names = SUITES if args.suite == "all" else (args.suite,)
    results = [_SUITE_FNS[n](sig, args.max_set) for n in names]
    lines = []
    for r in results:
        if not r.applicable:
            lines.append(f"suite {r.suite}: skipped ({r.reason})")
            continue
        if r.ok and r.checked == 0 and r.notes:
            lines.append(f"suite {r.suite}: no feasible instances under the carrier bound")
            for s in r.notes:
                lines.append(f"  note: {s}")
            continue
        verdict = "ok" if r.ok else "FAIL"
        lines.append(f"suite {r.suite}: {verdict} ({r.checked} instances)")
        for f in r.failures[:5]:
            lines.append(f"  counterexample: {f}")
        for s in r.notes:
            lines.append(f"  note: {s}")
    overall = all(r.ok for r in results if r.applicable)
    lines.append("all laws hold" if overall else "law violations found")
    payload = {
        "signature": sig.name,
        "ok": overall,
        "suites": [
            {
                "suite": r.suite,
                "applicable": r.applicable,
                "reason": r.reason,
                "instances": r.checked,
                "failures": list(r.failures),
                "notes": list(r.notes),
            }
            for r in results
        ],
    }
    _emit(args, lines, payload)
    return 0 if overall else 1


# --- entry point -------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="refsys", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("signature", help="path to a signature JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    p = add("check", cmd_check, "classify a judgment as derivable / underivable / ill-formed")
    p.add_argument("judgment", help="'S =[f]=> T', 'S <=[f] T', or 'S <= T'")

    p = add("pull", cmd_pull, "pull a refinement type back along an expression")
    p.add_argument("expr")
    p.add_argument("etype")

    p = add("push", cmd_push, "push a refinement type forward along an expression")
    p.add_argument("etype")
    p.add_argument("expr")

    p = add("residual", cmd_residual, "compute a residual type of the closed structure")
    p.add_argument("side", choices=("left", "right"))
    p.add_argument("first")
    p.add_argument("second")

    p = add("star", cmd_star, "separating conjunction over the signature's monoid")
    p.add_argument("s")
    p.add_argument("t")

    p = add("wand", cmd_wand, "separating implication over the signature's monoid")
    p.add_argument("operand")
    p.add_argument("answer")
    p.add_argument("--side", choices=("right", "left"), default="right")

    p = add("hoare", cmd_hoare, "judge a Hoare triple '{P} c1;c2 {Q}'")
    p.add_argument("triple")

    p = add("laws", cmd_laws, "run a law suite and report instance counts")
    p.add_argument("suite", help=f"one of: {', '.join(SUITES)}, all")
    p.add_argument("--max-set", type=int, default=3, dest="max_set",
                   help="carriers larger than this are sampled, not enumerated")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise UsageError("missing subcommand (try --help)")
        sig = load_signature(args.signature)
        return args.fn(sig, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SignatureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CapabilityError, RefinementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
