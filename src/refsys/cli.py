"""Command line front end: judge judgments, compute structure, run law suites.

Every subcommand takes a signature file first (see docs/signature_schema.md)
and emits byte-identical output for identical inputs.  Exit codes: 0 for a
derivable judgment or a passing check, 1 for underivable or failing, 2 for an
ill-formed judgment, 3 for parse errors, bad signatures, or unknown names.
The law suites themselves live in refsys.laws; `laws` only renders their
reports, as text or with --json.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from .fincat import FinSet, render_elem
from .kernel import RefinementError, Status, classify
# cmd_laws looks suites up in laws' own dict at call time, so a profiler that
# wraps its entries (perfbench/tracer.py) also times `refsys laws`
from .laws import SUITE_FNS as _SUITE_FNS, SUITES, etype_label
from .monoidal import residual_left, residual_right, star_etype, wand_left_etype, wand_right_etype
from .presheaf_model import FinPresheaf
from .signature import Signature, SignatureError, load_signature
from .structures import LawReport, pullback, pushforward
from .subset_model import Subset


class UsageError(Exception):
    """Bad command line or unparsable argument; mapped to exit code 3."""


# --- rendering ---------------------------------------------------------------

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
    lines = [f"pullback of {args.etype} along {args.expr}: {etype_label(w.etype)}"]
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
    lines = [f"pushforward of {args.etype} along {args.expr}: {etype_label(w.etype)}"]
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
    lines = [f"{shown}: {etype_label(w.etype)}"]
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
    lines = [f"{args.s} * {args.t}: {etype_label(et)}"]
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
    lines = [f"{shown}: {etype_label(et)}"]
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
        lines.append(f"wp[{n}]: {etype_label(et)}")
    sp_chain = []
    cur = p
    for n in names:
        cur = sig.machine.sp(cur, n)
        sp_chain.append((n, cur))
    for n, et in sp_chain:
        lines.append(f"sp[{n}]: {etype_label(et)}")
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

def cmd_laws(sig: Signature, args) -> int:
    if args.suite != "all" and args.suite not in _SUITE_FNS:
        raise UsageError(
            f"unknown suite {args.suite!r} (choose from {', '.join(SUITES)}, all)")
    results = []
    for name in SUITES if args.suite == "all" else (args.suite,):
        r = _SUITE_FNS[name](sig, args.max_set)
        results.append((name, r, LawReport()) if isinstance(r, str) else (name, "", r))
    lines = []
    for name, reason, r in results:
        if reason:
            lines.append(f"suite {name}: skipped ({reason})")
            continue
        if r.ok and r.checked == 0 and r.skipped:
            lines.append(f"suite {name}: no feasible instances under the carrier bound")
        else:
            verdict = "ok" if r.ok else "FAIL"
            lines.append(f"suite {name}: {verdict} ({r.checked} instances)")
            lines += [f"  counterexample: {f}" for f in r.failures[:5]]
        lines += [f"  note: {s}" for s in r.skipped]
    overall = all(r.ok for _, _, r in results)
    lines.append("all laws hold" if overall else "law violations found")
    payload = {
        "signature": sig.name,
        "ok": overall,
        "suites": [
            {
                "suite": name,
                "applicable": not reason,
                "reason": reason,
                "instances": r.checked,
                "failures": r.failures,
                "notes": r.skipped,
            }
            for name, reason, r in results
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
    except (UsageError, SignatureError, RefinementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
