"""Known answers for the judgments-random queries, computed without refsys.

Subsets and functions are index lists over carriers 0..n-1; every answer is
derived from its definition: image inclusion for typing judgments, preimage
and direct image for pullback and pushforward, elementwise star and wands for
separation logic, and a brute-force search over component families, testing
every naturality square, for presheaf judgments.
"""
from __future__ import annotations

import itertools

from queries import BASES


def _maps_into(table, s, t) -> bool:
    t = set(t)
    return all(table[x] in t for x in s)


def _subsets(n: int):
    for mask in range(1 << n):
        yield [i for i in range(n) if mask >> i & 1]


def subset_answer(batch: dict, q: dict):
    sets = batch["sets"]
    f = q["f"]
    table = f["table"]
    if q["op"] == "classify":
        (s_of, s), (t_of, t) = q["s"], q["t"]
        if s_of != f["dom"] or t_of != f["cod"]:
            return "ill-formed"
        return "derivable" if _maps_into(table, s, t) else "underivable"
    if q["op"] == "three_way":
        ok = _maps_into(table, q["s"][1], q["t"][1])
        return [ok, ok, ok]
    nx = sets["X"]
    if q["op"] == "pull":
        t = set(q["t"][1])
        pre = [x for x in range(sets[f["dom"]]) if table[x] in t]
        # beta: S =[g;f]=> T, eta: S =[g]=> f*T; both hold iff f(g(S)) <= T
        count = 0
        for g in itertools.product(range(sets[f["dom"]]), repeat=nx):
            for s in _subsets(nx):
                if all(table[g[x]] in t for x in s):
                    count += 2
        return {"etype": pre, "ok": True, "checked": count}
    # push: beta S =[f;g]=> T', eta f(S) =[g]=> T'; both hold iff g(f(S)) <= T'
    img = sorted({table[x] for x in q["s"][1]})
    count = 0
    for g in itertools.product(range(nx), repeat=sets[f["cod"]]):
        for t in _subsets(nx):
            if all(g[y] in t for y in img):
                count += 2
    return {"etype": img, "ok": True, "checked": count}


def sep_answer(batch: dict, q: dict):
    n, m = batch["n"], batch["table"]
    op = q["op"]
    if op == "star":
        return sorted({m[x][y] for x in q["s"] for y in q["t"]})
    if op == "wand_right":
        u = set(q["u"])
        return [x for x in range(n) if all(m[x][y] in u for y in q["t"])]
    if op == "wand_left":
        u = set(q["u"])
        return [y for y in range(n) if all(m[x][y] in u for x in q["s"])]
    return {"ok": True, "checked": 3}


def _naturals(s: dict, functor: dict, t: dict, base: dict) -> int:
    """Number of natural families S(a) -> T(F a), tested square by square."""
    objects = base["objects"]
    spaces = [itertools.product(range(t["ob"][functor["ob"][a]]), repeat=s["ob"][a])
              for a in objects]
    count = 0
    for choice in itertools.product(*(list(sp) for sp in spaces)):
        comp = dict(zip(objects, choice))
        ok = True
        for u, (a, a2) in base["arrows"].items():
            tu = t["ar"][functor["ar"][u]]
            su = s["ar"][u]
            if any(tu[comp[a][x]] != comp[a2][su[x]] for x in range(s["ob"][a])):
                ok = False
                break
        if ok:
            count += 1
    return count


def presheaf_answer(batch: dict, q: dict):
    s = batch["presheaves"][q["s"]]
    t = batch["presheaves"][q["t"]]
    f = batch["functors"][q["f"]]
    if s["base"] != f["dom"] or t["base"] != f["cod"]:
        return "ill-formed"
    return "derivable" if _naturals(s, f, t, BASES[f["dom"]]) else "underivable"


def trivial_answer(batch: dict, q: dict):
    ns, nt = batch["sizes"][q["s"]], batch["sizes"][q["t"]]
    if q["op"] == "count":
        return nt ** ns
    return "derivable" if ns == 0 or nt > 0 else "underivable"


ANSWER = {"subset": subset_answer, "sep": sep_answer,
          "presheaf": presheaf_answer, "trivial": trivial_answer}


def answer(batch: dict, q: dict):
    return ANSWER[batch["kind"]](batch, q)
