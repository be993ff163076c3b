"""Seeded query stream for the judgments-random workload, as plain data.

A round is a list of batches.  Each batch describes one small system (fresh
carriers, tables, presheaves) and a few dozen queries against it, so caches
keyed on a system see few repeats.  Everything here is plain Python data
(lists, dicts, ints, strings): the checking process turns it into refsys
objects, and `oracle.py` answers it without refsys.

Batch kinds and their queries:

  subset    classify (derivable, underivable and ill-formed), pull and push
            with a literal beta/eta check over a two-point probe carrier X,
            and three_way
  sep       star, right wand, left wand and the three-way star/wand
            adjunction over a random (usually non-associative) table
  presheaf  classify over the arrow, chain and Z2 bases, along identity and
            cross-base functors; ill-formed when the bases do not match
  trivial   classify and the derivation count over the one-point base
"""
from __future__ import annotations

import itertools
import json
import random

BATCH_KINDS = (("subset", 35), ("sep", 25), ("presheaf", 35), ("trivial", 5))
QUERY_MIX = {
    "subset": (("classify", 45), ("pull", 15), ("push", 15), ("three_way", 25)),
    "sep": (("star", 25), ("wand_right", 25), ("wand_left", 25), ("adjunction", 25)),
    "presheaf": (("classify", 100),),
    "trivial": (("classify", 50), ("count", 50)),
}
BATCH_SIZE = (24, 40)
ILL_FORMED_SHARE = 0.2

# Base categories as (objects, arrows name -> [src, dst], composites [a, b, a;b],
# identities).  Composition is diagrammatic.
BASES = {
    "arrow": {
        "objects": ["x", "y"],
        "arrows": {"u": ["x", "y"], "ix": ["x", "x"], "iy": ["y", "y"]},
        "composition": [["ix", "u", "u"], ["u", "iy", "u"],
                        ["ix", "ix", "ix"], ["iy", "iy", "iy"]],
        "identities": {"x": "ix", "y": "iy"},
    },
    "chain": {
        "objects": ["c0", "c1", "c2"],
        "arrows": {"u": ["c0", "c1"], "v": ["c1", "c2"], "w": ["c0", "c2"],
                   "i0": ["c0", "c0"], "i1": ["c1", "c1"], "i2": ["c2", "c2"]},
        "composition": [["u", "v", "w"],
                        ["i0", "u", "u"], ["u", "i1", "u"],
                        ["i1", "v", "v"], ["v", "i2", "v"],
                        ["i0", "w", "w"], ["w", "i2", "w"],
                        ["i0", "i0", "i0"], ["i1", "i1", "i1"], ["i2", "i2", "i2"]],
        "identities": {"c0": "i0", "c1": "i1", "c2": "i2"},
    },
    "z2": {
        "objects": ["*"],
        "arrows": {"e": ["*", "*"], "g": ["*", "*"]},
        "composition": [["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]],
        "identities": {"*": "e"},
    },
}


def _pick(rng: random.Random, weighted) -> str:
    names = [n for n, _ in weighted]
    return rng.choices(names, weights=[w for _, w in weighted])[0]


def functors(c: dict, d: dict) -> list:
    """Every functor between two bases, by brute force over object and arrow maps."""
    comp_d = {(a, b): x for a, b, x in d["composition"]}
    arrows_c = sorted(c["arrows"])
    out = []
    for obj_choice in itertools.product(d["objects"], repeat=len(c["objects"])):
        om = dict(zip(c["objects"], obj_choice))
        candidates = []
        for a in arrows_c:
            s, t = c["arrows"][a]
            candidates.append(sorted(
                x for x, (xs, xt) in d["arrows"].items() if xs == om[s] and xt == om[t]))
        for choice in itertools.product(*candidates):
            am = dict(zip(arrows_c, choice))
            if any(am[i] != d["identities"][om[o]] for o, i in c["identities"].items()):
                continue
            if all(comp_d[(am[a], am[b])] == am[x] for a, b, x in c["composition"]):
                out.append({"ob": om, "ar": am})
    return out


def _table(rng: random.Random, n_dom: int, n_cod: int) -> list:
    return [rng.randrange(n_cod) for _ in range(n_dom)]


def _subset(rng: random.Random, n: int) -> list:
    return [i for i in range(n) if rng.random() < 0.5]


def random_presheaf(rng: random.Random, base: str) -> dict:
    """Value sizes and arrow tables (target index per source element)."""
    if base == "arrow":
        nx = rng.randint(0, 3)
        ny = rng.randint(1 if nx else 0, 3)
        return {"ob": {"x": nx, "y": ny},
                "ar": {"u": _table(rng, nx, ny), "ix": list(range(nx)), "iy": list(range(ny))}}
    if base == "chain":
        n0 = rng.randint(0, 2)
        n1 = rng.randint(1 if n0 else 0, 2)
        n2 = rng.randint(1 if n1 else 0, 2)
        u, v = _table(rng, n0, n1), _table(rng, n1, n2)
        return {"ob": {"c0": n0, "c1": n1, "c2": n2},
                "ar": {"u": u, "v": v, "w": [v[i] for i in u],
                       "i0": list(range(n0)), "i1": list(range(n1)), "i2": list(range(n2))}}
    n = rng.randint(1, 4)
    order = list(range(n))
    rng.shuffle(order)
    inv = list(range(n))
    for i in range(0, n - 1, 2):
        if rng.random() < 0.6:
            a, b = order[i], order[i + 1]
            inv[a], inv[b] = b, a
    return {"ob": {"*": n}, "ar": {"e": list(range(n)), "g": inv}}


def _subset_batch(rng: random.Random, size: int) -> dict:
    sets = {"A": rng.randint(2, 4), "B": rng.randint(2, 4), "X": 2}
    queries = []
    for _ in range(size):
        op = _pick(rng, QUERY_MIX["subset"])
        dom, cod = rng.choice("AB"), rng.choice("AB")
        f = {"dom": dom, "cod": cod, "table": _table(rng, sets[dom], sets[cod])}
        s_of, t_of = dom, cod
        if op == "classify" and rng.random() < ILL_FORMED_SHARE:
            if rng.random() < 0.5:
                s_of = "B" if dom == "A" else "A"
            else:
                t_of = "B" if cod == "A" else "A"
        q = {"op": op, "f": f}
        if op in ("classify", "three_way", "push"):
            q["s"] = [s_of, _subset(rng, sets[s_of])]
        if op in ("classify", "three_way", "pull"):
            q["t"] = [t_of, _subset(rng, sets[t_of])]
        queries.append(q)
    return {"kind": "subset", "sets": sets, "queries": queries}


def _sep_batch(rng: random.Random, size: int) -> dict:
    n = rng.randint(2, 4)
    table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    queries = []
    for _ in range(size):
        op = _pick(rng, QUERY_MIX["sep"])
        q = {"op": op}
        roles = {"star": "st", "wand_right": "ut", "wand_left": "su", "adjunction": "stu"}[op]
        for role in roles:
            q[role] = _subset(rng, n)
        queries.append(q)
    return {"kind": "sep", "n": n, "table": table, "queries": queries}


def _presheaf_batch(rng: random.Random, size: int) -> dict:
    main, other = rng.sample(sorted(BASES), 2)
    presheaves = [dict(random_presheaf(rng, main), base=main) for _ in range(6)]
    presheaves += [dict(random_presheaf(rng, other), base=other) for _ in range(3)]
    cross = functors(BASES[main], BASES[other])
    back = functors(BASES[other], BASES[main])
    chosen = [{"dom": main, "cod": main, **_identity(main)},
              {"dom": other, "cod": other, **_identity(other)}]
    for fs, dom, cod in ((cross, main, other), (back, other, main)):
        for f in rng.sample(fs, min(2, len(fs))):
            chosen.append({"dom": dom, "cod": cod, **f})
    queries = []
    for _ in range(size):
        fi = rng.randrange(len(chosen))
        f = chosen[fi]
        s_base, t_base = f["dom"], f["cod"]
        if rng.random() < ILL_FORMED_SHARE:
            if rng.random() < 0.5:
                s_base = other if s_base == main else main
            else:
                t_base = other if t_base == main else main
        s = rng.choice([i for i, p in enumerate(presheaves) if p["base"] == s_base])
        t = rng.choice([i for i, p in enumerate(presheaves) if p["base"] == t_base])
        queries.append({"op": "classify", "s": s, "f": fi, "t": t})
    return {"kind": "presheaf", "bases": [main, other], "presheaves": presheaves,
            "functors": chosen, "queries": queries}


def _identity(base: str) -> dict:
    b = BASES[base]
    return {"ob": {o: o for o in b["objects"]}, "ar": {a: a for a in b["arrows"]}}


def _trivial_batch(rng: random.Random, size: int) -> dict:
    sizes = [rng.randint(0, 4) for _ in range(4)]
    queries = []
    for _ in range(size):
        queries.append({"op": _pick(rng, QUERY_MIX["trivial"]),
                        "s": rng.randrange(4), "t": rng.randrange(4)})
    return {"kind": "trivial", "sizes": sizes, "queries": queries}


_BUILDERS = {"subset": _subset_batch, "sep": _sep_batch,
             "presheaf": _presheaf_batch, "trivial": _trivial_batch}


def round_batches(seed: int, round_index: int, n_queries: int) -> list:
    """The batches of one round: at least n_queries queries, fixed by (seed, round)."""
    rng = random.Random(f"judgments/{seed}/{round_index}")
    batches = []
    total = 0
    while total < n_queries:
        kind = _pick(rng, BATCH_KINDS)
        batch = _BUILDERS[kind](rng, rng.randint(*BATCH_SIZE))
        batches.append(batch)
        total += len(batch["queries"])
    return batches


def sample_batches(seed: int) -> dict:
    """One smallest batch of each kind, for the set-up probes."""
    rng = random.Random(f"judgments-setup/{seed}")
    return {kind: _BUILDERS[kind](rng, BATCH_SIZE[0]) for kind, _ in BATCH_KINDS}


def input_key(batch: dict, query: dict) -> str:
    """Canonical text of everything a query's answer depends on."""
    kind = batch["kind"]
    if kind == "subset":
        ctx = batch["sets"]
    elif kind == "sep":
        ctx = batch["table"]
    elif kind == "trivial":
        ctx = [batch["sizes"][query["s"]], batch["sizes"][query["t"]]]
        query = {"op": query["op"]}
    else:
        ctx = [batch["presheaves"][query["s"]], batch["functors"][query["f"]],
               batch["presheaves"][query["t"]]]
        query = {"op": query["op"]}
    return json.dumps([kind, ctx, query], sort_keys=True)
