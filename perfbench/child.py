"""One checking process of the benchmark: `python child.py SPEC.json`.

The spec names a mode and a result file.  Modes:

  setup        import refsys and build the workload's inputs, then exit; the
               parent times the whole process as one set-up probe
  laws         run each `refsys laws ...` argv through `refsys.cli.main`,
               capturing the report it prints exactly as the command line does
  retraction   the acceptance-criterion-8 sweep, the deep instance's search
               and elementwise count at the raised carrier bound, and the
               two-point counterexample
  judgments    answer a list of generated query batches (see queries.py)

Every check is timed on its own, in wall and CPU seconds, and calibration
units (calibrate.py) run between checks; their times go to the parent too.
Item time excludes the interpreter start, `import refsys` and loading a
signature.
With "trace" set the tracer is installed before the first check and its spans
are written to that path when the process ends.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys
import time

from calibrate import Calibrator

clock = time.perf_counter
cpu_clock = time.process_time


class Timed:
    """Collects [key, kind, verdict, wall seconds, CPU seconds] per timed item,
    running calibration units between items."""

    def __init__(self):
        self.items: list = []
        self.calibrator = Calibrator()

    @contextlib.contextmanager
    def item(self, key: str, kind: str):
        record = [key, kind, None, 0.0, 0.0]
        cpu0 = cpu_clock()
        t0 = clock()
        try:
            yield record
        finally:
            record[3] = clock() - t0
            record[4] = cpu_clock() - cpu0
            self.items.append(record)
            self.calibrator.keep_up()


def laws_mode(spec: dict, tracer) -> dict:
    """Run each `refsys laws ...` argv through `refsys.cli.main`, capturing the
    report it prints; each item is timed from its loaded signature to its exit."""
    import refsys.cli as cli

    if tracer is not None:
        tracer.install()
    marks = {}
    load = cli.load_signature

    def timed_load(path):
        sig = load(path)
        marks["cpu"] = cpu_clock()
        marks["check"] = clock()
        return sig

    cli.load_signature = timed_load
    items = []
    calibrator = Calibrator()
    for argv in spec["items"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
            end = clock()
            cpu_end = cpu_clock()
        items.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                      "wall": end - marks["check"], "cpu": cpu_end - marks["cpu"]})
        calibrator.keep_up()
    return {"items": items, "calibration": calibrator.samples}


def _sweep_groups():
    """The criterion-8 sweep's (B, C, U) groups, each with a system of its own,
    so that no group's cost depends on which groups filled a cache before it."""
    from refsys.fincat import FinSet
    from refsys.subset_model import build_subset_system

    for nb, nc in itertools.product((1, 2, 3), repeat=2):
        bset = FinSet("B", tuple(f"b{i}" for i in range(nb)))
        cset = FinSet("C", tuple(range(nc)))
        for r in range(nc + 1):
            for u_elems in itertools.combinations(cset.elements, r):
                yield bset, cset, u_elems, lambda sets=(bset, cset), name=f"cont{nb}{nc}": (
                    build_subset_system(sets, name=name))


def _deep_instance():
    from refsys.fincat import FinSet
    from refsys.subset_model import build_subset_system, subset

    bset = FinSet("B", ("b",))
    cset = FinSet("C", (1, 2))
    deep = build_subset_system((bset, cset), name="deep", max_carrier=1_300_000)
    return deep, subset(bset, ("b",)), subset(cset, (1,))


def _sweep(timed: Timed, order: str) -> list:
    """The criterion-8 sweep, its (system, U) groups shuffled by `order`; returns
    [passes, found, searches, groups refused, instances in them, absent].  Each
    adjunction build, search and retraction check is one timed item."""
    from refsys.kernel import CapabilityError
    from refsys.monadrep import build_continuation_adjunction, check_retraction, search_encodings
    from refsys.subset_model import subset

    groups = list(_sweep_groups())
    random.Random(order).shuffle(groups)
    passes = found_total = searches = absent = skipped_groups = skipped_instances = 0
    for bset, cset, u_elems, build in groups:
        group = f"B{len(bset)}C{len(cset)}/U={list(u_elems)}"
        u = subset(cset, u_elems)
        try:
            with timed.item(group, "adjunction") as rec:
                sys_ = build()
                adj = build_continuation_adjunction(sys_, u)
                rec[2] = "built"
        except CapabilityError:
            rec[2] = "refused"
            absent += 1
            continue
        for ti, t in enumerate(sys_.e_types_over(bset)):
            try:
                with timed.item(f"{group}/t{ti}", "search") as rec:
                    found = search_encodings(adj, t, u)
                    rec[2] = len(found)
            except CapabilityError:
                rec[2] = "refused"
                absent += 1
                continue
            searches += 1
            found_total += len(found)
            for fi, f in enumerate(found):
                try:
                    with timed.item(f"{group}/t{ti}/f{fi}", "retraction") as rec:
                        ok = check_retraction(adj, t, u, f).ok
                        rec[2] = ok
                except CapabilityError:
                    # the carriers depend on (t, u) only: one refusal covers the group
                    rec[2] = "refused"
                    skipped_groups += 1
                    skipped_instances += len(found)
                    break
                passes += ok
    return [passes, found_total, searches, skipped_groups, skipped_instances, absent]


def retraction_mode(spec: dict, tracer) -> dict:
    """The criterion-8 sweep, then the deep instance's search and elementwise
    count at the raised carrier bound, then the two-point counterexample.

    The deep instance's retraction check is left out: it is one 33-s call at
    1.3M carrier elements, too long to repeat within a run."""
    if tracer is not None:  # before the imports below bind refsys's functions
        tracer.install()
    from refsys.fincat import FinSet
    from refsys.monadrep import (
        build_continuation_adjunction,
        check_retraction,
        check_section,
        count_encodings_elementwise,
        identity_adjunction,
        search_encodings,
    )
    from refsys.trivial_model import POINT, build_trivial_system

    timed = Timed()
    sweep = _sweep(timed, spec["order"])
    with timed.item("deep", "deep-search") as rec:
        deep, t, u = _deep_instance()
        adj = build_continuation_adjunction(deep, u)
        found = search_encodings(adj, t, u)
        rec[2] = len(found)
    with timed.item("deep", "deep-count") as rec:
        count, example = count_encodings_elementwise(adj, t, u)
        rec[2] = [count, example in found]
    triv = build_trivial_system((FinSet("two", (1, 2)),))
    two = triv.e_types()[0]
    ident = identity_adjunction(triv)
    f = triv.id_expr(POINT)
    with timed.item("two-point", "two-point-retraction") as rec:
        rec[2] = check_retraction(ident, two, two, f).ok
    with timed.item("two-point", "two-point-section") as rec:
        rec[2] = check_section(ident, two, two, f)
    return {"sweep": sweep, "items": timed.items, "calibration": timed.calibrator.samples}


BASE_NAMES = {"arrow": "Arrow", "chain": "Chain", "z2": "Z2"}


def _indices(et) -> list:
    return sorted(et.of.index(x) for x in et.elements)


def _subset_batch(batch: dict, index: int):
    from refsys.fincat import FinFunction, FinSet
    from refsys.kernel import classify
    from refsys.structures import check_beta_eta, pullback, pushforward, three_way
    from refsys.subset_model import build_subset_system, subset

    sets = {name: FinSet(name, tuple(f"{name.lower()}{i}" for i in range(n)))
            for name, n in batch["sets"].items()}
    sys_ = build_subset_system(tuple(sets.values()), name=f"batch{index}")
    probe = (sets["X"],)

    def fn(spec):
        dom, cod = sets[spec["dom"]], sets[spec["cod"]]
        return FinFunction("f", dom, cod, {dom.elements[i]: cod.elements[j]
                                           for i, j in enumerate(spec["table"])})

    def sub(spec):
        of = sets[spec[0]]
        return subset(of, [of.elements[i] for i in spec[1]])

    def run(q):
        op = q["op"]
        f = fn(q["f"])
        if op == "classify":
            return classify(sys_, sub(q["s"]), f, sub(q["t"])).value
        if op == "three_way":
            tw = three_way(sys_, sub(q["s"]), f, sub(q["t"]))
            return [tw.via_push, tw.direct, tw.via_pull]
        w = pullback(sys_, f, sub(q["t"])) if op == "pull" else pushforward(sys_, sub(q["s"]), f)
        rep = check_beta_eta(w, mode="literal", x_types=probe)
        return {"etype": _indices(w.etype), "ok": rep.ok, "checked": rep.checked}

    return run


def _sep_batch(batch: dict, index: int):
    from refsys.fincat import FinFunction, FinSet
    from refsys.monoidal import (
        check_threeway_adjunction,
        star_etype,
        wand_left_etype,
        wand_right_etype,
    )
    from refsys.subset_model import build_subset_system, subset

    m = FinSet("M", tuple(f"m{i}" for i in range(batch["n"])))
    sys_ = build_subset_system((m,), name=f"batch{index}")
    el = m.elements
    mult = FinFunction("mult", sys_.tensor_itype(m, m), m, {
        (el[i], el[j]): el[k] for i, row in enumerate(batch["table"]) for j, k in enumerate(row)})

    def sub(spec):
        return subset(m, [el[i] for i in spec])

    def run(q):
        op = q["op"]
        if op == "star":
            return _indices(star_etype(sys_, mult, sub(q["s"]), sub(q["t"])))
        if op == "wand_right":
            return _indices(wand_right_etype(sys_, mult, sub(q["u"]), sub(q["t"])))
        if op == "wand_left":
            return _indices(wand_left_etype(sys_, mult, sub(q["s"]), sub(q["u"])))
        rep = check_threeway_adjunction(sys_, mult, sub(q["s"]), sub(q["t"]), sub(q["u"]))
        return {"ok": rep.ok, "checked": rep.checked}

    return run


def _presheaf_batch(batch: dict, index: int):
    from queries import BASES
    from refsys.fincat import FinCategory, FinFunction, FinFunctor, FinSet
    from refsys.kernel import classify
    from refsys.presheaf_model import FinPresheaf, build_presheaf_system

    cats = {}
    for b in batch["bases"]:
        d = BASES[b]
        cats[b] = FinCategory(
            BASE_NAMES[b], tuple(d["objects"]),
            {a: tuple(ends) for a, ends in d["arrows"].items()},
            {(x, y): z for x, y, z in d["composition"]}, d["identities"])
    presheaves = []
    for i, p in enumerate(batch["presheaves"]):
        cat = cats[p["base"]]
        ob = {o: FinSet(f"P{i}({o})", tuple(range(n))) for o, n in p["ob"].items()}
        ar = {a: FinFunction(f"P{i}.{a}", ob[cat.src(a)], ob[cat.dst(a)], dict(enumerate(tbl)))
              for a, tbl in p["ar"].items()}
        presheaves.append(FinPresheaf(f"P{i}", cat, ob, ar))
    functors = [FinFunctor(f"F{i}", cats[f["dom"]], cats[f["cod"]], f["ob"], f["ar"])
                for i, f in enumerate(batch["functors"])]
    sys_ = build_presheaf_system(tuple(cats.values()), tuple(presheaves), name=f"batch{index}")

    def run(q):
        return classify(sys_, presheaves[q["s"]], functors[q["f"]], presheaves[q["t"]]).value

    return run


def _trivial_batch(batch: dict, index: int):
    from refsys.fincat import FinSet
    from refsys.kernel import classify, derivations_over
    from refsys.trivial_model import POINT, build_trivial_system

    sets = [FinSet(f"T{i}", tuple(range(n))) for i, n in enumerate(batch["sizes"])]
    sys_ = build_trivial_system(tuple(sets), name=f"batch{index}")
    ident = sys_.id_expr(POINT)

    def run(q):
        s, t = sets[q["s"]], sets[q["t"]]
        if q["op"] == "count":
            return sum(1 for _ in derivations_over(sys_, s, ident, t))
        return classify(sys_, s, ident, t).value

    return run


BATCHES = {"subset": _subset_batch, "sep": _sep_batch,
           "presheaf": _presheaf_batch, "trivial": _trivial_batch}


def judgments_mode(spec: dict, tracer) -> dict:
    import refsys  # noqa: F401  (import cost stays out of check time)

    if tracer is not None:
        tracer.install()
    answers = []
    times = []  # [wall, cpu] of each query
    builds = []  # [wall, cpu] of each batch's system build
    calibrator = Calibrator()
    for index, batch in enumerate(spec["batches"]):
        cpu0 = cpu_clock()
        t0 = clock()
        run = BATCHES[batch["kind"]](batch, index)
        builds.append([clock() - t0, cpu_clock() - cpu0])
        for q in batch["queries"]:
            cpu0 = cpu_clock()
            t0 = clock()
            answers.append(run(q))
            times.append([clock() - t0, cpu_clock() - cpu0])
            calibrator.keep_up()
    return {"answers": answers, "times": times, "builds": builds,
            "calibration": calibrator.samples}


def setup_mode(spec: dict, tracer) -> dict:
    import refsys  # noqa: F401

    target = spec["target"]
    if target == "signatures":
        from refsys.signature import load_signature

        for path in spec["paths"]:
            load_signature(path)
    elif target == "retraction":
        from refsys.kernel import CapabilityError
        from refsys.monadrep import build_continuation_adjunction
        from refsys.subset_model import subset

        for _, cset, u_elems, build in _sweep_groups():
            try:
                build_continuation_adjunction(build(), subset(cset, u_elems))
            except CapabilityError:
                pass
        deep, _, u = _deep_instance()
        build_continuation_adjunction(deep, u)
    else:
        for kind, build in BATCHES.items():
            build(spec["batches"][kind], 0)
    return {}


MODES = {"laws": laws_mode, "retraction": retraction_mode,
         "judgments": judgments_mode, "setup": setup_mode}


def peak_rss_kb() -> int:
    """This process's own peak resident set.  The ru_maxrss that wait4 reports
    for a child also counts the parent's resident set at fork and exec, which
    grows with the parent's bookkeeping; VmHWM is the new image's alone."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
    result = MODES[spec["mode"]](spec, tracer)
    result["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        tracer.dump(spec["trace"], os.path.basename(spec["trace"]))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
