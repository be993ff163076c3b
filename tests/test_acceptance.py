"""Acceptance gate: ten end-to-end sweeps, one pass/fail line each.

Every check is exact (no tolerances) and carries a wall-clock budget that is
asserted, not just reported.  Run with -s to see the per-criterion lines.
"""
from __future__ import annotations

import itertools
import random
import time

from refsys.fincat import (
    FinCategory,
    FinFunction,
    FinFunctor,
    FinSet,
    all_functions,
    monoid_category,
)
from refsys.kernel import (
    CapabilityError,
    Status,
    axiom,
    classify,
    compose_derivations,
    derivations_equal,
    identity_derivation,
)
from refsys.monadrep import (
    build_continuation_adjunction,
    check_reflected,
    check_retraction,
    check_section,
    check_theorem,
    check_universal,
    count_encodings_elementwise,
    identity_adjunction,
    search_encodings,
)
from refsys.monoidal import (
    check_monoidal_equations,
    check_star_wand,
    check_threeway_adjunction,
    star_etype,
    tensor_iso,
    wand_left_etype,
    wand_right_etype,
)
from refsys.presheaf_model import (
    FinPresheaf,
    build_presheaf_system,
    day_star,
    day_star_coend,
    enumerate_monoid_presheaves,
    same_values,
)
from refsys.structures import (
    check_beta_eta,
    compose_iso,
    composite_witness,
    pullback,
    pushforward,
    three_way,
    uniqueness_iso,
)
from refsys.subset_model import build_classifier_system, build_subset_system, subset
from refsys.trivial_model import POINT, build_trivial_system

Z2_TABLE = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}


def run_criterion(num, label, budget, body):
    t0 = time.monotonic()
    body()
    elapsed = time.monotonic() - t0
    print(f"criterion {num:2d} ({label}): pass in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, (
        f"criterion {num} took {elapsed:.2f}s, over its {budget}s budget")


# --- shared presheaf material ------------------------------------------------------------


def arrow_base() -> FinCategory:
    return FinCategory(
        "C", ("x", "y"),
        {"u": ("x", "y"), "ix": ("x", "x"), "iy": ("y", "y")},
        {("ix", "u"): "u", ("u", "iy"): "u",
         ("ix", "ix"): "ix", ("iy", "iy"): "iy"},
        {"x": "ix", "y": "iy"},
    )


def chain_base() -> FinCategory:
    return FinCategory(
        "D", (0, 1, 2),
        {"u": (0, 1), "v": (1, 2), "w": (0, 2),
         "i0": (0, 0), "i1": (1, 1), "i2": (2, 2)},
        {("u", "v"): "w",
         ("i0", "u"): "u", ("u", "i1"): "u",
         ("i1", "v"): "v", ("v", "i2"): "v",
         ("i0", "w"): "w", ("w", "i2"): "w",
         ("i0", "i0"): "i0", ("i1", "i1"): "i1", ("i2", "i2"): "i2"},
        {0: "i0", 1: "i1", 2: "i2"},
    )


def arrow_presheaves(cat: FinCategory) -> list:
    # every functor on the free arrow with value sets of size <= 2
    out = []
    k = 0
    for nx, ny in itertools.product((1, 2), repeat=2):
        vx = FinSet(f"APx{k}", tuple(f"a{i}" for i in range(nx)))
        vy = FinSet(f"APy{k}", tuple(f"b{i}" for i in range(ny)))
        for g in all_functions(vx, vy):
            out.append(FinPresheaf(
                f"AP{k}", cat, {"x": vx, "y": vy},
                {"u": g, "ix": FinFunction.identity(vx),
                 "iy": FinFunction.identity(vy)}))
            k += 1
    return out


def chain_presheaves(cat: FinCategory) -> list:
    # every functor on the free chain with value sets of size <= 2
    out = []
    k = 0
    for n0, n1, n2 in itertools.product((1, 2), repeat=3):
        v0 = FinSet(f"CP0{k}", tuple(f"a{i}" for i in range(n0)))
        v1 = FinSet(f"CP1{k}", tuple(f"b{i}" for i in range(n1)))
        v2 = FinSet(f"CP2{k}", tuple(f"c{i}" for i in range(n2)))
        for g in all_functions(v0, v1):
            for h in all_functions(v1, v2):
                out.append(FinPresheaf(
                    f"CP{k}", cat, {0: v0, 1: v1, 2: v2},
                    {"u": g, "v": h, "w": g.then(h),
                     "i0": FinFunction.identity(v0),
                     "i1": FinFunction.identity(v1),
                     "i2": FinFunction.identity(v2)}))
                k += 1
    return out


# --- the ten criteria ----------------------------------------------------------------------


def test_criterion_01_judgment_triad(squaring):
    def body():
        sys = squaring.system
        sq = squaring.expr("sq")
        assert classify(sys, squaring.etype("negative"), sq,
                        squaring.etype("positive")) is Status.DERIVABLE
        assert classify(sys, squaring.etype("whole"), sq,
                        squaring.etype("big")) is Status.UNDERIVABLE
        assert classify(sys, squaring.etype("positive"), sq,
                        squaring.etype("positive")) is Status.ILL_FORMED
    run_criterion(1, "judgment triad", 1, body)


def test_criterion_02_beta_eta_sweep():
    def body():
        # every function between carriers of sizes 1..4, every type over each end
        sets = tuple(FinSet(f"A{n}", tuple(range(1, n + 1))) for n in (1, 2, 3, 4))
        sys = build_subset_system(sets, name="sweep")
        checked = 0
        for a, b in itertools.product(sets, repeat=2):
            for f in all_functions(a, b):
                for t in sys.e_types_over(b):
                    rep = check_beta_eta(pullback(sys, f, t), mode="membership")
                    assert rep.ok, rep.failures
                    checked += 1
                for s in sys.e_types_over(a):
                    rep = check_beta_eta(pushforward(sys, s, f), mode="membership")
                    assert rep.ok, rep.failures
                    checked += 1
        assert checked == 13132

        arrow = arrow_base()
        chain = chain_base()
        z2 = monoid_category("Z2", (0, 1), Z2_TABLE, 0)
        pools = {arrow: arrow_presheaves(arrow),
                 chain: chain_presheaves(chain),
                 z2: list(enumerate_monoid_presheaves(z2, 2))}
        psys = build_presheaf_system(
            (arrow, chain, z2),
            tuple(p for pool in pools.values() for p in pool), name="psweep")
        functors = (
            FinFunctor.identity(arrow),
            FinFunctor.identity(chain),
            FinFunctor.identity(z2),
            FinFunctor("collapse", arrow, arrow, {"x": "y", "y": "y"},
                       {"u": "iy", "ix": "iy", "iy": "iy"}),
            FinFunctor("squash", chain, arrow, {0: "x", 1: "y", 2: "y"},
                       {"u": "u", "v": "iy", "w": "u",
                        "i0": "ix", "i1": "iy", "i2": "iy"}),
            FinFunctor("fold", z2, z2, {"*": "*"}, {0: 0, 1: 0}),
        )
        pchecked = 0
        for f in functors:
            for t in pools[f.cod]:
                rep = check_beta_eta(pullback(psys, f, t), mode="literal",
                                     x_types=(arrow,))
                assert rep.ok, rep.failures
                pchecked += 1
            for s in pools[f.dom]:
                rep = check_beta_eta(pushforward(psys, s, f), mode="literal",
                                     x_types=(arrow,))
                assert rep.ok, rep.failures
                pchecked += 1
        assert pchecked == 160
    run_criterion(2, "beta/eta sweep", 60, body)


def test_criterion_03_composition_isos():
    def body():
        sets = (FinSet("A", ("a1", "a2")), FinSet("B", (1, 2, 3)))
        sys = build_subset_system(sets, name="compose")
        exprs = [f for x, y in itertools.product(sets, repeat=2)
                 for f in all_functions(x, y)]
        n = 0
        for f, g in itertools.product(exprs, exprs):
            if sys.expr_cod(f) != sys.expr_dom(g):
                continue
            for t in sys.e_types_over(sys.expr_cod(g)):
                iso = compose_iso(sys, "pull", f, g, t)
                rt = compose_derivations(sys, iso.fwd, iso.bwd)
                assert derivations_equal(
                    sys, rt, identity_derivation(sys, iso.fwd.subject))
                n += 1
            for s in sys.e_types_over(sys.expr_dom(f)):
                iso = compose_iso(sys, "push", f, g, s)
                rt = compose_derivations(sys, iso.fwd, iso.bwd)
                assert derivations_equal(
                    sys, rt, identity_derivation(sys, iso.fwd.subject))
                n += 1
        assert n == 19844
        # uniqueness between the direct witness and an identity-padded composite
        m = 0
        for f in exprs:
            ident = sys.id_expr(sys.expr_dom(f))
            for t in sys.e_types_over(sys.expr_cod(f)):
                w1 = pullback(sys, f, t)
                w2 = composite_witness(sys, "pull", ident, f, t)
                iso = uniqueness_iso(w1, w2)
                rt = compose_derivations(sys, iso.fwd, iso.bwd)
                assert derivations_equal(
                    sys, rt, identity_derivation(sys, w1.etype))
                m += 1
        assert m == 336

        arrow = arrow_base()
        pool = arrow_presheaves(arrow)
        psys = build_presheaf_system((arrow,), tuple(pool), name="pcompose")
        ident = FinFunctor.identity(arrow)
        collapse = FinFunctor("collapse", arrow, arrow, {"x": "y", "y": "y"},
                              {"u": "iy", "ix": "iy", "iy": "iy"})
        k = 0
        for f, g in itertools.product((ident, collapse), repeat=2):
            for t in pool:
                compose_iso(psys, "pull", f, g, t)
                k += 1
            for s in pool:
                compose_iso(psys, "push", f, g, s)
                k += 1
        assert k == 64
    run_criterion(3, "composition isos", 30, body)


def test_criterion_04_three_way_agreement():
    def body():
        sets = tuple(FinSet(f"A{n}", tuple(range(n))) for n in (2, 3, 4))
        sys = build_subset_system(sets, name="threeway")
        n = 0
        for a, b in itertools.product(sets, repeat=2):
            for f in all_functions(a, b):
                for s in sys.e_types_over(a):
                    for t in sys.e_types_over(b):
                        assert three_way(sys, s, f, t).agree
                        n += 1
        assert n == 88480
    run_criterion(4, "three-way agreement", 30, body)


def test_criterion_05_monoidal_equations_and_preservation():
    def body():
        sets = (FinSet("A", ("a1", "a2")), FinSet("B", (1, 2, 3)))
        sys = build_subset_system(sets, name="monoidal")
        ets = list(sys.e_types())
        ders = [identity_derivation(sys, s) for s in ets[:6]]
        for s, t in itertools.product(ets, ets):
            if len(ders) >= 12:
                break
            if s.name != t.name and sys.refines(s) == sys.refines(t):
                ident = sys.id_expr(sys.refines(s))
                if classify(sys, s, ident, t) is Status.DERIVABLE:
                    ders.append(axiom(sys, s, ident, t))
        rep = check_monoidal_equations(sys, ders, cap=500)
        assert rep.ok, rep.failures
        assert rep.checked > 1500
        exprs = [f for x, y in itertools.product(sets, repeat=2)
                 for f in all_functions(x, y)]
        n = 0
        for f1, f2 in itertools.product(exprs, exprs):
            tensor_iso(sys, "pull", f1, subset(f1.cod, f1.cod.elements[:1]),
                       f2, subset(f2.cod, f2.cod.elements[:1]))
            tensor_iso(sys, "push", f1, subset(f1.dom, f1.dom.elements[:1]),
                       f2, subset(f2.dom, f2.dom.elements[:1]))
            n += 2
        assert n == 4608
    run_criterion(5, "monoidal equations", 30, body)


def test_criterion_06_separation_logic(z4):
    def body():
        sys = z4.system
        mult = z4.monoid_mult
        car = z4.monoid_carrier
        tbl = mult.mapping
        subs = list(sys.e_types_over(car))
        assert len(subs) == 16
        # internal star/wand extensionally match the elementwise set formulas
        for s, t in itertools.product(subs, subs):
            assert star_etype(sys, mult, s, t).elements == frozenset(
                tbl[(x, y)] for x in s.elements for y in t.elements)
            assert wand_right_etype(sys, mult, s, t).elements == frozenset(
                x for x in car.elements
                if all(tbl[(x, y)] in s.elements for y in t.elements))
            assert wand_left_etype(sys, mult, s, t).elements == frozenset(
                y for y in car.elements
                if all(tbl[(x, y)] in t.elements for x in s.elements))
        assert star_etype(sys, mult, z4.etype("one"), z4.etype("two")
                          ).elements == frozenset({3})
        assert wand_right_etype(sys, mult, z4.etype("three"), z4.etype("two")
                                ).elements == frozenset({1})
        assert wand_left_etype(sys, mult, z4.etype("one"), z4.etype("three")
                               ).elements == frozenset({2})
        for s, t, u in itertools.product(subs, subs, subs):
            rep = check_star_wand(sys, mult, s, t, u)
            assert rep.ok, rep.failures
            rep = check_threeway_adjunction(sys, mult, s, t, u)
            assert rep.ok, rep.failures
        # the adjunction needs no associativity: arbitrary seeded tables
        rng = random.Random(7)
        car3 = FinSet("K", (0, 1, 2))
        ksys = build_subset_system((car3,), name="tables")
        h2 = ksys.tensor_itype(car3, car3)
        tables = 0
        while tables < 3:
            raw = {(x, y): rng.choice(car3.elements)
                   for x in car3.elements for y in car3.elements}
            if all(raw[(raw[(x, y)], z)] == raw[(x, raw[(y, z)])]
                   for x, y, z in itertools.product(car3.elements, repeat=3)):
                continue
            tables += 1
            op = FinFunction(f"op{tables}", h2, car3, raw)
            ksubs = list(ksys.e_types_over(car3))
            for s, t, u in itertools.product(ksubs, ksubs, ksubs):
                rep = check_star_wand(ksys, op, s, t, u)
                assert rep.ok, rep.failures
                rep = check_threeway_adjunction(ksys, op, s, t, u)
                assert rep.ok, rep.failures
    run_criterion(6, "separation logic", 30, body)


def test_criterion_07_day_convolution(day_z2, day_z3):
    def body():
        expected = {
            "day_z2": (3, [[1, 2, 1], [2, 4, 2], [1, 2, 2]]),
            "day_z3": (2, [[1, 2], [2, 4]]),
        }
        for sig in (day_z2, day_z3):
            m = next(iter(sig.categories.values()))
            obj = m.objects[0]
            pool = enumerate_monoid_presheaves(m, 2)
            count, matrix = expected[sig.name]
            assert len(pool) == count
            sizes = []
            for s in pool:
                row = []
                for t in pool:
                    via_kan = day_star(sig.system, m, s, t)
                    via_coend = day_star_coend(sig.system, m, s, t)
                    assert same_values(via_kan, via_coend)
                    row.append(len(via_kan.ob[obj].elements))
                sizes.append(row)
            assert sizes == matrix
    run_criterion(7, "Day convolution", 60, body)


def test_criterion_08_retraction_and_counterexample():
    def body():
        # sweep every encoding the bounded search can find at the default bound
        passes = 0
        found_total = 0
        searches = 0
        absent = 0
        skipped_groups = 0
        skipped_instances = 0
        for nb, nc in itertools.product((1, 2, 3), repeat=2):
            bset = FinSet("B", tuple(f"b{i}" for i in range(nb)))
            cset = FinSet("C", tuple(range(nc)))
            sys = build_subset_system((bset, cset), name=f"cont{nb}{nc}")
            for r in range(nc + 1):
                for u_elems in itertools.combinations(cset.elements, r):
                    u = subset(cset, u_elems)
                    try:
                        adj = build_continuation_adjunction(sys, u)
                    except CapabilityError:
                        absent += 1
                        continue
                    for t in sys.e_types_over(bset):
                        try:
                            found = search_encodings(adj, t, u)
                            searches += 1
                        except CapabilityError:
                            absent += 1
                            continue
                        found_total += len(found)
                        if not found:
                            continue
                        # the double negation carriers depend on (t, u) only,
                        # so one capability failure certifies the whole group
                        try:
                            assert check_retraction(adj, t, u, found[0]).ok
                            passes += 1
                        except CapabilityError:
                            skipped_groups += 1
                            skipped_instances += len(found)
                            continue
                        for f in found[1:]:
                            assert check_retraction(adj, t, u, f).ok
                            passes += 1
        assert (passes, found_total, searches) == (25, 857, 36)
        assert (skipped_groups, skipped_instances, absent) == (7, 832, 160)

        # one skipped instance rechecked with the carrier bound raised
        bset = FinSet("B", ("b",))
        cset = FinSet("C", (1, 2))
        deep = build_subset_system((bset, cset), name="deep",
                                   max_carrier=1_300_000)
        t = subset(bset, ("b",))
        u = subset(cset, (1,))
        adj = build_continuation_adjunction(deep, u)
        found = search_encodings(adj, t, u)
        count, example = count_encodings_elementwise(adj, t, u)
        assert len(found) == count == 16
        assert example in found
        assert check_retraction(adj, t, u, found[0]).ok

        # the two-point instance over the one-point base refutes the section
        triv = build_trivial_system((FinSet("two", (1, 2)),))
        two = triv.e_types()[0]
        ident = identity_adjunction(triv)
        f = triv.id_expr(POINT)
        assert check_retraction(ident, two, two, f).ok
        assert check_section(ident, two, two, f) is False
    run_criterion(8, "retraction and counterexample", 60, body)


def test_criterion_09_representation_theorem():
    def body():
        sys, truth, encodings = build_classifier_system(sizes=(1, 2, 3))
        assert len(sys.e_types()) == 18
        rep = check_universal(sys, truth, encodings)
        assert rep.ok, rep.failures
        assert rep.checked == 60
        adj = identity_adjunction(sys)
        ref = check_reflected(adj, truth, encodings)
        assert ref.ok, ref.failures
        assert ref.checked == 78
        assert not ref.skipped
        strict = [v for _, v in ref.double_negation_strict]
        assert (sum(strict), len(strict)) == (4, 18)
        for t in sys.e_types():
            iso = check_theorem(adj, truth, encodings, t)
            fwd_bwd = compose_derivations(sys, iso.fwd, iso.bwd)
            assert derivations_equal(
                sys, fwd_bwd, identity_derivation(sys, iso.fwd.subject))
            bwd_fwd = compose_derivations(sys, iso.bwd, iso.fwd)
            assert derivations_equal(
                sys, bwd_fwd, identity_derivation(sys, iso.bwd.subject))
    run_criterion(9, "representation theorem", 60, body)


def test_criterion_10_hoare_galois(hoare4):
    def body():
        machine = hoare4.machine
        sys = hoare4.system
        states = machine.states
        preds = list(sys.e_types_over(states))
        assert len(preds) == 16
        names = sorted(machine.commands)
        n = 0
        for seq in itertools.product(names, repeat=2):
            for p in preds:
                for q in preds:
                    holds = machine.check_triple(p, seq, q)
                    wp = machine.wp_fold(seq, q)
                    sp = machine.sp_fold(p, seq)
                    assert (p.elements <= wp.elements) == holds
                    assert (sp.elements <= q.elements) == holds
                    n += 1
        assert n == 2304
        assert machine.check_triple(hoare4.etype("low"), ("inc", "inc"),
                                    hoare4.etype("high"))
        assert not machine.check_triple(hoare4.etype("low"), ("inc",),
                                        hoare4.etype("high"))
        assert machine.check_triple(hoare4.etype("init"), ("swap",),
                                    hoare4.etype("low"))
        assert machine.check_triple(hoare4.etype("all"), ("reset",),
                                    hoare4.etype("init"))
    run_criterion(10, "Hoare Galois connection", 10, body)
