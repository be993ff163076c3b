"""Span tracer for refsys, installed from outside the package.

`install()` patches every public function and method of the refsys modules
(plus each class's ``__init__`` and ``__eq__``) with a wrapper that records a
span: name, start, end and parent span.  Methods are patched on their class;
functions are patched in their home module and in every refsys module that
bound them with ``from .x import f``.  The law-suite functions of the CLI are
private, so they are patched where ``cmd_laws`` looks them up.  A generator
returned by a traced call is wrapped too: each resume is a span of the same
name with ``/next`` appended, and each value it yields is counted.

Spans are appended to flat arrays in memory and written out by `dump()` when
the traced process ends; one file holds the spans of one process (one run
id).  `summarize()` turns the files of a run into per-name call counts and
self time (duration minus the time covered by direct child spans), which
`per_layer()` maps onto the benchmark's layer metrics.

Nothing here changes what the traced code computes: wrappers pass arguments
and results through unchanged and re-raise every exception.
"""
from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time
import types

MODULES = ("fincat", "subset_model", "trivial_model", "presheaf_model", "kernel",
           "structures", "monoidal", "monadrep", "signature", "cli")
MODELS = ("subset_model", "trivial_model", "presheaf_model")
DUNDERS = ("__init__", "__eq__")
# Table lookups and the set equality they call: each costs less than a span
# would, and the span's cost would land in the caller's self time, so these
# stay untraced and their time counts as the caller's.
LOOKUPS = frozenset({
    "fincat.FinSet.index", "fincat.FinSet.__eq__",
    "fincat.FinCategory.src", "fincat.FinCategory.dst",
    "fincat.FinCategory.compose", "fincat.FinCategory.identity",
    "fincat.FinFunctor.ob", "fincat.FinFunctor.ar",
    "presheaf_model.FinPresheaf.value", "presheaf_model.FinPresheaf.action",
})
SUITES = ("kernel", "structures", "monoidal", "sep", "monadrep")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = [-1]
        self.counters: dict = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def note_max(self, name: str, value: int) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def _refusal(self, exc: BaseException, module: str) -> None:
        # the innermost traced call an exception leaves is the one that raised it
        if not getattr(exc, "_perfbench_counted", False):
            exc._perfbench_counted = True
            self.count(f"{module}.refusals")

    def wrap(self, fn, span: str, module: str, post=None):
        """A wrapper recording one span per call of fn; post(args) runs after success."""
        nid = self._id(span)
        next_id = self._id(span + "/next")
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter_ns
        capability = self._capability
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except capability as exc:
                tracer._refusal(exc, module)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args)
            if type(result) is types.GeneratorType:
                return tracer._resumes(result, next_id, span, module)
            return result

        return wrapper

    def _resumes(self, gen, nid: int, span: str, module: str):
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter_ns
        yielded = span + ".yielded"
        while True:
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                item = next(gen)
            except StopIteration:
                return
            except self._capability as exc:
                self._refusal(exc, module)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            self.count(yielded)
            yield item

    def install(self) -> None:
        """Patch the refsys modules in this process; call once, before the workload."""
        from refsys.kernel import CapabilityError

        self._capability = CapabilityError
        posts = {
            "fincat.FinSet.__init__":
                lambda args: self.note_max("fincat.max_finset", len(args[0].elements)),
            "fincat.FinFunction.__init__":
                lambda args: self.count("fincat.finfunction_entries", len(args[0].mapping)),
        }
        replaced: dict = {}
        for modname in MODULES:
            mod = importlib.import_module(f"refsys.{modname}")
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType):
                    span = f"{modname}.{name}"
                    wrapper = self.wrap(obj, span, modname, posts.get(span))
                    replaced[id(obj)] = (obj, wrapper)
                    setattr(mod, name, wrapper)
                elif isinstance(obj, type):
                    self._patch_class(obj, modname, posts)
        cli = importlib.import_module("refsys.cli")
        for suite in SUITES:
            fn = cli._SUITE_FNS[suite]
            cli._SUITE_FNS[suite] = self.wrap(fn, f"cli.suite.{suite}", "cli")
        for modname, mod in list(sys.modules.items()):
            if not (modname == "refsys" or modname.startswith("refsys.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _patch_class(self, cls: type, modname: str, posts: dict) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            span = f"{modname}.{cls.__name__}.{attr}"
            if span in LOOKUPS:
                continue
            if isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(
                    self.wrap(val.__func__, span, modname, posts.get(span))))
            elif isinstance(val, types.FunctionType):
                setattr(cls, attr, self.wrap(val, span, modname, posts.get(span)))

    def dump(self, path: str, run_id: str) -> None:
        """Write the spans and counters of this process, one run id, to path."""
        header = json.dumps({"run": run_id, "names": self.names, "counters": self.counters,
                             "spans": len(self.name)}).encode()
        with open(path, "wb") as fh:
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path: str):
    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(size))
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "q", "q"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def summarize(paths) -> dict:
    """Per span name: calls and self seconds; plus the counters of all files."""
    calls: dict = {}
    self_ns: dict = {}
    counters: dict = {}
    spans = 0
    for path in paths:
        header, (name, parent, start, end) = load(path)
        names = header["names"]
        for key, value in header["counters"].items():
            if key == "fincat.max_finset":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        n = len(name)
        spans += n
        dur = array.array("q", (e - s for s, e in zip(start, end)))
        child = array.array("q", [0]) * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        for i in range(n):
            key = names[name[i]]
            calls[key] = calls.get(key, 0) + 1
            self_ns[key] = self_ns.get(key, 0) + dur[i] - child[i]
    return {
        "calls": calls,
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "counters": counters,
        "spans": spans,
    }


def _match(span: str, module: str, methods) -> bool:
    if not span.startswith(module + "."):
        return False
    last = span.rsplit(".", 1)[-1]
    return last in methods or last.split("/")[0] in methods


def per_layer(summary: dict) -> dict:
    """The benchmark's per-layer metrics (name -> (value, unit)) from a summary."""
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]

    def n(span: str) -> int:
        return calls.get(span, 0)

    def s(*spans: str) -> float:
        return sum(self_s.get(x, 0.0) + self_s.get(x + "/next", 0.0) for x in spans)

    def s_where(module: str, methods) -> float:
        return sum(v for k, v in self_s.items() if _match(k, module, methods))

    def n_where(module: str, methods) -> int:
        return sum(v for k, v in calls.items()
                   if _match(k, module, methods) and not k.endswith("/next"))

    out = {
        "fincat.finfunction_new": (n("fincat.FinFunction.__init__"), "count"),
        "fincat.finfunction_entries": (counters.get("fincat.finfunction_entries", 0), "count"),
        "fincat.finfunction_init_s": (s("fincat.FinFunction.__init__"), "s"),
        "fincat.then_s": (s("fincat.FinFunction.then"), "s"),
        "fincat.finfunction_eq_s": (s("fincat.FinFunction.__eq__"), "s"),
        "fincat.finset_new": (n("fincat.FinSet.__init__"), "count"),
        "fincat.max_finset": (counters.get("fincat.max_finset", 0), "count"),
        "fincat.category_new": (n("fincat.FinCategory.__init__"), "count"),
        "fincat.category_init_s": (s("fincat.FinCategory.__init__"), "s"),
        "presheaf_model.presheaf_new": (n("presheaf_model.FinPresheaf.__init__"), "count"),
        "presheaf_model.presheaf_init_s": (s("presheaf_model.FinPresheaf.__init__"), "s"),
        "presheaf_model.tensor_etype_calls":
            (n("presheaf_model.PresheafSystem.tensor_etype"), "count"),
        "presheaf_model.day_star_s": (s("presheaf_model.day_star"), "s"),
        "presheaf_model.day_star_coend_s": (s("presheaf_model.day_star_coend"), "s"),
        "presheaf_model.functor_category_s":
            (s("presheaf_model.PresheafSystem.functor_category"), "s"),
    }
    tensor = ("tensor_itype", "tensor_expr", "tensor_etype", "tensor_interp")
    residual = tuple(
        f"residual_{side}_{what}" for side in ("left", "right")
        for what in ("itype", "etype", "ev_interp", "curry_interp"))
    for m in MODELS:
        out[f"{m}.morphisms_over_calls"] = (n_where(m, ("morphisms_over",)), "count")
        out[f"{m}.morphisms_yielded"] = (sum(
            v for k, v in counters.items()
            if k.startswith(m + ".") and k.endswith(".morphisms_over.yielded")), "count")
        out[f"{m}.morphisms_over_s"] = (s_where(m, ("morphisms_over",)), "s")
        out[f"{m}.pullback_data_s"] = (s_where(m, ("pullback_data",)), "s")
        out[f"{m}.pushforward_data_s"] = (s_where(m, ("pushforward_data",)), "s")
        out[f"{m}.tensor_s"] = (s_where(m, tensor), "s")
        out[f"{m}.coherence_cell_calls"] = (n_where(m, ("coherence_cell",)), "count")
        out[f"{m}.coherence_cell_s"] = (s_where(m, ("coherence_cell",)), "s")
        out[f"{m}.residual_calls"] = (n_where(m, residual), "count")
        out[f"{m}.residual_s"] = (s_where(m, residual), "s")
        out[f"{m}.function_space_s"] = (
            s_where(m, ("function_space", "functor_category")), "s")
        out[f"{m}.refusals"] = (counters.get(f"{m}.refusals", 0), "count")
    out.update({
        "kernel.classify_calls": (n("kernel.classify"), "count"),
        "kernel.classify_s": (s("kernel.classify"), "s"),
        "kernel.compose_derivations_s": (s("kernel.compose_derivations"), "s"),
        "kernel.derivations_equal_s": (s("kernel.derivations_equal"), "s"),
        "structures.check_beta_eta_s": (s("structures.check_beta_eta"), "s"),
        "structures.three_way_s": (s("structures.three_way"), "s"),
        "structures.compose_iso_s":
            (s("structures.pull_compose_iso", "structures.push_compose_iso"), "s"),
        "monoidal.check_monoidal_equations_s": (s("monoidal.check_monoidal_equations"), "s"),
        "monoidal.tensor_derivations_s": (s("monoidal.tensor_derivations"), "s"),
        "monoidal.sep_checks_s": (s(
            "monoidal.star_etype", "monoidal.wand_right_etype", "monoidal.wand_left_etype",
            "monoidal.check_star_wand", "monoidal.check_threeway_adjunction"), "s"),
        "monadrep.search_encodings_s": (s("monadrep.search_encodings"), "s"),
        "monadrep.check_retraction_s": (s("monadrep.check_retraction"), "s"),
        "monadrep.check_monad_laws_s": (s("monadrep.check_monad_laws"), "s"),
        "signature.load_s": (s("signature.load_signature"), "s"),
    })
    for suite in SUITES:
        out[f"cli.suite.{suite}_s"] = (s(f"cli.suite.{suite}"), "s")
    for module in MODULES:
        out[f"{module}.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith(module + ".")), "s")
    out["trace.spans"] = (summary["spans"], "count")
    return out
