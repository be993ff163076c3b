"""End-to-end and per-layer benchmark for refsys.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; refsys is imported from ./src through
PYTHONPATH, as the tier-1 test command does.  Every check runs in a fresh
child process (child.py), one at a time, so each has the machine to itself.

Workloads (closed loop, one client, one checking process at a time):

  laws              `refsys laws SIG SUITE --json` on the bundled signatures of
                    all three models; the seed orders the items in each round
  retraction        the acceptance-criterion-8 sweep, the deep instance's
                    search and count at the 1.3M-element carrier bound, and the
                    two-point counterexample; the seed orders the sweep
  judgments-random  a seeded stream of small, mostly distinct queries on fresh
                    systems (queries.py), answered independently by oracle.py

A run first times set-up probes (a fresh interpreter that imports refsys and
builds the workload's inputs, then exits), discarding a warm-up probe so
bytecode compilation after a checkout is not measured; setup_s is their
median.  It then repeats a round of the workload, each in a fresh checking
process, until another round would end more than half a round past
--seconds; at least one round runs.  Every round checks the same items and
times each on its own.  Every timing is divided by the run's speed factor
(calibrate.py), so every time the benchmark reports is seconds at the
reference host speed.  An item's cost is its mean over the rounds without
its slowest and fastest round: check_s and cpu_s are the sums of those,
instances_per_s divides a round's instances by check_s, and the verdict
latencies are percentiles over the verdict items.  A verdict is one
signature's law suites (laws), one (B, C, U) group of the sweep or one check
of the deep or two-point instance (retraction), or one query
(judgments-random).  Every output is compared with a known answer that never
comes from refsys itself: the golden reports under golden/, criterion 8's
literals, or the oracle.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced round
and then the same round under the span tracer (tracer.py) and prints the
per-layer metrics, with the tracing overhead as traced minus untraced check
time.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import queries  # noqa: E402
import tracer  # noqa: E402
from calibrate import REFERENCE_S, Calibrator  # noqa: E402

SETUP_PROBES = 7
JUDGMENT_QUERIES_PER_ROUND = 16000
DEADLINE_S = 170.0
TAIL_MIN_BEYOND = 10
UNITS = {"setup_s": "s", "check_s": "s", "cpu_s": "s", "instances_per_s": "1/s",
         "verdict_p50_s": "s", "verdict_tail_s": "s", "peak_rss_mb": "MB"}

# criterion 8 of the acceptance suite, copied as literals
SWEEP = [25, 857, 36]          # retractions passed, encodings found, searches
SKIPS = [7, 832, 160]          # groups refused, instances in them, absent
DEEP_ENCODINGS = 16


@dataclass
class Child:
    """Outcome of one child process: exit code, result file, wall time and
    peak resident memory."""
    code: int
    result: Optional[dict]
    wall: float
    rss_mb: float


class Runner:
    def __init__(self, out_dir: str, deadline: float):
        self.out_dir = out_dir
        self.deadline = deadline
        self.n = 0
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def path(self, stem: str) -> str:
        return os.path.join(self.out_dir, f"{self.n}-{stem}")

    def spawn(self, spec: dict) -> Child:
        """Run child.py on spec alone; kill it if the run's deadline passes."""
        self.n += 1
        spec = dict(spec, result=self.path("result.json"))
        spec_path = self.path("spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        err_path = self.path("stderr.txt")
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status = os.waitpid(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                timer.cancel()
                timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(spec["result"], encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            result = None
            with open(err_path, "rb") as fh:
                sys.stderr.write(fh.read().decode(errors="replace"))
        rss_mb = result["peak_rss_kb"] / 1024.0 if result else 0.0
        return Child(proc.returncode, result, wall, rss_mb)


class Round:
    """What one round of a workload measured and whether its answers matched.

    `times` maps each timed item to its (wall, CPU) seconds; `verdicts` names
    the items that are verdicts (the rest, such as system builds, count only
    toward check time)."""

    def __init__(self):
        self.times: dict = {}
        self.verdicts: set = set()
        self.calibration: list = []
        self.peak_rss_mb = 0.0
        self.instances = 0
        self.attempted = 0
        self.failed = 0
        self.reports: list = []
        self.traces: list = []
        self.mismatches: list = []

    @property
    def check_s(self) -> float:
        return sum(wall for wall, _ in self.times.values())

    def add(self, child: Child) -> None:
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        if child.result:
            self.calibration.extend(child.result.get("calibration", ()))

    def time(self, key: str, wall: float, cpu: float, verdict: bool = True) -> None:
        self.times[key] = (wall, cpu)
        if verdict:
            self.verdicts.add(key)

    def verdict(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 10:
                self.mismatches.append(what)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(sorted(self.reports)).encode()).hexdigest()


# --- laws ----------------------------------------------------------------------

def _golden(sig: str) -> bytes:
    with open(os.path.join(HERE, "golden", f"{sig}.json"), "rb") as fh:
        return fh.read()


def expected_report(sig: str, suite: str) -> tuple:
    """(stdout bytes, instances) that `laws SIG SUITE --json` must print at exit 0."""
    raw = _golden(sig)
    doc = json.loads(raw)
    if suite == "all":
        return raw, sum(s["instances"] for s in doc["suites"])
    (entry,) = [s for s in doc["suites"] if s["suite"] == suite]
    payload = {"ok": (not entry["applicable"]) or not entry["failures"],
               "signature": doc["signature"], "suites": [entry]}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return text.encode(), entry["instances"]


class LawsWorkload:
    def __init__(self, items):
        self.items = items
        self.expected = {item: expected_report(*item) for item in items}

    def setup_spec(self, seed: int) -> dict:
        sigs = sorted({sig for sig, _ in self.items})
        return {"mode": "setup", "target": "signatures",
                "paths": [f"src/refsys/data/{sig}.json" for sig in sigs]}

    def round(self, runner: Runner, seed: int, index: int, trace: bool) -> Round:
        order = list(self.items)
        random.Random(f"laws/{seed}/{index}").shuffle(order)
        spec = {"mode": "laws",
                "items": [["laws", f"src/refsys/data/{sig}.json", suite, "--json"]
                          for sig, suite in order]}
        rnd = Round()
        if trace:
            spec["trace"] = runner.path("spans.bin")
            rnd.traces.append(spec["trace"])
        child = runner.spawn(spec)
        rnd.add(child)
        got = child.result["items"] if child.code == 0 and child.result else []
        if len(got) != len(order):
            for sig, suite in order:
                rnd.verdict(False, f"laws {sig} {suite}: process exit {child.code}")
            return rnd
        per_signature: dict = {}
        for (sig, suite), item in zip(order, got):
            expected, instances = self.expected[(sig, suite)]
            report = item["stdout"].encode()
            rnd.verdict(item["code"] == 0 and report == expected,
                        f"laws {sig} {suite}: exit {item['code']}, {len(report)} report bytes")
            rnd.reports.append(f"{sig}/{suite}:{hashlib.sha256(report).hexdigest()}")
            wall, cpu = per_signature.get(sig, (0.0, 0.0))
            per_signature[sig] = (wall + item["wall"], cpu + item["cpu"])
            rnd.instances += instances
        # a verdict is one signature's laws: the time of all its suites
        for sig, (wall, cpu) in per_signature.items():
            rnd.time(sig, wall, cpu)
        return rnd


# --- retraction ----------------------------------------------------------------------

class RetractionWorkload:
    def setup_spec(self, seed: int) -> dict:
        return {"mode": "setup", "target": "retraction"}

    def round(self, runner: Runner, seed: int, index: int, trace: bool) -> Round:
        spec = {"mode": "retraction", "order": f"retraction/{seed}/{index}"}
        rnd = Round()
        if trace:
            spec["trace"] = runner.path("spans.bin")
            rnd.traces.append(spec["trace"])
        child = runner.spawn(spec)
        rnd.add(child)
        res = child.result
        if child.code != 0 or res is None:
            rnd.verdict(False, f"retraction process exit {child.code}")
            return rnd
        expected = {"deep-search": DEEP_ENCODINGS, "deep-count": [DEEP_ENCODINGS, True],
                    "two-point-retraction": True, "two-point-section": False}
        # a verdict is one (B, C, U) group of the sweep, from its adjunction to
        # its last retraction check, or one check of the deep or two-point instance
        per_group: dict = {}
        for key, kind, verdict, wall, cpu in res["items"]:
            if kind == "adjunction":
                ok = verdict in ("built", "refused")
            elif kind == "search":
                ok = verdict == "refused" or isinstance(verdict, int)
            elif kind == "retraction":
                ok = verdict in (True, "refused")
            else:
                ok = verdict == expected[kind]
                per_group[f"{key}/{kind}"] = (wall, cpu)
            rnd.verdict(ok, f"{kind} {key} gave {verdict}")
            if kind in ("adjunction", "search", "retraction"):
                group = "/".join(key.split("/")[:2])
                total = per_group.get(group, (0.0, 0.0))
                per_group[group] = (total[0] + wall, total[1] + cpu)
        for key, (wall, cpu) in per_group.items():
            rnd.time(key, wall, cpu)
        counts = res["sweep"]
        rnd.verdict(counts[:3] == SWEEP, f"sweep counts {counts[:3]} != {SWEEP}")
        rnd.verdict(counts[3:] == SKIPS, f"refusal counts {counts[3:]} != {SKIPS}")
        rnd.instances = len(res["items"])  # adjunction builds, searches and checks
        rnd.reports.append(json.dumps(
            [counts, sorted([key, kind, verdict] for key, kind, verdict, _, _ in res["items"])]))
        return rnd


# --- judgments-random --------------------------------------------------------------------

class JudgmentsWorkload:
    """Every round answers the same seeded queries, each in a fresh process."""

    def __init__(self):
        self.batches = None
        self.answers = None

    def setup_spec(self, seed: int) -> dict:
        return {"mode": "setup", "target": "judgments", "batches": queries.sample_batches(seed)}

    def inputs(self, seed: int) -> None:
        if self.batches is None:
            self.batches = queries.round_batches(seed, 0, JUDGMENT_QUERIES_PER_ROUND)
            self.flat = [(b, q) for b in self.batches for q in b["queries"]]
            self.answers = [oracle.answer(b, q) for b, q in self.flat]

    def describe(self) -> None:
        seen: set = set()
        repeats = 0
        mix: dict = {}
        for batch, q in self.flat:
            key = queries.input_key(batch, q)
            repeats += key in seen
            seen.add(key)
            name = f"{batch['kind']}.{q['op']}"
            mix[name] = mix.get(name, 0) + 1
        n = len(self.flat)
        print(f"repeated-input share: {repeats / n:.4f} of {n} queries")
        print("query mix: " + ", ".join(f"{k} {v / n:.3f}" for k, v in sorted(mix.items())))

    def round(self, runner: Runner, seed: int, index: int, trace: bool) -> Round:
        self.inputs(seed)
        spec = {"mode": "judgments", "batches": self.batches}
        rnd = Round()
        if trace:
            spec["trace"] = runner.path("spans.bin")
            rnd.traces.append(spec["trace"])
        child = runner.spawn(spec)
        rnd.add(child)
        res = child.result
        if child.code != 0 or res is None or len(res["answers"]) != len(self.flat):
            for _ in self.flat:
                rnd.verdict(False, f"judgments process exit {child.code}")
            return rnd
        for i, ((batch, q), got, want) in enumerate(zip(self.flat, res["answers"], self.answers)):
            rnd.verdict(got == want, f"{batch['kind']} {json.dumps(q)}: {got} != {want}")
            rnd.time(f"q{i}", *res["times"][i])
        for i, (wall, cpu) in enumerate(res["builds"]):
            rnd.time(f"build{i}", wall, cpu, verdict=False)
        rnd.instances = len(self.flat)
        rnd.reports.append(json.dumps(res["answers"]))
        return rnd


# The monoidal suites of squaring (~25 s), day_z3 (~40 s) and day_z2 (~4 s) and
# z4's sep suite (~3 s) are left out, so that a round stays near 5 s and a run
# repeats it often enough for each item's median time to be steady.
LAWS_ITEMS = (
    ("trivial2", "all"), ("hoare4", "all"), ("classifier", "all"),
    ("continuation", "all"), ("presheaf_arrow", "all"),
    *((sig, suite) for sig in ("z4",) for suite in ("kernel", "structures", "monoidal", "monadrep")),
    *((sig, suite) for sig in ("squaring", "day_z2", "day_z3")
      for suite in ("kernel", "structures", "sep", "monadrep")))
WORKLOADS = {
    "laws": lambda: LawsWorkload(LAWS_ITEMS),
    "retraction": RetractionWorkload,
    "judgments-random": JudgmentsWorkload,
}


# --- measurement ---------------------------------------------------------------------------

def tail(values: list) -> tuple:
    """(percentile, value, samples beyond): the highest integer percentile with at
    least ten samples beyond it, or the maximum when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(n * p / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, xs[rank - 1], n - rank
    return 100, xs[-1], 0


def measure_setup(runner: Runner, workload, seed: int) -> tuple:
    """(median set-up probe seconds, calibration unit times taken between probes)."""
    spec = workload.setup_spec(seed)
    runner.spawn(spec)  # warm-up: compiles bytecode after a fresh checkout
    calibrator = Calibrator()
    walls = []
    for _ in range(SETUP_PROBES):
        child = runner.spawn(spec)
        if child.code != 0:
            raise SystemExit(f"set-up probe failed with exit {child.code}")
        walls.append(child.wall)
        calibrator.keep_up()
    return statistics.median(walls), calibrator.samples


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def speed(calibration: list) -> float:
    """How many times slower than the reference host the calibration units ran."""
    return statistics.fmean(calibration) / REFERENCE_S


def trimmed_mean(values: list) -> float:
    """The mean without the lowest and the highest value, when there are four or more."""
    xs = sorted(values)
    return statistics.fmean(xs[1:-1] if len(xs) >= 4 else xs)


def per_item(rounds: list) -> dict:
    """Each item's trimmed mean wall and CPU seconds over the rounds that timed it."""
    walls: dict = {}
    cpus: dict = {}
    for r in rounds:
        for key, (wall, cpu) in r.times.items():
            walls.setdefault(key, []).append(wall)
            cpus.setdefault(key, []).append(cpu)
    return {key: (trimmed_mean(walls[key]), trimmed_mean(cpus[key])) for key in walls}


def untraced(runner: Runner, workload, seed: int, seconds: float) -> tuple:
    setup_s, calibration = measure_setup(runner, workload, seed)
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(workload.round(runner, seed, len(rounds), trace=False))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(rounds)
        # start another round only if it would end less than half a round late
        if elapsed + per_round / 2 > seconds or time.monotonic() + per_round > runner.deadline:
            break
    measured = [r for r in rounds if r.times]
    if not measured:  # every checking process failed; the result says so
        return rounds, {k: metric(setup_s if k == "setup_s" else 0.0, u)
                        for k, u in UNITS.items()}
    # Every round checks the same items.  Timings are divided by the run's
    # speed factor, so they read as seconds at the reference host speed.
    # Items use means, as the factor does: over a run, the calibration units
    # slow as the checks do, which they need not within one round.  Trimming
    # an item's slowest and fastest round keeps one odd round from moving a
    # latency that rests on a single item.
    for r in measured:
        calibration.extend(r.calibration)
    factor = speed(calibration)
    items = {key: (wall / factor, cpu / factor) for key, (wall, cpu) in per_item(measured).items()}
    check_s = sum(wall for wall, _ in items.values())
    verdicts = sorted(items[k][0] for k in measured[0].verdicts)
    p, tail_s, beyond = tail(verdicts)
    metrics = {
        "setup_s": setup_s / factor,
        "check_s": check_s,
        "cpu_s": sum(cpu for _, cpu in items.values()),
        "instances_per_s": measured[0].instances / check_s,
        "verdict_p50_s": statistics.median(verdicts),
        "verdict_tail_s": tail_s,
        "peak_rss_mb": max(r.peak_rss_mb for r in rounds),
    }
    print(f"rounds: {len(rounds)}, instances per round: {measured[0].instances}, "
          f"measured round check_s: " + " ".join(f"{r.check_s:.3f}" for r in measured))
    print(f"speed factor: {factor:.4f} from {len(calibration)} calibration units; rounds "
          + " ".join(f"{speed(r.calibration):.3f}" for r in measured))
    print(f"verdict tail: p{p} of {len(verdicts)} items ({beyond} beyond it)")
    print(f"report sha256: {rounds[0].digest()}")
    if isinstance(workload, JudgmentsWorkload):
        workload.describe()
    return rounds, {k: metric(v, UNITS[k]) for k, v in metrics.items()}


def traced(runner: Runner, workload, seed: int) -> tuple:
    base = workload.round(runner, seed, 0, trace=False)
    rnd = workload.round(runner, seed, 0, trace=True)
    summary = tracer.summarize(rnd.traces)
    layers = tracer.per_layer(summary)
    layers["trace.check_s"] = (rnd.check_s, "s")
    layers["trace.overhead_s"] = (rnd.check_s - base.check_s, "s")
    print(f"untraced check_s {base.check_s:.4f}, traced {rnd.check_s:.4f}, "
          f"overhead {rnd.check_s - base.check_s:.4f} s")
    print(f"report sha256: {rnd.digest()}")
    for name, (value, unit) in sorted(layers.items()):
        if value:
            print(f"  {name} = {value} {unit}")
    return [base, rnd], {k: metric(v, u) for k, (v, u) in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        print("refusing to run: -O / PYTHONOPTIMIZE strips refsys's assert-based "
              "validation, so it would measure a different program", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "refsys", "__init__.py")):
        print(f"no refsys sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, ".out", f"run-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    runner = Runner(out_dir, time.monotonic() + DEADLINE_S)
    workload = WORKLOADS[args.workload]()
    try:
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            rounds, metrics = traced(runner, workload, args.seed)
        else:
            rounds, metrics = untraced(runner, workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        for what in r.mismatches:
            print(f"MISMATCH: {what}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
