"""Determinism self-check for the traced benchmark run.

    python3 perfbench/determinism.py --workload NAME --seed N

Runs `run.py --trace 1` twice on the same seed, each in a fresh interpreter
with the default random hash seed (PYTHONHASHSEED is removed from the
environment, never pinned), and compares the report hash and every per-layer
count.  Exits 1 and names each difference when anything varies; timings are
not compared.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_run(workload: str, seed: int) -> tuple:
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, env=env, check=True)
    lines = out.stdout.strip().splitlines()
    digest = next(line.split(": ", 1)[1] for line in lines
                  if line.startswith("report sha256: "))
    result = json.loads(lines[-1])
    counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
    return digest, counts, result["correct"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    first = traced_run(args.workload, args.seed)
    second = traced_run(args.workload, args.seed)
    problems = []
    if not (first[2] and second[2]):
        problems.append("a traced run reported wrong answers")
    if first[0] != second[0]:
        problems.append(f"report hash differs: {first[0]} vs {second[0]}")
    for name in sorted(set(first[1]) | set(second[1])):
        a, b = first[1].get(name), second[1].get(name)
        if a != b:
            problems.append(f"count {name} differs: {a} vs {b}")
    for p in problems:
        print(p)
    print(f"{args.workload} seed {args.seed}: "
          + ("deterministic" if not problems else f"{len(problems)} differences")
          + f" ({len(first[1])} counts, report {first[0][:16]})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
