"""In-process wall time of each law suite on each bundled signature.

Each (signature, suite) pair runs ``--runs`` times, each time on a freshly
loaded signature, as ``refsys laws SIG SUITE`` would run it; the time of one
run is the suite's call alone, without the interpreter start, the import or
the load.  The table prints the minimum over the runs in milliseconds, and a
suite that does not apply prints ``-``.  A suite that refuses or fails is
timed all the same: the table sizes work, it does not judge it.

    python tools/suite_times.py [--runs N] [--max-set K] [SIG ...]

SIG names bundled signatures without ``.json`` (default: all nine), and
``--max-set`` is ``refsys laws``'s carrier bound (default 3).  The source
tree's ``src`` is put first on the import path.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from refsys.laws import SUITE_FNS, SUITES  # noqa: E402
from refsys.signature import load_signature  # noqa: E402

DATA = SRC / "refsys" / "data"


def suite_time(path: Path, suite: str, runs: int, max_set: int):
    """Minimum wall seconds of one suite over runs fresh loads, or None when it does not apply."""
    best = None
    for _ in range(runs):
        sig = load_signature(str(path))
        t0 = time.perf_counter()
        result = SUITE_FNS[suite](sig, max_set)
        wall = time.perf_counter() - t0
        if isinstance(result, str):
            return None
        best = wall if best is None else min(best, wall)
    return best


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sigs", nargs="*", metavar="SIG")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--max-set", type=int, default=3, dest="max_set")
    args = parser.parse_args(argv)
    names = args.sigs or sorted(p.stem for p in DATA.glob("*.json"))
    width = max(len(n) for n in names + ["signature"])
    print(f"{'signature':<{width}}" + "".join(f"  {s:>10}" for s in SUITES)
          + f"  {'total':>10}   (ms, min of {args.runs})")
    for name in names:
        times = [suite_time(DATA / f"{name}.json", s, args.runs, args.max_set) for s in SUITES]
        total = sum(t for t in times if t is not None)
        cells = ["-" if t is None else f"{t * 1e3:.1f}" for t in times]
        print(f"{name:<{width}}" + "".join(f"  {c:>10}" for c in cells)
              + f"  {total * 1e3:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
