"""tools/suite_times.py prints one row per signature and one column per suite."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from refsys.laws import SUITES

TOOL = Path(__file__).resolve().parent.parent / "tools" / "suite_times.py"


def test_a_row_per_signature_with_a_dash_where_a_suite_does_not_apply():
    proc = subprocess.run([sys.executable, str(TOOL), "--runs", "1", "trivial2", "squaring"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    head, *rows = proc.stdout.splitlines()
    assert head.split()[:7] == ["signature", *SUITES, "total"]
    assert head.endswith("(ms, min of 1)")
    cells = {row.split()[0]: row.split()[1:] for row in rows}
    assert list(cells) == ["trivial2", "squaring"]
    # trivial2 has no monoid stanza; squaring has neither a monoid nor an adjunction
    assert [c == "-" for c in cells["trivial2"]] == [False, False, False, True, False, False]
    assert [c == "-" for c in cells["squaring"]] == [False, False, False, True, True, False]
    for row in cells.values():
        *suites, total = [float(c) for c in row if c != "-"]
        # each figure is rounded to 0.1 ms
        assert abs(total - sum(suites)) <= 0.05 * (len(suites) + 1) + 1e-9
