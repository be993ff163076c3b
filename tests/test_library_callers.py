"""tools/library_callers.py lists the refsys definitions that only tests reach."""
from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "library_callers.py"


def _scan(*argv: str) -> list:
    proc = subprocess.run([sys.executable, str(TOOL), *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_the_repository_keeps_only_the_five_names_open_items_will_call():
    assert _scan() == [
        "kernel.check_vertical_iso",
        "monoidal.check_residual_laws",
        "monoidal.residual_subtyping",
        "presheaf_model.representable_presheaf",
        "presheaf_model.enumerate_monoid_presheaves",
    ]


def test_uses_in_the_package_perfbench_and_tools_count_and_a_reexport_does_not(tmp_path):
    files = {
        "src/refsys/__init__.py": """
            from .m import Tested, recursive, reexported
            __all__ = ["Tested", "recursive", "reexported"]
        """,
        "src/refsys/m.py": """
            def recursive(n):
                return n and recursive(n - 1)

            def reexported():
                pass

            def called():
                pass

            def by_tool():
                pass

            def by_name():
                pass

            def unused():
                pass

            class Tested:
                def __init__(self):
                    called()

                def method(self):
                    return getattr(self, "by_name")
        """,
        "perfbench/run.py": "",
        "tools/t.py": "from refsys.m import by_tool\nby_tool()\n",
        "tests/test_m.py": """
            from refsys import Tested, recursive, reexported
            from refsys.m import by_tool, called

            def test():
                Tested().method(), recursive(2), reexported(), by_tool(), called()
        """,
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(textwrap.dedent(text))
    # a dunder method is never listed, and neither is a name no test reads
    assert _scan(str(tmp_path)) == ["m.recursive", "m.reexported", "m.Tested",
                                    "m.Tested.method"]
