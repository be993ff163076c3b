"""Functions, classes and methods of refsys that only the tests reach.

Each module-level function and class of ``src/refsys`` and each method of
such a class (dunder methods aside) is counted by the uses of its name:
every ``Name`` or ``Attribute`` node that reads it, and every string
constant equal to it (``getattr`` and the tracer's span names), outside
the definition itself.  Uses in ``src/refsys`` (``__init__.py``, which only
re-exports, aside), ``perfbench`` and ``tools`` are library uses; uses in
``tests`` are test uses.  A definition with test uses and no library use
is printed, one ``module.qualname`` a line.  The scan matches names, so a
definition reached through another name is missed, and one that shares
its name with a used one is not printed.  Standard library only.

    python tools/library_callers.py [ROOT]

ROOT defaults to this script's parent directory, the repository's root.
"""
from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.Module) -> list:
    """(qualname, node) of each module-level def and each method of a module-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, _DEFS):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{item.name}", item) for item in node.body
                    if isinstance(item, _DEFS) and not item.name.startswith("__")]
    return out


def uses(tree: ast.AST) -> Counter:
    """How often each name is read in tree."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            counts[node.value] += 1
    return counts


def test_only(root: Path) -> list:
    """``module.qualname`` of each refsys definition only tests reach, in source order."""
    package = root / "src" / "refsys"
    modules = {p: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(package.glob("*.py")) if p.name != "__init__.py"}
    library, tests = Counter(), Counter()
    for tree in modules.values():
        library += uses(tree)
    for d in ("perfbench", "tools"):
        for p in sorted((root / d).glob("*.py")):
            library += uses(ast.parse(p.read_text(encoding="utf-8")))
    for p in sorted((root / "tests").glob("*.py")):
        tests += uses(ast.parse(p.read_text(encoding="utf-8")))
    found = []
    for path, tree in modules.items():
        for qualname, node in definitions(tree):
            # a use inside the definition itself (recursion) is no caller
            if library[node.name] == uses(node)[node.name] and tests[node.name]:
                found.append(f"{path.stem}.{qualname}")
    return found


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    for name in test_only(root):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
