"""Code lines and statements of each refsys module, and their totals.

A code line is a source line that holds a token other than a comment, where
a docstring's lines do not count; a statement is an ``ast`` statement node
other than a docstring.  Standard library only.

    python tools/code_lines.py [DIR]

DIR defaults to ``src/refsys`` beside this script's parent directory.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                     tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER})
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.Module) -> list:
    """The docstring statement of each module, class and function that has one."""
    docs = []
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.append(first)
    return docs


def count(source: str) -> tuple:
    """(code lines, statements) of one module's source."""
    tree = ast.parse(source)
    docs = _docstrings(tree)
    doc_lines = {n for d in docs for n in range(d.lineno, d.end_lineno + 1)}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in doc_lines)
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree)) - len(docs)
    return len(lines), statements


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "refsys"
    rows = [(path.name, *count(path.read_text(encoding="utf-8")))
            for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'code lines':>10}  {'statements':>10}")
    for name, code, statements in rows:
        print(f"{name:<{width}}  {code:>10,}  {statements:>10,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
