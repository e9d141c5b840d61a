"""Code lines of Python sources, per file and in total.

    python3 tools/code_lines.py PATH...

A path is a file or a directory, whose ``*.py`` files are counted. A file's
code lines are the nonblank lines of ``ast.unparse`` of its syntax tree with
every docstring dropped: comments, blank lines, docstrings and the layout
of continued expressions do not count. This is the count ROADMAP.md and
CHANGES.md quote.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The code lines of one module's source text."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(node, _SCOPES)
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            node.body = body[1:] or [ast.Pass()]
    return sum(1 for line in ast.unparse(tree).splitlines() if line.strip())


def _files(path):
    path = Path(path)
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    total = 0
    for path in (f for p in paths for f in _files(p)):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
