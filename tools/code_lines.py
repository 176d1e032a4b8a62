"""Count the code lines of each ``src/treecut`` module.

    python tools/code_lines.py [FILE ...]

A code line is a non-blank line that is neither comment-only nor inside
a module, class or function docstring.  Without arguments it prints the
count of every module under the ``src/treecut`` beside this file, then
the total; with files, the count of each.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "treecut"


def docstring_lines(tree):
    """The line numbers covered by module, class and function docstrings."""
    lines = set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if not isinstance(node, scopes) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python ``source``."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for no, line in enumerate(source.splitlines(), 1)
               if no not in skip and line.strip()
               and not line.strip().startswith("#"))


def main(argv):
    paths = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name if not argv else path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
