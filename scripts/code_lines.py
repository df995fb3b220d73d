#!/usr/bin/env python3
"""Count the code lines of the qhaar package, per module and in total.

    python scripts/code_lines.py [SOURCE_DIR]

A code line of ``SOURCE_DIR/*.py`` (default ``src/qhaar`` beside this
script's directory) is one that is not blank, not a ``#`` comment and not
inside the docstring of a module, class or function.  A line holding code
and a trailing comment counts.  Prints one ``<count> <module>`` line per
module, sorted by name, then ``<total> total``.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent.parent / "src" / "qhaar"


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module and of every class and function."""
    lines: set[int] = set()
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if not isinstance(node, owners) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else DEFAULT_DIR
    counts = {path.name: code_lines(path) for path in sorted(root.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count} {name}")
    print(f"{sum(counts.values())} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
