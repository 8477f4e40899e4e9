"""Lines, code lines and docstring lines of each module of the compident
package.

A code line is a line that is not blank, not a comment alone, and not part
of a module, class or function docstring; a line inside a string literal
that starts with # is text, not a comment. A docstring line is a line of a
module, class or function docstring, by the syntax tree. Usage:

    python tools/line_counts.py [package directory]

The package directory defaults to src/compident beside this script. It
prints one row per module, then the totals.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "compident"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers (from 1) of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def string_lines(tree: ast.Module) -> set[int]:
    """Line numbers inside a string literal after its first line, where a
    line that starts with # is text, not a comment."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr) or (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
        ):
            lines.update(range(node.lineno + 1, node.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int, int]:
    """(lines, code lines, docstring lines) of one module's source."""
    tree = ast.parse(source)
    skipped, text = docstring_lines(tree), string_lines(tree)
    lines = source.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if line.strip()
        and number not in skipped
        and (number in text or not line.lstrip().startswith("#"))
    )
    return len(lines), code, len(skipped)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    totals = [0, 0, 0]
    print(f"{'module':<16}{'lines':>7}{'code':>7}{'doc':>7}")
    for path in sorted(package.glob("*.py")):
        row = counts(path.read_text(encoding="utf-8"))
        totals = [t + x for t, x in zip(totals, row)]
        print(f"{path.name:<16}" + "".join(f"{x:>7}" for x in row))
    print(f"{'total':<16}" + "".join(f"{x:>7}" for x in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
