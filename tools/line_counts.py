"""Print the code, docstring, blank and comment lines of each module of
src/graphsi, and their totals.

Each line counts once. A docstring's lines, blank ones included, count as
docstring; a line holding only a comment counts as comment; an empty line
outside a docstring counts as blank; every other line counts as code (a
code line with a trailing comment among them). Run from anywhere:

    python tools/line_counts.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphsi"
KINDS = ("code", "docstring", "blank", "comment")


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of the module's, classes' and functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The four counts of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    comments = {token.start[0] for token in tokenize.generate_tokens(io.StringIO(source).readline)
                if token.type == tokenize.COMMENT}
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docstrings:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif number in comments and line.lstrip().startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main() -> None:
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<18}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for path in sorted(PACKAGE.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<18}{sum(counts.values()):>7}"
              + "".join(f"{counts[kind]:>11}" for kind in KINDS))
    print(f"{'total':<18}{sum(total.values()):>7}" + "".join(f"{total[kind]:>11}" for kind in KINDS))


if __name__ == "__main__":
    main()
