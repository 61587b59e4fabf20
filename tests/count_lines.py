"""Count the lines of src/lqcat per module, split by kind.

Usage:

    python3 tests/count_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/lqcat beside this script's directory.  Every
physical line of each module falls in exactly one column:

* docstring: a line of a module, class or function docstring, its blank
  lines included;
* comment: a line that holds only a comment;
* blank: an empty or whitespace-only line outside a docstring;
* code: every other line.

Prints one row per module and a total row.  Needs only the standard
library; pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in source."""
    docstrings = docstring_lines(ast.parse(source))
    has_code = set()
    has_comment = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            has_comment.add(token.start[0])
        elif token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                                tokenize.DEDENT, tokenize.ENDMARKER):
            has_code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docstrings:
            kind = "docstring"
        elif number in has_code:
            kind = "code"
        elif number in has_comment:
            kind = "comment"
        else:
            kind = "blank"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "lqcat")
    rows = [(path.name, count(path.read_text())) for path in sorted(package.glob("*.py"))]
    total = {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}
    rows.append(("total", total))
    print(f"{'module':<14}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, counts in rows:
        print(f"{name:<14}{sum(counts.values()):>7}"
              + "".join(f"{counts[kind]:>11}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
