"""Count the code lines of Python modules and print one row per module
and the total.

    python3 tools/code_lines.py [PATH ...]

A code line is a line holding a token other than a comment, a docstring
or a blank line: ``tokenize`` gives each token's lines, and ``ast``
finds the docstrings (the leading string expression of a module, class
or function body), whose tokens are left out.  A token spanning several
lines, such as a triple-quoted string that is not a docstring, counts
every line it spans.  Each PATH is a ``.py`` file or a directory whose
``*.py`` files are counted (not recursively); the default is
``src/fgr`` beside this script.  Stdlib only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "fgr"
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count(paths: list[Path]) -> dict[str, int]:
    """Code lines per file name, over the ``.py`` files of ``paths``."""
    files = []
    for path in paths:
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    return {file.name: code_lines(file.read_text()) for file in files}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    rows = count([Path(arg) for arg in args] or [DEFAULT])
    width = max(map(len, [*rows, "total"]))
    for name, lines in rows.items():
        print(f"{name:<{width}}  {lines:>6,}")
    print(f"{'total':<{width}}  {sum(rows.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
