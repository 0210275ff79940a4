"""Count the code lines of Python modules and print one row per module
and the total.

    python3 tools/code_lines.py [--against REF] [PATH ...]

A code line is a line holding a token other than a comment, a docstring
or a blank line: ``tokenize`` gives each token's lines, and ``ast``
finds the docstrings (the leading string expression of a module, class
or function body), whose tokens are left out.  A token spanning several
lines, such as a triple-quoted string that is not a docstring, counts
every line it spans.  Each PATH is a ``.py`` file or a directory whose
``*.py`` files are counted (not recursively); the default is
``src/fgr`` beside this script.

With ``--against REF`` each row holds a module's code lines at the git
revision REF (read through ``git show REF:<path>``), its count now and
the delta, and the last row the totals; a module missing on one side
counts as 0 there.  The PATHs must lie in a git work tree.  Stdlib and
the ``git`` command only.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def _git(folder: Path, *args: str) -> str:
    """The stdout of ``git -C folder args``; raises on a git error."""
    run = subprocess.run(["git", "-C", str(folder), *args], capture_output=True, text=True)
    if run.returncode:
        raise RuntimeError(f"git {' '.join(args)}: {run.stderr.strip()}")
    return run.stdout


def count_at(ref: str, paths: list[Path]) -> dict[str, int]:
    """Code lines per file name, over the ``.py`` files of ``paths`` as
    they are at the git revision ``ref``; a file not there is left out."""
    rows = {}
    for path in map(Path.resolve, paths):
        folder = path if path.is_dir() else path.parent
        root = Path(_git(folder, "rev-parse", "--show-toplevel").strip())
        spec = path.relative_to(root).as_posix() + ("/" if path.is_dir() else "")
        listed = _git(root, "ls-tree", "-z", "--name-only", ref, "--", spec).split("\0")
        for file in sorted(name for name in listed if name.endswith(".py")):
            rows[Path(file).name] = code_lines(_git(root, "show", f"{ref}:{file}"))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of Python modules.")
    parser.add_argument("--against", metavar="REF", help="also count at this git revision")
    parser.add_argument("paths", nargs="*", type=Path, metavar="PATH")
    args = parser.parse_args(argv)
    paths = args.paths or [DEFAULT]
    rows = count(paths)
    if args.against is None:
        width = max(map(len, [*rows, "total"]))
        for name, lines in rows.items():
            print(f"{name:<{width}}  {lines:>6,}")
        print(f"{'total':<{width}}  {sum(rows.values()):>6,}")
        return 0
    try:
        before = count_at(args.against, paths)
    except RuntimeError as exc:
        print(f"code_lines: {exc}", file=sys.stderr)
        return 1
    names = sorted(before.keys() | rows.keys())
    table = {name: (before.get(name, 0), rows.get(name, 0)) for name in names}
    table["total"] = (sum(before.values()), sum(rows.values()))
    width = max(map(len, [*table, "module"]))
    column = max(7, len(args.against))
    print(f"{'module':<{width}}  {args.against:>{column}}  {'now':>7}  {'delta':>7}")
    for name, (old, new) in table.items():
        print(f"{name:<{width}}  {old:>{column},}  {new:>7,}  {new - old:>+7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
