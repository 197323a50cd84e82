"""Count the lines of the package source, as ROADMAP.md and CHANGES.md quote them.

    python tests/count_code_lines.py [SRC_DIR]

prints two counts over ``src/qwhitney/*.py`` (or the ``*.py`` files of
SRC_DIR): ``src.loc``, the non-blank lines, as the benchmark counts them,
and code lines, the non-blank lines that are neither part of a docstring
(module, class or function, as ``ast`` finds them) nor a ``#`` comment
alone on its line.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qwhitney"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of the module, its classes and its functions span."""
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


def counts(path: Path) -> tuple[int, int]:
    """(non-blank lines, code lines) of one source file."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    loc = code = 0
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped:
            loc += 1
            code += number not in skip and not stripped.startswith("#")
    return loc, code


def main(argv: list[str]) -> None:
    src = Path(argv[0]) if argv else SRC
    per_file = [counts(path) for path in sorted(src.glob("*.py"))]
    print(f"src.loc {sum(loc for loc, _ in per_file)}")
    print(f"code lines {sum(code for _, code in per_file)}")


if __name__ == "__main__":
    main(sys.argv[1:])
