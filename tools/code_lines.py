"""Count the code lines of each module under src/.

A code line is a line of source that is not blank, not a comment alone and
not part of a docstring (the string that opens a module, class or
function).  Lines of other strings, of decorators and of continued
statements count.  The module ast finds the docstrings; a line counts if
some statement spans it.

    python tools/code_lines.py [ROOT]

prints one "<lines>  <module path>" row per module under ROOT (default
src/ next to this file's directory) and a final "<lines>  total" row.
Stdlib only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    tree = ast.parse(source)
    spanned = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            # a def or class starts at its first decorator, not at its lineno
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            spanned.update(range(start, node.end_lineno + 1))
    spanned -= _docstring_lines(tree)
    text = source.splitlines()
    return sum(1 for n in spanned
               if (line := text[n - 1].strip()) and not line.startswith("#"))


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
