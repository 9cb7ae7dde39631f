"""Count the code lines of each module under src/.

A code line is a line of source that is not blank, not a comment alone and
not part of a docstring (the string that opens a module, class or
function).  Lines of other strings, of decorators and of continued
statements count.  The module ast finds the docstrings; a line counts if
some statement spans it.

    python tools/code_lines.py [ROOT] [--base DIR]

prints one "<lines>  <module path>" row per module under ROOT (default
src/ next to this file's directory) and a final "<lines>  total" row.
With --base, DIR is the same tree at another commit (a base), and each
row reads "<base>  <head>  <delta>  <module path>", head being ROOT; a
module found on one side only counts 0 on the other.  Stdlib only.
"""

from __future__ import annotations

import argparse
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


def _counts(root: Path) -> dict:
    """{module path under root: its code lines}."""
    return {str(path.relative_to(root)): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description="Count the code lines of each module.")
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--base", type=Path, help="the same tree at a base commit")
    args = parser.parse_args(argv)
    head = _counts(args.root)
    if args.base is None:
        for module, n in head.items():
            print(f"{n:6d}  {module}")
        print(f"{sum(head.values()):6d}  total")
        return
    base = _counts(args.base)
    rows = [(base.get(m, 0), head.get(m, 0), m) for m in sorted(base.keys() | head.keys())]
    rows.append((sum(base.values()), sum(head.values()), "total"))
    print(f"{'base':>6}  {'head':>6}  {'delta':>6}  module")
    for b, h, module in rows:
        print(f"{b:6d}  {h:6d}  {h - b:+6d}  {module}")


if __name__ == "__main__":
    main(sys.argv[1:])
