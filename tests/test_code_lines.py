"""tools/code_lines.py on a fixed source text: docstrings, comments and
blank lines are left out, decorators, continued statements and other
strings count."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import functools  # a trailing comment keeps its line

# a comment alone


@functools.lru_cache(maxsize=8)
def f(x):
    """Function docstring."""
    # comment inside a body
    return (x +
            1)


class C:
    """Class docstring."""

    text = """a string that is
not a docstring"""

    def g(self):
        pass
'''


def test_counts_code_lines_of_a_fixed_source():
    # import, decorator, def, return over 2 lines, class, text over 2 lines,
    # def g, pass
    assert code_lines.code_lines(SOURCE) == 10


def test_an_empty_module_has_none():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_base_prints_base_head_and_delta_per_module(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    for root, modules in ((base, {"a.py": "x = 1\n", "gone.py": "y = 2\nz = 3\n"}),
                          (head, {"a.py": "x = 1\nw = 4\n", "pkg/new.py": SOURCE})):
        for name, text in modules.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text, encoding="utf-8")
    code_lines.main([str(head), "--base", str(base)])
    assert capsys.readouterr().out.splitlines() == [
        "  base    head   delta  module",
        "     1       2      +1  a.py",
        "     2       0      -2  gone.py",
        "     0      10     +10  pkg/new.py",
        "     3      12      +9  total",
    ]
    code_lines.main([str(head)])
    assert capsys.readouterr().out.splitlines() == [
        "     2  a.py", "    10  pkg/new.py", "    12  total"]
