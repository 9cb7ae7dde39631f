"""The README's library quickstart runs, and each print comment in it is
the exact line that print writes."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quickstart_prints_its_comments():
    block = _quickstart()
    expected = []
    for line in block.splitlines():
        if line.startswith("print("):
            code, sep, comment = line.partition("  # ")
            assert sep, f"print without its output in a comment: {line!r}"
            expected.append(comment.strip())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
