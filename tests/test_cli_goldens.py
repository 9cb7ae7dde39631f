"""The command line front end, byte for byte against goldens written by
tests/cli_goldens.py before its parser, elaborator and verb table were
each folded into one rule."""

import json
from pathlib import Path

from cli_goldens import cases, run

GOLDENS = Path(__file__).with_name("cli_goldens.json")


def test_every_invocation_matches_the_goldens():
    want = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert [golden[0] for golden in want] == cases()
    wrong = [(golden, got) for golden in want if (got := run(golden[0])) != golden]
    assert not wrong, wrong[:3]
