"""Numeric evaluation at real points, bitwise against goldens written by
tests/series_goldens.py before real points were summed in floats."""

import json
from pathlib import Path

from series_goldens import cases, evaluate

GOLDENS = Path(__file__).with_name("series_goldens.json")


def test_real_points_match_the_goldens_bitwise():
    want = json.loads(GOLDENS.read_text())
    todo = cases()
    assert len(todo) == len(want)
    wrong = [(entry, args, golden, got) for (entry, args), golden in zip(todo, want)
             if (got := evaluate(entry, args)) != golden]
    assert not wrong, wrong[:5]
