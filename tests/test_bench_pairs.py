"""tools/bench_pairs.py: seed parsing, the verdict rules of its summary,
and its refusal of runs that report wrong answers.  No benchmark runs:
the pairs are synthetic and the one subprocess call is replaced."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.24},
]}


def _side(ops, p50, failed=0):
    return {"correct": True, "attempted": 100, "failed": failed,
            "metrics": {"ops_per_s": ops, "latency_p50_ms": p50}}


def _pairs(parent, change, p50=(1.0, 1.0)):
    return [{"seed": i, "parent": _side(p, p50[0]), "change": _side(c, p50[1])}
            for i, (p, c) in enumerate(zip(parent, change))]


PARENT = [100, 98, 102, 101, 99, 100, 97, 103, 100, 101]  # IQR about 2.25


def test_parse_seeds():
    assert bench_pairs.parse_seeds("201-205") == [201, 202, 203, 204, 205]
    assert bench_pairs.parse_seeds("1,5,9") == [1, 5, 9]
    assert bench_pairs.parse_seeds("7") == [7]
    assert bench_pairs.parse_seeds("1-2,9") == [1, 2, 9]


def test_nine_wins_beyond_the_parent_spread_is_a_gain():
    change = [120] * 9 + [90]
    s = bench_pairs.summarise(_pairs(PARENT, change), SPEC)["ops_per_s"]
    assert (s["wins"], s["losses"], s["verdict"]) == (9, 1, "gain")


def test_eight_wins_is_not_a_gain():
    change = [120] * 8 + [90, 90]
    s = bench_pairs.summarise(_pairs(PARENT, change), SPEC)["ops_per_s"]
    assert (s["wins"], s["verdict"]) == (8, "within")


def test_wins_within_the_parent_spread_are_not_a_gain():
    change = [p + 1 for p in PARENT]  # wins every pair by less than the IQR
    s = bench_pairs.summarise(_pairs(PARENT, change), SPEC)["ops_per_s"]
    assert (s["wins"], s["verdict"]) == (10, "within")


def test_beyond_the_bound_is_worse_in_either_direction():
    out = bench_pairs.summarise(_pairs(PARENT, [70] * 10, p50=(1.0, 1.3)), SPEC)
    assert out["ops_per_s"]["verdict"] == "worse"
    assert out["latency_p50_ms"]["verdict"] == "worse"
    out = bench_pairs.summarise(_pairs(PARENT, [80] * 10, p50=(1.0, 1.2)), SPEC)
    assert out["ops_per_s"]["verdict"] == "within"
    assert out["latency_p50_ms"]["verdict"] == "within"


def test_a_gain_does_not_count_with_a_larger_failure_share():
    pairs = _pairs(PARENT, [120] * 9 + [90])
    pairs[4]["change"]["failed"] = 1
    s = bench_pairs.summarise(pairs, SPEC)["ops_per_s"]
    assert (s["wins"], s["verdict"]) == (9, "within")
    pairs[6]["parent"]["failed"] = 1  # an equal share on both sides
    assert bench_pairs.summarise(pairs, SPEC)["ops_per_s"]["verdict"] == "gain"


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]  # spread about 0.45
    s = bench_pairs.summarise(_pairs(wide, PARENT), SPEC)["ops_per_s"]
    assert (s["parent_spread"] > 0.24, s["change_spread"] < 0.24) == (True, True)
    assert s["verdict"] == "unresolved"
    s = bench_pairs.summarise(_pairs(PARENT, wide), SPEC)["ops_per_s"]
    assert s["verdict"] == "unresolved"


def test_a_wide_spread_is_resolved_when_every_change_run_is_better():
    parent = [50, 60, 70, 80, 90, 100, 110, 120, 130, 140]
    change = [141 + i for i in range(10)]  # medians differ by less than the parent's IQR
    s = bench_pairs.summarise(_pairs(parent, change), SPEC)["ops_per_s"]
    assert (s["wins"], s["parent_spread"] > 0.24, s["verdict"]) == (10, True, "within")
    change[0] = 140  # a tie with the parent's best run
    assert bench_pairs.summarise(_pairs(parent, change), SPEC)["ops_per_s"]["verdict"] == "unresolved"


def test_lower_is_better_gains_by_falling():
    s = bench_pairs.summarise(_pairs(PARENT, PARENT, p50=(1.0, 0.5)), SPEC)["latency_p50_ms"]
    assert (s["wins"], s["verdict"]) == (10, "gain")


def test_failure_shares_sum_each_side():
    pairs = _pairs(PARENT[:3], PARENT[:3])
    pairs[1]["change"]["failed"] = 2
    assert bench_pairs.failure_shares(pairs) == {
        "parent": {"failed": 0, "attempted": 300},
        "change": {"failed": 2, "attempted": 300}}


def _fake_run(correct):
    line = json.dumps({"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
                       "metrics": {"ops_per_s": {"value": 5.0, "unit": "1/s"}}})

    def run(cmd, **kwargs):
        return SimpleNamespace(stdout="log line\n" + line + "\n")
    return run


def test_run_once_keeps_a_correct_run(monkeypatch):
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_run(True))
    got = bench_pairs.run_once("parent", ".", "ideal", 3, 15)
    assert got == {"correct": True, "attempted": 10, "failed": 0, "metrics": {"ops_per_s": 5.0}}


def test_run_once_refuses_a_wrong_run(monkeypatch):
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_run(False))
    with pytest.raises(SystemExit, match="change .* on ideal seed 3"):
        bench_pairs.run_once("change", ".", "ideal", 3, 15)
