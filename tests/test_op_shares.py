"""tools/op_shares.py: the per-kind count, time and share of a workload's
operations, run in process on a few dozen generated operations."""

import importlib.util
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("op_shares", _ROOT / "tools" / "op_shares.py")
op_shares = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(op_shares)


def test_shares_of_a_few_dozen_ideal_ops(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # load_workload prepends perfbench/
    wl = op_shares.load_workload("ideal")
    ops = op_shares.build_ops(wl, 5, 40)
    assert len(ops) == 40 + len(wl.fixed_ops())
    shares = op_shares.op_shares(wl, ops)
    assert sum(count for count, _ in shares.values()) == len(ops)
    assert set(shares) == {op[0] for op in ops}
    assert all(seconds > 0 for _, seconds in shares.values())
    text = op_shares.format_shares(shares)
    lines = text.splitlines()
    assert lines[0].split() == ["kind", "count", "seconds", "share"]
    assert lines[-1].split()[:2] == ["total", str(len(ops))]
    assert lines[-1].endswith("100.0%")
    rows = [line.split() for line in lines[1:-1]]
    assert {row[0] for row in rows} == set(shares)
    seconds = [float(row[2]) for row in rows]
    assert seconds == sorted(seconds, reverse=True)
    assert abs(sum(float(row[3].rstrip("%")) for row in rows) - 100) < 0.1 * len(rows)


def test_format_of_no_ops():
    assert op_shares.format_shares({}).splitlines()[-1].split() == ["total", "0", "0.0000", "0.0%"]
