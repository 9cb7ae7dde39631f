"""tools/op_shares.py: the per-kind count, time and share of a workload's
operations, run in process on a few dozen generated operations, the
audit of the cache tables the run used, and the collector's passes and
time per kind."""

import gc
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
    assert op_shares.format_gc([], {}).splitlines()[1:] == ["between       0     0.000",
                                                            "total         0     0.000"]


def test_collector_rows_sum_to_the_collectors_totals_for_the_run(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    wl = op_shares.load_workload("shuffle")
    ops = op_shares.build_ops(wl, 5, 60)
    import harness

    with harness.GcClock() as clock:
        times, rows = op_shares.op_runs(wl, ops)
    assert [(kind, answered) for kind, _, answered in times] == \
        [(kind, answered) for kind, _, answered in op_shares.op_times(wl, ops)]
    assert clock.collections > 0 and set(rows) <= {op[0] for op in ops} | {None}
    assert sum(passes for passes, _ in rows.values()) == clock.collections
    seconds = sum(s for _, s in rows.values())
    assert abs(seconds - clock.total) <= 0.05 * clock.total + 1e-3
    # a kind's collector time lies inside its operations' time
    shares = op_shares.shares_of(times)
    for kind, (_, s) in rows.items():
        if kind is not None:
            assert s <= shares[kind][1], kind
    lines = op_shares.format_gc(times, rows).splitlines()
    assert lines[0].split() == ["kind", "passes", "gc_ms"]
    table = {row[0]: (int(row[1]), float(row[2])) for row in map(str.split, lines[1:])}
    assert list(table) == [*dict.fromkeys(kind for kind, _, _ in times), "between", "total"]
    assert table["total"][0] == clock.collections
    assert sum(table[kind][0] for kind in list(table)[:-1]) == table["total"][0]
    assert abs(sum(table[kind][1] for kind in list(table)[:-1]) - table["total"][1]) < 1e-3 * len(table)
    assert abs(table["total"][1] - 1e3 * seconds) < 1e-3


def test_check_runs_each_answers_oracle_after_its_clock_stops(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    wl = op_shares.load_workload("shuffle")
    ops = op_shares.build_ops(wl, 5, 60)
    import harness

    oracle, seen = wl.check, []

    def check(op, res):
        (clock,) = [cb for cb in gc.callbacks if isinstance(cb, op_shares.GcByKind)]
        seen.append((op, clock.kind))
        oracle(op, res)

    monkeypatch.setattr(wl, "check", check)
    plain, _ = op_shares.op_runs(wl, ops)
    assert seen == []
    times, rows = op_shares.op_runs(wl, ops, check=True)
    assert [(kind, answered) for kind, _, answered in times] == \
        [(kind, answered) for kind, _, answered in plain]
    assert [op for op, _ in seen] == [op for op, (_, _, answered) in zip(ops, times)
                                      if answered and op[1] is None]
    assert len(seen) > len(ops) // 2 and all(kind is None for _, kind in seen)
    assert set(rows) <= {op[0] for op in ops} | {None}

    def disagree(op, res):  # an oracle that rejects every pair
        if op[0] == "pair":
            raise harness.Mismatch("planted")

    monkeypatch.setattr(wl, "check", disagree)
    times, _ = op_shares.op_runs(wl, ops, check=True)
    assert [answered for _, _, answered in times] == \
        [answered and kind != "pair" for kind, _, answered in plain]
    assert "mismatch: ('pair'" in capsys.readouterr().err


def test_main_prints_the_same_tables_with_and_without_check(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    heads = []
    for flags in ([], ["--check"]):
        op_shares.main(["--workload", "shuffle", "--seed", "5", "--ops", "40", *flags])
        out = capsys.readouterr().out
        heads.append([line.split()[0] for line in out.splitlines() if line])
    assert heads[0] == heads[1] and heads[0][0] == "kind"


def test_table_audit_of_a_few_dozen_shuffle_ops(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    wl = op_shares.load_workload("shuffle")
    ops = op_shares.build_ops(wl, 5, 60)
    assert {"lineg", "stuffle", "pair"} <= {op[0] for op in ops}
    tables = op_shares.package_tables()
    # the tables perfbench reads and the lineg factor table are among those found
    for name in ("shuffle_core._shuffle_words", "shuffle_core._stuffle_words",
                 "polylog.integrate._J", "polylog.negindex._route_factor"):
        assert name in tables, name
    for fn in tables.values():
        fn.cache_clear()
    op_shares.op_shares(wl, ops)
    lines = op_shares.format_tables(tables).splitlines()
    assert lines[0].split() == ["table", "hits", "misses", "size", "maxsize"]
    rows = {row[0]: [int(x) for x in row[1:]] for row in map(str.split, lines[1:])}
    assert list(rows) == [name for name in tables if name in rows]
    for name, (hits, misses, size, maxsize) in rows.items():
        info = tables[name].cache_info()
        assert (hits, misses, size, maxsize) == (info.hits, info.misses, info.currsize, info.maxsize)
        assert hits + misses > 0 and size <= maxsize
    assert rows["shuffle_core._shuffle_words"][0] > 0
    assert rows["polylog.negindex._route_factor"][0] > 0
    # stuffle sums its kernel directly: the stuffle table records no use
    assert "shuffle_core._stuffle_words" not in rows
    info = tables["shuffle_core._stuffle_words"].cache_info()
    assert info.hits == info.misses == info.currsize == 0


def test_latency_table_of_a_few_dozen_numeric_ops(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    wl = op_shares.load_workload("numeric")
    ops = op_shares.build_ops(wl, 5, 40)
    times = op_shares.op_times(wl, ops)
    assert [kind for kind, _, _ in times] == [op[0] for op in ops]
    assert op_shares.shares_of(times).keys() == {op[0] for op in ops}
    # the fixed hopeless requests are refused and the cancelling limit
    # fails: both raise, and the latencies leave them out
    assert not any(answered for kind, _, answered in times if kind in ("hopeless", "cancelling"))
    import harness

    lines = op_shares.format_latency(times).splitlines()
    assert lines[0].split() == ["kind", "answers", "p50_ms", "p90_ms"]
    rows = [line.split() for line in lines[1:]]
    kinds = list(dict.fromkeys(kind for kind, _, _ in times))
    assert [row[0] for row in rows] == kinds + ["all"]
    for kind, count, p50, p90 in rows:
        xs = [s for k, s, answered in times if answered and kind in (k, "all")]
        assert int(count) == len(xs), kind
        if xs:
            assert float(p50) == round(1e3 * harness.quantile(xs, 0.5), 4), kind
            assert float(p90) == round(1e3 * harness.quantile(xs, 0.9), 4), kind
            assert float(p50) <= float(p90)
        else:
            assert p50 == p90 == "-", kind
    assert rows[-1][1] == str(len(ops) - 4)


def test_table_audit_shows_the_block_table_of_exact_sums(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    wl = op_shares.load_workload("numeric")
    ops = [op for op in op_shares.build_ops(wl, 5, 200) if op[0] == "hsum" and op[3] >= 32]
    assert len({op[2] for op in ops}) < len(ops)  # some compositions recur
    tables = op_shares.package_tables()
    assert "polylog.series._blocks" in tables
    for fn in tables.values():
        fn.cache_clear()
    op_shares.op_shares(wl, ops + ops)  # the second pass reads what the first built
    lines = op_shares.format_tables(tables).splitlines()
    rows = {row[0]: [int(x) for x in row[1:]] for row in map(str.split, lines[1:])}
    hits, misses, size, maxsize = rows["polylog.series._blocks"]
    info = tables["polylog.series._blocks"].cache_info()
    assert (hits, misses, size, maxsize) == (info.hits, info.misses, info.currsize, info.maxsize)
    # size and maxsize count bits; each op of the second pass reads at least
    # one block that the first built
    assert hits >= len(ops) and misses > 0 and 0 < size <= maxsize == 1 << 23
