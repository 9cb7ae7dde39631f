"""Where a workload's operation time goes, per operation kind.

    python3 tools/op_shares.py --workload ideal --seed 1602 --ops 400
    python3 tools/op_shares.py --workload shuffle --seed 2101 --ops 3000 --check

Builds the workload's operations as perfbench/run.py does (the seeded
generated list with the fixed operations spread through it), runs each
one in this process through the workload's execute with tracing off,
and times execute alone: no speed probe, and no oracle check unless
--check is given.  With --check, each answer's oracle check runs after
its clock stops, as in a benchmark run, so the checks' allocations and
the collector passes they bring about are the ones a benchmark run
sees; a check that disagrees prints the mismatch to stderr and takes
the operation out of the answers, as perfbench leaves a wrong answer
out of its latencies.  The tables are otherwise the same with or
without the flag.  An operation that raises counts with its time, as a
refusal does in a benchmark run.
Prints one row per operation kind, the slowest first:

    kind  count  seconds  share

share is the kind's part of the summed execute time.  A latency table
follows, over the operations that returned (a refusal or a failure
raises, and the benchmark's latencies leave both out):

    kind  answers  p50_ms  p90_ms

the median and 90th percentile of each kind's execute times and, in the
last row, of the whole run's, in milliseconds, interpolated as
perfbench's latency_p50_ms and latency_p90_ms are (without their
machine-speed scaling).  A kind with no answers shows "-".  A traffic audit
of the package's cache tables follows: every table found by walking the
package's modules (an object with a cache_info: each lru_cache, and
polylog.series._blocks, the block table of exact sums, whose size and
maxsize count bits and whose hits and misses count block reads) is
emptied before the run, and each one the run used gets a row

    table  hits  misses  size  maxsize

so a table whose hits stay near zero holds memory that nothing re-reads.
Last comes the cyclic garbage collector's work, timed from gc.callbacks
as perfbench's harness.GcClock times it, with each pass charged to the
kind of the operation running when it starts:

    kind  passes  gc_ms

one row per kind, in the order the kinds first appear, a "between" row
for passes that start outside every operation (in this tool's own loop),
and a total row for the run; with --check, a pass that starts in a
check counts as between.  The collector runs inside operations, so
their times above include it.  A kind's row names the kind whose
operation started a pass, not the kind whose garbage the pass swept: a
pass of an older generation sweeps what earlier operations of any kind
left, and a change that shifts allocation counts moves such passes
between kinds.  So per-kind collector milliseconds compare across
commits only in the total row.
The checkout is the one this file lies in; its perfbench/ and src/ are
imported and nothing in them is changed.  Stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import pkgutil
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_workload(workload: str):
    """Import perfbench/wl_<workload>.py of this checkout, with its src/
    first on the path."""
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return importlib.import_module(f"wl_{workload}")


def build_ops(wl, seed: int, n: int) -> list:
    """The n generated operations of a seed with the fixed ones spread
    evenly through them, in the order a benchmark run takes them."""
    ops = wl.generate(random.Random(seed), n)
    fixed = wl.fixed_ops()
    for i in reversed(range(len(fixed))):
        ops.insert((i + 1) * n // (len(fixed) + 1), fixed[i])
    return ops


class GcByKind:
    """A gc.callbacks entry: the collector's {kind: [passes, seconds]},
    each pass charged to self.kind when it starts (None between
    operations)."""

    def __init__(self):
        self.kind = None
        self.rows: dict = {}
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = (self.kind, time.perf_counter())
        elif self._start is not None:
            kind, t0 = self._start
            row = self.rows.setdefault(kind, [0, 0.0])
            row[0] += 1
            row[1] += time.perf_counter() - t0
            self._start = None


def checked(wl, op, res) -> bool:
    """True when the workload's oracle accepts the answer res of op;
    False, with a mismatch on stderr, when it disagrees, and False when
    a numeric answer missed its eps, which a benchmark run counts as a
    failure."""
    import harness

    try:
        wl.check(op, res)
    except harness.Mismatch as exc:
        print(f"mismatch: {op!r}: {exc}", file=sys.stderr)
        return False
    except harness.MissedEps:
        return False
    return True


def op_runs(wl, ops: list, check: bool = False) -> tuple:
    """op_times' rows, and the collector's {kind: [passes, seconds]} over
    the run, None keying the passes that start between operations.  With
    check, each answer of an operation that expects no refusal is
    checked after its clock stops, outside every kind (see checked)."""
    import harness

    tracer = harness.NullTracer()
    clock = GcByKind()
    out = []
    gc.callbacks.append(clock)
    try:
        for op in ops:
            answered = True
            clock.kind = op[0]
            t0 = time.perf_counter()
            try:
                res = wl.execute(op, tracer)
            except Exception:  # a refusal: its time counts, its answer is not checked
                answered = False
            seconds = time.perf_counter() - t0
            clock.kind = None
            if check and answered and op[1] is None:
                answered = checked(wl, op, res)
            out.append((op[0], seconds, answered))
    finally:
        gc.callbacks.remove(clock)
    return out, clock.rows


def op_times(wl, ops: list) -> list:
    """(kind, seconds, answered) of execute alone for each operation, in
    order; answered is False when it raised."""
    return op_runs(wl, ops)[0]


def shares_of(times: list) -> dict:
    """{kind: [count, seconds]} of op_times' rows, in the order the kinds
    first appear."""
    out: dict = {}
    for kind, seconds, _ in times:
        row = out.setdefault(kind, [0, 0.0])
        row[0] += 1
        row[1] += seconds
    return out


def op_shares(wl, ops: list) -> dict:
    """{kind: [count, seconds]} of execute alone, in the order the kinds
    first appear."""
    return shares_of(op_times(wl, ops))


def format_shares(shares: dict) -> str:
    """The table of op_shares, the slowest kind first, and a total row."""
    total = sum(seconds for _, seconds in shares.values())
    width = max([len("total"), *map(len, shares)])
    lines = [f"{'kind':{width}s} {'count':>6s} {'seconds':>9s} {'share':>6s}"]
    for kind, (count, seconds) in sorted(shares.items(), key=lambda kv: -kv[1][1]):
        share = 100 * seconds / total if total else 0.0
        lines.append(f"{kind:{width}s} {count:6d} {seconds:9.4f} {share:5.1f}%")
    count = sum(c for c, _ in shares.values())
    lines.append(f"{'total':{width}s} {count:6d} {total:9.4f} {100.0 if total else 0.0:5.1f}%")
    return "\n".join(lines)


def format_latency(times: list) -> str:
    """The latency table of op_times' rows: per kind, in the order the
    kinds first appear, and for all kinds, the answers' count, median and
    p90 in ms."""
    from harness import quantile

    answers: dict = {}
    for kind, seconds, answered in times:
        answers.setdefault(kind, [])
        if answered:
            answers[kind].append(seconds)
    rows = [*answers.items(), ("all", [seconds for _, seconds, answered in times if answered])]
    width = max(len(kind) for kind, _ in rows)
    lines = [f"{'kind':{width}s} {'answers':>7s} {'p50_ms':>9s} {'p90_ms':>9s}"]
    for kind, xs in rows:
        cells = [f"{1e3 * quantile(xs, q):9.4f}" if xs else f"{'-':>9s}" for q in (0.5, 0.9)]
        lines.append(f"{kind:{width}s} {len(xs):7d} {cells[0]} {cells[1]}")
    return "\n".join(lines)


def format_gc(times: list, rows: dict) -> str:
    """The collector's table of op_runs: passes and milliseconds per kind
    that started them, in the order the kinds first appear in times, then
    between operations, then for the whole run; only the total compares
    across commits."""
    kinds = [*dict.fromkeys(kind for kind, _, _ in times), None]
    width = max([len("between"), *map(len, kinds[:-1])])
    lines = [f"{'kind':{width}s} {'passes':>7s} {'gc_ms':>9s}"]
    for kind in kinds:
        passes, seconds = rows.get(kind, (0, 0.0))
        lines.append(f"{kind or 'between':{width}s} {passes:7d} {1e3 * seconds:9.3f}")
    passes = sum(p for p, _ in rows.values())
    seconds = sum(s for _, s in rows.values())
    lines.append(f"{'total':{width}s} {passes:7d} {1e3 * seconds:9.3f}")
    return "\n".join(lines)


def package_tables() -> dict:
    """{name: table} of every cache table defined in the package's
    modules, named by module (below the package) and name: each object
    with a cache_info, but not a class that defines one."""
    import starshuffle

    modules = [starshuffle] + [importlib.import_module(info.name) for info in
                               pkgutil.walk_packages(starshuffle.__path__, "starshuffle.")]
    tables = {}
    for module in modules:
        for name, obj in vars(module).items():
            if (hasattr(obj, "cache_info") and not isinstance(obj, type)
                    and obj.__module__ == module.__name__):
                tables[f"{module.__name__.removeprefix('starshuffle.')}.{name}"] = obj
    return tables


def format_tables(tables: dict) -> str:
    """One row per table that recorded a hit or a miss, in the order of
    tables."""
    used = {name: fn.cache_info() for name, fn in tables.items()}
    used = {name: info for name, info in used.items() if info.hits + info.misses}
    width = max([len("table"), *map(len, used)])
    lines = [f"{'table':{width}s} {'hits':>8s} {'misses':>7s} {'size':>5s} {'maxsize':>7s}"]
    for name, info in used.items():
        lines.append(f"{name:{width}s} {info.hits:8d} {info.misses:7d} "
                     f"{info.currsize:5d} {info.maxsize!s:>7s}")
    return "\n".join(lines)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="perfbench workload name, e.g. ideal")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=400, help="number of generated operations")
    ap.add_argument("--check", action="store_true",
                    help="check each answer against the oracle after its clock stops, "
                         "as a benchmark run does")
    args = ap.parse_args(argv)
    if args.ops < 1:
        ap.error("--ops must be at least 1")
    wl = load_workload(args.workload)
    ops = build_ops(wl, args.seed, args.ops)
    tables = package_tables()
    for fn in tables.values():
        fn.cache_clear()
    times, gc_rows = op_runs(wl, ops, args.check)
    print(format_shares(shares_of(times)))
    print()
    print(format_latency(times))
    print()
    print(format_tables(tables))
    print()
    print("collector passes by the kind that started them (compare the total across commits)")
    print(format_gc(times, gc_rows))


if __name__ == "__main__":
    main()
