"""Where a workload's operation time goes, per operation kind.

    python3 tools/op_shares.py --workload ideal --seed 1602 --ops 400

Builds the workload's operations as perfbench/run.py does (the seeded
generated list with the fixed operations spread through it), runs each
one in this process through the workload's execute with tracing off,
and times execute alone: no oracle check, no speed probe.  An operation
that raises counts with its time, as a refusal does in a benchmark run.
Prints one row per operation kind, the slowest first:

    kind  count  seconds  share

share is the kind's part of the summed execute time.  The checkout is the
one this file lies in; its perfbench/ and src/ are imported and nothing in
them is changed.  Stdlib only.
"""

from __future__ import annotations

import argparse
import importlib
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


def op_shares(wl, ops: list) -> dict:
    """{kind: [count, seconds]} of execute alone, in the order the kinds
    first appear."""
    import harness

    tracer = harness.NullTracer()
    out: dict = {}
    for op in ops:
        t0 = time.perf_counter()
        try:
            wl.execute(op, tracer)
        except Exception:  # a refusal: its time counts, its answer is not checked
            pass
        dt = time.perf_counter() - t0
        row = out.setdefault(op[0], [0, 0.0])
        row[0] += 1
        row[1] += dt
    return out


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


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="perfbench workload name, e.g. ideal")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=400, help="number of generated operations")
    args = ap.parse_args(argv)
    if args.ops < 1:
        ap.error("--ops must be at least 1")
    wl = load_workload(args.workload)
    print(format_shares(op_shares(wl, build_ops(wl, args.seed, args.ops))))


if __name__ == "__main__":
    main()
