"""Alternating benchmark pairs of two checkouts, summarised per metric.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload ideal --seeds 201-210 --out bench/BENCH_<n>.json

For each workload and seed, runs `perfbench/run.py` once in each checkout,
the parent first on even pairs and the change first on odd ones, so that
a drift in machine speed falls on both sides.  The run length, the
end-to-end metrics, their better direction and their bounds are read
from the change's BENCHMARK.json.  For every metric it prints each
side's median and quartiles, each side's spread (Q3 - Q1) / median, the
pairs the change won (ties count for neither side), and a verdict, the
first of these that holds:

    gain        the change won at least 9 in 10 pairs, the medians
                differ by more than the parent's interquartile range,
                and the change failed no larger share of its operations
                than the parent did;
    worse       the change's median is worse than the parent's by more
                than the metric's bound;
    unresolved  the spread of either side is wider than the bound, so
                the runs cannot tell the change from the parent, unless
                every change run reads better than every parent run;
    within      none of these.

It also prints each side's failed and attempted operations per
workload, and stops, naming the side, workload and seed, at the first
run that reports a wrong answer ("correct": false), so that no record
summarises wrong answers.  Every run and the summary go to the --out
JSON file.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def parse_seeds(text: str) -> list:
    """'201-210' or '201,205,209' as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(side: str, checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of a checkout; exits naming the side, workload and
    seed when the run reports a wrong answer."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["correct"] is not True:
        raise SystemExit(f"{side} ({checkout}) gave wrong answers on {workload} seed {seed}: "
                         f"{result['failed']} of {result['attempted']} operations failed")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(pairs: list, spec: dict) -> dict:
    """Per-metric medians, quartiles, spreads, wins and verdict over the
    pairs."""
    shares = failure_shares(pairs)
    par_f, chg_f = shares["parent"], shares["change"]
    more_failures = chg_f["failed"] * par_f["attempted"] > par_f["failed"] * chg_f["attempted"]
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        losses = sum((c > p) if lower else (c < p) for p, c in zip(par, chg))
        pm, cm = statistics.median(par), statistics.median(chg)
        pq, cq = quartiles(par), quartiles(chg)
        ps = (pq[1] - pq[0]) / pm if pm else 0.0
        cs = (cq[1] - cq[0]) / cm if cm else 0.0
        worse_by = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
        gained = (cm < pm) if lower else (cm > pm)
        apart = max(chg) < min(par) if lower else min(chg) > max(par)
        if (wins >= 0.9 * len(pairs) and gained and abs(cm - pm) > pq[1] - pq[0]
                and not more_failures):
            verdict = "gain"
        elif worse_by > m["bound"]:
            verdict = "worse"
        elif max(ps, cs) > m["bound"] and not apart:
            verdict = "unresolved"
        else:
            verdict = "within"
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent_median": pm, "parent_q1": pq[0], "parent_q3": pq[1], "parent_spread": ps,
            "change_median": cm, "change_q1": cq[0], "change_q3": cq[1], "change_spread": cs,
            "change_vs_parent": (cm - pm) / pm if pm else None,
            "wins": wins, "losses": losses, "pairs": len(pairs), "verdict": verdict,
        }
    return out


def failure_shares(pairs: list) -> dict:
    """Each side's failed and attempted operations summed over the pairs."""
    return {side: {"failed": sum(p[side]["failed"] for p in pairs),
                   "attempted": sum(p[side]["attempted"] for p in pairs)}
            for side in ("parent", "change")}


def print_summary(workload: str, summary: dict, failures: dict) -> None:
    print(f"\n{workload}")
    print("  failed/attempted: " + ", ".join(
        f"{side} {f['failed']}/{f['attempted']}" for side, f in failures.items()))
    print(f"  {'metric':15s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
          f" {'change':>8s} {'spreads':>13s} {'wins':>6s}  verdict")
    for name, s in summary.items():
        par = f"{s['parent_median']:.4g} [{s['parent_q1']:.4g}, {s['parent_q3']:.4g}]"
        chg = f"{s['change_median']:.4g} [{s['change_q1']:.4g}, {s['change_q3']:.4g}]"
        rel = "" if s["change_vs_parent"] is None else f"{100 * s['change_vs_parent']:+.1f}%"
        spreads = f"{s['parent_spread']:.3f}/{s['change_spread']:.3f}"
        print(f"  {name:15s} {par:>30s} {chg:>30s} {rel:>8s} {spreads:>13s}"
              f" {s['wins']:>3d}/{s['pairs']:<2d}  {s['verdict']}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--workload", action="append", required=True,
                    help="workload to run; repeat for several")
    ap.add_argument("--seeds", required=True, help="one seed per pair: '201-210' or '1,5,9'")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    workloads: dict = {}
    record = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "system": platform.system()},
        "command": spec["command"], "seconds": seconds, "workloads": workloads,
    }
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(seeds):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": sides[0]}
            for side in sides:
                pair[side] = run_once(side, getattr(args, side), workload, seed, seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed}: ops_per_s parent "
                  f"{pair['parent']['metrics']['ops_per_s']:.1f}, change "
                  f"{pair['change']['metrics']['ops_per_s']:.1f}", flush=True)
        summary = summarise(pairs, spec)
        failures = failure_shares(pairs)
        workloads[workload] = {"date": time.strftime("%Y-%m-%d"), "pairs": pairs,
                               "failures": failures, "summary": summary}
        print_summary(workload, summary, failures)
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
