"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Runs one workload in this process with
one closed-loop client, checks every result against an oracle, and prints
as its last line one JSON object: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

WORKLOADS = ("shuffle", "ideal", "numeric", "cli")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "starshuffle", "__init__.py")):
        sys.exit(f"no starshuffle sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)

    import harness

    module = f"wl_{args.workload}"
    wl = importlib.import_module(module)
    result = harness.run(wl, args.seed, args.seconds, bool(args.trace), root, module)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
