"""Self-check of the benchmark's steadiness and output contract.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of a checkout; takes about two minutes, most of it the
numeric workload's hopeless requests and the cli workload's child
interpreters.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("shuffle", "ideal", "numeric", "cli")
# Smallest --seconds that still gives each workload 100 answered operations.
SECONDS = {"shuffle": 1, "ideal": 1, "numeric": 1, "cli": 14}
PREFIX = {"shuffle": 200, "ideal": 200, "numeric": 150, "cli": 12}
NAME = re.compile(r"[A-Za-z0-9_.-]+")

DIGEST = """
import hashlib, random, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import harness
wl = __import__("wl_" + sys.argv[3])
ops = wl.generate(random.Random(11), int(sys.argv[4]))

def canon(x):
    if hasattr(x, "terms"):
        return sorted((repr(k), repr(v)) for k, v in x.terms.items())
    if isinstance(x, dict):
        return sorted((repr(k), canon(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    return repr(x)

out = []
for op in ops:
    try:
        out.append(canon(wl.execute(op, harness.NullTracer())))
    except Exception as exc:
        out.append(type(exc).__name__)
print(hashlib.sha256(repr(ops).encode()).hexdigest(), hashlib.sha256(repr(out).encode()).hexdigest())
"""


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _digest(name, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, "-c", DIGEST, os.path.join(ROOT, "src"), BENCH, name, str(PREFIX[name])],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=300)
    return out.stdout.split()


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_ops_and_outputs(name):
    """Two fresh interpreters with different hash seeds build the same
    operation list from one seed and get the same exact outputs."""
    assert _digest(name, 1) == _digest(name, 2)


def _run(name, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", str(SECONDS[name]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_metrics_and_fail_rate(name):
    """Every metric is emitted by name with its unit, and tracing does not
    change which operations fail."""
    spec = _spec()
    plain, traced = _run(name, 0), _run(name, 1)
    for result, listed in ((plain, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 100
        units = {m["name"]: m["unit"] for m in listed}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(NAME.fullmatch(k) for k in units)
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert plain["failed"] / plain["attempted"] == traced["failed"] / traced["attempted"]
    ok = plain["metrics"]["ok_rate"]["value"]
    assert ok == pytest.approx(1 - plain["failed"] / plain["attempted"])


def test_refuses_without_sources():
    """Where there is no src/starshuffle the benchmark exits nonzero and
    prints no result."""
    out = subprocess.run([sys.executable, "run.py", "--workload", "shuffle",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=BENCH, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
