"""Closed-loop runner, span tracer and metric reduction shared by the workloads.

A workload module provides:

    RATE             operations per second of --seconds: a run makes
                     seconds * RATE operations, about --seconds of op time
                     on a shared 2-core x86 VM, so every run of a seed does
                     the same work however fast the machine is
    generate(rng, n) the seeded list of n operations, plain data, none twice
    fixed_ops()      operations spread evenly through the generated ones (may be [])
    execute(op, T)   run one operation through T.call(...) and return its result
    check(op, res)   raise Mismatch when the result disagrees with the oracle
    layer_stats(T)   extra per-layer numbers read after the run (dict)

Each operation is a tuple whose first item is its kind and whose second item
is the documented exception class it must raise, or None when it must answer.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

MIN_ANSWERS = 100  # p90 needs at least ten samples beyond it
WALL_CAP_S = 110.0  # keep a run well inside the 180 s limit
SETUP_PROBES = 9
SPEED_PROBE_EVERY_S = 0.1
# Typical speed_probe() time on the shared 2-core x86 VM the RATEs were set on.
NOMINAL_PROBE_S = 1.8e-3


class Mismatch(AssertionError):
    """An answer disagreed with its oracle."""


def expect(cond, msg):
    """Raise Mismatch(msg) unless cond holds."""
    if not cond:
        raise Mismatch(msg)


class MissedEps(Exception):
    """A numeric answer agreed with its oracle only beyond the requested eps."""


class Deck:
    """Seeded draws from a fixed multiset, reshuffled whenever it runs out,
    so runs of every seed see each value in the same proportion."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.pool = []

    def draw(self):
        if not self.pool:
            self.pool = self.items[:]
            self.rng.shuffle(self.pool)
        return self.pool.pop()


def weighted(table, scale=1):
    """A multiset with each key repeated round(weight * scale) times."""
    return [k for k, w in table.items() for _ in range(round(w * scale))]


class Tracer:
    """Span recorder for calls the benchmark makes into a layer.

    Spans nest through a stack; a layer's busy time is its spans' duration
    minus the part covered by child spans (self time).  Counters are keyed
    by full metric name.
    """

    enabled = True

    def __init__(self):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.spans = 0
        self._child = []

    def call(self, layer, fn, *args, size=None, **kw):
        t0 = time.perf_counter()
        self._child.append(0.0)
        try:
            out = fn(*args, **kw)
        finally:
            dt = time.perf_counter() - t0
            self.busy[layer] += dt - self._child.pop()
            self.calls[layer] += 1
            self.spans += 1
            if self._child:
                self._child[-1] += dt
        if size is not None:
            self.counts[size[0]] += size[1](out)
        return out

    def add(self, name, value):
        self.counts[name] += value


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, layer, fn, *args, size=None, **kw):
        return fn(*args, **kw)

    def add(self, name, value):
        pass


def span_cost_s(n=20000):
    """Median cost of one empty span, from three timed batches."""
    def noop():
        return None

    costs = []
    for _ in range(3):
        t = Tracer()
        t0 = time.perf_counter()
        for _ in range(n):
            t.call("x", noop)
        mid = time.perf_counter()
        for _ in range(n):
            noop()
        end = time.perf_counter()
        costs.append(max((mid - t0) - (end - mid), 0.0) / n)
    return statistics.median(costs)


def speed_probe():
    """Time a fixed piece of pure-Python work (Fraction sums, dict inserts,
    an int loop) that calls no library code, with the collector off.  On a
    shared host the machine's speed drifts by tens of percent from one run
    to the next; this probe follows that drift and nothing the library does."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table, acc = {}, Fraction(0)
        for i in range(1, 120):
            acc += Fraction(1, i)
            table[i, i & 7] = acc
        s = 0
        for i in range(10000):
            s += i * i % 7
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def trimmed_mean(values, cut=0.1):
    """Mean of the values left after dropping the lowest and highest tenth."""
    xs = sorted(values)
    k = int(len(xs) * cut)
    return statistics.fmean(xs[k:len(xs) - k])


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class GcClock:
    """Time spent in the cyclic garbage collector, from gc.callbacks."""

    def __init__(self):
        self.total = 0.0
        self.collections = 0
        self._t0 = None

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        elif self._t0 is not None:
            self.total += time.perf_counter() - self._t0
            self.collections += 1
            self._t0 = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def child_env(root):
    """Environment for child interpreters: the checkout's src on the path and
    bytecode caching on, as for an installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


PROBE = (
    "import random, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import starshuffle, starshuffle.cli\n"
    "import importlib\n"
    "importlib.import_module(sys.argv[2]).generate(random.Random(int(sys.argv[3])), int(sys.argv[4]))\n"
)


def setup_seconds(root, module, seed, n):
    """Median wall time of fresh interpreters that import the library and
    build this workload's operation list, at nominal machine speed by the
    speed probes taken between them."""
    bench = os.path.dirname(os.path.abspath(__file__))
    times, probes = [], []
    for _ in range(SETUP_PROBES):
        probes += [speed_probe() for _ in range(3)]
        t0 = time.perf_counter()
        # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms.
        subprocess.run(
            [sys.executable, "-c", PROBE, bench, module, str(seed), str(n)],
            cwd=root, env=child_env(root), check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * NOMINAL_PROBE_S / trimmed_mean(probes)


def _outcome(wl, op, T):
    """Run one operation; return (seconds, status) with status one of
    'answer', 'refusal', 'fail' or 'wrong'."""
    expect = op[1]
    t0 = time.perf_counter()
    try:
        res = wl.execute(op, T)
        err = None
    except Exception as exc:  # classified below against the documented errors
        res, err = None, exc
    dt = time.perf_counter() - t0
    if expect is not None:
        if type(err) is expect:
            return dt, "refusal"
        return dt, "fail"
    if err is not None:
        return dt, "fail"
    try:
        wl.check(op, res)
    except Mismatch as exc:
        print(f"mismatch: {op!r}: {exc}", file=sys.stderr)
        return dt, "wrong"
    except MissedEps:
        return dt, "fail"
    return dt, "answer"


def run(wl, seed, seconds, trace, root, module):
    """Run one workload and return the result object to print.

    Times are reported at nominal machine speed: every measured time is
    scaled by NOMINAL_PROBE_S / (trimmed mean of this run's speed probes),
    the probe running between operations every SPEED_PROBE_EVERY_S.  The
    host's speed flips between states within seconds; the mean over the
    run follows the share of time spent in each, where a median or a
    probe next to the operation would jump between them."""
    n = max(1, round(seconds * wl.RATE))
    setup_s = setup_seconds(root, module, seed, n)
    ops = wl.generate(random.Random(seed), n)
    fixed = wl.fixed_ops()
    for i in reversed(range(len(fixed))):
        ops.insert((i + 1) * n // (len(fixed) + 1), fixed[i])
    T = Tracer() if trace else NullTracer()
    answers, refusals, probes = [], [], [speed_probe()]
    failed = wrong = attempted = 0
    wall0 = last_probe = time.perf_counter()
    with GcClock() as gcc:
        for op in ops:
            now = time.perf_counter()
            if now - wall0 > WALL_CAP_S:
                break
            if now - last_probe >= SPEED_PROBE_EVERY_S:
                probes.append(speed_probe())
                last_probe = time.perf_counter()
            dt, status = _outcome(wl, op, T)
            attempted += 1
            if status == "answer":
                answers.append(dt)
            elif status == "refusal":
                refusals.append(dt)
            else:
                failed += 1
                wrong += status == "wrong"
    probes.append(speed_probe())
    if len(answers) < MIN_ANSWERS or not refusals:
        raise RuntimeError(f"{len(answers)} answers and {len(refusals)} refusals; "
                           f"need {MIN_ANSWERS} answers and a refusal")
    scale = NOMINAL_PROBE_S / trimmed_mean(probes)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed}
    if not trace:
        rss_mb = wl.peak_rss_mb() if hasattr(wl, "peak_rss_mb") else (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(answers) / (sum(answers) * scale), "1/s"),
            "latency_p50_ms": (quantile(answers, 0.5) * scale * 1e3, "ms"),
            "latency_p90_ms": (quantile(answers, 0.9) * scale * 1e3, "ms"),
            "ok_rate": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
            "refuse_ms": (quantile(refusals, 0.5) * scale * 1e3, "ms"),
        }
    else:
        metrics = layer_metrics(wl, T, gcc, sum(answers) + sum(refusals), scale)
        metrics["runtime.probe_ms"] = (trimmed_mean(probes) * 1e3, "ms")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


# Every per-layer metric, with its unit; a traced run reports all of them.
PER_LAYER = {}
for _layer in ("shuffle_core", "star_series", "rewrite", "polylog.symfun"):
    PER_LAYER.update({f"{_layer}.calls": "count", f"{_layer}.busy_ms": "ms",
                      f"{_layer}.terms_out": "count"})
PER_LAYER.update({
    "shuffle_core.cache_entries": "count",
    "shuffle_core.cache_hit_ratio": "ratio",
    "polylog.negindex.T.busy_ms": "ms",
    "polylog.negindex.R.busy_ms": "ms",
    "polylog.negindex.F.busy_ms": "ms",
    "polylog.negindex.recursion.busy_ms": "ms",
    "words.busy_ms": "ms",
    "words.words_out": "count",
    "rewrite.trace_states": "count",
    "polylog.integrate.calls": "count",
    "polylog.integrate.busy_ms": "ms",
    "polylog.integrate.cache_entries": "count",
    "polylog.series.calls": "count",
    "polylog.series.busy_ms": "ms",
    "polylog.series.refusals": "count",
    "polylog.series.max_err_over_eps": "ratio",
    "expressions.busy_ms": "ms",
    "expressions.chars_in": "count",
    "expressions.chars_out": "count",
    "cli.spawn_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.exit_mismatch": "count",
    "runtime.gc_ms": "ms",
    "runtime.gc_collections": "count",
    "runtime.probe_ms": "ms",
    "shuffle_core.growth_exp": "1",
    "rewrite.growth_exp": "1",
    "polylog.symfun.growth_exp": "1",
    "polylog.series.growth_exp": "1",
    "trace.overhead_ratio": "ratio",
})


def layer_metrics(wl, T, gcc, op_seconds, scale):
    """Per-layer numbers of a traced run, every name in PER_LAYER but the
    speed probe; times at nominal speed, like the end-to-end ones."""
    import growth
    from starshuffle import shuffle_core
    from starshuffle.polylog import integrate

    out = {name: 0.0 for name in PER_LAYER if name != "runtime.probe_ms"}
    for layer, busy in T.busy.items():
        out[f"{layer}.busy_ms"] = busy * 1e3
        if f"{layer}.calls" in out:
            out[f"{layer}.calls"] = T.calls[layer]
    out.update(T.counts)
    hits = misses = entries = 0
    for fn in (shuffle_core._shuffle_words, shuffle_core._stuffle_words):
        info = fn.cache_info()
        hits, misses, entries = hits + info.hits, misses + info.misses, entries + info.currsize
    out["shuffle_core.cache_entries"] = entries
    out["shuffle_core.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["polylog.integrate.cache_entries"] = sum(
        fn.cache_info().currsize for fn in (integrate._J, integrate._K, integrate._A, integrate._P))
    out["runtime.gc_ms"] = gcc.total * 1e3
    out["runtime.gc_collections"] = gcc.collections
    out.update(wl.layer_stats(T))
    tracer_s = T.spans * span_cost_s()
    out["trace.overhead_ratio"] = op_seconds / max(op_seconds - tracer_s, 1e-9)
    out.update(growth.fits())
    unknown = set(out) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {k: (float(v) * (scale if PER_LAYER[k] == "ms" else 1.0), PER_LAYER[k])
            for k, v in out.items()}
