"""Size-family growth fits for the traced run.

Each fit is the least-squares slope of log(time) against log(size), the
time being the median of three cold calls.  A polynomial path gives a
slope near its degree; an exponential one gives a slope that keeps rising
with the sizes chosen, so it stands out as a large number.
"""

from __future__ import annotations

import math
import random
import statistics
import time

from starshuffle import EvalParams, NCPoly, SymFun, Word, eval_li_word, normal_form, plane_star, shuffle
from starshuffle import shuffle_core


def _median_time(fn, reps=3):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def _word_shuffle(n, rng):
    u = NCPoly.from_word(Word([rng.randint(0, 1) for _ in range(n)]))
    v = NCPoly.from_word(Word([rng.randint(0, 1) for _ in range(n)]))

    def go():
        shuffle_core._shuffle_words.cache_clear()
        shuffle(u, v)
    return go


def fits():
    """Fitted exponents: n x n word shuffles against n, nf(star(+-k, k))
    against k, SymFun.monomial(-k, k) against k, and eval_li_word(x1, z)
    against 1/(1-z)."""
    rng = random.Random(0)
    sizes = (5, 6, 7, 8, 9, 10)
    shuf = [_median_time(_word_shuffle(n, rng)) for n in sizes]
    ks = (3, 4, 6, 8, 11, 16)
    nf = [_median_time(lambda: (normal_form(plane_star(k, k)), normal_form(plane_star(-k, k))))
          for k in ks]
    ms = (3, 4, 5, 6, 7, 8)
    mono = [_median_time(lambda: SymFun.monomial(-k, k)) for k in ms]
    inv = (10, 30, 100, 300, 1000, 3000)
    x1 = Word("1")
    ev = [_median_time(lambda: eval_li_word(x1, EvalParams(1 - 1 / m))) for m in inv]
    return {
        "shuffle_core.growth_exp": slope(sizes, shuf),
        "rewrite.growth_exp": slope(ks, nf),
        "polylog.symfun.growth_exp": slope(ms, mono),
        "polylog.series.growth_exp": slope(inv, ev),
    }
