"""Workload `numeric`: the series layer carries everything.

Seeded points for eval_li_word, eval_symfun and eval_li2: three in four
have |z| <= 0.9 (some complex), one in four has 0.99 <= |z| <= 0.9999, so
far points sit at the median and near points at the tail.  Exact harmonic
sums up to N = 2000, nonpositive-index Taylor coefficients, and limits at
1 with the numeric fallback ride along.  Spread through the run, a fixed
set of hopeless requests (z = 0.999999, eps = 1e-14, default max_terms)
must end in ConvergenceError.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import oracles as O
from harness import Deck, MissedEps, Mismatch, expect, weighted
from starshuffle import (
    ConvergenceError, EvalParams, NCPoly, SymFun, Word, closed_form_taylor_coeff, embed,
    eval_li2, eval_li_word, eval_symfun, harmonic_sum, limit_at_one,
    neg_taylor_coeff, shuffle, star_term, StarSeries,
)

SCHEDULE = ("li", "prod", "hsum", "li", "symfun", "taylor", "li", "prod", "lim1", "li2",
            "li", "prod", "hsum", "symfun", "li", "prod", "taylor", "li2", "hsum", "lim1")
POINT_KINDS = ("li", "prod", "symfun", "li2")
NEAR_EVERY = 4  # one point in four is near the unit circle
EPS = 1e-12
HSUM_N = {5: 3, 10: 3, 20: 3, 40: 3, 100: 2, 200: 2, 500: 1, 1000: 0.5, 2000: 0.5}
TAYLOR_N = {3: 2, 6: 2, 10: 2, 20: 2, 50: 1, 100: 1, 300: 1}
RATE = 120
GOLDEN = (math.sqrt(5) - 1) / 2
# Li_{x1 x0 x0 x1} - Li_{x1 x0 x1 x1} is finite at 1 since zeta(3) = zeta(2,1):
# the divergent parts cancel across groups and the limit is 7 pi^4 / 360.
CANCELLING = (((0, 0, (1, 0, 0, 1)), 1), ((0, 0, (1, 0, 1, 1)), -1))
HOPELESS_Z = 0.999999
HOPELESS_EPS = 1e-14


def _point(rng, j):
    if j % NEAR_EVERY == NEAR_EVERY - 1:
        # 1 - |z| runs evenly over [1e-4, 1e-2] on a log scale, the same for
        # every seed: the cost of a near point grows as 1 / (1 - |z|)
        u = (j * GOLDEN) % 1.0
        r = 1 - 10 ** (-2 - 2 * u)
    else:
        r = 0.9 * math.sqrt(rng.random())
    ang = 0.0 if rng.random() < 0.4 else rng.uniform(-2.8, 2.8)
    z = cmath.rect(r, ang)
    return (round(z.real, 12), round(z.imag, 12))


def _pick(rng, table):
    return rng.choices(list(table), weights=list(table.values()))[0]


def _make(kind, rng, z, decks):
    if kind == "li":
        return ("li", None, decks["li"].draw(), z)
    if kind == "prod":
        return ("prod", None, *decks["prod"].draw(), z)
    if kind == "symfun":
        k = rng.randint(-2, 3)
        return ("symfun", None, k, rng.randint(0, 3) if k == 0 else 0, decks["word"].draw(),
                Fraction(rng.randint(1, 9), rng.randint(1, 4)), z)
    if kind == "li2":
        return ("li2", None, Fraction(rng.randint(-4, 4)), rng.randint(0, 2),
                decks["word"].draw(), Fraction(rng.randint(1, 9), rng.randint(1, 4)), z)
    if kind == "hsum":
        d, m = decks["hsum"].draw()
        return ("hsum", None, tuple(rng.randint(1, 3) for _ in range(d)), m + rng.randint(0, 3))
    if kind == "taylor":
        return ("taylor", None, tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3))),
                _pick(rng, TAYLOR_N) + rng.randint(0, 3))
    extra = tuple((rng.randint(-3, 3), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                  for _ in range(rng.randint(1, 2)))
    return ("lim1", None, rng.choice(O.MZV_KEYS), Fraction(rng.randint(1, 7), rng.randint(1, 3)), extra)


def generate(rng, n):
    # Cost is set by the words summed (near the circle) and by the depth
    # and N of harmonic sums, so those come from decks.
    words = [(0,) * (s - 1) + (1,) for s in range(1, 6)]
    decks = {
        "li": Deck(rng, words),
        "word": Deck(rng, words[:4]),
        "prod": Deck(rng, [(u, v) for u in words[:3] for v in words[:3]]),
        "hsum": Deck(rng, [(d, m) for d in (1, 2, 3) for m in weighted(HSUM_N, 2)]),
    }
    ops, seen = [], set()
    j = 0  # index of the next evaluation point
    for i in range(n):
        kind = SCHEDULE[i % len(SCHEDULE)]
        for _ in range(50):
            z = None
            if kind in POINT_KINDS:
                z = _point(rng, j)
            op = _make(kind, rng, z, decks)
            if op not in seen:
                seen.add(op)
                ops.append(op)
                break
        j += kind in POINT_KINDS
    return ops


def fixed_ops():
    hopeless = [("hopeless", ConvergenceError, entry, w)
                for entry, w in (("li_word", (1,)), ("symfun", (0, 1)), ("li2", (1, 1)))]
    return hopeless + [("cancelling", None)]


def _params(z, eps=EPS):
    return EvalParams(complex(*z), eps=eps)


_worst = {"ratio": 0.0}


def _call_series(T, fn, *args):
    try:
        return T.call("polylog.series", fn, *args)
    except ConvergenceError:
        T.add("polylog.series.refusals", 1)
        raise


def execute(op, T):
    kind = op[0]
    if kind == "li":
        return _call_series(T, eval_li_word, Word(op[2]), _params(op[3]))
    if kind == "prod":
        p = T.call("shuffle_core", shuffle, NCPoly.from_word(Word(op[2])), NCPoly.from_word(Word(op[3])),
                   size=("shuffle_core.terms_out", len))
        return _call_series(T, eval_li2, embed(p), _params(op[4])), sum(abs(c) for c in p.terms.values())
    if kind == "symfun":
        _, _, k, l, w, c, z = op
        return _call_series(T, eval_symfun, SymFun.monomial(k, l, Word(w), c), _params(z))
    if kind == "li2":
        _, _, a0, a1, w, c, z = op
        return _call_series(T, eval_li2, StarSeries({star_term(Word(w), a0, a1): c}), _params(z))
    if kind == "hsum":
        return T.call("polylog.series", harmonic_sum, op[2], op[3])
    if kind == "taylor":
        return T.call("polylog.series", neg_taylor_coeff, op[2], op[3])
    if kind == "lim1":
        _, _, s, c, extra = op
        f = SymFun({(0, 0, Word(O.composition_word(s))): c})
        for k, r in extra:
            f = f + SymFun.monomial(k, 0, Word(()), r)
        return T.call("polylog.integrate", limit_at_one, f, numeric_fallback=True)
    if kind == "cancelling":
        f = SymFun({(k, l, Word(w)): c for (k, l, w), c in CANCELLING})
        return T.call("polylog.integrate", limit_at_one, f, numeric_fallback=True)
    if kind == "hopeless":
        p = EvalParams(HOPELESS_Z, eps=HOPELESS_EPS)
        w = Word(op[3])
        if op[2] == "li_word":
            return _call_series(T, eval_li_word, w, p)
        if op[2] == "symfun":
            return _call_series(T, eval_symfun, SymFun.from_li(w), p)
        return _call_series(T, eval_li2, StarSeries({star_term(w): 1}), p)
    raise ValueError(kind)



def _within_eps(got, want, weight):
    """|got - want| <= EPS * weight, weight being the sum of |coefficient|
    times |z^k (1-z)^-l| over the words summed.  Records the ratio."""
    ratio = abs(got - want) / (EPS * weight)
    _worst["ratio"] = max(_worst["ratio"], ratio)
    if ratio > 1.0:
        raise MissedEps(f"error {abs(got - want):.3e} misses eps {EPS:g} x {weight:.3g}")


def check(op, res):
    kind = op[0]
    if kind == "li":
        w, z = op[2], complex(*op[3])
        _within_eps(res, O.polylog(len(w), z), 1.0)
    elif kind == "prod":
        value, weight = res
        z = complex(*op[4])
        _within_eps(value, O.polylog(len(op[2]), z) * O.polylog(len(op[3]), z), float(weight))
    elif kind in ("symfun", "li2"):
        _, _, k, l, w, c, zz = op
        z = complex(*zz)
        mult = float(c) * z ** float(k) * (1 - z) ** -float(l)
        _within_eps(res, mult * O.polylog(len(w), z), abs(mult))
    elif kind == "hsum":
        s, n = op[2], op[3]
        expect(isinstance(res, Fraction), "harmonic sum is not exact")
        if n <= (40 if len(s) < 3 else 20):
            expect(res == O.harmonic_naive(s, n), "differs from the naive Fraction sum")
        else:
            want = O.harmonic_float(s, n)
            expect(abs(float(res) - want) <= 1e-12 * abs(want), "differs from the float sum")
    elif kind == "taylor":
        s, n = op[2], op[3]
        if n <= 12:
            expect(res == O.neg_taylor_naive(s, n), "differs from the brute-force sum")
        else:
            expect(res == closed_form_taylor_coeff(O.lineg_reference(s), n), "differs from the closed form")
    elif kind == "lim1":
        _, _, s, c, extra = op
        want = float(c) * O.mzv(s) + float(sum(r for _, r in extra))
        expect(abs(res - want) <= 1e-10 * (1 + abs(want)), f"limit {res!r} != {want!r}")
    elif kind == "cancelling":
        want = 7 * math.pi ** 4 / 360
        expect(abs(res - want) <= 1e-10 * want, f"limit {res!r} != {want!r}")
    else:
        raise Mismatch(f"no oracle for {kind}")


def layer_stats(T):
    return {"polylog.series.max_err_over_eps": _worst["ratio"]}
