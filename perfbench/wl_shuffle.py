"""Workload `shuffle`: the word shuffle kernel and sparse-combination building.

Seeded word pairs of 3-12 letters, mostly 9 or fewer, plus multi-term
shuffles, unshuffle, stuffle, star-series shuffles and powers, Lyndon
words and the nonpositive-index closed forms by routes T, R and F.  The
rewriter and numeric series do no work here.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import oracles as O
from harness import Deck, Mismatch, expect, weighted
from starshuffle import (
    DomainError, NCPoly, StarSeries, YPoly, Word, clf_factorize,
    li_neg_closed_form, lyndon_up_to, shuffle, shuffle_power,
    shuffle_star, star, star_term, stuffle, unshuffle, word_of_composition,
)

# Letters per word, weighted towards 9 or fewer; a pair has at most 16.
SIZES = {3: 4, 4: 4, 5: 4, 6: 4, 7: 3, 8: 3, 9: 3, 10: 1, 11: 1, 12: 1}
MAX_PAIR = 16
NAIVE_MAX = 8  # pairs up to this many letters are checked against the naive product
DUALITY_MAX = 10  # unshuffle enumerates 2^n splits, so duality is checked on short words
# One cycle of operation kinds; pool kinds fall back to "pair" when used up.
SCHEDULE = ("pair", "poly", "pair", "unshuffle", "pair", "stuffle", "pair", "star",
            "pair", "lineg", "pair", "clf", "pair", "poly", "pair", "unshuffle",
            "power", "stuffle", "lyndon", "refuse")
RATE = 300
LINEG_MAX_WEIGHT = 5
LINEG_MAX_DEPTH = 3


def _word(rng, n):
    bits = rng.getrandbits(n) if n else 0
    return tuple((bits >> i) & 1 for i in range(n))


def _coeff(rng):
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 3))


def _expo(rng):
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))


def _series(rng, terms, max_len):
    return tuple(sorted({(_word(rng, rng.randint(0, max_len)), _expo(rng), _expo(rng)): _coeff(rng)
                         for _ in range(terms)}.items()))


def _make(kind, rng, pools, i):
    if kind == "pair":
        a, b = pools["pair"].draw()
        return ("pair", None, _word(rng, a), _word(rng, b))
    if kind == "poly":
        def poly():
            return tuple(sorted({_word(rng, rng.randint(2, 6)): _coeff(rng)
                                 for _ in range(rng.randint(2, 3))}.items()))
        return ("poly", None, poly(), poly())
    if kind == "unshuffle":
        return ("unshuffle", None, _word(rng, pools["unshuffle"].draw()))
    if kind == "stuffle":
        depths = pools["stuffle"].draw()
        return ("stuffle", None, *(tuple(rng.randint(1, 4) for _ in range(d)) for d in depths))
    if kind == "star":
        return ("star", None, _series(rng, 2, 4), _series(rng, 2, 4))
    if kind == "power":
        return ("power", None, _series(rng, rng.randint(1, 2), 2), rng.randint(2, 4))
    if kind == "clf":
        return ("clf", None, _word(rng, rng.randint(8, 40)))
    if kind == "refuse":
        m = i // len(SCHEDULE) + 1
        return pools["refuse"].draw()(m)
    pool = pools[kind]
    return pool.pop() if pool else _make("pair", rng, pools, i)


def _decks(rng):
    """Cost-setting sizes come from decks, so every seed gets the same mix."""
    sizes = weighted(SIZES)
    return {
        "pair": Deck(rng, [(a, b) for a in sizes for b in sizes if a + b <= MAX_PAIR]),
        "unshuffle": Deck(rng, range(4, 13)),
        "stuffle": Deck(rng, itertools.product(range(2, 7), repeat=2)),
        "refuse": Deck(rng, (
            lambda m: ("neg_index", DomainError, (m % 7, -m)),
            lambda m: ("neg_power", ValueError, _series(rng, 1, 2), -m),
            lambda m: ("star_const", DomainError, m),
            lambda m: ("bad_composition", ValueError, (m, 0)),
        )),
    }


def generate(rng, n):
    comps = [s for d in range(1, LINEG_MAX_DEPTH + 1)
             for s in itertools.product(range(LINEG_MAX_WEIGHT + 1), repeat=d)
             if sum(s) <= LINEG_MAX_WEIGHT]
    pools = {
        "lineg": [("lineg", None, s, r) for s in comps for r in "TRF"],
        "lyndon": [("lyndon", None, m) for m in range(4, 16)],
    }
    for pool in pools.values():
        rng.shuffle(pool)
    pools.update(_decks(rng))
    ops, seen = [], set()
    for i in range(n):
        kind = SCHEDULE[i % len(SCHEDULE)]
        for _ in range(50):
            op = _make(kind, rng, pools, i)
            if op not in seen:
                seen.add(op)
                ops.append(op)
                break
    return ops


def fixed_ops():
    return []


def _ncpoly(items):
    return NCPoly({Word(w): c for w, c in items})


def _stars(items):
    return StarSeries({star_term(Word(w), a0, a1): c for (w, a0, a1), c in items})


SC = ("shuffle_core.terms_out", len)
SS = ("star_series.terms_out", len)
WO = ("words.words_out", len)


def execute(op, T):
    kind = op[0]
    if kind == "pair":
        p, q = NCPoly.from_word(Word(op[2])), NCPoly.from_word(Word(op[3]))
        return T.call("shuffle_core", shuffle, p, q, size=SC)
    if kind == "poly":
        return T.call("shuffle_core", shuffle, _ncpoly(op[2]), _ncpoly(op[3]), size=SC)
    if kind == "unshuffle":
        return T.call("shuffle_core", unshuffle, Word(op[2]), size=SC)
    if kind == "stuffle":
        return T.call("shuffle_core", stuffle, YPoly.from_yword(op[2]), YPoly.from_yword(op[3]), size=SC)
    if kind == "star":
        return T.call("star_series", shuffle_star, _stars(op[2]), _stars(op[3]), size=SS)
    if kind in ("power", "neg_power"):
        return T.call("star_series", shuffle_power, _stars(op[2]), op[3], size=SS)
    if kind == "clf":
        return T.call("words", clf_factorize, Word(op[2]), size=WO)
    if kind == "lyndon":
        return T.call("words", lyndon_up_to, op[2], size=WO)
    if kind == "lineg":
        return T.call(f"polylog.negindex.{op[3]}", li_neg_closed_form, op[2], op[3])
    if kind == "neg_index":
        return T.call("polylog.negindex.recursion", li_neg_closed_form, op[2])
    if kind == "star_const":
        s = _stars(((((), 0, 0), Fraction(op[2])), (((1,), 0, 0), Fraction(1))))
        return T.call("star_series", star, s)
    if kind == "bad_composition":
        return T.call("words", word_of_composition, op[2])
    raise ValueError(kind)



def _as_tuples(res):
    return {tuple(w): c for w, c in res.terms.items()}


def _check_pair(u, v, got):
    a, b = len(u), len(v)
    if a + b <= NAIVE_MAX:
        expect(got == O.naive_shuffle(u, v), "differs from the naive product")
        return
    expect(sum(got.values()) == math.comb(a + b, a), "coefficient sum is not C(a+b, a)")
    ones = u.count(1) + v.count(1)
    expect(all(len(w) == a + b and w.count(1) == ones for w in got), "letter counts")
    rng = random.Random(hash((u, v)))
    samples = rng.sample(list(got), min(4, len(got)))
    letters = list(u + v)
    for _ in range(3):
        rng.shuffle(letters)
        samples.append(tuple(letters))
    for w in samples:
        expect(got.get(w, 0) == O.interleavings(u, v, w), f"coefficient of {w}")
    if a + b <= DUALITY_MAX:
        w = samples[0]
        dual = unshuffle(Word(w)).get((Word(u), Word(v)), 0)
        expect(dual == got[w], "unshuffle duality")


def _star_product(s, t):
    out: dict = {}
    for (u, a0, a1), c in s.items():
        for (v, b0, b1), d in t.items():
            for w, m in O.naive_shuffle(u, v).items():
                key = (w, a0 + b0, a1 + b1)
                out[key] = out.get(key, 0) + c * d * m
    return {k: c for k, c in out.items() if c}


def _star_tuples(res):
    return {(tuple(t.w), t.a0, t.a1): c for t, c in res.terms.items()}


def check(op, res):
    kind = op[0]
    if kind == "pair":
        _check_pair(op[2], op[3], _as_tuples(res))
    elif kind == "poly":
        want: dict = {}
        for u, c in op[2]:
            for v, d in op[3]:
                for w, m in O.naive_shuffle(u, v).items():
                    want[w] = want.get(w, 0) + c * d * m
        expect(_as_tuples(res) == {w: c for w, c in want.items() if c}, "bilinear shuffle")
    elif kind == "unshuffle":
        w = op[2]
        got = {(tuple(a), tuple(b)): c for (a, b), c in res.items()}
        expect(sum(got.values()) == 2 ** len(w), "coefficient sum is not 2^n")
        rng = random.Random(hash(w))
        pairs = rng.sample(sorted(got), min(5, len(got)))
        for a, b in pairs:
            expect(got[a, b] == O.interleavings(a, b, w), "unshuffle coefficient")
        a, b = pairs[0]
        dual = shuffle(NCPoly.from_word(Word(a)), NCPoly.from_word(Word(b))).coeff(Word(w))
        expect(dual == got[a, b], "shuffle duality")
    elif kind == "stuffle":
        expect(dict(res.terms) == O.naive_stuffle(op[2], op[3]), "differs from the naive stuffle")
    elif kind == "star":
        expect(_star_tuples(res) == _star_product(dict(op[2]), dict(op[3])), "star shuffle")
    elif kind == "power":
        want = {((), Fraction(0), Fraction(0)): Fraction(1)}
        for _ in range(op[3]):
            want = _star_product(want, dict(op[2]))
        expect(_star_tuples(res) == want, "shuffle power")
    elif kind == "clf":
        fs = [tuple(f) for f in res]
        expect(sum(fs, ()) == op[2], "factors do not concatenate to the word")
        expect(all(O.is_lyndon(f) for f in fs), "factor is not Lyndon")
        expect(all(x >= y for x, y in zip(fs, fs[1:])), "factors not nonincreasing")
    elif kind == "lyndon":
        ws = [tuple(w) for w in res]
        n = op[2]
        expect(len(ws) == sum(O.lyndon_count(m) for m in range(1, n + 1)), "Lyndon count")
        expect(all(x < y for x, y in zip(ws, ws[1:])), "not strictly increasing")
        expect(all(O.is_lyndon(w) for w in ws[::7]), "non-Lyndon word")
    elif kind == "lineg":
        expect(res == O.lineg_reference(op[2]), f"route {op[3]} differs from the recursion route")
    else:
        raise Mismatch(f"no oracle for {kind}")


def layer_stats(T):
    return {}
