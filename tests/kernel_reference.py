"""Reference recursions for the shuffle kernels, reference product loops,
and an exhaustive check of the kernels against the recursions.

The references are the plain first-letter recursions on Word and tuple
keys with Fraction coefficients.  The kernels in shuffle_core must give
the same dicts in the same iteration order, so each comparison is made on
the item lists.  Stdlib only, so it runs where pytest is not installed:

    PYTHONPATH=src python tests/kernel_reference.py

The *_loop functions are the products as each one kept its own double
loop over pairs of terms: shuffle and stuffle summing int numerators over
a common denominator, the other four summing Fractions.  Every product now
goes through linear._bilinear, and must give what these loops give.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from starshuffle.polylog.symfun import SymFun
from starshuffle.shuffle_core import NCPoly, YPoly, _shuffle_words, _stuffle_words, unshuffle
from starshuffle.star_series import StarSeries, StarTerm, _exponent
from starshuffle.words import EPSILON, Word


@lru_cache(maxsize=None)
def shuffle_words_rec(u: Word, v: Word) -> dict:
    """u sh v = (u[:-1] sh v) u[-1] + (u sh v[:-1]) v[-1]."""
    if len(u) == 0:
        return {v: 1}
    if len(v) == 0:
        return {u: 1}
    out: dict = {}
    for w, c in shuffle_words_rec(u[:-1], v).items():
        key = w + u[-1:]
        out[key] = out.get(key, 0) + c
    for w, c in shuffle_words_rec(u, v[:-1]).items():
        key = w + v[-1:]
        out[key] = out.get(key, 0) + c
    return out


@lru_cache(maxsize=None)
def stuffle_words_rec(u: tuple, v: tuple) -> dict:
    """u st v = u[0] (u[1:] st v) + v[0] (u st v[1:]) + (u[0] + v[0]) (u[1:] st v[1:])."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: dict = {}
    for w, c in stuffle_words_rec(u[1:], v).items():
        key = (u[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in stuffle_words_rec(u, v[1:]).items():
        key = (v[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in stuffle_words_rec(u[1:], v[1:]).items():
        key = (u[0] + v[0],) + w
        out[key] = out.get(key, 0) + c
    return out


def unshuffle_rec(w: Word) -> dict:
    """The coproduct as the product of x (x) 1 + 1 (x) x over the letters."""
    out = {(EPSILON, EPSILON): Fraction(1)}
    for i in range(len(w)):
        letter = w[i : i + 1]
        nxt: dict = {}
        for (u, v), c in out.items():
            for key in ((u + letter, v), (u, v + letter)):
                nxt[key] = nxt.get(key, 0) + c
        out = nxt
    return out


def shuffle_ref(p: NCPoly, q: NCPoly) -> NCPoly:
    out: dict = {}
    for u, cu in p.terms.items():
        for v, cv in q.terms.items():
            for w, m in shuffle_words_rec(u, v).items():
                out[w] = out.get(w, 0) + cu * cv * m
    return NCPoly(out)


def stuffle_ref(p: YPoly, q: YPoly) -> YPoly:
    out: dict = {}
    for u, cu in p.terms.items():
        for v, cv in q.terms.items():
            for w, m in stuffle_words_rec(u, v).items():
                out[w] = out.get(w, 0) + cu * cv * m
    return YPoly(out)


def _int_numerator_loop(p, q, pair) -> dict:
    den_p = den_q = 1
    for c in p.terms.values():
        den_p = lcm(den_p, c.denominator)
    for c in q.terms.values():
        den_q = lcm(den_q, c.denominator)
    acc: dict = {}
    for u, cu in p.terms.items():
        for v, cv in q.terms.items():
            c = cu.numerator * (den_p // cu.denominator) * cv.numerator * (den_q // cv.denominator)
            for w, m in pair(u, v).items():
                acc[w] = acc.get(w, 0) + c * m
    return {w: Fraction(c, den_p * den_q) for w, c in acc.items() if c}


def shuffle_loop(p: NCPoly, q: NCPoly) -> NCPoly:
    return NCPoly._trusted(_int_numerator_loop(p, q, _shuffle_words))


def stuffle_loop(p: YPoly, q: YPoly) -> YPoly:
    return YPoly._trusted(_int_numerator_loop(p, q, _stuffle_words))


def shuffle_star_loop(s: StarSeries, t: StarSeries) -> StarSeries:
    out: dict = {}
    for (u, a0, a1), cu in s.terms.items():
        for (v, b0, b1), cv in t.terms.items():
            c = cu * cv
            e0 = _exponent(a0 + b0)
            e1 = _exponent(a1 + b1)
            for w, m in _shuffle_words(u, v).items():
                key = StarTerm(w, e0, e1)
                out[key] = out.get(key, 0) + c * m
    return StarSeries._trusted(out)


def symfun_mul_loop(f: SymFun, g: SymFun) -> SymFun:
    out: list = []
    for (k1, l1, w1), c1 in f.terms.items():
        for (k2, l2, w2), c2 in g.terms.items():
            c = c1 * c2
            for w, m in _shuffle_words(w1, w2).items():
                out.append(((k1 + k2, l1 + l2, w), c * m))
    return SymFun(out)


def conc_loop(p, q):
    """Concatenation of two NCPolys or two YPolys."""
    out: dict = {}
    for u, cu in p.terms.items():
        for v, cv in q.terms.items():
            key = u + v
            out[key] = out.get(key, 0) + cu * cv
    return type(p)(out)


def words_up_to(n: int) -> list:
    return [Word(t) for m in range(n + 1) for t in product((0, 1), repeat=m)]


def ywords_up_to(depth: int, letters=(1, 2, 3)) -> list:
    return [t for m in range(depth + 1) for t in product(letters, repeat=m)]


def check_shuffle_words(max_len: int = 5) -> int:
    ws = words_up_to(max_len)
    for u in ws:
        for v in ws:
            got = list(_shuffle_words(u, v).items())
            want = list(shuffle_words_rec(u, v).items())
            assert got == want, (u, v)
    return len(ws) ** 2


def check_unshuffle(max_len: int = 8) -> int:
    ws = words_up_to(max_len)
    for w in ws:
        got = list(unshuffle(w).items())
        assert got == list(unshuffle_rec(w).items()), w
        assert all(type(c) is Fraction for _, c in got), w
    return len(ws)


def check_stuffle_words(depth: int = 4) -> int:
    ys = ywords_up_to(depth)
    for u in ys:
        for v in ys:
            got = list(_stuffle_words(u, v).items())
            assert got == list(stuffle_words_rec(u, v).items()), (u, v)
    return len(ys) ** 2


if __name__ == "__main__":
    import sys

    print(f"python {sys.version.split()[0]}")
    print(f"_shuffle_words: {check_shuffle_words()} word pairs of length <= 5 match")
    print(f"unshuffle: {check_unshuffle()} words of length <= 8 match")
    print(f"_stuffle_words: {check_stuffle_words()} y-word pairs of depth <= 4 match")
