"""Reference recursions for the shuffle kernels, reference product loops,
and an exhaustive check of the kernels against the recursions.

The references are the plain first-letter recursions on Word and tuple
keys with Fraction coefficients.  The kernels in shuffle_core must give
the same dicts in the same iteration order, so each comparison is made on
the item lists.  Stdlib only, so it runs where pytest is not installed:

    PYTHONPATH=src python tests/kernel_reference.py

The product *_loop functions are the products as each one kept its own
double loop over pairs of terms: shuffle and stuffle summing int numerators over
a common denominator, the other four summing Fractions.  Every product now
goes through linear._bilinear, and must give what these loops give.
symfun_mul_canonical_loop is the SymFun product's double loop followed
by the reduction of each raw key in the order the loop met it, which the
product must give item for item.  stuffle_cached_ref is stuffle as it
summed the cached products of _stuffle_words through linear._bilinear;
stuffle, which sums the uncached kernel, must give its values, value
types and dict order.

reduce_trailing_x0_levels_ref is symfun._reduce_trailing_x0 as it built
its levels u sh x0^m one from another with a second shuffle kernel,
_times_x0; the row read off the last row of one shuffle table must give
its items, int types and order.

reduce_exponents_rec is rewrite.reduce_exponents as it expanded k >= 1
through k + 1 recursive calls; the one loop that replaced them must give
its values and dict order.

The other *_loop functions are the linear maps as each kept its own
loop over terms before every map went through linear._bilinear, _linear
or _combine: the left and right residuals, pi_y, pi_x, delta_left, the
normal-form sums of rewrite, the antiderivative against dz of the
integrate tables, to_pieces, and the trailing-x0 reduction of a word.
Each new form must give their values and value types; the dict order
too, except that a word's reduced row is now stored in the piece order
(|u|, u, n), so to_pieces must give what its loop gives over the sorted
rows.

The *_ref functions are the linear operators as they were computed term
by term, every intermediate result built through the SymFun and
StarSeries constructors and summed with +: d/dz, theta, iota and their
word strings, the SymFun product (raw keys merged, then reduced on
insertion), and the star series of the lineg routes.  The antiderivative
and the basepoint limits among them are the former Fraction loops over
the reduced pieces, which took every limit's Taylor coefficients afresh.
Each new form must give their values, raised exception classes and dict
order.  iota_ref is the antiderivative of f minus its basepoint
constants, iota_0's being summed over the reduced pieces, each
re-integrated alone; iota0_sections_ref is iota_0 as it summed the
anchored section of each piece, in the sorted piece order, and iota_0
must give its values and floats, though not its dict order, and refuses
with DomainError a piece with no limit that it met after a float
constant.  zeta_numeric_ref is integrate._zeta_numeric as it evaluated
each factor of its split at z = 1/2 with its own eval_li_word call, whose
floats _zeta_numeric must give bit for bit.

step_product_ref and harmonic_sum_ref are the exact nested sums as they
were split before the lcm denominators: every entry of every range over
the one product denominator (prod n)^max(s), leaves of 8 numbers.
harmonic_sum must give their Fractions, and those of harmonic_sum_loop,
the former depth >= 2 loop, one Fraction add per n and per row, which
gives H_s(n) for every n up to its bound.  stirling2_rec is stirling2 as it
recursed on n.  neg_taylor_coeff_loop is neg_taylor_coeff as it ran the
nested sum over every m < n; the sum in the binomial basis must give its
ints.

li_series_ref is the direct series of one word as series._li_series
summed it: the up-front refusal, then the loop, at the complex point.
walk_may_win is the floor/ceiling filter that series._li_values ran
before its two term predictions: wherever it chose the direct series,
the predictions must choose it too.

canonical_ref is the reduction rule on one key, as the deleted per-key
rule rewrite._canonical gave it before the exponent table, expanding
reduce_exponents on every call; the reducer loop _canonical_sums must
sum it, and symfun_mul_canonical_loop reads it.  construct_ref is the
constructors of the four combination types as they built every
coefficient by Fraction(coeff) and stored a key's first value as
0 + coeff, StarSeries making its keys through StarTerm's own __new__ and
SymFun reducing its raw keys with canonical_ref; their key gates are the
current ones, which refuse bools.
normal_form_ref and rewrite_trace_ref are normal_form and rewrite_trace
as they were then, the trace dropping each rewritten key from its level
and wrapping each state by a helper call.  The new forms must give their
values, value types, exception classes and dict order.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, product
from math import comb, factorial, lcm, log, log2

from starshuffle.errors import DomainError, NonElementaryConstantError
from starshuffle.polylog.integrate import _A, _J, _K, _P, _li_coeffs, _piece_index, _zeta_numeric
from starshuffle.polylog.negindex import _nested_indices
from starshuffle.polylog.series import (
    EvalParams,
    _check_composition,
    _refuse_hopeless,
    _series_sum,
    eval_li_word,
    stirling2,
)
from starshuffle.polylog.symfun import SymFun, _piece_order, _symfun_pair
from starshuffle.linear import _bilinear, _common_scale, _fractions, _row_of, _sum_rule
from starshuffle.rewrite import _check_laurent, _check_strategy, reduce_exponents
from starshuffle.shuffle_core import (
    NCPoly,
    YPoly,
    _shuffle_words,
    _stuffle_words,
    shuffle,
    unshuffle,
)
from starshuffle.star_series import StarSeries, StarTerm, _exponent, plane_star, shuffle_star
from starshuffle.words import (EPSILON, Word, _new, composition_of_word, shortlex_key,
                               word_of_composition)


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


def stuffle_cached_ref(p: YPoly, q: YPoly) -> YPoly:
    return YPoly._from_row(_bilinear(_row_of(p), _row_of(q), _stuffle_words))


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


def symfun_mul_canonical_loop(f: SymFun, g: SymFun) -> SymFun:
    """The SymFun product as its pair loop on int numerators, then each raw
    key's reduction summed in the order the loop met the keys."""
    out: dict = {}
    for key, c in _int_numerator_loop(f, g, _symfun_pair).items():
        for canon, m in canonical_ref(key).items():
            out[canon] = out.get(canon, 0) + c * m
    return SymFun._trusted({k: c for k, c in out.items() if c})


def symfun_mul_ref(f: SymFun, g: SymFun) -> SymFun:
    return SymFun(_int_numerator_loop(f, g, _symfun_pair))


def left_residual_loop(p: NCPoly, s: NCPoly) -> NCPoly:
    out: dict = {}
    for v, cv in s.terms.items():
        for u, cu in p.terms.items():
            if v.endswith(u):
                key = v[: len(v) - len(u)]
                out[key] = out.get(key, 0) + cu * cv
    return NCPoly(out)


def right_residual_loop(s: NCPoly, p: NCPoly) -> NCPoly:
    out: dict = {}
    for v, cv in s.terms.items():
        for u, cu in p.terms.items():
            if v.startswith(u):
                key = v[len(u) :]
                out[key] = out.get(key, 0) + cu * cv
    return NCPoly(out)


def pi_y_loop(p: NCPoly) -> YPoly:
    out: dict = {}
    for w, c in p.terms.items():
        if len(w) and w[-1] != 1:
            continue
        key = composition_of_word(w)
        out[key] = out.get(key, 0) + c
    return YPoly(out)


def pi_x_loop(q: YPoly) -> NCPoly:
    out: dict = {}
    for yw, c in q.terms.items():
        key = word_of_composition(yw)
        out[key] = out.get(key, 0) + c
    return NCPoly(out)


def delta_left_loop(letter: int, s: StarSeries) -> StarSeries:
    if letter not in (0, 1):
        raise ValueError("letter must be 0 or 1")
    out: dict = {}
    for t, c in s.terms.items():
        if len(t.w) and t.w[0] == letter:
            key = StarTerm(t.w[1:], t.a0, t.a1)
            out[key] = out.get(key, 0) + c
        eig = t.a0 if letter == 0 else t.a1
        if eig:
            out[t] = out.get(t, 0) + c * eig
    return StarSeries(out)


def normal_sums_loop(s: StarSeries) -> tuple:
    """rewrite's normal form of a Laurent series as int sums
    {(w, k, l): n} over one denominator, and that denominator."""
    den = 1
    for c in s.terms.values():
        den = lcm(den, c.denominator)
    acc: dict = {}
    for t, c in s.terms.items():
        c = c.numerator * (den // c.denominator)
        for (k, l), m in reduce_exponents_rec(int(t.a0), int(t.a1)).items():
            key = (t.w, k, l)
            acc[key] = acc.get(key, 0) + c * m
    return acc, den


def normal_form_loop(s: StarSeries) -> StarSeries:
    acc, den = normal_sums_loop(s)
    return StarSeries._trusted({StarTerm(w, k, l): Fraction(c, den)
                                for (w, k, l), c in acc.items() if c})


def kernel_member_loop(s: StarSeries) -> bool:
    acc, _ = normal_sums_loop(s)
    return not any(acc.values())


def canonical_ref(key: tuple) -> dict:
    k, l, w = key
    if l >= 0 and k * l == 0:
        return {key: 1}
    return {(k2, l2, w): m for (k2, l2), m in reduce_exponents(k, l).items()}


def _star_term_ref(w: Word = EPSILON, a0=0, a1=0) -> StarTerm:
    return StarTerm(w, _exponent(a0), _exponent(a1))


def _insert_ref(cls, data: dict, key, coeff: Fraction) -> None:
    if cls is YPoly:
        key = tuple(key)
        if any(not isinstance(k, int) or isinstance(k, (Word, bool)) or k < 1 for k in key):
            raise ValueError(f"y-word indices must be positive integers, got {key!r}")
    elif cls is StarSeries:
        key = _star_term_ref(*key)
    elif cls is SymFun:
        k, l, w = key
        if (not isinstance(k, int) or not isinstance(l, int)
                or isinstance(k, (Word, bool)) or isinstance(l, (Word, bool))):
            raise ValueError("powers k and l must be integers")
        if not (l >= 0 and k * l == 0):
            for canon, m in canonical_ref(key).items():
                data[canon] = data.get(canon, 0) + coeff * m
            return
    data[key] = data.get(key, 0) + coeff


def construct_ref(cls, terms=None):
    """cls(terms) for NCPoly, YPoly, StarSeries or SymFun."""
    data: dict = {}
    if terms is not None:
        items = terms.items() if hasattr(terms, "items") else terms
        for key, coeff in items:
            if isinstance(coeff, Word):
                raise TypeError(f"a Word is not a coefficient: {coeff!r}")
            _insert_ref(cls, data, key, Fraction(coeff))
    return cls._trusted({k: c for k, c in data.items() if c})


def normal_form_ref(s: StarSeries, strategy: str = "measure", rng=None) -> StarSeries:
    _check_laurent(s)
    _check_strategy(strategy)
    nums, den = _common_scale(s.terms.values())
    keys = ((int(k), int(l), w) for w, k, l in s.terms)
    acc = _sum_rule(zip(keys, nums), canonical_ref)
    return StarSeries._trusted({StarTerm(w, k, l): c
                                for (k, l, w), c in _fractions(acc, den).items()})


def _drop_ref(levels: dict, level: int, key: tuple) -> None:
    bucket = levels.get(level)
    if bucket is not None:
        bucket.discard(key)
        if not bucket:
            del levels[level]


def _state_ref(terms: dict) -> StarSeries:
    obj = StarSeries.__new__(StarSeries)
    obj.terms = terms
    return obj


def rewrite_trace_ref(s: StarSeries, strategy: str = "measure", rng=None) -> list:
    _check_laurent(s)
    _check_strategy(strategy)
    if strategy == "random" and rng is None:
        rng = random.Random()
    words = sorted({t.w for t in s.terms}, key=shortlex_key)
    rank = {w: i for i, w in enumerate(words)}
    nums, den = _common_scale(s.terms.values())
    live = {(rank[w], int(k), int(l)): c for (w, k, l), c in zip(s.terms, nums)}
    values = dict(s.terms)
    made: dict = {}
    levels: dict = {}
    for key in live:
        _, k, l = key
        if k and l:
            levels.setdefault(abs(k) + l, set()).add(key)
    states = [_state_ref(dict(values))]
    todo: list = []
    while True:
        if not todo:
            if not levels:
                return states
            if strategy == "measure":
                todo = sorted(levels.pop(max(levels)))
            else:
                todo = [rng.choice(sorted(chain.from_iterable(levels.values())))]
        key = todo.pop()
        i, k, l = key
        c = live.pop(key)
        w = words[i]
        del values[StarTerm(w, k, l)]
        level = abs(k) + l
        _drop_ref(levels, level, key)
        if k >= 1:
            pieces = ((k - 1, l, c, level - 1 if k > 1 else 0),
                      (k - 1, l - 1, -c, level - 2 if k > 1 and l > 1 else 0))
        else:
            pieces = ((k, l - 1, c, level - 1 if l > 1 else 0),
                      (k + 1, l, c, level - 1 if k < -1 else 0))
        for k, l, dc, level in pieces:
            key = (i, k, l)
            old = live.get(key, 0)
            nc = old + dc
            if nc:
                live[key] = nc
                f = made.get(nc)
                if f is None:
                    f = made[nc] = Fraction(nc, den)
                values[StarTerm(w, k, l)] = f
                if level and not old:
                    levels.setdefault(level, set()).add(key)
            else:
                del live[key], values[StarTerm(w, k, l)]
                if level:
                    _drop_ref(levels, level, key)
        states.append(_state_ref(dict(values)))


def against_dz_loop(pieces: dict, w: Word) -> SymFun:
    """An antiderivative against dz of the sum of c z^k (1-z)^(-l) Li_w
    over canonical pieces {(k, l): c}, from the integrate tables."""
    out: dict = {}
    for (k, l), c in pieces.items():
        table = _A(l, w) if l else _P(k, w)
        for key, v in table.terms.items():
            out[key] = out.get(key, 0) + c * v
    return SymFun._trusted({key: v for key, v in out.items() if v})


@lru_cache(maxsize=None)
def reduce_trailing_x0_loop(w: Word) -> dict:
    """Li_w over the basis Li_u log^n(z)/n!, u empty or ending in x1, via
    u x1 x0^n = u x1 sh x0^n - sum_k (u sh x0^k) x1 x0^(n-k), in the order
    the recursion meets the pieces; treat as read-only."""
    if w.count(1) == 0:
        return {(EPSILON, len(w)): Fraction(1)}
    n = 0
    while w[len(w) - 1 - n] == 0:
        n += 1
    if n == 0:
        return {(w, 0): Fraction(1)}
    head = w[: len(w) - n]
    u = head[:-1]
    out = {(head, n): Fraction(1)}
    for k in range(1, n + 1):
        shuffled = shuffle(NCPoly.from_word(u), NCPoly.from_word(Word([0] * k)))
        tail = Word([1] + [0] * (n - k))
        for t, c in shuffled.terms.items():
            for key, c2 in reduce_trailing_x0_loop(t + tail).items():
                out[key] = out.get(key, 0) - c * c2
    return {key: c for key, c in out.items() if c}


def reduce_trailing_x0_levels_ref(w: Word) -> tuple:
    """symfun._reduce_trailing_x0 as it built the level (-1)^m u sh x0^m
    from the level before, shuffled with the one letter x0 (_times_x0_ref)
    and divided by -m, exactly, since x0^(m-1) sh x0 = m x0^m.  Neither
    cached nor bounded by the letter budget."""
    last = (w ^ 1 << len(w)).bit_length() - 1  # the position of the last x1, or -1
    if last < 0:
        return ((EPSILON, len(w)), 1),
    n = len(w) - 1 - last
    levels = [{w & (1 << last) - 1 | 1 << last: 1}]  # u, as a sentinel key
    for m in range(1, n + 1):
        level = _sum_rule(levels[-1].items(), _times_x0_ref)
        levels.append({t: c // -m for t, c in level.items()})
    row = [((_new(Word, t | 2 << last + m), n - m), c)
           for m, level in enumerate(levels) for t, c in level.items()]
    return tuple(sorted(row, key=_piece_order))


def _times_x0_ref(t: int) -> Counter:
    """t sh x0 on sentinel keys: an x0 put before each letter of t, or at
    its end."""
    return Counter(t & (1 << i) - 1 | t >> i << i + 1 for i in range(t.bit_length()))


def sorted_row(w: Word) -> dict:
    """reduce_trailing_x0_loop(w) in the piece order (|u|, u, n)."""
    row = reduce_trailing_x0_loop(w)
    return dict(sorted(row.items(), key=lambda item: (len(item[0][0]), tuple(item[0][0]), item[0][1])))


def to_pieces_loop(f: SymFun, row=reduce_trailing_x0_loop) -> dict:
    """{(k, l, u, n): coeff} over the reduced pieces of each term's word,
    a key dropped the moment it cancels; row(w) gives a word's pieces."""
    out: dict = {}
    for (k, l, w), c in f.terms.items():
        for (u, n), c2 in row(w).items():
            key = (k, l, u, n)
            val = out.get(key, 0) + c * c2
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def derivative_ref(f: SymFun) -> SymFun:
    out: list = []
    for (k, l, w), c in f.terms.items():
        if k:
            out.append(((k - 1, l, w), c * k))
        if l:
            out.append(((k, l + 1, w), c * l))
        if len(w):
            if w[0] == 0:
                out.append(((k - 1, l, w[1:]), c))
            else:
                out.append(((k, l + 1, w[1:]), c))
    return SymFun(out)


def theta_ref(i: int, f: SymFun) -> SymFun:
    if i not in (0, 1):
        raise ValueError("operator index must be 0 or 1")
    d = derivative_ref(f)
    if i == 0:
        return SymFun([((k + 1, l, w), c) for (k, l, w), c in d.terms.items()])
    return SymFun([((k, l - 1, w), c) for (k, l, w), c in d.terms.items()])


def from_piece_ref(k: int, l: int, u: Word, n: int) -> SymFun:
    return symfun_mul_ref(SymFun.monomial(k, l, u), SymFun.from_li(Word([0] * n)))


def _antiderivative_ref(i: int, f: SymFun) -> SymFun:
    """The sum of c * _J (i = 0) or c * _K (i = 1) over the terms, in
    Fractions, a key dropped as it cancels."""
    fn = _J if i == 0 else _K
    out: dict = {}
    for (k, l, w), c in f.terms.items():
        for key, v in fn(k, l, w).terms.items():
            v = out.get(key, 0) + c * v
            if v:
                out[key] = v
            else:
                del out[key]
    return SymFun._trusted(out)


def limit_at_zero_ref(f: SymFun) -> Fraction:
    """The limit at 0 from the reduced pieces, recomputing the Taylor
    coefficients of every piece in Fractions."""
    groups: dict = {}
    for (k, l, u, n), c in to_pieces_loop(f).items():
        groups.setdefault(n, []).append((k, l, u, c))
    total = Fraction(0)
    for n, plist in groups.items():
        orders: dict = {}
        for (k, l, u, c) in plist:
            dep = u.count(1)
            if k + dep > 0:
                continue
            cs = _li_coeffs(u, -k)
            for p in range(dep, -k + 1):
                if cs[p]:
                    orders[k + p] = orders.get(k + p, Fraction(0)) + c * cs[p]
        if any(m < 0 and v for m, v in orders.items()):
            raise DomainError("divergent basepoint limit at z = 0")
        a0 = orders.get(0, Fraction(0))
        if n == 0:
            total += a0
        elif a0:
            raise DomainError("divergent basepoint limit at z = 0")
    return total


def limit_at_one_ref(f: SymFun, *, numeric_fallback: bool = False):
    """The limit at 1 from the reduced pieces grouped by (u, n), summed
    in Fractions."""
    groups: dict = {}
    for (k, l, u, n), c in to_pieces_loop(f).items():
        sig = groups.setdefault((u, n), {})
        sig[-l] = sig.get(-l, Fraction(0)) + c
    exact = Fraction(0)
    constants = []
    for (u, n), sig in sorted(
        groups.items(), key=lambda g: (len(g[0][0]), tuple(g[0][0]), g[0][1])
    ):
        neg_beyond = any(j < -n and v for j, v in sig.items())
        at = sig.get(-n, Fraction(0))
        if neg_beyond or (at and len(u) and u[0] == 1):
            raise DomainError("divergent basepoint limit at z = 1")
        if len(u) == 0:
            exact += at * Fraction((-1) ** n, factorial(n))
        elif at:
            constants.append((u, n, at))
    if not constants:
        return exact
    if not numeric_fallback:
        raise NonElementaryConstantError()
    approx = 0.0
    for u, n, at in constants:
        approx += float(at) * ((-1) ** n / factorial(n)) * _zeta_numeric(u)
    return float(exact) + approx


def zeta_numeric_ref(u: Word) -> float:
    """Li_u(1) for a convergent word, summed over the factorizations
    u = p q as Li_{p~}(1/2) Li_q(1/2), one eval_li_word call per factor."""
    params = EvalParams(0.5, eps=1e-15)
    total = 0.0
    for cut in range(len(u) + 1):
        pre = u[:cut]
        suf = u[cut:]
        tilde = Word([1 - a for a in reversed(list(pre))])
        va = eval_li_word(tilde, params).real if len(tilde) else 1.0
        vb = eval_li_word(suf, params).real if len(suf) else 1.0
        total += va * vb
    return total


def _section_order_ref(piece):
    k, l, u, n = piece
    return k, l, len(u), tuple(u), n


def _piece_limit_ref(k: int, l: int, u: Word, n: int):
    """iota_0's basepoint constant of a reduced piece, re-integrated in
    Fractions: the limit of its antiderivative at 0 when its index is
    >= 1 and at 1 otherwise, a float for a non-elementary constant."""
    anti = _antiderivative_ref(0, from_piece_ref(k, l, u, n))
    if _piece_index(k, u) >= 1:
        return limit_at_zero_ref(anti)
    return limit_at_one_ref(anti, numeric_fallback=True)


def iota_ref(i: int, f: SymFun, *, numeric_constants: bool = False):
    """iota as the antiderivative of f minus its basepoint constants:
    iota_1's is the limit at 0 of the whole antiderivative, iota_0's the
    sum of c * the limit of each reduced piece, re-integrated per call.
    Every limit is taken before a float constant is refused."""
    if i not in (0, 1):
        raise ValueError("operator index must be 0 or 1")
    anti = _antiderivative_ref(i, f)
    numeric = 0.0
    if i == 1:
        base = limit_at_zero_ref(anti)
    else:
        pieces = to_pieces_loop(f)
        limits = {piece: _piece_limit_ref(*piece) for piece in pieces}
        floats = sorted((p for p in pieces if isinstance(limits[p], float)), key=_section_order_ref)
        if floats and not numeric_constants:
            raise NonElementaryConstantError()
        for piece in floats:
            numeric -= float(pieces[piece]) * limits[piece]
        base = sum((c * limits[p] for p, c in pieces.items() if p not in floats), Fraction(0))
    result = anti - base * SymFun.one()
    return (result, numeric) if numeric_constants else result


def iota0_sections_ref(f: SymFun, *, numeric_constants: bool = False):
    """iota_0 as the sum of c * the anchored section of each reduced
    piece, in the sorted piece order, refusing a float constant as soon
    as its piece is reached."""
    sym = SymFun.zero()
    numeric = 0.0
    for (k, l, u, n), c in sorted(to_pieces_loop(f).items(), key=lambda g: _section_order_ref(g[0])):
        anti = _antiderivative_ref(0, from_piece_ref(k, l, u, n))
        if _piece_index(k, u) >= 1:
            base = limit_at_zero_ref(anti)
        else:
            base = limit_at_one_ref(anti, numeric_fallback=numeric_constants)
        if isinstance(base, Fraction):
            sym += c * (anti - base * SymFun.one())
        else:
            sym += c * anti
            numeric -= float(c) * base
    return (sym, numeric) if numeric_constants else sym


def apply_word_op_ref(kind: str, w: Word, f: SymFun) -> SymFun:
    op = {"theta": theta_ref, "iota": iota_ref}[kind]
    for a in reversed(list(w)):
        f = op(a, f)
    return f


def _stirling_block_ref(k: int, base: StarSeries, shift: StarSeries) -> StarSeries:
    acc = StarSeries.zero()
    power = StarSeries.one()
    for j in range(1, k + 1):
        power = shuffle_star(power, base)
        acc += stirling2(k, j) * factorial(j) * power
    return shuffle_star(shift, acc)


def _route_factor_ref(route: str, k: int) -> StarSeries:
    if route == "T":
        if k == 0:
            return plane_star(1, 1)
        return _stirling_block_ref(k, plane_star(1, 1), plane_star(0, 1))
    if route == "R":
        both = shuffle_star(plane_star(1, 0), plane_star(0, 1))
        if k == 0:
            return both
        return _stirling_block_ref(k, both, plane_star(0, 1))
    lam = plane_star(0, 1) - StarSeries.one()
    if k == 0:
        return lam
    return _stirling_block_ref(k, lam, plane_star(0, 1))


def build_neg_series_ref(s, route: str = "T") -> StarSeries:
    """The lineg series summed with acc += coeff * term."""
    s = _check_composition(s, 0)
    if not s:
        return StarSeries.one()
    factors: dict = {}
    acc = StarSeries.zero()
    for indices, coeff in _nested_indices(s):
        for k in indices:
            if k not in factors:
                factors[k] = _route_factor_ref(route, k)
        term = factors[indices[0]]
        for k in indices[1:]:
            term = shuffle_star(term, factors[k])
        acc += coeff * term
    return acc


def reduce_exponents_rec(k: int, l: int) -> dict:
    """z^k (1-z)^(-l) as {(k', l'): coeff} with k' * l' = 0 and l' >= 0."""
    if l < 0:
        return {(k + i, 0): (-1) ** i * comb(-l, i) for i in range(-l + 1)}
    if k == 0 or l == 0:
        return {(k, l): 1}
    if k < 0:
        m = -k
        out = {(-i, 0): comb(m - i + l - 1, l - 1) for i in range(1, m + 1)}
        for j in range(1, l + 1):
            out[(0, j)] = comb(m + l - j - 1, m - 1)
        return out
    out: dict = {}
    for i in range(k + 1):
        for key, c in reduce_exponents_rec(0, l - i).items():
            out[key] = out.get(key, 0) + (-1) ** i * comb(k, i) * c
    return {key: c for key, c in out.items() if c}


def step_product_ref(s: tuple, a: int, b: int, rows: int, first: int) -> tuple:
    r = len(s)
    if b - a < 8:
        top = max(s)
        gaps = [top - t for t in s]
        den, u = 1, [[0] * (r + 1) for _ in range(r + 1)]
        for n in range(a, b + 1):
            d = n**top
            for i in range(r - 1):  # row i reads row i + 1 before it changes
                c = n ** gaps[i]
                row, below = u[i], u[i + 1]
                row[i + 1] = d * row[i + 1] + c * den
                for j in range(i + 2, r + 1):
                    row[j] = d * row[j] + c * below[j]
            row = u[r - 1]
            row[r] = d * row[r] + n ** gaps[r - 1] * den
            den *= d
        return den, u
    mid = (a + b) // 2
    dl, ul = step_product_ref(s, a, mid, r, first)
    dh, uh = step_product_ref(s, mid + 1, b, rows, 1)
    # (dh I + uh)(dl I + ul) = dh dl I + dh ul + uh dl + uh ul
    u = [[0] * (r + 1) for _ in range(r + 1)]
    for i in range(rows):
        for j in range(max(i + 1, first), r + 1):
            acc = dh * ul[i][j] + uh[i][j] * dl
            for k in range(i + 1, j):
                acc += uh[i][k] * ul[k][j]
            u[i][j] = acc
    return dh * dl, u


def harmonic_sum_ref(s, n_max: int) -> Fraction:
    s = _check_composition(s, 1)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    r = len(s)
    if r == 0:
        return Fraction(1)
    if n_max < r:
        return Fraction(0)
    den, u = step_product_ref(s, 1, n_max, 1, r)
    return Fraction(u[0][r], den)


def harmonic_sum_loop(s, n_max: int) -> list:
    r = len(s)
    h = [Fraction(0)] * r + [Fraction(1)]
    out = [h[0]]
    for n in range(1, n_max + 1):
        for j in range(r):
            h[j] += h[j + 1] / Fraction(n) ** s[j]
        out.append(h[0])
    return out


@lru_cache(maxsize=None)
def stirling2_rec(n: int, k: int) -> int:
    if n == 0 or k == 0:
        return int(n == k)
    if k > n:
        return 0
    return k * stirling2_rec(n - 1, k) + stirling2_rec(n - 1, k - 1)


def neg_taylor_coeff_loop(s, n: int) -> int:
    s = _check_composition(s, 0)
    if not s:
        return 0
    tail = s[1:]
    if not tail:
        return n ** s[0]
    h = [0] * len(tail) + [1]
    for m in range(1, n):
        for j in range(len(tail)):
            h[j] += m ** tail[j] * h[j + 1]
    return n ** s[0] * h[0]


def li_series_ref(u: Word, p):
    s = composition_of_word(u)
    cutoff = p.eps * (1.0 - abs(p.z))
    _refuse_hopeless([s], p.z, cutoff, p.max_terms)
    return _series_sum(s, p.z, cutoff, p.max_terms)


def walk_may_win(comps: list, radius: float, cutoff: float, eps: float) -> bool:
    """False when a floor on the walk's terms reaches a ceiling on the
    direct series'.

    The trie holds every suffix of each word u; ends = accumulate(its
    composition) are the x1 positions, so the suffixes hold sum(ends)
    letters x1 and u has ends[-1] letters.  The first leg takes at least
    log2(4 / eps) terms per suffix and letter x1, and the first step at
    least log(eps / 4) / log(rho_1) terms per node and per letter's
    factors.  The direct series takes at most log(cutoff) / log|z| terms
    per row.
    """
    first = log2(4 / eps)
    step = log(eps / 4) / log(min(0.5, 2 * radius - 1))
    floor = max(sum(ends) * first + (ends[-1] + 1) * step
                for ends in (list(accumulate(s)) for s in comps))
    rows = sum(len(s) for s in comps)
    return rows * log(cutoff) / log(radius) > floor


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
