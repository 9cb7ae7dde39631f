"""Workload `ideal`: the kernel-ideal reducer at large exponents.

normal_form, kernel_member and rewrite_trace on star series with
exponents (+-k, l) up to 32 and word parts of at most 4 letters, and
SymFun.monomial(k, l) with k down to -9.  Alongside: SymFun products,
theta/iota strings through apply_word_op, and exact limits at 0 and 1.
Shuffles here are many and tiny.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import oracles as O
from harness import Deck, Mismatch, expect, weighted
from starshuffle import (
    DomainError, EvalParams, NonElementaryConstantError, StarSeries, SymFun, Word,
    apply_word_op, eval_li2, kernel_member, limit_at_one, limit_at_zero, normal_form,
    plane_star, rewrite_trace, star_term,
)

# Exponent magnitudes, weighted towards small ones.
MAGS = {1: 4, 2: 4, 3: 3, 4: 3, 6: 2, 8: 2, 12: 1, 16: 1, 24: 0.5, 32: 0.25}
SCHEDULE = ("nf", "monomial", "iota", "nf", "symprod", "kernel", "nf", "monomial",
            "trace", "limit0", "nf", "iota", "monomial", "symprod", "kernel", "nf",
            "trace", "iota", "limit1", "refuse")
RATE = 220
Z0 = 0.35 + 0.2j  # sample point for the numeric cross-check of normal forms


def _word(rng, lo, hi):
    return tuple(rng.randint(0, 1) for _ in range(rng.randint(lo, hi)))


def _coeff(rng):
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 6), rng.randint(1, 2))


def _canon_key(rng, kmax, lmax):
    k = rng.randint(-kmax, kmax)
    return k, (rng.randint(0, lmax) if k == 0 else 0)


def _limit0_expect(terms):
    """Limit at 0 of sum c z^k (1-z)^-l Li_w from Taylor coefficients:
    (DomainError, None) when a negative power survives, else (None, value)."""
    orders: dict = {}
    for (k, l, w), c in terms:
        if k > 0:
            continue
        a = O.li_taylor(w, -k)
        for n in range(-k + 1):
            b = sum(a[i] * (math.comb(n - i + l - 1, l - 1) if l else (n == i)) for i in range(n + 1))
            if b:
                orders[k + n] = orders.get(k + n, 0) + c * b
    if any(m < 0 and v for m, v in orders.items()):
        return DomainError, None
    return None, orders.get(0, Fraction(0))


def _make(kind, rng, i, decks):
    if kind == "nf":
        terms = {(_word(rng, 0, 4), rng.choice((1, -1)) * decks["mag"].draw(), decks["mag"].draw()): _coeff(rng)
                 for _ in range(decks["nf_terms"].draw())}
        return ("nf", None, tuple(sorted(terms.items())))
    if kind == "kernel":
        q = {(_word(rng, 0, 3), rng.randint(-8, 8), rng.randint(0, 8)): _coeff(rng)
             for _ in range(rng.randint(1, 2))}
        extra = None
        if rng.random() < 0.5:
            k, l = _canon_key(rng, 6, 6)
            extra = ((_word(rng, 0, 3), k, l), _coeff(rng))
        return ("kernel", None, tuple(sorted(q.items())), extra)
    if kind == "trace":
        terms = {(_word(rng, 0, 3), *decks["trace"].draw()): _coeff(rng)
                 for _ in range(decks["nf_terms"].draw())}
        return ("trace", None, tuple(sorted(terms.items())))
    if kind == "monomial":
        k, l = decks["monomial"].draw()
        return ("monomial", None, k, l, _word(rng, 0, 3))
    if kind == "symprod":
        def f():
            return tuple(sorted({_canon_key(rng, 3, 3) + (_word(rng, 0, 3),): _coeff(rng)
                                 for _ in range(rng.randint(1, 2))}.items()))
        return ("symprod", None, f(), f())
    if kind == "iota":
        f = {(rng.randint(0, 3), 0, _word(rng, 0, 3)): _coeff(rng) for _ in range(rng.randint(1, 2))}
        return ("iota", None, tuple(sorted(f.items())), _word(rng, 1, 3))
    if kind == "limit0":
        want = decks["limit0"].draw()
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                w = _word(rng, 0, 3)
                w = w + (1,) if rng.random() < 0.8 else ()
                terms[_canon_key(rng, 3, 2) + (w,)] = _coeff(rng)
            terms = tuple(sorted(terms.items()))
            outcome, _ = _limit0_expect(terms)
            if outcome is want:
                break
        return ("limit0", outcome, terms)
    if kind == "limit1":
        terms = {}
        shapes = decks["limit1"].draw()
        for shape in shapes:
            k, l, w = rng.randint(-3, 3), 0, ()
            if shape == "conv":
                w = (0,) + _word(rng, 0, 2) + (1,)
            elif shape == "div":
                w = (1,) + _word(rng, 0, 2) + (1,)
            elif shape == "pole":
                k, l = 0, rng.randint(1, 3)
            terms[(k, l, w)] = _coeff(rng)
        if not terms:
            terms[(rng.randint(-3, 3), 0, ())] = _coeff(rng)
        outcome = None
        if "div" in shapes or "pole" in shapes:
            outcome = DomainError
        elif "conv" in shapes:
            outcome = NonElementaryConstantError
        return ("limit1", outcome, tuple(sorted(terms.items())))
    m = i // len(SCHEDULE) + 1
    return ("nf_frac", DomainError, Fraction(2 * m + 1, 2), m % 5 + 1)


def _decks(rng):
    """Cost-setting exponents come from decks, so every seed gets the same mix.
    SymFun.monomial(-k, l) costs about C(k + l, k), so l shrinks as k grows."""
    negative = [(-k, l) for k in range(1, 10) for l in range(1, (12 if k <= 6 else 18 - 2 * k) + 1)]
    positive = [(k, l) for k in range(1, 13) for l in MAGS]
    return {
        "mag": Deck(rng, weighted(MAGS, 4)),
        "nf_terms": Deck(rng, (1, 2)),
        "trace": Deck(rng, [(k, l) for k in range(-12, 13) for l in range(1, 13)]),
        "monomial": Deck(rng, negative + positive),
        # Which limits must be refused is fixed too, so refuse_ms sees one mix.
        "limit0": Deck(rng, (None, None, DomainError)),
        "limit1": Deck(rng, [("empty",) * e + kinds for e in range(3)
                             for r in range(3) for kinds in itertools.combinations(("conv", "div", "pole"), r)]),
    }


def generate(rng, n):
    decks = _decks(rng)
    ops, seen = [], set()
    for i in range(n):
        kind = SCHEDULE[i % len(SCHEDULE)]
        for _ in range(50):
            op = _make(kind, rng, i, decks)
            if op not in seen:
                seen.add(op)
                ops.append(op)
                break
    return ops


def fixed_ops():
    return []


def _stars(items):
    return StarSeries({star_term(Word(w), k, l): c for (w, k, l), c in items})


def _symfun(items):
    return SymFun({(k, l, Word(w)): c for (k, l, w), c in items})


RW = ("rewrite.terms_out", len)
SF = ("polylog.symfun.terms_out", len)


def execute(op, T):
    kind = op[0]
    if kind == "nf":
        return T.call("rewrite", normal_form, _stars(op[2]), size=RW)
    if kind == "kernel":
        q = dict(op[2])
        s: dict = {}
        for (w, k, l), c in q.items():
            for key, d in (((w, k + 1, l + 1), c), ((w, k, l + 1), -c), ((w, k, l), c)):
                s[key] = s.get(key, 0) + d
        if op[3] is not None:
            s[op[3][0]] = s.get(op[3][0], 0) + op[3][1]
        return T.call("rewrite", kernel_member, _stars(s.items()))
    if kind == "trace":
        states = T.call("rewrite", rewrite_trace, _stars(op[2]), size=RW)
        T.add("rewrite.trace_states", len(states))
        return states
    if kind == "monomial":
        return T.call("polylog.symfun", SymFun.monomial, op[2], op[3], Word(op[4]), size=SF)
    if kind == "symprod":
        return T.call("polylog.symfun", SymFun.__mul__, _symfun(op[2]), _symfun(op[3]), size=SF)
    if kind == "iota":
        f = _symfun(op[2])
        g = T.call("polylog.integrate", apply_word_op, "iota", Word(op[3]), f)
        return T.call("polylog.integrate", apply_word_op, "theta", Word(op[3][::-1]), g)
    if kind == "limit0":
        return T.call("polylog.integrate", limit_at_zero, _symfun(op[2]))
    if kind == "limit1":
        return T.call("polylog.integrate", limit_at_one, _symfun(op[2]))
    if kind == "nf_frac":
        return T.call("rewrite", normal_form, plane_star(op[2], op[3]))
    raise ValueError(kind)



def _reference_nf(items):
    """Closed-form normal form of sum c (w, k, l) as {(w, k', l'): c}."""
    out: dict = {}
    for (w, k, l), c in items:
        for (k2, l2), d in O.plane_nf(k, l).items():
            key = (w, k2, l2)
            out[key] = out.get(key, 0) + c * d
    return {key: c for key, c in out.items() if c}


def _star_dict(s):
    return {(tuple(t.w), t.a0, t.a1): c for t, c in s.terms.items()}


def _same_value(before, after):
    """eval_li2 agrees on a series and its normal form at Z0, relative to
    the size of the terms summed."""
    p = EvalParams(Z0)
    scale = sum(abs(c) * abs(Z0 ** float(t.a0)) * abs(1 - Z0) ** -float(t.a1)
                for s in (before, after) for t, c in s.terms.items())
    return abs(eval_li2(before, p) - eval_li2(after, p)) <= 1e-9 * max(1.0, float(scale))


def check(op, res):
    kind = op[0]
    if kind == "nf":
        got = _star_dict(res)
        expect(all(k * l == 0 for _, k, l in got), "normal form has a term with k*l != 0")
        expect(got == _reference_nf(op[2]), "differs from the closed-form normal form")
        expect(_same_value(_stars(op[2]), res), "eval_li2 changed under reduction")
    elif kind == "kernel":
        expect(res is (op[3] is None), "kernel membership")
    elif kind == "trace":
        expect(_star_dict(res[0]) == dict(op[2]), "trace does not start at the input")
        expect(_star_dict(res[-1]) == _reference_nf(op[2]), "trace does not end at the normal form")
    elif kind == "monomial":
        k, l, w = op[2], op[3], op[4]
        got = {(tuple(u), a, b): c for (a, b, u), c in res.terms.items()}
        expect(got == _reference_nf(((((w, k, l)), 1),)), "monomial differs from nf(plane_star(k, l))")
    elif kind == "symprod":
        want: dict = {}
        for (k1, l1, w1), c1 in op[2]:
            for (k2, l2, w2), c2 in op[3]:
                for w, m in O.naive_shuffle(w1, w2).items():
                    for (k, l), d in O.plane_nf(k1 + k2, l1 + l2).items():
                        want[k, l, w] = want.get((k, l, w), 0) + c1 * c2 * m * d
        got = {(k, l, tuple(w)): c for (k, l, w), c in res.terms.items()}
        expect(got == {key: c for key, c in want.items() if c}, "SymFun product")
    elif kind == "iota":
        expect(res == _symfun(op[2]), "theta does not invert iota")
    elif kind == "limit0":
        expect(res == _limit0_expect(op[2])[1], "limit at 0")
    elif kind == "limit1":
        expect(res == sum((c for (k, l, w), c in op[2] if not w and not l), Fraction(0)), "limit at 1")
    else:
        raise Mismatch(f"no oracle for {kind}")


def layer_stats(T):
    return {}
