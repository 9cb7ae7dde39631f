"""Benchmark-side reference computations.

Words are tuples of 0/1, y-words tuples of positive ints, exponents
Fractions.  Each routine is the plain definition, kept small enough to
trust by reading; only lineg_reference calls the library, and it checks
what it gets.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from harness import expect


def naive_shuffle(u: tuple, v: tuple) -> dict:
    """u sh v as {word: multiplicity}, recursing on first letters."""
    memo: dict = {}

    def go(i, j):
        if (i, j) in memo:
            return memo[i, j]
        if i == len(u):
            out = {v[j:]: 1}
        elif j == len(v):
            out = {u[i:]: 1}
        else:
            out = {}
            for head, rest in ((u[i], go(i + 1, j)), (v[j], go(i, j + 1))):
                for w, c in rest.items():
                    key = (head,) + w
                    out[key] = out.get(key, 0) + c
        memo[i, j] = out
        return out

    return go(0, 0)


def naive_stuffle(u: tuple, v: tuple) -> dict:
    """Quasi-shuffle of y-words as {word: multiplicity}."""
    memo: dict = {}

    def go(i, j):
        if (i, j) in memo:
            return memo[i, j]
        if i == len(u):
            out = {v[j:]: 1}
        elif j == len(v):
            out = {u[i:]: 1}
        else:
            out = {}
            for head, rest in ((u[i], go(i + 1, j)), (v[j], go(i, j + 1)),
                               (u[i] + v[j], go(i + 1, j + 1))):
                for w, c in rest.items():
                    key = (head,) + w
                    out[key] = out.get(key, 0) + c
        memo[i, j] = out
        return out

    return go(0, 0)


def interleavings(u: tuple, v: tuple, w: tuple) -> int:
    """Number of ways to read w as an interleaving of u and v, i.e. the
    coefficient of w in u sh v."""
    if len(u) + len(v) != len(w):
        return 0
    row = [1] + [0] * len(v)
    for j in range(1, len(v) + 1):
        row[j] = row[j - 1] if v[j - 1] == w[j - 1] else 0
    for i in range(1, len(u) + 1):
        new = [row[0] if u[i - 1] == w[i - 1] else 0] + [0] * len(v)
        for j in range(1, len(v) + 1):
            a = w[i + j - 1]
            new[j] = (row[j] if u[i - 1] == a else 0) + (new[j - 1] if v[j - 1] == a else 0)
        row = new
    return row[-1]


def is_lyndon(w: tuple) -> bool:
    """Nonempty and strictly smaller than each of its proper rotations."""
    return bool(w) and all(w < w[i:] + w[:i] for i in range(1, len(w)))


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def lyndon_count(n: int) -> int:
    """Binary Lyndon words of length exactly n (Witt's formula)."""
    return sum(_mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def brute_lyndon(max_len: int) -> list:
    """All Lyndon words up to max_len, by testing every word."""
    return [w for n in range(1, max_len + 1)
            for w in itertools.product((0, 1), repeat=n) if is_lyndon(w)]


def composition_word(s) -> tuple:
    """x0^(s1-1) x1 ... x0^(sr-1) x1 as a tuple."""
    return tuple(a for part in s for a in (0,) * (part - 1) + (1,))


def word_composition(w: tuple) -> tuple:
    parts, run = [], 0
    for a in w:
        if a:
            parts.append(run + 1)
            run = 0
        else:
            run += 1
    return tuple(parts)


def harmonic_naive(s, n: int) -> Fraction:
    """H_s(n) by enumerating n >= n1 > ... > nr >= 1."""
    total = Fraction(0)
    for idx in itertools.combinations(range(n, 0, -1), len(s)):
        den = 1
        for k, e in zip(idx, s):
            den *= k ** e
        total += Fraction(1, den)
    return total


def harmonic_float(s, n: int) -> float:
    """H_s(n) in floating point, innermost sum first."""
    h = [0.0] * len(s) + [1.0]
    for m in range(1, n + 1):
        for j in range(len(s)):
            h[j] += h[j + 1] / m ** s[j]
    return h[0]


def neg_taylor_naive(s, n: int) -> int:
    """Sum over n = n1 > n2 > ... > nr >= 1 of n1^s1 ... nr^sr."""
    total = 0
    for rest in itertools.combinations(range(n - 1, 0, -1), len(s) - 1):
        prod = n ** s[0]
        for k, e in zip(rest, s[1:]):
            prod *= k ** e
        total += prod
    return total


def li_taylor(w: tuple, order: int) -> list:
    """Taylor coefficients 0..order of Li_w at 0, w empty or ending in x1."""
    out = [Fraction(0)] * (order + 1)
    if not w:
        out[0] = Fraction(1)
        return out
    s = word_composition(w)
    for n in range(1, order + 1):
        out[n] = harmonic_naive(s[1:], n - 1) / Fraction(n) ** s[0] if len(s) > 1 else Fraction(1, n ** s[0])
    return out


def plane_nf(k: int, l: int) -> dict:
    """Normal form of z^k (1-z)^-l as {(k', l'): c} with k' * l' = 0.

    k >= 0: write z = 1 - (1-z) and expand; k < 0: partial fractions of
    z^-m (1-z)^-l."""
    out: dict = {}

    def add(key, c):
        out[key] = out.get(key, 0) + c

    if k >= 0:
        for j in range(k + 1):
            c = math.comb(k, j) * (-1) ** j
            if j <= l:
                add((0, l - j), c)
            else:
                for i in range(j - l + 1):
                    add((i, 0), c * math.comb(j - l, i) * (-1) ** i)
    elif l == 0:
        add((k, 0), 1)
    else:
        m = -k
        for i in range(1, m + 1):
            add((-i, 0), math.comb(m + l - 1 - i, l - 1))
        for j in range(1, l + 1):
            add((0, j), math.comb(m + l - 1 - j, m - 1))
    return {key: Fraction(c) for key, c in out.items() if c}


# Multiple zeta values zeta(s) = Li_s(1) for the convergent words used,
# keyed by composition; values from the classical evaluations.
def mzv(s: tuple) -> float:
    import mpmath

    z = mpmath.zeta
    if len(s) == 1:
        return float(z(s[0]))
    table = {
        (2, 1): z(3),
        (3, 1): mpmath.pi ** 4 / 360,
        (2, 2): mpmath.pi ** 4 / 120,
        (2, 1, 1): z(4),
        (4, 1): 2 * z(5) - z(2) * z(3),
        (3, 2): 3 * z(2) * z(3) - mpmath.mpf(11) / 2 * z(5),
        (2, 3): mpmath.mpf(9) / 2 * z(5) - 2 * z(2) * z(3),
        (2, 1, 1, 1): z(5),
    }
    return float(table[s])


MZV_KEYS = ((2,), (3,), (4,), (5,), (2, 1), (3, 1), (2, 2), (2, 1, 1), (4, 1), (3, 2), (2, 3), (2, 1, 1, 1))


@lru_cache(maxsize=None)
def polylog(s: int, z: complex) -> complex:
    """Li_s(z) from mpmath at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        return complex(mpmath.polylog(s, mpmath.mpc(z.real, z.imag)))


@lru_cache(maxsize=None)
def lineg_reference(s: tuple) -> list:
    """Closed form of the nonpositive-index polylogarithm of s by the
    library's recursion route, accepted only when its Taylor coefficients
    match neg_taylor_coeff for n <= 20 and the brute-force sum for n <= 8."""
    from starshuffle import closed_form_taylor_coeff, li_neg_closed_form, neg_taylor_coeff

    ref = li_neg_closed_form(s, "recursion")
    for n in range(1, 21):
        want = neg_taylor_coeff(s, n)
        expect(closed_form_taylor_coeff(ref, n) == want, f"recursion route for {s} at n={n}")
        if n <= 8:
            expect(neg_taylor_naive(s, n) == want, f"neg_taylor_coeff for {s} at n={n}")
    return ref
