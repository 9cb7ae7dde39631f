"""Exact sums and numeric series evaluation.

harmonic_sum computes the finite multiple harmonic sum
H_s(N) = sum over N >= n1 > ... > nr >= 1 of 1 / (n1^s1 ... nr^sr),
exactly.  neg_taylor_coeff gives the N-th Taylor coefficient of the
polylogarithm at nonpositive indices, which is the same nested sum with
the powers flipped above the line.  eval_li_word sums the defining series
Li_w(z) = sum z^n / n^s1 * H_(s2..sr)(n-1) with a relative-to-the-radius
stopping rule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from ..errors import ConvergenceError, DomainError
from ..star_series import StarSeries, term_sort_key
from ..words import Word, composition_of_word
from .symfun import SymFun, _reduce_trailing_x0


@dataclass(frozen=True)
class EvalParams:
    """Where and how precisely to sum a series.

    z must satisfy |z| < 1 and stay off the strictly negative real axis
    (z = 0 is allowed; every series here is 0 or its constant term there).
    """

    z: complex
    eps: float = 1e-12
    max_terms: int = 10_000_000

    def __post_init__(self):
        z = complex(self.z)
        object.__setattr__(self, "z", z)
        if not cmath.isfinite(z):
            raise DomainError("evaluation point must be finite")
        if abs(z) >= 1:
            raise DomainError("evaluation needs |z| < 1")
        if z.imag == 0 and z.real < 0:
            raise DomainError("evaluation point must avoid the negative real axis")
        if not 0 < self.eps < math.inf:
            raise DomainError("eps must be positive and finite")


def _check_composition(s: Sequence[int], minimum: int) -> tuple:
    s = tuple(s)
    for part in s:
        if not isinstance(part, int) or part < minimum:
            raise DomainError(
                f"composition parts must be integers >= {minimum}, got {part!r}"
            )
    return s


def _inv_power_sum(m: int, a: int, b: int) -> tuple:
    """sum of 1/n^m for a <= n <= b as an unreduced (num, den) pair."""
    if b < a:
        return (0, 1)
    if b - a < 8:
        num, den = 0, 1
        for n in range(a, b + 1):
            p = n**m
            num = num * p + den
            den *= p
        return (num, den)
    mid = (a + b) // 2
    n1, d1 = _inv_power_sum(m, a, mid)
    n2, d2 = _inv_power_sum(m, mid + 1, b)
    return (n1 * d2 + n2 * d1, d1 * d2)


def harmonic_sum(s: Iterable[int], n_max: int) -> Fraction:
    """H_s(n_max), exact.  The empty composition gives 1."""
    s = _check_composition(s, 1)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    r = len(s)
    if r == 0:
        return Fraction(1)
    if n_max < r:
        return Fraction(0)
    if r == 1:
        return Fraction(*_inv_power_sum(s[0], 1, n_max))
    # h[j] holds H_{s_j..s_r}(n-1); update ascending in j so each step
    # reads the previous depth at the previous n
    h = [Fraction(0)] * r + [Fraction(1)]
    for n in range(1, n_max + 1):
        for j in range(r):
            h[j] += h[j + 1] / Fraction(n) ** s[j]
    return h[0]


def neg_taylor_coeff(s: Iterable[int], n: int) -> int:
    """N-th Taylor coefficient of the nonpositive-index polylogarithm:
    sum over n = n1 > n2 > ... > nr >= 1 of n1^s1 ... nr^sr, an integer."""
    s = _check_composition(s, 0)
    if n < 1:
        raise ValueError("Taylor coefficients are indexed by n >= 1")
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


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 needs nonnegative arguments")
    if n == 0 or k == 0:
        return int(n == k)
    if k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def _li_series(u: Word, p: EvalParams) -> complex:
    """Sum the series for Li_u, u ending in x1, at p.z."""
    s = composition_of_word(u)
    s1 = s[0]
    tail = s[1:]
    h = [0j] * len(tail) + [1.0 + 0j]
    z = p.z
    total = 0j
    zn = 1.0 + 0j
    cutoff = p.eps * (1.0 - abs(z))
    depth = len(s)
    for n in range(1, p.max_terms + 1):
        zn *= z
        term = zn / n**s1 * h[0]
        total += term
        if n >= depth and abs(term) < cutoff:
            return total
        for j in range(len(tail)):
            h[j] += h[j + 1] / n ** tail[j]
    raise ConvergenceError("no convergence at tolerance")


def eval_li_word(w: Word, p: EvalParams) -> complex:
    """Li_w(z) numerically, via the reduction to words without trailing x0
    (powers of log pick up the removed letters)."""
    pieces = _reduce_trailing_x0(w)
    z = p.z
    logz = cmath.log(z) if z != 0 else None
    total = 0j
    for (u, n) in sorted(pieces, key=lambda t: (len(t[0]), tuple(t[0]), t[1])):
        c = pieces[(u, n)]
        val = _li_series(u, p) if len(u) else 1.0 + 0j
        if n:
            if z == 0:
                raise DomainError("logarithm pole at z = 0")
            val *= logz**n / math.factorial(n)
        total += float(c) * val
    return total


def _eval_terms(terms: Iterable, p: EvalParams) -> complex:
    """Sum c * Li_w(z) * z^a0 * (1-z)^(-a1) over pairs ((w, a0, a1), c),
    in term order."""
    z = p.z
    total = 0j
    for (w, a0, a1), c in sorted(terms, key=lambda tc: term_sort_key(tc[0])):
        if z == 0 and a0 < 0:
            raise DomainError("pole at z = 0")
        val = 1.0 + 0j
        if a0:
            val *= z ** float(a0) if z != 0 else 0j
        if a1:
            val *= (1.0 - z) ** (-float(a1))
        if len(w):
            val *= eval_li_word(w, p)
        total += float(c) * val
    return total


def eval_symfun(f: SymFun, p: EvalParams) -> complex:
    """Evaluate a symbolic function at p.z."""
    return _eval_terms((((w, k, l), c) for (k, l, w), c in f.terms.items()), p)


def eval_li2(s: StarSeries, p: EvalParams) -> complex:
    """Evaluate the extended polylogarithm of a star series:
    (w, a0, a1) maps to Li_w(z) * z^a0 * (1-z)^(-a1)."""
    return _eval_terms(s.terms.items(), p)
