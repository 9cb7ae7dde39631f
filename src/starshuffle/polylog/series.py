"""Exact sums and numeric series evaluation.

harmonic_sum computes the finite multiple harmonic sum
H_s(N) = sum over N >= n1 > ... > nr >= 1 of 1 / (n1^s1 ... nr^sr),
exactly.  neg_taylor_coeff gives the N-th Taylor coefficient of the
polylogarithm at nonpositive indices, which is the same nested sum with
the powers flipped above the line.

eval_li_word sums the defining series
Li_w(z) = sum z^n / n^s1 * H_(s2..sr)(n-1).  The sum stops at the first
n >= depth whose term has |term| < eps * (1 - |z|); for depth 1 the tail
left behind is then below eps.  A request that cannot stop within
max_terms terms is refused with ConvergenceError, up front whenever a
closed-form lower bound on |term| proves it (see _li_series), so a
hopeless request costs microseconds, not max_terms terms.  Terms are
added in blocks of 256 and the block sums are added exactly with
math.fsum, so the rounding of a long sum stays far below eps.
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
        if (isinstance(self.max_terms, bool) or not isinstance(self.max_terms, int)
                or self.max_terms < 1):
            raise DomainError(f"max_terms must be an integer >= 1, got {self.max_terms!r}")


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


# Holds every S2(n, k) with n <= 42; past that, rows recompute a little.
@lru_cache(maxsize=1024)
def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 needs nonnegative arguments")
    if n == 0 or k == 0:
        return int(n == k)
    if k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


# Terms are added in blocks of this many; block sums go to math.fsum.
_BLOCK = 256
# Below exp(_LOG_TINY) ~ 1e-304 floats near the subnormal range and lose
# relative precision, so the up-front bound is trusted only above it.
_LOG_TINY = -700.0


def _cannot_stop(s: tuple, z: complex, cutoff: float, max_terms: int) -> bool:
    """True when no n <= max_terms can meet the stop rule of _li_series,
    n >= depth and |term_n| < cutoff.

    For n >= depth, h[0] = H_tail(n-1) >= H_tail(r) = prod_j (r-j)^-t_j,
    r = len(tail), as h[0] never decreases; so
    |term_n| >= |z|^n n^-s1 H_tail(r), which decreases in n.  If that bound
    at n = max_terms still reaches cutoff, with room for the rounding of
    max_terms float steps, the loop cannot stop.  Every False is safe: the
    loop then decides.
    """
    depth = len(s)
    if cutoff == 0.0 or max_terms < depth:
        return True
    radius = abs(z)
    if z == 0 or max_terms * (1.0 - radius) > -math.log(cutoff):
        # |z|^max_terms <= exp(-max_terms (1 - |z|)) < cutoff: cannot fire
        return False
    tail = s[1:]
    log_bound = (max_terms * math.log(radius) - s[0] * math.log(max_terms)
                 - sum(t * math.log(len(tail) - j) for j, t in enumerate(tail)))
    log_cutoff = math.log(cutoff)
    # The computed |term_n| may sit a few roundoffs (2^-53) per term summed
    # below its exact value, and each log a few roundoffs of its size;
    # allow 128 of each.
    margin = 128 * 2.0**-53 * (max_terms + depth + 8 - log_bound + abs(log_cutoff))
    return log_bound - margin >= max(log_cutoff, _LOG_TINY)


def _li_series(u: Word, p: EvalParams) -> complex:
    """Sum the series for Li_u, u ending in x1, at p.z.

    Stop rule: stop after the first term n >= depth with
    |term_n| < eps * (1 - |z|).  For depth 1 the terms |z|^n / n^s1 shrink
    at least geometrically, so the tail left behind is below eps; deeper
    words grow h[0] = H_tail(n-1) slowly and the rule is a heuristic.

    Refusal: ConvergenceError is raised when max_terms terms do not meet
    the rule.  _cannot_stop proves this up front from the lower bound
    |term_n| >= |z|^n n^-s1 H_tail(len(tail)).  At depth 1 h[0] = 1, the
    bound is the term itself, and a hopeless request is refused up front
    unless it lies within rounding of the boundary or below
    exp(_LOG_TINY).  Deeper words grow h[0], so there the bound is conservative and
    some hopeless requests are still refused by the loop after max_terms
    terms.  Both routes raise the same message.

    Summation: terms are added in blocks of _BLOCK, and the block sums'
    real and imaginary parts are added with math.fsum, so rounding grows
    with the block length, not the term count.  Up to _BLOCK terms the
    result equals plain left-to-right addition bitwise.

    Overflow: once a power n^t of the composition is past the float range,
    so is every later one, and what it still divides adds up to below
    2^-1000 times the largest h.  A row h[j] then stays put, and the rows
    above it no longer matter; when n^s1 overflows, the sum stops there.
    """
    s = composition_of_word(u)
    s1 = s[0]
    tail = s[1:]
    z = p.z
    n_max = p.max_terms
    cutoff = p.eps * (1.0 - abs(z))
    if _cannot_stop(s, z, cutoff, n_max):
        raise _no_convergence(n_max, cutoff)
    h = [0j] * len(tail) + [1.0 + 0j]
    zn = 1.0 + 0j
    depth = len(s)
    rows = range(len(tail))
    re_parts, im_parts = [], []
    try:
        for start in range(1, n_max + 1, _BLOCK):
            block = 0j
            for n in range(start, min(start + _BLOCK, n_max + 1)):
                zn *= z
                term = zn / n**s1 * h[0]
                block += term
                if n >= depth and abs(term) < cutoff:
                    re_parts.append(block.real)
                    im_parts.append(block.imag)
                    return complex(math.fsum(re_parts), math.fsum(im_parts))
                for j in rows:
                    try:
                        h[j] += h[j + 1] / n ** tail[j]
                    except OverflowError:  # h[j] stays put from here on
                        rows = range(j)
                        break
            re_parts.append(block.real)
            im_parts.append(block.imag)
    except OverflowError:  # of n**s1; caught out here so that terms cost no more
        return complex(math.fsum(re_parts + [block.real]),
                       math.fsum(im_parts + [block.imag]))
    raise _no_convergence(n_max, cutoff)


def _no_convergence(n_max: int, cutoff: float) -> ConvergenceError:
    return ConvergenceError(
        f"no convergence at tolerance: {n_max} terms leave |term| above "
        f"eps*(1-|z|) = {cutoff:.3g}"
    )


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
