"""Normal forms of star series modulo the kernel ideal.

By the star-of-the-plane theorem the kernel of the extended polylogarithm
is the ideal generated by x0* sh x1* - x1* + 1, and reducing modulo it is
the algebra of the functions z^k (1-z)^(-l).  Working in the Laurent
subalgebra (integer x0-exponents k, natural x1-exponents l), the terms
with k * l = 0 are a basis of the quotient: they are the functions z^k
and (1-z)^(-l), which are linearly independent.  reduce_exponents writes
z^k (1-z)^(-l) in that basis in closed form, and normal_form applies it
term by term; a series lies in the ideal exactly when its normal form
is 0.

rewrite_trace keeps the step rules as an opt-in trace and as a reference
for the closed form:

    (k, l) -> (k - 1, l) - (k - 1, l - 1)        for k >= 1, l >= 1
    (k, l) -> (k, l - 1) + (k + 1, l)            for k <= -1, l >= 1

Each step strictly decreases |k| + l on the rewritten monomial and adds
a shuffle multiple of the generator.
"""

from __future__ import annotations

import random
from math import comb

from .errors import DomainError
from .linear import _common_scale, _fractions
from .star_series import StarSeries, StarTerm, term_sort_key


def reduce_exponents(k: int, l: int) -> dict:
    """z^k (1-z)^(-l) as {(k', l'): coeff} with k' * l' = 0 and l' >= 0.

    For l < 0, (1-z)^|l| is expanded by the binomial theorem.  For k >= 1,
    z = 1 - (1-z) is expanded by the binomial theorem.  For k = -m <= -1,
    the partial fractions of z^-m (1-z)^-l are
    sum_{i=1..m} C(m-i+l-1, l-1) z^-i + sum_{j=1..l} C(m+l-j-1, m-1) (1-z)^-j.
    """
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
        for key, c in reduce_exponents(0, l - i).items():
            out[key] = out.get(key, 0) + (-1) ** i * comb(k, i) * c
    return {key: c for key, c in out.items() if c}


def _check_laurent(s: StarSeries) -> None:
    if not s.is_laurent():
        raise DomainError(
            "rewriting needs integer x0-exponents and nonnegative integer x1-exponents"
        )


def _check_strategy(strategy: str) -> None:
    if strategy not in ("measure", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")


def _rewritable(terms: dict) -> list:
    return [t for t in terms if t.a0 != 0 and t.a1 >= 1]


def _apply_rule(terms: dict, t: StarTerm) -> None:
    c = terms.pop(t)
    k, l = t.a0, t.a1
    if k >= 1:
        pieces = (
            (StarTerm(t.w, k - 1, l), c),
            (StarTerm(t.w, k - 1, l - 1), -c),
        )
    else:
        pieces = (
            (StarTerm(t.w, k, l - 1), c),
            (StarTerm(t.w, k + 1, l), c),
        )
    for key, dc in pieces:
        nc = terms.get(key, 0) + dc
        if nc:
            terms[key] = nc
        else:
            terms.pop(key, None)


def rewrite_trace(
    s: StarSeries, strategy: str = "measure", rng: random.Random | None = None
) -> list[StarSeries]:
    """Run the rewriting loop and return every intermediate state,
    starting with s and ending with its normal form.

    strategy "measure" always rewrites a monomial of maximal |k| + l (ties
    broken by term order), which is deterministic; strategy "random" picks
    any rewritable monomial using rng.
    """
    _check_laurent(s)
    _check_strategy(strategy)
    if strategy == "random" and rng is None:
        rng = random.Random()
    terms = dict(s.terms)
    states = [StarSeries._trusted(dict(terms))]
    while True:
        candidates = _rewritable(terms)
        if not candidates:
            return states
        if strategy == "measure":
            top = max(abs(t.a0) + t.a1 for t in candidates)
            t = max((t for t in candidates if abs(t.a0) + t.a1 == top), key=term_sort_key)
        else:
            t = rng.choice(sorted(candidates, key=term_sort_key))
        _apply_rule(terms, t)
        states.append(StarSeries._trusted(dict(terms)))


def normal_form(
    s: StarSeries, strategy: str = "measure", rng: random.Random | None = None
) -> StarSeries:
    """Normal form modulo the ideal: no term has both exponents nonzero.

    The normal form is unique, so strategy and rng, which pick the step
    order of rewrite_trace, do not change the result; strategy is still
    validated.
    """
    _check_laurent(s)
    _check_strategy(strategy)
    # Summed on plain (w, k, l) tuples with int numerators; each StarTerm is
    # built once, with the reducer's int exponents.
    nums, den = _common_scale(s.terms.values())
    acc: dict = {}
    for t, c in zip(s.terms, nums):
        w = t.w
        for (k, l), m in reduce_exponents(int(t.a0), int(t.a1)).items():
            key = (w, k, l)
            acc[key] = acc.get(key, 0) + c * m
    return StarSeries._trusted({StarTerm(w, k, l): c
                                for (w, k, l), c in _fractions(acc, den).items()})


def kernel_member(s: StarSeries) -> bool:
    """Does s lie in the ideal generated by x0* sh x1* - x1* + 1?"""
    return not normal_form(s)
