"""Normal forms of star series modulo the kernel ideal.

By the star-of-the-plane theorem the kernel of the extended polylogarithm
is the ideal generated by x0* sh x1* - x1* + 1, and reducing modulo it is
the algebra of the functions z^k (1-z)^(-l).  Working in the Laurent
subalgebra (integer x0-exponents k, natural x1-exponents l), the terms
with k * l = 0 are a basis of the quotient: they are the functions z^k
and (1-z)^(-l), which are linearly independent.  reduce_exponents writes
z^k (1-z)^(-l) in that basis in closed form, and the exponent table
_exponent_row, a bounded lru_cache of its rows keyed by (k, l), is the
one reduction rule of the package: a key (k, l, w) reduces to the
canonical keys (k', l', w), k' * l' = 0 and l' >= 0, of its row, with
their int multiplicities.  Each row is a tuple of reduce_exponents' items
in its order, so the binomials of a pair are expanded once and no caller
can change a row; reduce_exponents has no other reader in the package.

The reducer loop _canonical_sums is the rule's one loop: it sums the
rule over (key, int) pairs in one pass, a canonical key adding its
coefficient to itself without reaching the table, and any other its
coefficient times its row, with no dict per key.  normal_form and
kernel_member run it over a series' row, its equal Words shared as one
object so that key lookups compare them by identity; the SymFun product
runs it over its raw keys, d/dz over the images of a key and theta_i
over the shifted keys of d/dz.  SymFun's constructor and SymFun.monomial
read a key's row off the table themselves, and so do the antiderivative
tables _J and _K of polylog.integrate.  A series lies in the ideal
exactly when its normal form is 0.

rewrite_trace keeps the step rules as an opt-in trace and as a reference
for the closed form:

    (k, l) -> (k - 1, l) - (k - 1, l - 1)        for k >= 1, l >= 1
    (k, l) -> (k, l - 1) + (k + 1, l)            for k <= -1, l >= 1

Each step strictly decreases |k| + l on the rewritten monomial and adds
a shuffle multiple of the generator.  So no monomial of a level appears
or vanishes while that level is rewritten, and the "measure" strategy
(always a monomial of maximal |k| + l, the largest in term order first)
is level order: from the top level down, each level's rewritable
monomials sorted once.  The loop keeps one dict, the state's row of int
numerators over one denominator, and per level a plain list of the keys
that entered it, filtered to the live ones and deduplicated when the
level's turn comes; each state it records is that row copied in lowest
terms, so a step is O(1) dict work plus the copy.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import comb

from .errors import DomainError
from .linear import _lowest, _row_of
from .star_series import StarSeries, StarTerm, _term
from .words import shortlex_key


# Bits of a reduce_exponents answer.  Where it expands a binomial, the
# answer has at most n + 1 entries of at most n bits each, n = |k| + l
# (n = -l for l < 0), and n (n + 1) is checked against this budget before
# any binomial is taken.  star(+-1000, 1000) needs about 4.0e6 of it and
# reduces in at most 0.13 s (2-core shared host, Python 3.11);
# star(-10000, 10000) would produce 2.6e8 bits.
_MAX_EXPONENT_BITS = 1 << 23


def reduce_exponents(k: int, l: int) -> dict:
    """z^k (1-z)^(-l) as {(k', l'): coeff} with k' * l' = 0 and l' >= 0.

    For l < 0, (1-z)^|l| is expanded by the binomial theorem.  For
    k, l >= 1, z^k = (1 - (1-z))^k is expanded by the binomial theorem: its
    terms (-1)^i C(k, i) (1-z)^(i-l) with i < l are poles, and the terms
    with i >= l, a polynomial, sum to (-1)^l C(k-1-j, l-1) z^j over
    j = 0..k-l; so each of the k + 1 entries is one binomial.  For
    k = -m <= -1, the partial fractions of z^-m (1-z)^-l are
    sum_{i=1..m} C(m-i+l-1, l-1) z^-i + sum_{j=1..l} C(m+l-j-1, m-1) (1-z)^-j.
    An answer that may pass _MAX_EXPONENT_BITS is refused with DomainError
    before any binomial is taken.
    """
    if l >= 0 and k * l == 0:
        return {(k, l): 1}
    n = -l if l < 0 else abs(k) + l
    if n * (n + 1) > _MAX_EXPONENT_BITS:
        raise DomainError(f"reducing z^{k} (1-z)^{-l} may take more than {_MAX_EXPONENT_BITS} bits")
    if l < 0:
        return {(k + i, 0): (-1) ** i * comb(-l, i) for i in range(-l + 1)}
    if k < 0:
        m = -k
        return {**{(-i, 0): comb(m - i + l - 1, l - 1) for i in range(1, m + 1)},
                **{(0, j): comb(m + l - j - 1, m - 1) for j in range(1, l + 1)}}
    return {**{(0, l - i): (-1) ** i * comb(k, i) for i in range(min(k + 1, l))},
            **{(j, 0): (-1) ** l * comb(k - 1 - j, l - 1) for j in range(k - l + 1)}}


# The ideal workload reduces about 300 distinct exponent pairs, 94 % of the
# calls hitting the table.
@lru_cache(maxsize=1024)
def _exponent_row(k: int, l: int) -> tuple:
    """The items of reduce_exponents(k, l), in its order.  Cached, and a
    tuple, so no caller can change a row."""
    return tuple(reduce_exponents(k, l).items())


def _canonical_sums(pairs) -> dict:
    """The reduction rule summed over the (key, c) pairs of int numerators,
    as {canonical key: int}, in one pass: a canonical key adds c to itself
    and any other (k, l, w) adds c times its exponent row _exponent_row(k, l),
    each entry re-keyed by w.  A zero c places no key, so the sums and their
    order are those of linear._sum_rule over the pairs with that rule."""
    acc: dict = {}
    get = acc.get
    for key, c in pairs:
        if c:
            k, l, w = key
            if l >= 0 and k * l == 0:
                acc[key] = get(key, 0) + c
            else:
                for (k2, l2), m in _exponent_row(k, l):
                    key = (k2, l2, w)
                    acc[key] = get(key, 0) + c * m
    return acc


def _check_laurent(s: StarSeries) -> None:
    if not s.is_laurent():
        raise DomainError(
            "rewriting needs integer x0-exponents and nonnegative integer x1-exponents"
        )


def _check_strategy(strategy: str) -> None:
    if strategy not in ("measure", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")


def rewrite_trace(
    s: StarSeries, strategy: str = "measure", rng: random.Random | None = None
) -> list[StarSeries]:
    """Run the rewriting loop and return every intermediate state,
    starting with s and ending with its normal form.

    strategy "measure" always rewrites a monomial of maximal |k| + l (ties
    broken by term order), which is deterministic; strategy "random" picks
    any rewritable monomial using rng.

    Every step strictly lowers |k| + l, so no term of a level appears or
    vanishes while that level is rewritten: "measure" takes the levels
    from the top and sorts each level's rewritable terms once, in
    descending term order.  A step is O(1) dict work plus the copy of the
    state.  "random" sorts the rewritable terms at every step, as
    rng.choice must see them in term order.
    """
    _check_laurent(s)
    _check_strategy(strategy)
    if strategy == "random" and rng is None:
        rng = random.Random()
    # values holds the state's row, StarTerm -> int numerator over den, in
    # the state's dict order.  Each level lists the rewritable keys that
    # entered it as (i, k, l, term), i the rank of the word in term order,
    # so that plain tuple order is term order; pieces always land at
    # strictly lower levels, so an entry can only go stale (cancelled, or
    # listed twice) before its level is taken, and is filtered out then.
    num, den = _row_of(s)
    words = sorted({t.w for t in num}, key=shortlex_key)
    rank = {w: i for i, w in enumerate(words)}
    values = dict(num)
    levels: dict = {}  # |k| + l -> [(i, k, l, term), ...]
    for t in num:
        w, k, l = t
        if k and l:
            levels.setdefault(abs(k) + l, []).append((rank[w], int(k), int(l), t))
    states = [StarSeries._from_row(_lowest(dict(values), den))]
    todo: list = []  # the keys left to rewrite, the next one last
    while True:
        if not todo:
            if strategy == "measure":
                while levels and not todo:
                    todo = sorted({e for e in levels.pop(max(levels)) if e[3] in values})
            else:
                todo = sorted({e for level in levels.values() for e in level if e[3] in values})
                if todo:
                    todo = [rng.choice(todo)]
            if not todo:
                return states
        i, k, l, t = todo.pop()
        c = values.pop(t)
        w = words[i]
        level = abs(k) + l
        # each piece with its level, 0 when it is already reduced
        if k >= 1:
            pieces = ((k - 1, l, c, level - 1 if k > 1 else 0),
                      (k - 1, l - 1, -c, level - 2 if k > 1 and l > 1 else 0))
        else:
            pieces = ((k, l - 1, c, level - 1 if l > 1 else 0),
                      (k + 1, l, c, level - 1 if k < -1 else 0))
        for k, l, dc, level in pieces:
            t = _term(StarTerm, (w, k, l))
            old = values.get(t, 0)
            nc = old + dc
            if nc:
                values[t] = nc
                if level and not old:
                    levels.setdefault(level, []).append((i, k, l, t))
            else:
                del values[t]
        states.append(StarSeries._from_row(_lowest(dict(values), den)))


def _reduced(s: StarSeries) -> tuple:
    """The normal form of the Laurent series s as int sums {(k, l, w): n}
    over one denominator, and that denominator; a sum may be 0.  Equal
    Words of the input share one object, so that the sums' key lookups
    compare Words by identity."""
    num, den = _row_of(s)
    words: dict = {}
    return _canonical_sums(((int(k), int(l), words.setdefault(w, w)), c)
                           for (w, k, l), c in num.items()), den


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
    acc, den = _reduced(s)
    return StarSeries._from_row(_lowest({_term(StarTerm, (w, k, l)): c
                                         for (k, l, w), c in acc.items() if c}, den))


def kernel_member(s: StarSeries) -> bool:
    """Does s lie in the ideal generated by x0* sh x1* - x1* + 1?"""
    _check_laurent(s)
    acc, _ = _reduced(s)
    return not any(acc.values())
