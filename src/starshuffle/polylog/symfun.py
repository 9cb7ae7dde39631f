"""The function space spanned by z^k (1-z)^(-l) Li_w over the rationals.

Keys are triples (k, l, w): an integer power of z, a nonnegative integer
power of 1/(1-z), and the word indexing the polylogarithm (the empty word
gives Li_epsilon = 1, and Li_{x0^n} = log^n(z)/n!).  Keys are canonicalized
on insertion to k*l = 0 and l >= 0 by rewrite._canonical, the reduction
rule modulo the kernel ideal, so they are exactly the exponents of
rewriting normal forms.  Reducing trailing x0 letters of the
word part is triangular with unit diagonal, so the canonical keys are
linearly independent as functions on the slit disc: equal SymFun objects
are equal functions and conversely.

The product is the star-series product on (k, l, w) keys, a pair rule
(word parts shuffle, exponents add) handed to linear._bilinear, followed
by the reduction of the merged raw keys on their int sums with
rewrite._canonical, the package's one reduction rule.  The constructor
sends the keys that are not canonical yet through the same rule; a
canonical key is stored as it is, without a multiplication.

d/dz, theta_0 = z d/dz and theta_1 = (1-z) d/dz are linear, so each is a
rule on canonical keys, key -> {canonical key: int}, handed to
linear._linear.  A rule reduces its own raw keys with _canonical,
so the results are already canonical and are wrapped without a second
pass through _insert.  theta_i is the rule of d/dz followed by the rule
of the factor z or 1-z on the int sums, not one fused rule per key,
because a key of d/dz that cancels across terms must place none of its
images: that keeps the order of the output keys.

_reduce_trailing_x0(w) is the one reduced row per word: Li_w over the
basis Li_u log^n(z)/n!, u empty or ending in x1, as ((u, n), int) items
over one denominator, in the fixed piece order (|u|, u, n).  to_pieces,
the germs and limits of integrate, the numeric evaluator and the public
reduce_trailing_x0 all read it.  _piece_sums is to_pieces before its
Fractions are built, which iota_0 reads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..linear import (LinearCombination, _bilinear, _combine, _fractions, _is_scalar, _items,
                      _linear, _sum_rule, _sums)
from ..rewrite import _canonical
from ..shuffle_core import NCPoly, _shuffle_words, shuffle
from ..words import EPSILON, Word, shortlex_key


class SymFun(LinearCombination):
    """Rational linear combination of z^k (1-z)^(-l) Li_w with k*l = 0."""

    @classmethod
    def _insert(cls, data: dict, key, coeff: Fraction) -> None:
        k, l, w = key
        if (not isinstance(k, int) or not isinstance(l, int)
                or isinstance(k, Word) or isinstance(l, Word)):
            raise ValueError("powers k and l must be integers")
        if l >= 0 and k * l == 0:  # already canonical, the common case
            old = data.get(key)
            data[key] = coeff if old is None else old + coeff
            return
        for canon, m in _canonical(key).items():
            old = data.get(canon)
            data[canon] = coeff * m if old is None else old + coeff * m

    @classmethod
    def one(cls) -> "SymFun":
        return cls({(0, 0, EPSILON): 1})

    @classmethod
    def monomial(cls, k: int, l: int, w: Word = EPSILON, coeff=1) -> "SymFun":
        return cls({(k, l, w): coeff})

    @classmethod
    def from_li(cls, w: Word) -> "SymFun":
        return cls({(0, 0, w): 1})

    def __mul__(self, other):
        if isinstance(other, SymFun):
            return SymFun._trusted(_bilinear(self.terms, other.terms, _symfun_pair, _canonical))
        if _is_scalar(other):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__


def _symfun_pair(x: tuple, y: tuple) -> dict:
    (k1, l1, w1), (k2, l2, w2) = x, y
    k, l = k1 + k2, l1 + l2
    return {(k, l, w): m for w, m in _shuffle_words(w1, w2).items()}


def lambda_fun() -> SymFun:
    """The function z / (1 - z) = 1/(1-z) - 1."""
    return SymFun({(0, 1, EPSILON): 1, (0, 0, EPSILON): -1})


def inv_lambda_fun() -> SymFun:
    """The function (1 - z) / z = 1/z - 1."""
    return SymFun({(-1, 0, EPSILON): 1, (0, 0, EPSILON): -1})


# The ideal workload differentiates about 140 distinct keys, 98 % of the
# calls hitting the table.
@lru_cache(maxsize=1024)
def _d_rule(key: tuple) -> dict:
    """d/dz on one canonical key.  An image key whose multiplicities sum
    to zero is kept, so that it holds its place in the output order.
    Cached, treat as read-only."""
    k, l, w = key
    raw = []
    if k:
        raw.append(((k - 1, l, w), k))
    if l:
        raw.append(((k, l + 1, w), l))
    if len(w):
        u = w[1:]
        raw.append(((k - 1, l, u) if w[0] == 0 else (k, l + 1, u), 1))
    return _sum_rule(raw, _canonical)


def _times_z(key: tuple) -> dict:
    k, l, w = key
    return _canonical((k + 1, l, w))


def _times_one_minus_z(key: tuple) -> dict:
    k, l, w = key
    return _canonical((k, l - 1, w))


def derivative(f: SymFun) -> SymFun:
    """d/dz, using d Li_{x0 u} = Li_u dz/z and d Li_{x1 u} = Li_u dz/(1-z)."""
    return SymFun._trusted(_linear(f.terms, _d_rule))


def theta(i: int, f: SymFun) -> SymFun:
    """theta_0 = z d/dz and theta_1 = (1-z) d/dz."""
    if i not in (0, 1):
        raise ValueError("operator index must be 0 or 1")
    factor = _times_z if i == 0 else _times_one_minus_z
    return SymFun._trusted(_linear(f.terms, _d_rule, factor))


# Bounded above the 2,143 words the test suite reduces; the ideal workload
# reduces about 125.
@lru_cache(maxsize=4096)
def _reduce_trailing_x0(w: Word) -> tuple:
    """Expand Li_w over the basis Li_u log^n(z)/n! with u empty or ending
    in x1, via  u x1 x0^n = u x1 sh x0^n - sum_k (u sh x0^k) x1 x0^(n-k).

    Returns the row ((((u, n), int), ...), den), in the piece order
    (|u|, u, n); cached, and a tuple, so no caller can change it.
    """
    if w.count(1) == 0:
        return (((EPSILON, len(w)), 1),), 1
    n = 0
    while w[len(w) - 1 - n] == 0:
        n += 1
    if n == 0:
        return (((w, 0), 1),), 1
    head = w[: len(w) - n]
    u = head[:-1]
    parts = [(1, (((head, n), 1),), 1)]
    for k in range(1, n + 1):
        shuffled = shuffle(NCPoly.from_word(u), NCPoly.from_word(Word([0] * k)))
        tail = Word([1] + [0] * (n - k))
        parts += ((-c, *_reduce_trailing_x0(t + tail)) for t, c in shuffled.terms.items())
    items, den = _items(_combine(parts))
    return tuple(sorted(items, key=_piece_order)), den


def _piece_order(item: tuple) -> tuple:
    """Sort key of a ((u, n), value) item: u by length and letters, then n."""
    (u, n), _ = item
    return (*shortlex_key(u), n)


def reduce_trailing_x0(w: Word) -> dict:
    """Li_w over the basis Li_u log^n(z)/n!, u empty or ending in x1, as
    {(u, n): Fraction} in the piece order (|u|, u, n)."""
    items, den = _reduce_trailing_x0(w)
    return {key: Fraction(c, den) for key, c in items}


def from_piece(k: int, l: int, u: Word, n: int) -> SymFun:
    """The function z^k (1-z)^(-l) Li_u log^n(z)/n! as a SymFun, using
    Li_u log^n/n! = Li_{u sh x0^n}."""
    return SymFun.monomial(k, l, u) * SymFun.from_li(Word([0] * n))


def to_pieces(f: SymFun) -> dict:
    """Decompose into the reduced basis: {(k, l, u, n): coeff} where u is
    empty or ends in x1 and the piece means z^k (1-z)^(-l) Li_u log^n/n!."""
    return _fractions(*_piece_sums(f))


def _piece_sums(f: SymFun) -> tuple:
    """to_pieces(f) as (int sums, den), with no zero sum."""
    rows = ((c, k, l, *_reduce_trailing_x0(w)) for (k, l, w), c in f.terms.items())
    return _sums((c, [((k, l, u, n), m) for (u, n), m in items], den)
                 for c, k, l, items, den in rows)


def index_of(f: SymFun) -> int:
    """The index of a single reduced monomial z^k (1-z)^(-l) Li_w: k when w
    is a power of x0 (Li is then a power of log), k + |w| when w ends in x1.
    Words with an x1 followed by trailing x0's must be reduced first."""
    if len(f.terms) != 1:
        raise ValueError("index is defined for a single monomial")
    ((k, l, w),) = f.terms
    if w.count(1) == 0:
        return k
    if w[-1] == 1:
        return k + len(w)
    raise ValueError("word part has trailing x0 letters; reduce it first")
