"""The function space spanned by z^k (1-z)^(-l) Li_w over the rationals.

Keys are triples (k, l, w): an integer power of z, a nonnegative integer
power of 1/(1-z), and the word indexing the polylogarithm (the empty word
gives Li_epsilon = 1, and Li_{x0^n} = log^n(z)/n!).  Keys are canonicalized
on insertion to k*l = 0 and l >= 0 by rewrite.reduce_exponents, the
closed-form reducer modulo the kernel ideal, so they are exactly the
exponents of rewriting normal forms.  Reducing trailing x0 letters of the
word part is triangular with unit diagonal, so the canonical keys are
linearly independent as functions on the slit disc: equal SymFun objects
are equal functions and conversely.

The product is the star-series product on (k, l, w) keys, a pair rule
(word parts shuffle, exponents add) handed to linear._bilinear, followed
by the reduction of the raw keys on insertion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from numbers import Rational

from ..linear import LinearCombination, _bilinear
from ..rewrite import reduce_exponents
from ..shuffle_core import NCPoly, _shuffle_words, shuffle
from ..words import EPSILON, Word


class SymFun(LinearCombination):
    """Rational linear combination of z^k (1-z)^(-l) Li_w with k*l = 0."""

    @classmethod
    def _insert(cls, data: dict, key, coeff: Fraction) -> None:
        k, l, w = key
        if not isinstance(k, int) or not isinstance(l, int):
            raise ValueError("powers k and l must be integers")
        if l >= 0 and k * l == 0:  # already canonical, the common case
            data[key] = data.get(key, 0) + coeff
            return
        for (k2, l2), m in reduce_exponents(k, l).items():
            canon = (k2, l2, w)
            data[canon] = data.get(canon, 0) + coeff * m

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
            return SymFun(_bilinear(self.terms, other.terms, _symfun_pair))
        if isinstance(other, Rational):
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


def derivative(f: SymFun) -> SymFun:
    """d/dz, using d Li_{x0 u} = Li_u dz/z and d Li_{x1 u} = Li_u dz/(1-z)."""
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


def theta(i: int, f: SymFun) -> SymFun:
    """theta_0 = z d/dz and theta_1 = (1-z) d/dz."""
    if i not in (0, 1):
        raise ValueError("operator index must be 0 or 1")
    d = derivative(f)
    if i == 0:
        return SymFun([((k + 1, l, w), c) for (k, l, w), c in d.terms.items()])
    return SymFun([((k, l - 1, w), c) for (k, l, w), c in d.terms.items()])


# Bounded above the 2,143 words the test suite reduces; the ideal workload
# reduces about 125.
@lru_cache(maxsize=4096)
def _reduce_trailing_x0(w: Word) -> dict:
    """Expand Li_w over the basis Li_u log^n(z)/n! with u empty or ending
    in x1, via  u x1 x0^n = u x1 sh x0^n - sum_k (u sh x0^k) x1 x0^(n-k).

    Returns {(u, n): coeff}; cached, treat as read-only.
    """
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
            for key, c2 in _reduce_trailing_x0(t + tail).items():
                out[key] = out.get(key, 0) - c * c2
    return {key: c for key, c in out.items() if c}


def reduce_trailing_x0(w: Word) -> dict:
    """Public copy-returning wrapper around the cached reduction."""
    return dict(_reduce_trailing_x0(w))


def from_piece(k: int, l: int, u: Word, n: int) -> SymFun:
    """The function z^k (1-z)^(-l) Li_u log^n(z)/n! as a SymFun, using
    Li_u log^n/n! = Li_{u sh x0^n}."""
    return SymFun.monomial(k, l, u) * SymFun.from_li(Word([0] * n))


def to_pieces(f: SymFun) -> dict:
    """Decompose into the reduced basis: {(k, l, u, n): coeff} where u is
    empty or ends in x1 and the piece means z^k (1-z)^(-l) Li_u log^n/n!."""
    out: dict = {}
    for (k, l, w), c in f.terms.items():
        for (u, n), c2 in _reduce_trailing_x0(w).items():
            key = (k, l, u, n)
            val = out.get(key, 0) + c * c2
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


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
