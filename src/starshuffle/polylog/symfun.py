"""The function space spanned by z^k (1-z)^(-l) Li_w over the rationals.

Keys are triples (k, l, w): an integer power of z, a nonnegative integer
power of 1/(1-z), and the word indexing the polylogarithm (the empty word
gives Li_epsilon = 1, and Li_{x0^n} = log^n(z)/n!).  Keys are canonicalized
on insertion to k*l = 0 and l >= 0 by the reduction rule modulo the
kernel ideal, the exponent table rewrite._exponent_row, so they are
exactly the exponents of rewriting normal forms.  Reducing trailing x0
letters of the word part is triangular with unit diagonal, so the
canonical keys are linearly independent as functions on the slit disc:
equal SymFun objects are equal functions and conversely.

The product is the star-series product on (k, l, w) keys, a pair rule
(word parts shuffle, exponents add) handed to linear._bilinear, followed
by the reduction of the merged raw keys on their int sums in one pass of
rewrite._canonical_sums, the one loop over the exponent table.  The
constructor reads the table row of each key that is not canonical yet; a
canonical key is stored as it is, without a multiplication.  monomial
converts and checks as the constructor does and returns its key's table
row, re-keyed by the word and scaled by the coefficient.

d/dz, theta_0 = z d/dz and theta_1 = (1-z) d/dz are linear, so each is a
rule on canonical keys, key -> {canonical key: int}, handed to
linear._linear.  The rule of d/dz reduces its own raw keys with
_canonical_sums, so the results are already canonical and are wrapped
without a second pass through _insert.  theta_i is the rule of d/dz
followed by one pass over its int sums that shifts each key by the
factor z or 1-z and reduces it with _canonical_sums, not one fused rule
per key, because a key of d/dz that cancels across terms must place
none of its images: that keeps the order of the output keys.

_reduce_trailing_x0(w) is the one reduced row per word: Li_w over the
basis Li_t log^j(z)/j!, t empty or ending in x1, in the fixed piece order
(|t|, t, j).  For w = u x1 x0^n it is the closed form
u x1 x0^n = sum over m of (-1)^m ((u sh x0^m) x1) sh x0^(n-m), whose
levels u sh x0^m are the cells of the last row of one shuffle table,
that of u sh x0^n (shuffle_core._shuffle_row, the package's one shuffle
kernel); its entries are signed shuffle multiplicities, so the row is a
tuple of ((t, j), int) items with no denominator, and a row past
_MAX_ROW_LETTERS is refused.  to_pieces, the germs and limits of
integrate, the numeric evaluator and the public reduce_trailing_x0 all
read it.  _piece_sums is to_pieces as a row,
which iota_0 and limit_at_one read: it adds each row entry straight into
one dict, under linear._combine's rule.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from ..errors import DomainError
from ..linear import (LinearCombination, _as_fraction, _bilinear, _is_scalar, _linear, _lowest,
                      _row_of)
from ..rewrite import _canonical_sums, _exponent_row
from ..shuffle_core import _shuffle_row, _shuffle_words
from ..words import EPSILON, Word, _check_word, _is_int, _new, shortlex_key


class SymFun(LinearCombination):
    """Rational linear combination of z^k (1-z)^(-l) Li_w with k*l = 0."""

    @classmethod
    def _insert(cls, data: dict, key, coeff: Fraction) -> None:
        k, l, w = key
        _check_key(k, l, w)
        if l >= 0 and k * l == 0:  # already canonical, the common case
            old = data.get(key)
            data[key] = coeff if old is None else old + coeff
            return
        for (k2, l2), m in _exponent_row(k, l):
            canon = (k2, l2, w)
            old = data.get(canon)
            data[canon] = coeff * m if old is None else old + coeff * m

    @classmethod
    def one(cls) -> "SymFun":
        return cls({(0, 0, EPSILON): 1})

    @classmethod
    def monomial(cls, k: int, l: int, w: Word = EPSILON, coeff=1) -> "SymFun":
        """SymFun({(k, l, w): coeff}), built as its key's exponent row:
        coeff is converted as the constructor converts it, k, l and w
        are checked as _insert checks them, and the row is read (and refused
        past the bit budget) before coeff is looked at, so even when it
        is 0.  Every row holds a multiplicity 1 or -1, so the row is in
        lowest terms as it stands."""
        if type(coeff) is not Fraction:
            coeff = _as_fraction(coeff)
        _check_key(k, l, w)
        row = _exponent_row(k, l)
        n = coeff.numerator
        return cls._from_row(({(k2, l2, w): m * n for (k2, l2), m in row} if n else {},
                              coeff.denominator))

    @classmethod
    def from_li(cls, w: Word) -> "SymFun":
        return cls({(0, 0, w): 1})

    def __mul__(self, other):
        if isinstance(other, SymFun):
            return SymFun._from_row(_bilinear(_row_of(self), _row_of(other), _symfun_pair,
                                              _canonical_sums))
        if _is_scalar(other):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__


def _check_key(k, l, w) -> None:
    if not _is_int(k) or not _is_int(l):
        raise ValueError("powers k and l must be integers")
    _check_word(w)


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
    return _canonical_sums(raw)


def _times_z(items) -> dict:
    return _canonical_sums(((k + 1, l, w), c) for (k, l, w), c in items)


def _times_one_minus_z(items) -> dict:
    return _canonical_sums(((k, l - 1, w), c) for (k, l, w), c in items)


def derivative(f: SymFun) -> SymFun:
    """d/dz, using d Li_{x0 u} = Li_u dz/z and d Li_{x1 u} = Li_u dz/(1-z)."""
    return SymFun._from_row(_linear(_row_of(f), _d_rule))


def theta(i: int, f: SymFun) -> SymFun:
    """theta_0 = z d/dz and theta_1 = (1-z) d/dz."""
    if not _is_int(i) or i not in (0, 1):
        raise ValueError("operator index must be 0 or 1")
    factor = _times_z if i == 0 else _times_one_minus_z
    return SymFun._from_row(_linear(_row_of(f), _d_rule, factor))


# Letters per reduced row.  A word u x1 x0^n whose u holds r letters x1
# has a row of C(r + n + 1, r + 1) pieces, each at most as long as the
# word; a row whose pieces times the word's length pass this budget is
# refused before it is built.  A piece costs about 20 us to build and
# evaluate, and a piece count alone would let x1 x0^60000 through, whose
# words hold 1.8e9 letters.  At the budget the largest row, of x1^9 x0^10
# (92,378 pieces, about 1.76e6 letters), is built in about 0.2 s and
# evaluated in about 2 s and 60 MB.  The tests build rows up to it:
# x1 x0^1400 holds about 1.96e6 letters, (x0x1)^10 x0^8 about 1.23e6,
# x1 x0^1030 about 1.06e6, x0^540 x1 x0^560 about 6.2e5, and every other
# row at most 38,808; the workloads' rows at most 50.
_MAX_ROW_LETTERS = 1 << 21


# Bounded above the 2,448 words the test suite reduces; the ideal workload
# reduces about 95.  Only the words asked for enter it.
@lru_cache(maxsize=4096)
def _reduce_trailing_x0(w: Word) -> tuple:
    """Expand Li_w over the basis Li_t log^j(z)/j! with t empty or ending
    in x1, by the closed form

        u x1 x0^n = sum over m = 0..n of (-1)^m ((u sh x0^m) x1) sh x0^(n-m):

    with u sh x0^m = sum c_t t, the piece (t x1, n - m) gets (-1)^m c_t.
    Every level u sh x0^m is cell m of the last row of the one shuffle
    table of u sh x0^n, so the row takes one call of the shuffle kernel
    and no recursion.  Its keys carry the sentinel bit top = 1 << (|u| + n)
    of the full length, so a key t of cell m is t x1 as t ^ top |
    3 << (|u| + m).  No two pieces share a key, and every coefficient is
    a signed shuffle multiplicity.

    Returns the row (((t, j), int), ...) in the piece order (|t|, t, j);
    cached, and a tuple, so no caller can change it.  A row of more than
    _MAX_ROW_LETTERS letters is refused with DomainError before any
    shuffle.
    """
    last = (w ^ 1 << len(w)).bit_length() - 1  # the position of the last x1, or -1
    if last < 0:
        return ((EPSILON, len(w)), 1),
    n = len(w) - 1 - last
    if comb(n + w.count(1), n) * len(w) > _MAX_ROW_LETTERS:
        raise DomainError(f"the reduced row would hold more than {_MAX_ROW_LETTERS} letters")
    top = 1 << last + n
    levels = _shuffle_row(w & (1 << last) - 1 | 1 << last, 1 << n)  # u sh x0^m, m = 0..n
    row = [((_new(Word, t ^ top | 3 << last + m), n - m), -c if m & 1 else c)
           for m, level in enumerate(levels) for t, c in level.items()]
    return tuple(sorted(row, key=_piece_order))


def _piece_order(item: tuple) -> tuple:
    """Sort key of a ((u, n), value) item: u by length and letters, then n."""
    (u, n), _ = item
    return (*shortlex_key(u), n)


def reduce_trailing_x0(w: Word) -> dict:
    """Li_w over the basis Li_u log^n(z)/n!, u empty or ending in x1, as
    {(u, n): Fraction} in the piece order (|u|, u, n)."""
    return {key: Fraction(c) for key, c in _reduce_trailing_x0(w)}


def from_piece(k: int, l: int, u: Word, n: int) -> SymFun:
    """The function z^k (1-z)^(-l) Li_u log^n(z)/n! as a SymFun, using
    Li_u log^n/n! = Li_{u sh x0^n}."""
    if not _is_int(n) or n < 0:
        raise ValueError(f"the log power n must be an integer >= 0, got {n!r}")
    return SymFun.monomial(k, l, u) * SymFun.from_li(Word([0] * n))


def to_pieces(f: SymFun) -> dict:
    """Decompose into the reduced basis: {(k, l, u, n): coeff} where u is
    empty or ends in x1 and the piece means z^k (1-z)^(-l) Li_u log^n/n!."""
    return LinearCombination._from_row(_piece_sums(_row_of(f))).terms


def _piece_sums(row: tuple) -> tuple:
    """to_pieces as a row, of a SymFun's row (num, den): the reduced rows
    of its words summed as linear._combine sums them, a key dropped the
    moment it cancels and appended again if it comes back."""
    num, den = row
    acc: dict = {}
    get = acc.get
    for (k, l, w), c in num.items():
        for (u, n), m in _reduce_trailing_x0(w):
            key = (k, l, u, n)
            v = get(key, 0) + c * m
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
    return _lowest(acc, den)


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
