"""The shuffle algebra extended by Kleene stars of the plane.

A star term (w, a0, a1) stands for the shuffle product
w sh (a0 x0)* sh (a1 x1)*, whose coefficient on a word v is
<w sh (a0 x0)* sh (a1 x1)* | v>.  By the star-of-the-plane identity
(a0 x0 + a1 x1)* = (a0 x0)* sh (a1 x1)*, every plane star lies in this
basis, and the basis is closed under shuffle because exponents add:
(a0 x0)* sh (b0 x0)* = ((a0 + b0) x0)*.

StarSeries is a finite linear combination of star terms; the polynomial
algebra embeds as the terms with a0 = a1 = 0.

An exponent is stored as an int whenever it is integral and as a
Fraction otherwise, so the Laurent terms that rewriting works on hash,
compare and add machine-size ints.  star_term, the StarSeries constructor
and shuffle_star keep this invariant; equality and hashing do not depend
on it, since Fraction(3) == 3 and hash(Fraction(3)) == hash(3).

shuffle_star is a pair rule handed to linear._bilinear, the package's one
loop over pairs of terms: word parts shuffle and exponents add.
delta_left is a rule on single terms handed to linear._linear.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import DomainError
from .linear import LinearCombination, _bilinear, _linear, _row_of
from .shuffle_core import NCPoly, _shuffle_words
from .words import EPSILON, Word, _check_word, _is_int, shortlex_key


class StarTerm(NamedTuple):
    w: Word
    a0: int | Fraction
    a1: int | Fraction


# _term(StarTerm, (w, a0, a1)) builds a term without NamedTuple's Python-level __new__
_term = tuple.__new__


def _exponent(a) -> int | Fraction:
    """An exact exponent: an int when integral, else a Fraction."""
    if type(a) is not int:
        if isinstance(a, (Word, bool)):
            raise TypeError(f"a {type(a).__name__} is not an exponent: {a!r}")
        a = Fraction(a)
        if a.denominator == 1:
            a = a.numerator
    return a


def star_term(w: Word = EPSILON, a0=0, a1=0) -> StarTerm:
    return _term(StarTerm, (w, _exponent(a0), _exponent(a1)))


def term_sort_key(t: StarTerm):
    w, a0, a1 = t
    return (*shortlex_key(w), a0, a1)


class StarSeries(LinearCombination):
    """Finite StarTerm -> Fraction map; the ambient algebra for rewriting
    and for the extended polylogarithm morphism."""

    @classmethod
    def _insert(cls, data: dict, key, coeff: Fraction) -> None:
        # a StarTerm with int exponents is already what star_term makes
        if type(key) is not StarTerm or type(key[1]) is not int or type(key[2]) is not int:
            key = star_term(*key)
        _check_word(key[0])
        old = data.get(key)
        data[key] = coeff if old is None else old + coeff

    @classmethod
    def one(cls) -> "StarSeries":
        return cls({star_term(): 1})

    def is_laurent(self) -> bool:
        """True when every x0-exponent is an integer and every x1-exponent
        a nonnegative integer."""
        return all(
            t.a0.denominator == 1 and t.a1.denominator == 1 and t.a1 >= 0
            for t in self._keys()
        )

    def __str__(self) -> str:
        from .expressions import format_series

        return format_series(self)


def embed(p: NCPoly) -> StarSeries:
    """Embed a noncommutative polynomial as a star series."""
    return StarSeries({star_term(w): c for w, c in p.terms.items()})


def plane_star(a0, a1) -> StarSeries:
    """The star of the plane point (a0, a1): (a0 x0 + a1 x1)*."""
    return StarSeries({star_term(EPSILON, a0, a1): 1})


def star(s: StarSeries) -> StarSeries:
    """Kleene star of a series without constant term.

    Only defined here for (linear combinations representing) points of the
    plane a0 x0 + a1 x1, where the closed form is a single star term."""
    a0 = Fraction(0)
    a1 = Fraction(0)
    for t, c in s.terms.items():
        if t.a0 or t.a1:
            raise DomainError("star not representable in this algebra")
        if len(t.w) == 0:
            raise DomainError("star undefined: nonzero constant term")
        if len(t.w) > 1:
            raise DomainError("star not representable in this algebra")
        if t.w[0] == 0:
            a0 += c
        else:
            a1 += c
    return plane_star(a0, a1)


def shuffle_star(s: StarSeries, t: StarSeries) -> StarSeries:
    """Shuffle product of star series: word parts shuffle, exponents add."""
    return StarSeries._from_row(_bilinear(_row_of(s), _row_of(t), _star_pair))


def _star_pair(x: StarTerm, y: StarTerm) -> dict:
    (u, a0, a1), (v, b0, b1) = x, y
    e0 = _exponent(a0 + b0)
    e1 = _exponent(a1 + b1)
    return {_term(StarTerm, (w, e0, e1)): m for w, m in _shuffle_words(u, v).items()}


def shuffle_power(s: StarSeries, k: int) -> StarSeries:
    """k-th shuffle power; the zeroth power is the unit series."""
    if not _is_int(k) or k < 0:
        raise ValueError("shuffle_power needs k >= 0")
    out = StarSeries.one()
    for _ in range(k):
        out = shuffle_star(out, s)
    return out


def delta_left(letter: int, s: StarSeries) -> StarSeries:
    """Left derivative by x_letter: strip a leading letter from the word
    part and add the eigenvalue contribution of each star factor."""
    if not _is_int(letter) or letter not in (0, 1):
        raise ValueError("letter must be 0 or 1")

    num, den = _row_of(s)
    # the eigenvalues are exponents, which may be rationals: the row is
    # scaled by their common denominator, so its multiplicities stay ints
    scale = lcm(*(t[1 + letter].denominator for t in num))

    def rule(t: StarTerm) -> dict:
        out = {}
        if len(t.w) and t.w[0] == letter:
            out[StarTerm(t.w[1:], t.a0, t.a1)] = scale
        eig = t[1 + letter]
        if eig:
            out[t] = eig.numerator * (scale // eig.denominator)
        return out

    return StarSeries._from_row(_linear((num, den * scale), rule))


def expand(s: StarSeries, n: int) -> NCPoly:
    """Truncate the series to words of length <= n (test oracle).

    The coefficient of v in (a0 x0)* sh (a1 x1)* is a0^(#x0 in v) times
    a1^(#x1 in v), so a star term expands to a finite sum word by word.
    """
    if not _is_int(n) or n < 0:
        raise ValueError("expand needs n >= 0")
    out: dict = {}
    for (u, a0, a1), c in s.terms.items():
        if len(u) > n:
            continue
        star_part: dict = {}
        for m in range(n - len(u) + 1):
            for bits in range(1 << m):
                v = Word._raw(bits, m)
                star_part[v] = c * a0 ** v.count(0) * a1 ** v.count(1)
        for v, cv in star_part.items():
            if not cv:
                continue
            for w, mult in _shuffle_words(u, v).items():
                if len(w) <= n:
                    out[w] = out.get(w, 0) + cv * mult
    return NCPoly(out)
