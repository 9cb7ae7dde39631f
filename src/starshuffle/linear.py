"""Sparse linear combinations over the rationals.

Every algebra in this package (noncommutative polynomials, quasi-shuffle
polynomials, star series, symbolic function spaces) is a finite map from
basis keys to Fractions.  This base class supplies the vector-space part;
subclasses may canonicalize keys on insertion.

Every product in the package (shuffle, stuffle, star shuffle, the SymFun
product, concatenation) is the bilinear extension of a rule on pairs of
basis keys, pair(u, v) -> {key: int multiplicity}, and _bilinear holds the
one loop that extends it: the coefficients of each factor are scaled to
one common denominator (_common_scale), the products c_u * c_v * m are
summed as plain ints, and one Fraction is built per distinct nonzero
value at the end (_fractions).  Output keys keep the order in which the
loop first meets them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Iterable, Tuple


class LinearCombination:
    """Finite basis-key -> Fraction map with zero coefficients pruned."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data: dict = {}
        if terms is not None:
            items: Iterable[Tuple] = terms.items() if hasattr(terms, "items") else terms
            for key, coeff in items:
                self._insert(data, key, Fraction(coeff))
        self.terms = {k: c for k, c in data.items() if c}

    @classmethod
    def _trusted(cls, data: dict):
        """Wrap an internally built key -> coefficient dict without checking it.

        Precondition: every key is already what _insert would store it
        under and every value is a Fraction.  Only internal results meet
        it: never pass user input, and never keys that _insert still has
        to canonicalize (such as the raw exponents of a SymFun product).
        The dict is handed over, not copied; zero values are pruned.
        """
        obj = cls.__new__(cls)
        obj.terms = data if all(data.values()) else {k: c for k, c in data.items() if c}
        return obj

    @classmethod
    def _insert(cls, data: dict, key, coeff: Fraction) -> None:
        """Accumulate coeff on key.  Subclasses override to canonicalize."""
        data[key] = data.get(key, 0) + coeff

    @classmethod
    def zero(cls):
        return cls()

    def coeff(self, key) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def items(self):
        return self.terms.items()

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, frozenset(self.terms.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return self._trusted(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) - c
        return self._trusted(out)

    def __neg__(self):
        return self._trusted({k: -c for k, c in self.terms.items()})

    def scale(self, scalar) -> "LinearCombination":
        scalar = Fraction(scalar)
        return self._trusted({k: scalar * c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Rational):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return self.scale(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"


def _common_scale(coeffs) -> tuple:
    """Numerators over the least common denominator of some Fractions, and
    that denominator."""
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _fractions(num: dict, den: int) -> dict:
    """{key: Fraction(value, den)} for the nonzero int values.  Terms of
    equal value share one Fraction, which is immutable."""
    out = {}
    made: dict = {}
    for k, c in num.items():
        if c:
            f = made.get(c)
            if f is None:
                f = made[c] = Fraction(c, den)
            out[k] = f
    return out


def _bilinear(p: dict, q: dict, pair) -> dict:
    """The bilinear extension of pair(u, v) -> {key: int} to the term maps
    p and q, as {key: Fraction} with the zero values dropped."""
    p_nums, p_den = _common_scale(p.values())
    q_nums, q_den = _common_scale(q.values())
    acc: dict = {}
    for u, cu in zip(p, p_nums):
        for v, cv in zip(q, q_nums):
            c = cu * cv
            for w, m in pair(u, v).items():
                acc[w] = acc.get(w, 0) + c * m
    return _fractions(acc, p_den * q_den)
