"""Sparse linear combinations over the rationals.

Every algebra in this package (noncommutative polynomials, quasi-shuffle
polynomials, star series, symbolic function spaces) is a finite map from
basis keys to Fractions.  This base class supplies the vector-space part;
subclasses may canonicalize keys on insertion.

The constructor takes (key, coefficient) pairs or a map.  A coefficient
whose type is exactly Fraction is stored as it is; any other goes through
Fraction(coeff), so an int, a bool, a str such as "3/4" or a Fraction
subclass is stored as a plain Fraction, and a Word is refused with
TypeError.  _insert stores the first coefficient of a key as it is and
adds later ones to it; the keys whose sums are zero are dropped at the
end.  So every stored value is a Fraction, and a key keeps the place of
its first pair.

Every operator in the package is a linear or bilinear map fixed by its
values on basis keys, and three loops apply such maps to whole
combinations; no other code does:

    _bilinear  a rule on pairs of keys, pair(u, v) -> {key: int}: every
               product (shuffle, stuffle, star shuffle, the SymFun
               product, concatenation) and the left and right residuals;
    _linear    a rule on single keys, rule(u) -> {key: int}: theta_0,
               theta_1 and d/dz on SymFuns, the reduction modulo the
               kernel ideal (rewrite._canonical, through _sum_rule), the
               projections pi_y and pi_x, and delta_left;
    _combine   a sum of scaled rows, c * (sum of n/d over keys): the
               sections iota_0 and iota_1, the basepoint limits, the
               antiderivative tables, to_pieces, the trailing-x0
               reduction of a word and the lineg series.

_bilinear and _linear scale the coefficients of each operand to one
common denominator (_common_scale), sum the products with the rule's
multiplicities, and build one Fraction per distinct nonzero value at the
end (_fractions).  Output keys keep the order in which the loop first
meets them; a key whose sum is zero is dropped only at the end, as
LinearCombination's constructor drops it.  Both can apply a second
linear rule to their sums before the Fractions are built: the SymFun
product reduces its raw keys that way, and theta_i multiplies d/dz by z
or 1-z.

When both operands of _bilinear have one term, as in a product of two
words, the pair rule's dict already holds the int sums, in the loop's
order: it goes to _fractions as it is, or scaled by a copy when the
numerators' product is not 1, with no accumulation loop.  Rules may
return cached dicts (_shuffle_words, _stuffle_words), so the loops read
every dict a rule returns and never write to it or hand it out as a
result.

_combine sums scaled combinations, c * (sum of n/d over keys), as a chain
of + would: a key is dropped the moment it cancels, and appended again if
a later summand brings it back.  _sums is the same loop returning its int
sums and their denominator, for a caller that reads the sums as ints.  A
row is the (items, den) pair that _items makes of a {key: Fraction} map,
so cached tables hold rows.

_signed_sum is the one renderer of a signed sum of terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Iterable, Tuple

from .words import Word


class LinearCombination:
    """Finite basis-key -> Fraction map with zero coefficients pruned."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data: dict = {}
        if terms is not None:
            items: Iterable[Tuple] = terms.items() if hasattr(terms, "items") else terms
            for key, coeff in items:
                if type(coeff) is not Fraction:
                    if isinstance(coeff, Word):
                        raise TypeError(f"a Word is not a coefficient: {coeff!r}")
                    coeff = Fraction(coeff)
                self._insert(data, key, coeff)
        self.terms = {k: c for k, c in data.items() if c}

    @classmethod
    def _trusted(cls, data: dict):
        """Wrap an internally built key -> coefficient dict without checking it.

        Precondition: every key is already what _insert would store it
        under and every value is a nonzero Fraction.  Only internal
        results meet it: never pass user input, and never keys that
        _insert still has to canonicalize (such as the raw exponents of a
        SymFun product).  The results of _bilinear, _linear, _combine and
        _fractions hold no zero; a caller whose sums can cancel prunes
        them first.  The dict is handed over, not copied.
        """
        obj = cls.__new__(cls)
        obj.terms = data
        return obj

    @classmethod
    def _insert(cls, data: dict, key, coeff: Fraction) -> None:
        """Accumulate coeff on key: the first coeff of a key is stored as
        it is.  Subclasses override to canonicalize."""
        old = data.get(key)
        data[key] = coeff if old is None else old + coeff

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
            c = out.get(k, 0) + c
            if c:
                out[k] = c
            else:  # k was in out, and no later term brings it back
                del out[k]
        return self._trusted(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            c = out.get(k, 0) - c
            if c:
                out[k] = c
            else:  # k was in out, and no later term brings it back
                del out[k]
        return self._trusted(out)

    def __neg__(self):
        return self._trusted({k: -c for k, c in self.terms.items()})

    def scale(self, scalar) -> "LinearCombination":
        if isinstance(scalar, Word):
            raise TypeError(f"a Word is not a scalar: {scalar!r}")
        scalar = Fraction(scalar)
        if not scalar:
            return self._trusted({})
        return self._trusted({k: scalar * c for k, c in self.terms.items()})

    def __mul__(self, other):
        if _is_scalar(other):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if _is_scalar(other):
            return self.scale(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"


def _is_scalar(x) -> bool:
    """True for a rational number.  A Word is an int only as a basis key,
    so it is not one."""
    return isinstance(x, Rational) and not isinstance(x, Word)


def _common_scale(coeffs) -> tuple:
    """Numerators over the least common denominator of some Fractions, and
    that denominator."""
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _fractions(num: dict, den: int, wrap=None) -> dict:
    """{key: Fraction(value, den)} for the nonzero int values, each key
    passed through wrap(key) when wrap is given.  Terms of equal value
    share one Fraction, which is immutable."""
    out = {}
    made: dict = {}
    for k, c in num.items():
        if c:
            f = made.get(c)
            if f is None:
                f = made[c] = Fraction(c, den)
            out[k if wrap is None else wrap(k)] = f
    return out


def _items(terms: dict) -> tuple:
    """A {key: Fraction} map as a row (items, den): the (key, int
    numerator) items over the least common denominator den, in the map's
    order."""
    nums, den = _common_scale(terms.values())
    return tuple(zip(terms, nums)), den


def _sum_rule(nums, rule) -> dict:
    """sum of c * rule(u) over the (u, c) pairs of int numerators, as
    {key: int}.  A zero c is skipped, so it places no key."""
    acc: dict = {}
    for u, c in nums:
        if c:
            for w, m in rule(u).items():
                acc[w] = acc.get(w, 0) + c * m
    return acc


def _linear(terms: dict, rule, then=None) -> dict:
    """The linear extension of rule(u) -> {key: int} to the term map terms,
    as {key: Fraction} with the zero values dropped.  With a second rule
    then, its linear extension is applied to the int sums first.  The
    multiplicities may be rationals, as delta_left's eigenvalues (star
    exponents) are: _sum_rule sums them exactly, and _fractions divides a
    Fraction sum by den as it divides an int."""
    nums, den = _common_scale(terms.values())
    acc = _sum_rule(zip(terms, nums), rule)
    if then is not None:
        acc = _sum_rule(acc.items(), then)
    return _fractions(acc, den)


def _bilinear(p: dict, q: dict, pair, then=None, wrap=None) -> dict:
    """The bilinear extension of pair(u, v) -> {key: int} to the term maps
    p and q, as {key: Fraction} with the zero values dropped.  With a rule
    then(key) -> {key: int}, its linear extension is applied to the int
    sums first, in the order the pair loop met their keys; a key whose sum
    is zero is skipped there, as if the product had been built first.
    With wrap, each output key is wrap(key), as in _fractions.  Two
    one-term operands skip the accumulation (see the module docstring);
    what pair returns is never written to."""
    if len(p) == 1 and len(q) == 1:
        ((u, cu),) = p.items()
        ((v, cv),) = q.items()
        acc = pair(u, v)
        c = cu.numerator * cv.numerator
        if c != 1:
            acc = {w: c * m for w, m in acc.items()}
        den = cu.denominator * cv.denominator
    else:
        p_nums, p_den = _common_scale(p.values())
        q_nums, q_den = _common_scale(q.values())
        acc = {}
        for u, cu in zip(p, p_nums):
            for v, cv in zip(q, q_nums):
                c = cu * cv
                for w, m in pair(u, v).items():
                    acc[w] = acc.get(w, 0) + c * m
        den = p_den * q_den
    if then is not None:
        acc = _sum_rule(acc.items(), then)
    return _fractions(acc, den, wrap)


def _combine(parts) -> dict:
    """sum of c * (n / d) over the parts (c, items, d), where c is an int
    or a Fraction and items yields (key, int n), as {key: Fraction}."""
    return _fractions(*_sums(parts))


def _sums(parts) -> tuple:
    """_combine's sum as (int sums, den), with no zero sum.

    The sum is kept as ints over a running common denominator, widened
    (every value rescaled in place) only when a part needs it.  A key is
    dropped the moment it cancels, so one that comes back is appended, as
    in a chain of + on LinearCombinations.
    """
    acc: dict = {}
    den = 1
    for c, items, d in parts:
        d *= c.denominator
        if den % d:
            wider = lcm(den, d)
            f = wider // den
            for key in acc:
                acc[key] *= f
            den = wider
        m = c.numerator * (den // d)
        for key, n in items:
            v = acc.get(key, 0) + m * n
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
    return acc, den


def _signed_sum(terms) -> str:
    """Render (c, basis) pairs, basis being the text of a basis element,
    as a signed sum of |c|*basis, or of a bare |c| where basis is "": the
    first term takes a bare "-" when c < 0, later ones " + " or " - ", and
    no terms give "0".

    The terms of a combination share one coefficient object per distinct
    value, so each object's sign and text are worked out once, keyed by
    its id; the table holds the object, so no id is reused meanwhile.
    """
    rendered: dict = {}
    parts = []
    for c, basis in terms:
        hit = rendered.get(id(c))
        if hit is None:
            hit = rendered[id(c)] = (c, c < 0, str(abs(c)))
        _, negative, text = hit
        if basis:
            text += "*" + basis
        if parts:
            parts.append(("- " if negative else "+ ") + text)
        else:
            parts.append(("-" if negative else "") + text)
    return " ".join(parts) if parts else "0"
