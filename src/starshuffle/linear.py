"""Sparse linear combinations over the rationals.

Every algebra in this package (noncommutative polynomials, quasi-shuffle
polynomials, star series, symbolic function spaces) is a finite map from
basis keys to rationals.  This base class supplies the vector-space part;
subclasses may canonicalize keys on insertion.

A combination holds exactly one of two forms at a time:

    map form   the {key: Fraction} map .terms, made by the constructor
               and by _trusted(fraction_dict);
    row form   a row (num, den): an int numerator {key: int} with no zero
               entry over one positive denominator den, the content and
               primitive part of a rational polynomial (Knuth, TAOCP
               vol. 2, 4.6.1).  _from_row wraps one.

A class whose map keys are an int subclass names it as _key_type
(NCPoly: Word), and its rows key each word by its plain int sentinel key
instead: _row_of reads a map's keys through int, and .terms makes each
row key int.__new__(_key_type, key), in C, in the same pass that makes
the Fractions.  So between two operations an NCPoly holds neither Words
nor Fractions, and the numerator dict of its row, holding ints only, is
not tracked by the cyclic collector, where a Word and every dict that
holds one are.
Every other class has _key_type None, and its keys pass as they are.

Every operation returns the row form: the products and linear maps
(_bilinear, _linear), sums (_combine), +, -, neg and scale.  Every
operation reads its operands' rows (_row_of): a map-form operand is
scaled to its least common denominator once (_common_scale), or, with
one term, read off its Fraction's numerator and denominator.  The first
read of .terms on a row-form object builds the map from the row
(_fractions: one Fraction per distinct value, keys in the row's order,
made of _key_type) and drops the row, so from then on the map is the
object's only form and a caller that mutates .terms is obeyed.  Fractions are therefore
built only by the constructor and when .terms is read (by coeff, items,
printing and the numeric evaluator), never between two operations, and
so are the Words of an NCPoly.

Rows are normalised eagerly (_lowest): when den > 1, one
gcd(den, *nums) divides them out, so the row of a value is unique.  A
map's _common_scale row is normalised already, as the Fractions are in
lowest terms.  Equality and hashing are then plain comparisons of rows
of either form (an NCPoly's are int-keyed in both, so no Word is ever
compared with an int), and denominators cannot grow along chains of
products.  Normalising only in == and hash instead would save the gcd on rows that
are never compared, but it is cheap: under cProfile, 3,000 operations
of the shuffle benchmark workload (seed 2101, Python 3.11) spend 0.001 s
of 1.5 s in 5,000 gcd calls, and of the ideal workload 0.004 s of 0.57 s
in 19,000.  The same runs built 57,000 and 35,000 Fractions when every
operation returned a map, and build 16,000 and 9,000 now.

The constructor takes (key, coefficient) pairs or a map.  A coefficient
whose type is exactly Fraction is stored as it is; any other goes through
Fraction(coeff), so an int, a bool, a str such as "3/4" or a Fraction
subclass is stored as a plain Fraction, and a Word is refused with
TypeError.  So is a key whose word part is not a Word, by the _insert of
NCPoly, StarSeries and SymFun (words._check_word).  _insert stores the first coefficient of a key as it is and
adds later ones to it; the keys whose sums are zero are dropped at the
end.  So every stored value is a Fraction, and a key keeps the place of
its first pair.

Every operator in the package is a linear or bilinear map fixed by its
values on basis keys, and three loops apply such maps to rows:

    _bilinear  a rule on pairs of keys, pair(u, v) -> {key: int}: every
               product (shuffle, stuffle, star shuffle, the SymFun
               product, concatenation) and the left and right residuals;
    _linear    a rule on single keys, rule(u) -> {key: int}: theta_0,
               theta_1 and d/dz on SymFuns, the projections pi_y and
               pi_x, and delta_left;
    _combine   a sum of scaled rows, sum of c * (num / d) over the parts
               (c, (num, d)), divided by a common den: +, -, the sections
               iota_0 and iota_1, the basepoint limits, the
               antiderivative tables, and the lineg series.

Two more loops each sum one kind of cached row straight into one dict,
with no dict per key: the kernel-ideal reducer rewrite._canonical_sums
sums the exponent-table rows of (k, l, w) keys, and symfun._piece_sums,
to_pieces as a row, sums the reduced rows of a SymFun's words under
_combine's rule.

_bilinear and _linear sum the products with the rule's multiplicities
as ints over the product of the operands' denominators, and the rules
take and give row keys: the word rules of shuffle_core (shuffle,
concatenation, the residuals and pi_x) work on sentinel ints, which
pass through as they are.  Output keys keep the order in which the loop
first meets them; a key whose sum is zero is dropped only at the end,
as LinearCombination's constructor drops it.  Both can apply a second linear map, then, to their sums
first: a function of the sums' (key, int) items that returns the summed
dict, so it runs one loop over all of them.  The reducer is such a map:
the SymFun product passes it to reduce its raw keys, and theta_i a map
that shifts the keys of d/dz by the factor z or 1-z and reduces them
with it.  When both operands of _bilinear have one term, as in a
product of two words, the pair rule's dict already holds the int sums,
in the loop's order, and is read with no accumulation loop.  A rule may
return a cached dict, as symfun._d_rule does, so the loops read every
dict a rule returns and never write to it or hand it out as a result.

_combine sums as a chain of + would: a key is dropped the moment it
cancels, and appended again if a later summand brings it back.  Cached
tables hold combinations or rows, which their readers take through
_row_of and never write to.

_signed_sum is the one renderer of a signed sum of terms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Tuple

from .words import Word, _new


class LinearCombination:
    """Finite basis-key -> rational map with zero coefficients pruned, in
    map or row form (see the module docstring)."""

    __slots__ = ("_terms", "_row")
    _key_type = None  # the int subclass of map keys whose rows hold plain ints

    def __init__(self, terms=None):
        data: dict = {}
        if terms is not None:
            items: Iterable[Tuple] = terms.items() if hasattr(terms, "items") else terms
            for key, coeff in items:
                if type(coeff) is not Fraction:
                    coeff = _as_fraction(coeff)
                self._insert(data, key, coeff)
        self.terms = {k: c for k, c in data.items() if c}

    @property
    def terms(self) -> dict:
        """The {key: Fraction} map, built from the row on first read; it is
        the object's only form from then on."""
        if self._row is not None:
            self._terms, self._row = _fractions(*self._row, self._key_type), None
        return self._terms

    @terms.setter
    def terms(self, data: dict) -> None:
        self._terms, self._row = data, None

    @classmethod
    def _trusted(cls, data: dict):
        """Wrap an internally built {key: Fraction} dict, in map form,
        without checking it.

        Precondition: every key is already what _insert would store it
        under and every value is a nonzero Fraction.  Never pass user
        input, and never keys that _insert still has to canonicalize
        (such as the raw exponents of a SymFun product).  The dict is
        handed over, not copied.
        """
        obj = cls.__new__(cls)
        obj.terms = data
        return obj

    @classmethod
    def _from_row(cls, row: tuple):
        """Wrap a row (num, den), in row form, without checking it.

        Precondition: the keys are what _insert would store them under,
        no value is zero, and the row is normalised, as the rows of
        _bilinear, _linear, _combine and _lowest are.  The row is handed
        over, not copied.
        """
        obj = cls.__new__(cls)
        obj._terms, obj._row = None, row
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

    def _keys(self):
        """The keys, read off whichever form the object holds."""
        return self._terms if self._row is None else self._row[0]

    def coeff(self, key) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def items(self):
        return self.terms.items()

    def __len__(self) -> int:
        return len(self._keys())

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and _row_of(self) == _row_of(other)

    def __hash__(self):
        num, den = _row_of(self)
        return hash((type(self).__name__, frozenset(num.items()), den))

    def _plus(self, other, sign: int):
        if type(other) is not type(self):
            return NotImplemented
        return self._from_row(_combine(((1, _row_of(self)), (sign, _row_of(other)))))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, scalar) -> "LinearCombination":
        scalar = _as_fraction(scalar)
        num, den = _row_of(self) if scalar else ({}, 1)
        n = scalar.numerator
        return self._from_row(_lowest({k: n * c for k, c in num.items()}, den * scalar.denominator))

    def __mul__(self, other):
        if _is_scalar(other):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"


def _is_scalar(x) -> bool:
    """True for a rational number.  A Word is an int only as a basis key,
    so it is not one."""
    return isinstance(x, Rational) and not isinstance(x, Word)


def _as_fraction(coeff) -> Fraction:
    """A coefficient that is not exactly a Fraction as a plain Fraction; a
    Word is refused."""
    if isinstance(coeff, Word):
        raise TypeError(f"a Word is not a coefficient: {coeff!r}")
    return Fraction(coeff)


def _row_of(x: LinearCombination) -> tuple:
    """The row (num, den) of a combination in either form.  A row-form
    object hands out its own row, which the caller must not write to.  A
    one-term map-form object {k: c} reads as ({k: c.numerator},
    c.denominator), which is its _common_scale row, as c is in lowest
    terms; a longer map goes through _common_scale.  A map's keys are
    read through int when the class has a _key_type."""
    if x._row is not None:
        return x._row
    terms = x._terms
    keys = terms if x._key_type is None else map(int, terms)
    if len(terms) == 1:
        (k,), (c,) = keys, terms.values()
        return {k: c.numerator}, c.denominator
    nums, den = _common_scale(terms.values())
    return dict(zip(keys, nums)), den


def _common_scale(coeffs) -> tuple:
    """Numerators over the least common denominator of some Fractions, and
    that denominator."""
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _fractions(num: dict, den: int, key_type=None) -> dict:
    """{key: Fraction(value, den)} for the nonzero int values, each key
    made int.__new__(key_type, key) when key_type is given.  Terms of
    equal value share one Fraction, which is immutable."""
    keys = num if key_type is None else map(_new, repeat(key_type), num)
    out = {}
    made: dict = {}
    for k, c in zip(keys, num.values()):
        if c:
            f = made.get(c)
            if f is None:
                f = made[c] = Fraction(c, den)
            out[k] = f
    return out


def _lowest(num: dict, den: int) -> tuple:
    """The row num / den in lowest terms: every value and den divided by
    gcd(den, *num) when den > 1.  num is handed back as it is when
    nothing divides out, so callers pass a dict of their own."""
    if den > 1:
        g = gcd(den, *num.values())
        if g > 1:
            return {k: c // g for k, c in num.items()}, den // g
    return num, den


def _sum_rule(nums, rule) -> dict:
    """sum of c * rule(u) over the (u, c) pairs of int numerators, as
    {key: int}.  A zero c is skipped, so it places no key."""
    acc: dict = {}
    for u, c in nums:
        if c:
            for w, m in rule(u).items():
                acc[w] = acc.get(w, 0) + c * m
    return acc


def _linear(row: tuple, rule, then=None) -> tuple:
    """The linear extension of rule(u) -> {key: int} to a row, as a row.
    With a second map then(items) -> {key: int}, a linear map on the
    (key, int) items of the sums, it is applied to the sums first."""
    num, den = row
    acc = _sum_rule(num.items(), rule)
    if then is not None:
        acc = then(acc.items())
    return _lowest({k: c for k, c in acc.items() if c}, den)


def _bilinear(p: tuple, q: tuple, pair, then=None) -> tuple:
    """The bilinear extension of pair(u, v) -> {key: int} to the rows p
    and q, as a row.  With a map then(items) -> {key: int}, a linear map
    on the (key, int) items of the sums, it is applied to the sums first,
    in the order the pair loop met their keys; an item whose sum is zero
    should place no key there, as if the product had been built first.
    Two one-term operands skip the accumulation (see the module
    docstring); what pair returns is never written to or handed out."""
    (p_num, p_den), (q_num, q_den) = p, q
    if len(p_num) == 1 and len(q_num) == 1:
        ((u, cu),) = p_num.items()
        ((v, cv),) = q_num.items()
        acc = pair(u, v)
        c = cu * cv
        if c != 1:
            acc = {w: c * m for w, m in acc.items()}
    else:
        acc = {}
        for u, cu in p_num.items():
            for v, cv in q_num.items():
                c = cu * cv
                for w, m in pair(u, v).items():
                    acc[w] = acc.get(w, 0) + c * m
    if then is not None:
        acc = then(acc.items())
    return _lowest({w: c for w, c in acc.items() if c}, p_den * q_den)


def _combine(parts, den: int = 1) -> tuple:
    """sum of c * (num / d) over the parts (c, (num, d)), divided by den,
    as a row; c is an int or a Fraction and num a {key: int} map.

    The sum is kept as ints over a running common denominator, widened
    (every value rescaled in place) only when a part needs it.  A key is
    dropped the moment it cancels, so one that comes back is appended, as
    in a chain of + on LinearCombinations.
    """
    acc: dict = {}
    common = 1
    for c, (num, d) in parts:
        d *= c.denominator
        if common % d:
            wider = lcm(common, d)
            f = wider // common
            for key in acc:
                acc[key] *= f
            common = wider
        m = c.numerator * (common // d)
        for key, n in num.items():
            v = acc.get(key, 0) + m * n
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
    return _lowest(acc, common * den)


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
