"""The reduction rule on its exponent table, the constructors' coefficient
contract, and the normal form and trace that read them.  Each must give
what its former form in kernel_reference gives: the same values, value
types, exception classes and dict order."""

import random
import time
from fractions import Fraction

import pytest

from kernel_reference import (
    canonical_ref,
    construct_ref,
    normal_form_ref,
    reduce_exponents_rec,
    rewrite_trace_ref,
    symfun_mul_canonical_loop,
)
from starshuffle.errors import DomainError
from starshuffle.linear import _sum_rule
from starshuffle.polylog.symfun import SymFun
from starshuffle.rewrite import (
    _canonical_sums, _exponent_row, kernel_member, normal_form, reduce_exponents, rewrite_trace,
)
from starshuffle.shuffle_core import NCPoly, YPoly
from starshuffle.star_series import StarSeries, StarTerm, plane_star, shuffle_star, star_term
from starshuffle.words import EPSILON, Word

CASES = 200


class Ratio(Fraction):
    """A Fraction subclass, which a constructor stores as a plain Fraction."""


def _shape(x):
    """A combination as its type and its items, with the type of every value
    and of every part of a tuple key, in dict order."""
    return type(x), [(k, type(k), tuple(map(type, k)) if isinstance(k, tuple) else (), c, type(c))
                     for k, c in x.terms.items()]


def _outcome(fn, *args):
    try:
        return "value", _shape(fn(*args))
    except Exception as exc:  # compared by class with the reference's
        return "raises", type(exc)


def _coeff(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))


def _word(rng):
    return Word([rng.randint(0, 1) for _ in range(rng.randint(0, 3))])


def _series(rng):
    """A Laurent series; every other one is a multiple of the generator
    x0* sh x1* - x1* + 1, perturbed or not, so that its normal-form sums
    cancel."""
    terms = {star_term(_word(rng), rng.randint(-9, 9), rng.randint(0, 9)): _coeff(rng)
             for _ in range(rng.randint(0, 5))}
    s = StarSeries(terms)
    if rng.random() < 0.5:
        g = shuffle_star(plane_star(1, 0), plane_star(0, 1)) - plane_star(0, 1) + StarSeries.one()
        s = shuffle_star(s, g)
        if rng.random() < 0.5:
            s = s + StarSeries({star_term(_word(rng), rng.randint(-3, 3), rng.randint(0, 3)): 1})
    return s


def test_every_row_is_a_tuple_equal_to_the_recursion():
    for k in range(-12, 13):
        for l in range(-3, 13):
            row = _exponent_row(k, l)
            assert type(row) is tuple, (k, l)
            assert row == tuple(reduce_exponents_rec(k, l).items()), (k, l)
            key = (k, l, Word("01"))
            got = _canonical_sums(((key, 1),))
            assert list(got.items()) == list(canonical_ref(key).items()), (k, l)


def test_the_reducer_loop_sums_the_rule_in_one_pass():
    """_canonical_sums gives _sum_rule(pairs, canonical_ref)'s items in its
    order: zero coefficients, canonical keys, k < 0, l < 0, l = 0,
    repeated keys, and equal Words that are distinct objects."""
    rng = random.Random(1703)
    for _ in range(CASES):
        pairs = []
        for _ in range(rng.randint(0, 8)):
            if pairs and rng.random() < 0.3:  # a repeated key, its Word a distinct object
                (k, l, w), _ = rng.choice(pairs)
                key = (k, l, Word(list(w)))
            else:
                key = (rng.randint(-6, 6), rng.choice((-2, -1, 0, 0, 1, 2, 5)), _word(rng))
            pairs.append((key, rng.choice((0, 1, -1, rng.randint(-9, 9)))))
        got, want = _canonical_sums(pairs), _sum_rule(pairs, canonical_ref)
        assert list(got.items()) == list(want.items()), pairs
        assert all(type(c) is int for c in got.values())


def test_normal_form_and_trace_match_their_former_forms():
    rng = random.Random(1701)
    members = 0
    for _ in range(CASES):
        s = _series(rng)
        assert _shape(normal_form(s)) == _shape(normal_form_ref(s))
        assert kernel_member(s) == (not normal_form_ref(s))
        members += kernel_member(s)
        got, want = rewrite_trace(s), rewrite_trace_ref(s)
        assert [_shape(t) for t in got] == [_shape(t) for t in want]
        seed = rng.randrange(1 << 30)
        got = rewrite_trace(s, "random", random.Random(seed))
        want = rewrite_trace_ref(s, "random", random.Random(seed))
        assert [_shape(t) for t in got] == [_shape(t) for t in want]
    assert 0 < members < CASES


def test_refusals_match_the_former_forms():
    for s in (plane_star(Fraction(1, 2), 1), plane_star(1, -1)):
        for fn, ref in ((normal_form, normal_form_ref), (rewrite_trace, rewrite_trace_ref)):
            assert _outcome(fn, s) == _outcome(ref, s)
    s = plane_star(2, 2)
    assert _outcome(normal_form, s, "best") == _outcome(normal_form_ref, s, "best")
    assert _outcome(rewrite_trace, s, "best") == _outcome(rewrite_trace_ref, s, "best")


def test_symfun_constructor_and_product_match_their_former_forms():
    rng = random.Random(1702)
    for _ in range(CASES):
        items = [((rng.randint(-6, 6), rng.randint(-2, 6), _word(rng)), _coeff(rng))
                 for _ in range(rng.randint(0, 5))]
        if items and rng.random() < 0.3:  # a key that cancels
            items.append((items[0][0], -items[0][1]))
        f = SymFun(items)
        assert _shape(f) == _shape(construct_ref(SymFun, items))
        g = SymFun([((rng.randint(-3, 3), rng.randint(0, 3), _word(rng)), _coeff(rng))])
        assert _shape(f * g) == _shape(symfun_mul_canonical_loop(f, g))


COEFFS = (3, -2, 0, True, False, "3/4", "-2", "abc", Ratio(1, 2), Fraction(5, 3),
          Fraction(-5, 3), 1.5, Word("01"), None)
KEYS = {
    NCPoly: (Word("01"), EPSILON),
    YPoly: ((1, 2), (3,), (0,)),
    StarSeries: (star_term(Word("1"), 2, 3), StarTerm(Word("1"), Fraction(2), 3),
                 StarTerm(Word("1"), True, 0), (Word("0"), Fraction(1, 2), 1), (Word("0"),),
                 StarTerm(Word("1"), Word("0"), 0)),
    SymFun: ((0, 2, Word("0")), (2, 3, Word("0")), (-1, 2, Word("0")), (1, -2, EPSILON),
             (Fraction(1), 0, EPSILON), (True, 0, EPSILON), (Word("1"), 0, EPSILON)),
}


def test_constructors_match_their_former_forms_on_every_coefficient_type():
    for cls, keys in KEYS.items():
        for key in keys:
            for c in COEFFS:
                for terms in ({key: c}, [(key, c)], [(key, c), (key, Fraction(1, 3))],
                              [(key, Fraction(1, 3)), (key, c)], [(key, c), (key, c)]):
                    got = _outcome(cls, terms)
                    assert got == _outcome(construct_ref, cls, terms), (cls, key, c, terms)
                    if got[0] == "value":
                        assert all(type(v) is Fraction for v in cls(terms).terms.values())


def test_a_monomial_is_the_constructors_one_term_symfun():
    """SymFun.monomial(k, l, w, c) gives SymFun({(k, l, w): c})'s items,
    order, value types and exception class; a zero coefficient still
    reduces its key, so it is refused past the bit budget."""
    for key in (*KEYS[SymFun], (100000, 100000, EPSILON), (3, 2, Word("10"))):
        for c in COEFFS:
            got = _outcome(SymFun.monomial, *key, c)
            assert got == _outcome(SymFun, {key: c}), (key, c)
            if got[0] == "value":
                assert all(type(v) is Fraction for v in SymFun.monomial(*key, c).terms.values())


def test_a_given_fraction_is_stored_as_it_is():
    c = Fraction(7, 3)
    for cls, key in ((NCPoly, Word("01")), (YPoly, (1, 2)), (StarSeries, star_term(Word("1"), 2, 0)),
                     (SymFun, (0, 2, Word("0")))):
        (stored,) = cls({key: c}).terms.values()
        assert stored is c


def test_the_closed_form_is_the_recursion_and_linear_in_its_entries():
    for k in range(1, 60):
        for l in range(1, 60):
            assert list(reduce_exponents(k, l).items()) == list(reduce_exponents_rec(k, l).items()), (k, l)
    start = time.perf_counter()
    row = reduce_exponents(2000, 1)
    assert time.perf_counter() - start < 0.5  # the binomial expansion took 90 s
    assert list(row.items()) == [((0, 1), 1)] + [((j, 0), -1) for j in range(2000)]


def test_reductions_past_the_bit_budget_are_refused_up_front():
    for k, l in ((100000, 100000), (-100000, 100000), (2, -10000), (-10000, 10000)):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            reduce_exponents(k, l)
        assert time.perf_counter() - start < 0.1, (k, l)
    for k, l in ((1000, 1000), (-1000, 1000), (10 ** 9, 0), (0, 10 ** 9), (10 ** 9, -1)):
        assert reduce_exponents(k, l), (k, l)
    with pytest.raises(DomainError):
        normal_form(plane_star(100000, 100000))
