"""The symbolic function space: canonical keys, products, derivations."""

import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starshuffle.errors import DomainError
from starshuffle.polylog.symfun import (
    SymFun,
    _reduce_trailing_x0,
    derivative,
    from_piece,
    index_of,
    inv_lambda_fun,
    lambda_fun,
    reduce_trailing_x0,
    theta,
    to_pieces,
)
from starshuffle.shuffle_core import NCPoly, shuffle
from starshuffle.words import EPSILON, Word

words_st = st.lists(st.integers(0, 1), max_size=4).map(Word)
coeffs_st = st.fractions(min_value=-3, max_value=3, max_denominator=2)
keys_st = st.tuples(st.integers(-3, 3), st.integers(0, 3), words_st)
symfun_st = st.dictionaries(keys_st, coeffs_st, max_size=3).map(SymFun)


def rational_value(f, z):
    """Evaluate a SymFun with empty word parts at a rational z, exactly."""
    total = Fraction(0)
    for (k, l, w), c in f.terms.items():
        assert len(w) == 0
        total += c * z**k / (1 - z) ** l
    return total


@given(st.integers(-4, 4), st.integers(-3, 4))
@settings(max_examples=60, deadline=None)
def test_canonical_keys_preserve_the_rational_function(k, l):
    f = SymFun.monomial(k, l)
    # canonical support: k l = 0 with l >= 0
    assert all(kk * ll == 0 and ll >= 0 for (kk, ll, _) in f.terms)
    for i in range(2, 22):
        z = Fraction(1, i)
        assert rational_value(f, z) == z**k / (1 - z) ** l


def test_canonical_insert_rejects_non_integer_powers():
    with pytest.raises(ValueError):
        SymFun({(Fraction(1, 2), 0, EPSILON): 1})


def test_lambda_functions():
    lam = lambda_fun()
    inv = inv_lambda_fun()
    for i in range(2, 9):
        z = Fraction(1, i)
        assert rational_value(lam, z) == z / (1 - z)
        assert rational_value(inv, z) == (1 - z) / z
    assert lam * inv == SymFun.one()


@given(words_st, words_st)
@settings(max_examples=40, deadline=None)
def test_product_shuffles_word_parts(u, v):
    got = SymFun.from_li(u) * SymFun.from_li(v)
    want = SymFun({(0, 0, w): c for w, c in shuffle(NCPoly.from_word(u), NCPoly.from_word(v)).terms.items()})
    assert got == want


@given(symfun_st, symfun_st)
@settings(max_examples=30, deadline=None)
def test_derivative_is_a_derivation(f, g):
    assert derivative(f * g) == derivative(f) * g + f * derivative(g)


def test_a_row_has_the_counted_pieces_and_a_row_past_the_budget_is_refused():
    # u x1 x0^n with r letters x1 in u has C(r + n + 1, r + 1) pieces
    for w in all_words(10):
        if w.count(1):
            n = len(w) - 1 - max(i for i, a in enumerate(w) if a)
            r = w.count(1) - 1
            assert len(_reduce_trailing_x0(w)) == comb(r + n + 1, r + 1), w
    # x1 x0^1030 (1031 pieces) is built; rows past the budget are refused at once
    assert len(_reduce_trailing_x0(Word("1" + "0" * 1030))) == 1031
    for w in (Word("1" + "0" * 100000), Word("10110" * 4 + "0" * 40)):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            _reduce_trailing_x0(w)
        assert time.perf_counter() - start < 0.5


@given(symfun_st)
@settings(max_examples=40, deadline=None)
def test_theta_sum_and_commutator_equal_d_dz(f):
    t0 = theta(0, f)
    t1 = theta(1, f)
    d = derivative(f)
    assert t0 + t1 == d
    commutator = theta(1, theta(0, f)) - theta(0, theta(1, f))
    assert commutator == d


def test_theta_examples():
    # theta_0 log z = 1, theta_1 Li_{x1} = 1
    assert theta(0, SymFun.from_li(Word("0"))) == SymFun.one()
    assert theta(1, SymFun.from_li(Word("1"))) == SymFun.one()
    assert theta(0, SymFun.one()) == SymFun.zero()
    for bad in (2, True, False, 1.0, 0.0):
        with pytest.raises(ValueError, match="operator index must be 0 or 1"):
            theta(bad, SymFun.from_li(Word("01")))


def test_from_piece_refuses_a_log_power_that_is_not_an_int_at_least_0():
    assert from_piece(0, 0, Word("1"), 2) == SymFun.from_li(Word("1")) * SymFun.from_li(Word("00"))
    for u, bad in ((EPSILON, -1), (Word("1"), -2), (Word("1"), True), (Word("1"), 1.5)):
        with pytest.raises(ValueError, match="log power"):
            from_piece(0, 0, u, bad)


def test_symfun_word_parts_must_be_words():
    # an int word part would be read as a sentinel key, 5 as Word("01")
    for bad in (5, "01", (0, 1)):
        with pytest.raises(TypeError, match="word part must be a Word"):
            SymFun({(0, 0, bad): 1})
        with pytest.raises(TypeError, match="word part must be a Word"):
            SymFun.monomial(0, 0, bad)
        with pytest.raises(TypeError, match="word part must be a Word"):
            SymFun.monomial(-1, 2, bad)


def all_words(max_len):
    for n in range(max_len + 1):
        for bits in range(1 << n):
            yield Word._raw(bits, n)


def test_reduce_trailing_x0_is_an_exact_word_identity():
    # Li_w = sum c * Li_u log^n/n!  becomes, at the word level,
    # w = sum c * (u sh x0^n); verify with plain shuffle arithmetic.
    for w in all_words(7):
        pieces = reduce_trailing_x0(w)
        total = NCPoly.zero()
        for (u, n), c in pieces.items():
            assert len(u) == 0 or u[-1] == 1, "piece words must not end in x0"
            assert n >= 0
            total = total + c * shuffle(
                NCPoly.from_word(u), NCPoly.from_word(Word([0] * n))
            )
        assert total == NCPoly.from_word(w)


def test_reduce_examples():
    assert reduce_trailing_x0(Word("10")) == {
        (Word("1"), 1): Fraction(1),
        (Word("01"), 0): Fraction(-1),
    }
    assert reduce_trailing_x0(Word("000")) == {(EPSILON, 3): Fraction(1)}
    assert reduce_trailing_x0(Word("01")) == {(Word("01"), 0): Fraction(1)}
    assert reduce_trailing_x0(EPSILON) == {(EPSILON, 0): Fraction(1)}


@given(symfun_st)
@settings(max_examples=40, deadline=None)
def test_pieces_roundtrip(f):
    pieces = to_pieces(f)
    total = SymFun.zero()
    for (k, l, u, n), c in pieces.items():
        total += c * from_piece(k, l, u, n)
    assert total == f


def test_index_of():
    assert index_of(SymFun.monomial(3, 0)) == 3
    assert index_of(SymFun.monomial(-2, 0, Word("00"))) == -2
    assert index_of(SymFun.monomial(0, 2, Word("011"))) == 3
    assert index_of(SymFun.monomial(1, 0, Word("1"))) == 2
    with pytest.raises(ValueError):
        index_of(SymFun.monomial(0, 0, Word("10")))
    with pytest.raises(ValueError):
        index_of(SymFun.one() + SymFun.monomial(1, 0))
    with pytest.raises(ValueError):
        index_of(SymFun.zero())
