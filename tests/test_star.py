"""Star series: plane stars, shuffle closure, derivations, truncations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starshuffle.errors import DomainError
from starshuffle.shuffle_core import NCPoly, shuffle
from starshuffle.star_series import (
    StarSeries,
    StarTerm,
    delta_left,
    embed,
    expand,
    plane_star,
    shuffle_power,
    shuffle_star,
    star,
    star_term,
)
from starshuffle.words import EPSILON, Word

coeffs_st = st.fractions(min_value=-3, max_value=3, max_denominator=2)
words_st = st.lists(st.integers(0, 1), max_size=3).map(Word)
terms_st = st.tuples(words_st, coeffs_st, coeffs_st).map(lambda t: StarTerm(t[0], t[1], t[2]))
series_st = st.dictionaries(terms_st, coeffs_st, max_size=3).map(StarSeries)


def geometric_truncation(a0, a1, n):
    """Independent oracle: the star of a plane point is the geometric
    series of concatenation powers of the line a0 x0 + a1 x1."""
    line = NCPoly({Word("0"): Fraction(a0), Word("1"): Fraction(a1)})
    total = NCPoly.one()
    power = NCPoly.one()
    for _ in range(n):
        power = power * line
        total = total + power
    return total


def truncate(p, n):
    return NCPoly({w: c for w, c in p.terms.items() if len(w) <= n})


def test_plane_star_expansion_matches_geometric_series():
    for a0, a1 in [(1, 0), (0, 1), (1, 1), (2, 3), (Fraction(-1, 2), 5), (-1, 0)]:
        assert expand(plane_star(a0, a1), 5) == geometric_truncation(a0, a1, 5)


def test_plane_star_coefficients_count_letters():
    e = expand(plane_star(2, 3), 4)
    for w, c in e.terms.items():
        assert c == Fraction(2) ** w.count(0) * Fraction(3) ** w.count(1)


def test_star_of_plane_is_product_of_axis_stars():
    assert plane_star(2, 3) == shuffle_star(plane_star(2, 0), plane_star(0, 3))
    got = shuffle_star(plane_star(1, 0), plane_star(0, 1))
    assert got == plane_star(1, 1)


@given(coeffs_st, coeffs_st, coeffs_st, coeffs_st)
@settings(max_examples=50, deadline=None)
def test_plane_stars_form_a_monoid_under_shuffle(a0, a1, b0, b1):
    got = shuffle_star(plane_star(a0, a1), plane_star(b0, b1))
    assert got == plane_star(a0 + b0, a1 + b1)
    # and the law is honest at the level of coefficients
    assert expand(got, 3) == truncate(
        shuffle(expand(plane_star(a0, a1), 3), expand(plane_star(b0, b1), 3)), 3
    )


def test_star_constructor_and_errors():
    line = embed(NCPoly({Word("0"): 2, Word("1"): -1}))
    assert star(line) == plane_star(2, -1)
    assert star(StarSeries.zero()) == StarSeries.one()
    with pytest.raises(DomainError, match="star undefined"):
        star(embed(NCPoly({Word("0"): 1, EPSILON: 1})))
    with pytest.raises(DomainError, match="not representable"):
        star(embed(NCPoly.from_word(Word("01"))))
    with pytest.raises(DomainError, match="not representable"):
        star(plane_star(1, 0))


@given(series_st, series_st)
@settings(max_examples=30, deadline=None)
def test_shuffle_star_agrees_with_truncations(s, t):
    n = 3
    got = expand(shuffle_star(s, t), n)
    want = truncate(shuffle(expand(s, n), expand(t, n)), n)
    assert got == want


@given(series_st, series_st, series_st)
@settings(max_examples=20, deadline=None)
def test_shuffle_star_laws(s, t, u):
    assert shuffle_star(s, t) == shuffle_star(t, s)
    assert shuffle_star(shuffle_star(s, t), u) == shuffle_star(s, shuffle_star(t, u))
    assert shuffle_star(s, StarSeries.one()) == s
    assert shuffle_star(s, t + u) == shuffle_star(s, t) + shuffle_star(s, u)


def test_shuffle_power():
    s = plane_star(1, 0)
    assert shuffle_power(s, 0) == StarSeries.one()
    assert shuffle_power(s, 3) == plane_star(3, 0)
    for bad in (-1, True, 2.5):
        with pytest.raises(ValueError):
            shuffle_power(s, bad)


def test_embed_words_shuffle_like_polynomials():
    p = NCPoly.from_word(Word("0"))
    q = NCPoly.from_word(Word("1"))
    assert shuffle_star(embed(p), embed(q)) == embed(shuffle(p, q))


@given(series_st)
@settings(max_examples=30, deadline=None)
def test_delta_left_matches_truncated_word_derivative(s):
    # stripping a leading letter commutes with expanding one order higher
    n = 3
    for letter in (0, 1):
        got = expand(delta_left(letter, s), n)
        bigger = expand(s, n + 1)
        want = NCPoly(
            {
                w[1:]: c
                for w, c in bigger.terms.items()
                if len(w) and w[0] == letter
            }
        )
        assert got == truncate(want, n)


@given(series_st, series_st)
@settings(max_examples=25, deadline=None)
def test_delta_left_is_a_shuffle_derivation(s, t):
    for letter in (0, 1):
        lhs = delta_left(letter, shuffle_star(s, t))
        rhs = shuffle_star(delta_left(letter, s), t) + shuffle_star(s, delta_left(letter, t))
        assert lhs == rhs


@given(coeffs_st, coeffs_st, coeffs_st, coeffs_st)
@settings(max_examples=50, deadline=None)
def test_plane_stars_are_derivation_eigenvectors(a0, a1, alpha, beta):
    s = plane_star(a0, a1)
    got = alpha * delta_left(0, s) + beta * delta_left(1, s)
    assert got == (alpha * a0 + beta * a1) * s


def test_is_laurent():
    assert plane_star(-3, 2).is_laurent()
    assert not plane_star(Fraction(1, 2), 0).is_laurent()
    assert not plane_star(1, -1).is_laurent()
    assert embed(NCPoly.from_word(Word("01"))).is_laurent()


def test_delta_left_refuses_a_bool_or_float_letter():
    s = plane_star(1, 2)
    for bad in (True, False, 1.0, 0.0):
        with pytest.raises(ValueError, match="letter must be 0 or 1"):
            delta_left(bad, s)


def test_star_series_word_parts_must_be_words():
    # an int word part would be read as a sentinel key, 5 as Word("01")
    for bad in (5, "01"):
        for key in ((bad, 0, 0), (bad, Fraction(1, 2), 1), star_term(bad)):
            with pytest.raises(TypeError, match="word part must be a Word"):
                StarSeries({key: 1})


def test_star_exponents_refuse_a_bool():
    # a bool is an int to Python, but not an exponent, as SymFun.monomial
    # already holds through words._is_int
    for a0, a1 in ((True, False), (False, 0), (2, True)):
        with pytest.raises(TypeError, match="bool is not an exponent"):
            plane_star(a0, a1)
        with pytest.raises(TypeError, match="bool is not an exponent"):
            star_term(Word("0"), a0, a1)
    assert type(star_term(Word("0"), 1, Fraction(2)).a1) is int


def test_expand_validates_and_truncates():
    s = plane_star(1, 1)
    assert set(len(w) for w in expand(s, 2).terms) == {0, 1, 2}
    for bad in (-1, 2.5, True):
        with pytest.raises(ValueError):
            expand(s, bad)


def test_str_is_the_canonical_expression_text():
    s = plane_star(1, 0) - embed(NCPoly.from_word(Word("01"))).scale(Fraction(1, 2))
    assert str(s) == '1*star(1,0) - 1/2*w"01"'
    assert str(StarSeries.zero()) == "0"


def test_star_product_keys_are_star_terms():
    s = StarSeries({star_term(Word("01"), 1, Fraction(1, 2)): 3, star_term(EPSILON, -2, 0): Fraction(1, 5)})
    t = StarSeries({star_term(Word("1"), Fraction(-1, 2), 2): Fraction(-2, 3)})
    for got in (shuffle_star(s, t), shuffle_star(t, t), shuffle_power(s, 3)):
        assert got.terms and all(type(k) is StarTerm for k in got.terms)
        assert all(type(k.w) is Word for k in got.terms)
        assert all(type(a) in (int, Fraction) for k in got.terms for a in (k.a0, k.a1))
    # exponents add, and an integral sum is stored as an int
    u = StarSeries({star_term(Word("01"), 1, Fraction(1, 2)): 3})
    assert [(k, type(k.a1)) for k in shuffle_star(u, u).terms] == [
        ((Word("0101"), 2, 1), int), ((Word("0011"), 2, 1), int)]
