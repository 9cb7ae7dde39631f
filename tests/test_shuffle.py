"""Shuffle and stuffle products, coproduct duality, residuals, projections."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starshuffle.shuffle_core import (
    NCPoly,
    YPoly,
    conc,
    format_poly,
    is_exchangeable,
    left_residual,
    parse_poly,
    pi_x,
    pi_y,
    right_residual,
    shuffle,
    stuffle,
    unshuffle,
)
from starshuffle.words import EPSILON, Word

words_st = st.lists(st.integers(0, 1), max_size=5).map(Word)
coeffs_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)
polys_st = st.dictionaries(words_st, coeffs_st, max_size=4).map(NCPoly)

ywords_st = st.lists(st.integers(1, 4), max_size=4).map(tuple)
ypolys_st = st.dictionaries(ywords_st, coeffs_st, max_size=4).map(YPoly)


def shuffle_words_oracle(u, v):
    """Brute force: choose the positions of u among |u|+|v| slots."""
    out = {}
    n = len(u) + len(v)
    for pos in combinations(range(n), len(u)):
        res = [None] * n
        iu = iter(u)
        iv = iter(v)
        for i in range(n):
            res[i] = next(iu) if i in pos else next(iv)
        w = Word(res)
        out[w] = out.get(w, 0) + 1
    return out


def stuffle_words_oracle(u, v):
    """Independent recursion peeling the *last* letter of each word."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}
    for w, c in stuffle_words_oracle(u[:-1], v).items():
        key = w + (u[-1],)
        out[key] = out.get(key, 0) + c
    for w, c in stuffle_words_oracle(u, v[:-1]).items():
        key = w + (v[-1],)
        out[key] = out.get(key, 0) + c
    for w, c in stuffle_words_oracle(u[:-1], v[:-1]).items():
        key = w + (u[-1] + v[-1],)
        out[key] = out.get(key, 0) + c
    return out


def brute_harmonic(s, n_max):
    """H_s(N) by direct nested summation, exact."""
    if not s:
        return Fraction(1)
    total = Fraction(0)
    stack = [(0, n_max, Fraction(1))]
    while stack:
        depth, bound, acc = stack.pop()
        if depth == len(s):
            total += acc
            continue
        for n in range(1, bound + 1):
            stack.append((depth + 1, n - 1, acc / Fraction(n) ** s[depth]))
    return total


def word(s):
    return Word(s)


def poly(s):
    return NCPoly.from_word(Word(s))


def test_shuffle_matches_bruteforce_all_short_pairs():
    for nu in range(4):
        for nv in range(4):
            for bu in range(1 << nu):
                for bv in range(1 << nv):
                    u = Word._raw(bu, nu)
                    v = Word._raw(bv, nv)
                    got = shuffle(NCPoly.from_word(u), NCPoly.from_word(v))
                    assert got.terms == {
                        w: Fraction(c) for w, c in shuffle_words_oracle(u, v).items()
                    }


def test_shuffle_examples():
    got = shuffle(poly("0"), poly("1"))
    assert got == NCPoly({word("01"): 1, word("10"): 1})
    got = shuffle(poly("01"), poly("1"))
    assert got == NCPoly({word("011"): 2, word("101"): 1})


@given(words_st, words_st)
def test_shuffle_total_multiplicity(u, v):
    from math import comb

    got = shuffle(NCPoly.from_word(u), NCPoly.from_word(v))
    assert sum(got.terms.values()) == comb(len(u) + len(v), len(u))
    assert all(len(w) == len(u) + len(v) for w in got.terms)


@given(polys_st, polys_st)
@settings(max_examples=40, deadline=None)
def test_shuffle_commutative(p, q):
    assert shuffle(p, q) == shuffle(q, p)


@given(polys_st, polys_st, polys_st)
@settings(max_examples=25, deadline=None)
def test_shuffle_associative_and_distributive(p, q, r):
    assert shuffle(shuffle(p, q), r) == shuffle(p, shuffle(q, r))
    assert shuffle(p, q + r) == shuffle(p, q) + shuffle(p, r)


@given(polys_st)
def test_shuffle_unit(p):
    assert shuffle(p, NCPoly.one()) == p


def test_conc_is_noncommutative_with_unit():
    assert conc(poly("0"), poly("1")) == poly("01")
    assert poly("0") * poly("1") == poly("01")
    assert conc(poly("01"), NCPoly.one()) == poly("01")
    assert conc(poly("0"), poly("1")) != conc(poly("1"), poly("0"))


def test_unshuffle_duality_against_shuffle():
    pairs = [("0", "1"), ("01", "1"), ("01", "10"), ("", "011"), ("11", "01")]
    for su, sv in pairs:
        u, v = Word(su), Word(sv)
        sh = shuffle(NCPoly.from_word(u), NCPoly.from_word(v))
        for n in range(len(u) + len(v) + 1):
            for bits in range(1 << n):
                w = Word._raw(bits, n)
                lhs = sh.coeff(w)
                rhs = sum(
                    (c for (w1, w2), c in unshuffle(w).items() if w1 == u and w2 == v),
                    Fraction(0),
                )
                assert lhs == rhs


def test_unshuffle_grouplike_on_letters_and_counts():
    d = unshuffle(word("01"))
    assert d == {
        (word("01"), EPSILON): 1,
        (EPSILON, word("01")): 1,
        (word("0"), word("1")): 1,
        (word("1"), word("0")): 1,
    }
    assert sum(unshuffle(word("0110")).values()) == 2**4


def test_stuffle_matches_independent_recursion():
    cases = [((2,), (3,)), ((2, 1), (3,)), ((1, 1), (2, 2)), ((), (4,)), ((2,), (1, 1, 1))]
    for u, v in cases:
        got = stuffle(YPoly.from_yword(u), YPoly.from_yword(v))
        assert got.terms == {w: Fraction(c) for w, c in stuffle_words_oracle(u, v).items()}


def test_stuffle_example():
    got = stuffle(YPoly.from_yword((2,)), YPoly.from_yword((3,)))
    assert got == YPoly({(2, 3): 1, (3, 2): 1, (5,): 1})


def test_stuffle_is_a_harmonic_sum_morphism():
    cases = [((2,), (3,)), ((2, 1), (2,)), ((1,), (1, 1))]
    for u, v in cases:
        prod = stuffle(YPoly.from_yword(u), YPoly.from_yword(v))
        for n_max in (5, 9):
            lhs = brute_harmonic(u, n_max) * brute_harmonic(v, n_max)
            rhs = sum(
                (c * brute_harmonic(w, n_max) for w, c in prod.terms.items()),
                Fraction(0),
            )
            assert lhs == rhs


@given(ypolys_st, ypolys_st)
@settings(max_examples=30, deadline=None)
def test_stuffle_commutative(p, q):
    assert stuffle(p, q) == stuffle(q, p)


@given(ypolys_st, ypolys_st, ypolys_st)
@settings(max_examples=20, deadline=None)
def test_stuffle_associative(p, q, r):
    assert stuffle(stuffle(p, q), r) == stuffle(p, stuffle(q, r))


def test_ypoly_rejects_nonpositive_indices():
    with pytest.raises(ValueError):
        YPoly.from_yword((0,))
    with pytest.raises(ValueError):
        YPoly.from_yword((2, -1))


def test_ncpoly_word_parts_must_be_words():
    # an int word part would be read as a sentinel key: shuffle(p, p) of
    # NCPoly({5: 1}) gave 2 * 1010 + 4 * 1100, the square of Word("01")
    for bad in (5, "01", (0, 1)):
        with pytest.raises(TypeError, match="word part must be a Word"):
            NCPoly({bad: 1})
        with pytest.raises(TypeError, match="word part must be a Word"):
            NCPoly.from_word(bad)


def test_scale_refuses_a_word_as_every_coefficient_is_refused():
    # one rule and one message, _as_fraction's, for a Word met as a number
    with pytest.raises(TypeError, match="^a Word is not a coefficient: "):
        NCPoly.one().scale(Word("0"))


def test_residual_letter_rules():
    # x left-divides w y: nonzero only when x == y, stripping from the right
    for x in "01":
        for y in "01":
            w = word("011")
            got = left_residual(poly(x), NCPoly.from_word(w + Word(y)))
            assert got == (NCPoly.from_word(w) if x == y else NCPoly.zero())
            got = right_residual(NCPoly.from_word(Word(x) + w), poly(y))
            assert got == (NCPoly.from_word(w) if x == y else NCPoly.zero())


@given(polys_st, polys_st, polys_st)
@settings(max_examples=25, deadline=None)
def test_residual_composition_laws(p, q, s):
    # successive left residuals compose through concatenation
    assert left_residual(p, left_residual(q, s)) == left_residual(p * q, s)
    assert right_residual(right_residual(s, p), q) == right_residual(s, p * q)
    assert right_residual(left_residual(p, s), q) == left_residual(p, right_residual(s, q))


@given(polys_st, polys_st)
@settings(max_examples=30, deadline=None)
def test_residual_is_adjoint_to_multiplication(p, s):
    # <p \ s | w> = <s | w p> and <s / p | w> = <s | p w>
    lres = left_residual(p, s)
    rres = right_residual(s, p)
    for n in range(4):
        for bits in range(1 << n):
            w = Word._raw(bits, n)
            want = sum(
                (cu * s.coeff(w + u) for u, cu in p.terms.items()),
                Fraction(0),
            )
            assert lres.coeff(w) == want
            want = sum(
                (cu * s.coeff(u + w) for u, cu in p.terms.items()),
                Fraction(0),
            )
            assert rres.coeff(w) == want


def test_exchangeable_examples():
    assert is_exchangeable(NCPoly.one())
    assert is_exchangeable(NCPoly.zero())
    assert is_exchangeable(NCPoly({word("01"): 2, word("10"): 2}))
    assert not is_exchangeable(NCPoly({word("01"): 2, word("10"): 3}))
    assert not is_exchangeable(NCPoly({word("01"): 2}))
    assert is_exchangeable(NCPoly({word("0"): 5, word("1"): 7}))


def test_projections_and_adjointness():
    p = NCPoly({word("011"): Fraction(3, 2), word("010"): 7, EPSILON: 2})
    q = pi_y(p)
    assert q == YPoly({(2, 1): Fraction(3, 2), (): 2})
    assert pi_x(q) == NCPoly({word("011"): Fraction(3, 2), EPSILON: 2})
    # pi_y is a left inverse of pi_x
    assert pi_y(pi_x(q)) == q
    # adjointness of the projections for the canonical pairings
    yq = YPoly({(2,): 1, (1, 1): Fraction(1, 3)})
    lhs = sum(
        (c * yq.coeff(t) for t, c in pi_y(p).terms.items()),
        Fraction(0),
    )
    rhs = sum(
        (c * pi_x(yq).coeff(w) for w, c in p.terms.items()),
        Fraction(0),
    )
    assert lhs == rhs


def test_poly_text_roundtrip():
    p = NCPoly({word("011"): Fraction(3, 2), word("0"): 1, EPSILON: -2})
    text = format_poly(p)
    assert text == "-2 + 1*0 + 3/2*011"
    assert parse_poly(text) == p
    assert parse_poly("0") == NCPoly({EPSILON: 0})
    assert parse_poly("0") == NCPoly.zero()
    assert format_poly(NCPoly.zero()) == "0"
    with pytest.raises(ValueError):
        parse_poly("3/2*021")
    with pytest.raises(ValueError):
        parse_poly("")


@pytest.mark.parametrize("text", ["2/0*1", "1/0", "1*01 - 3/0*0"])
def test_parse_poly_refuses_a_zero_denominator_as_malformed_text(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_poly(text)


@pytest.mark.parametrize("bad", [(0, 2), (0, -1), "01", [0, 1], 5])
def test_unshuffle_refuses_what_is_not_a_word(bad):
    with pytest.raises(TypeError, match="must be a Word"):
        unshuffle(bad)


def test_degree_is_the_longest_word_and_minus_one_for_zero():
    assert NCPoly.zero().degree() == -1
    assert NCPoly.from_word(Word("")).degree() == 0
    p = NCPoly({Word("0"): Fraction(1), Word("011"): Fraction(-2)})
    assert p.degree() == 3
