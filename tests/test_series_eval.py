"""Exact sums, Taylor coefficients, numeric series evaluation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starshuffle.errors import ConvergenceError, DomainError
from starshuffle.polylog.series import (
    EvalParams,
    eval_li2,
    eval_li_word,
    eval_symfun,
    harmonic_sum,
    neg_taylor_coeff,
    stirling2,
)
from starshuffle.polylog.symfun import SymFun
from starshuffle.star_series import StarSeries, plane_star, star_term
from starshuffle.words import Word, word_of_composition


def brute_harmonic(s, n_max):
    if not s:
        return Fraction(1)
    total = Fraction(0)
    for n in range(1, n_max + 1):
        total += brute_harmonic(s[1:], n - 1) / Fraction(n) ** s[0]
    return total


def brute_neg_chain(s, top):
    # sum over top >= n1 > n2 > ... with values n_i^(s_i)
    if not s:
        return 1
    return sum(m ** s[0] * brute_neg_chain(s[1:], m - 1) for m in range(1, top + 1))


@given(st.lists(st.integers(1, 4), min_size=0, max_size=3), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_harmonic_sum_matches_bruteforce(s, n_max):
    assert harmonic_sum(tuple(s), n_max) == brute_harmonic(tuple(s), n_max)


def test_harmonic_sum_edges():
    assert harmonic_sum((), 5) == 1
    assert harmonic_sum((2, 1), 1) == 0  # depth exceeds range
    assert harmonic_sum((3,), 0) == 0
    assert harmonic_sum((1,), 4) == Fraction(25, 12)
    assert harmonic_sum((2, 1), 3) == Fraction(1, 4) + Fraction(1, 9) * (1 + Fraction(1, 2))
    with pytest.raises(ValueError):
        harmonic_sum((0,), 5)
    with pytest.raises(ValueError):
        harmonic_sum((2,), -1)


def test_harmonic_sum_is_fast_for_depth_one():
    import time

    t0 = time.perf_counter()
    h = harmonic_sum((2,), 10000)
    assert time.perf_counter() - t0 < 5.0
    assert abs(h.numerator / h.denominator - math.pi**2 / 6) < 2e-4


@given(st.lists(st.integers(0, 3), min_size=1, max_size=3), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_neg_taylor_coeff_matches_bruteforce(s, n):
    s = tuple(s)
    want = (n ** s[0]) * brute_neg_chain(s[1:], n - 1)
    assert neg_taylor_coeff(s, n) == want


def test_neg_taylor_edges():
    assert neg_taylor_coeff((), 3) == 0
    assert neg_taylor_coeff((0,), n=1) == 1
    assert neg_taylor_coeff((2,), 3) == 9
    assert neg_taylor_coeff((1, 0), 4) == 4 * 3
    with pytest.raises(ValueError):
        neg_taylor_coeff((-1,), 2)
    with pytest.raises(ValueError):
        neg_taylor_coeff((1,), 0)


def brute_stirling2(n, k):
    # number of partitions of an n-set into k blocks, by inclusion-exclusion
    if n == k == 0:
        return 1
    if k == 0 or k > n:
        return 0
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)) // math.factorial(k)


def test_stirling2_matches_inclusion_exclusion():
    for n in range(8):
        for k in range(8):
            assert stirling2(n, k) == brute_stirling2(n, k)
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def test_eval_params_domain():
    EvalParams(0)
    EvalParams(0.5)
    EvalParams(complex(0.2, -0.7))
    with pytest.raises(DomainError):
        EvalParams(1.0)
    with pytest.raises(DomainError):
        EvalParams(-0.25)
    with pytest.raises(DomainError):
        EvalParams(complex(-0.5, 0.0))
    with pytest.raises(DomainError):
        EvalParams(0.5, eps=0.0)
    assert EvalParams(complex(-0.5, 0.1)).z == complex(-0.5, 0.1)


def test_eval_params_reject_non_finite_values():
    for z in (math.nan, complex(0.1, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(DomainError):
            EvalParams(z)
    for eps in (math.inf, math.nan):
        with pytest.raises(DomainError):
            EvalParams(0.5, eps=eps)


def test_eval_li_known_values():
    p = EvalParams(0.5)
    assert abs(eval_li_word(Word("1"), p) - math.log(2)) < 1e-11
    want_dilog = math.pi**2 / 12 - math.log(2) ** 2 / 2
    assert abs(eval_li_word(Word("01"), p) - want_dilog) < 1e-11
    # powers of log via trailing-x0 reduction
    assert abs(eval_li_word(Word("0"), p) - math.log(0.5)) < 1e-12
    assert abs(eval_li_word(Word("00"), p) - math.log(0.5) ** 2 / 2) < 1e-12
    # at z = 0 every convergent word vanishes
    assert eval_li_word(Word("011"), EvalParams(0)) == 0
    with pytest.raises(DomainError):
        eval_li_word(Word("0"), EvalParams(0))


def test_eval_li_matches_direct_partial_sums():
    z = 0.3
    p = EvalParams(z)
    for comp in [(2,), (2, 1), (1, 1), (3, 2)]:
        w = word_of_composition(comp)
        direct = 0.0
        for n1 in range(1, 300):
            direct += z**n1 / n1 ** comp[0] * float(brute_harmonic(comp[1:], n1 - 1))
        assert abs(eval_li_word(w, p) - direct) < 1e-9


def test_eval_stop_rule_waits_for_the_depth():
    # the first depth-1 terms vanish; the stop rule must not fire on them
    val = eval_li_word(Word("111"), EvalParams(1e-3))
    assert val != 0
    assert abs(val - (1e-3) ** 3 / 6) < 1e-12


def test_eval_raises_when_tolerance_unreachable():
    with pytest.raises(ConvergenceError, match="no convergence at tolerance"):
        eval_li_word(Word("1"), EvalParams(0.99, eps=1e-12, max_terms=50))


def test_eval_li2_star_terms_sum_coefficientwise():
    # sum over all words of Li_w equals z/(1-z); alternating x0 powers
    # give 1/z; x1 powers give 1/(1-z)
    for z in (0.2, 0.25):
        p = EvalParams(z)
        got = eval_li2(plane_star(1, 1), p)
        coefficientwise = 0.0
        for n in range(11):
            for bits in range(1 << n):
                w = Word._raw(bits, n)
                coefficientwise += (
                    eval_li_word(w, p).real if n else 1.0
                )
        assert abs(got - z / (1 - z)) < 1e-12
        assert abs(coefficientwise - z / (1 - z)) < 1e-5

    z = 0.6
    p = EvalParams(z)
    got = eval_li2(plane_star(-1, 0), p)
    series = sum(
        (-1.0) ** m * eval_li_word(Word([0] * m), p).real for m in range(1, 25)
    )
    assert abs(got - 1 / z) < 1e-12
    assert abs(1.0 + series - 1 / z) < 1e-12
    got = eval_li2(plane_star(0, 1), p)
    series = sum(eval_li_word(Word([1] * m), p).real for m in range(1, 40))
    assert abs(got - 1 / (1 - z)) < 1e-12
    assert abs(1.0 + series - 1 / (1 - z)) < 1e-10


def test_eval_li2_mixed_terms_and_fractional_powers():
    z = 0.4
    p = EvalParams(z)
    s = StarSeries(
        {
            star_term(Word("01"), 2, 1): Fraction(3, 2),
            star_term(Word(), Fraction(1, 2), 0): 1,
        }
    )
    want = 1.5 * eval_li_word(Word("01"), p).real * z**2 / (1 - z) + math.sqrt(z)
    assert abs(eval_li2(s, p) - want) < 1e-12
    with pytest.raises(DomainError):
        eval_li2(plane_star(-1, 0), EvalParams(0))


def test_eval_symfun_consistency():
    z = 0.35
    p = EvalParams(z)
    f = SymFun.monomial(-2, 0, Word("1"), Fraction(1, 3)) + SymFun.monomial(0, 2)
    want = eval_li_word(Word("1"), p) / 3 / z**2 + 1 / (1 - z) ** 2
    assert abs(eval_symfun(f, p) - want) < 1e-12
    with pytest.raises(DomainError):
        eval_symfun(SymFun.monomial(-1, 0), EvalParams(0))


def test_eval_is_deterministic():
    p = EvalParams(complex(0.3, 0.2), eps=1e-13)
    s = StarSeries(
        {
            star_term(Word("011"), -2, 3): Fraction(7, 3),
            star_term(Word("1"), 1, 1): -2,
        }
    )
    a = eval_li2(s, p)
    b = eval_li2(s, p)
    assert a == b
