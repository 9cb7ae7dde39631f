"""Rewriting into normal form modulo the star-of-the-plane ideal."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_reference import reduce_exponents_rec
from starshuffle.errors import DomainError
from starshuffle.polylog.symfun import SymFun
from starshuffle.rewrite import kernel_member, normal_form, reduce_exponents, rewrite_trace
from starshuffle.star_series import (
    StarSeries,
    StarTerm,
    plane_star,
    shuffle_star,
    star_term,
)
from starshuffle.words import EPSILON, Word

words_st = st.lists(st.integers(0, 1), max_size=3).map(Word)
laurent_terms_st = st.tuples(
    words_st, st.integers(-3, 3), st.integers(0, 3)
).map(lambda t: StarTerm(t[0], Fraction(t[1]), Fraction(t[2])))
coeffs_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)
laurent_st = st.dictionaries(laurent_terms_st, coeffs_st, max_size=4).map(StarSeries)


def ideal_generator():
    return shuffle_star(plane_star(1, 0), plane_star(0, 1)) - plane_star(0, 1) + StarSeries.one()


def test_generator_rewrites_to_zero():
    g = ideal_generator()
    assert not normal_form(g)
    assert kernel_member(g)


def test_single_step_has_an_explicit_ideal_witness():
    # (k,l) minus its replacement equals a shuffle multiple of the generator
    g = ideal_generator()
    for k in (1, 2, 3, -1, -2, -3):
        for l in (1, 2, 3):
            t = StarSeries({star_term(Word("01"), k, l): 1})
            nf_one_step = rewrite_trace(t)[1]
            diff = t - nf_one_step
            if k >= 1:
                witness = StarSeries({star_term(Word("01"), k - 1, l - 1): 1})
            else:
                witness = StarSeries({star_term(Word("01"), k, l - 1): -1})
            assert diff == shuffle_star(witness, g)


@given(laurent_st)
@settings(max_examples=40, deadline=None)
def test_normal_form_supported_on_axis_terms(s):
    nf = normal_form(s)
    assert all(t.a0 == 0 or t.a1 == 0 for t in nf.terms)
    assert nf.is_laurent()


@given(laurent_st)
@settings(max_examples=40, deadline=None)
def test_normal_form_is_idempotent_and_linear_in_the_ideal(s):
    nf = normal_form(s)
    assert normal_form(nf) == nf
    # adding an ideal element never changes the normal form
    bumped = s + shuffle_star(StarSeries({star_term(Word("1"), 1, 2): 2}), ideal_generator())
    assert normal_form(bumped) == nf


@given(laurent_st, st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_strategy_agrees_with_measure_strategy(s, seed):
    want = normal_form(s)
    got = normal_form(s, strategy="random", rng=random.Random(seed))
    assert got == want


@given(laurent_st)
@settings(max_examples=30, deadline=None)
def test_step_count_is_bounded(s):
    trace = rewrite_trace(s)
    bound = sum(
        2 ** int(abs(t.a0) + t.a1) - 1
        for t in s.terms
        if t.a0 != 0 and t.a1 >= 1
    )
    assert len(trace) - 1 <= bound


def test_measure_strategy_is_deterministic():
    s = StarSeries(
        {
            star_term(Word("0"), 2, 2): Fraction(3, 2),
            star_term(Word(""), -1, 3): 1,
            star_term(Word("1"), 0, 2): -2,
        }
    )
    t1 = rewrite_trace(s)
    t2 = rewrite_trace(s)
    assert t1 == t2
    assert normal_form(s) == t1[-1]


def test_kernel_membership_of_shuffle_multiples():
    g = ideal_generator()
    rng = random.Random(7)
    for _ in range(20):
        w = Word([rng.randint(0, 1) for _ in range(rng.randint(0, 3))])
        mult = StarSeries(
            {
                star_term(w, rng.randint(-2, 2), rng.randint(0, 2)): Fraction(
                    rng.randint(-3, 3) or 1
                )
            }
        )
        assert kernel_member(shuffle_star(mult, g))
    assert not kernel_member(plane_star(1, 1))
    assert not kernel_member(StarSeries.one())


def test_rewrite_rejects_non_laurent_input():
    with pytest.raises(DomainError):
        normal_form(plane_star(Fraction(1, 2), 1))
    with pytest.raises(DomainError):
        normal_form(plane_star(1, -1))
    with pytest.raises(ValueError):
        normal_form(plane_star(1, 1), strategy="bogus")


def test_reducer_matches_step_rules_and_symfun_on_a_grid():
    rng = random.Random(11)
    for k in range(-12, 13):
        for l in range(0, 13):
            pieces = reduce_exponents(k, l)
            assert all(kk * ll == 0 and ll >= 0 and c for (kk, ll), c in pieces.items())
            as_series = StarSeries({star_term(EPSILON, kk, ll): c for (kk, ll), c in pieces.items()})
            assert rewrite_trace(plane_star(k, l), "random", rng)[-1] == as_series, (k, l)
            assert SymFun.monomial(k, l).terms == {
                (kk, ll, EPSILON): c for (kk, ll), c in pieces.items()
            }, (k, l)
        for l in range(-4, 0):
            assert SymFun.monomial(k, l).terms == {
                (kk, ll, EPSILON): c for (kk, ll), c in reduce_exponents(k, l).items()
            }, (k, l)


def test_reducer_is_fast_at_large_exponents():
    # the step rules take tens of seconds here, and lattice-path expansion
    # of SymFun.monomial(-40, 40) would visit about C(80, 40) paths
    for k in (200, -200):
        start = time.perf_counter()
        nf = normal_form(plane_star(k, 200))
        assert time.perf_counter() - start < 1.0
        assert all(t.a0 == 0 or t.a1 == 0 for t in nf.terms)
    start = time.perf_counter()
    f = SymFun.monomial(-40, 40)
    assert time.perf_counter() - start < 1.0
    assert len(f) == 80


def test_reduce_exponents_matches_the_recursion():
    for k in range(-12, 13):
        for l in range(-12, 13):
            got = list(reduce_exponents(k, l).items())
            assert got == list(reduce_exponents_rec(k, l).items()), (k, l)
