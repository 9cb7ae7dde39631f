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
    for bad in ((-1, 0), (True, 1), (2.5, 1), (2, True)):
        with pytest.raises(ValueError, match="nonnegative arguments"):
            stirling2(*bad)


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


def test_eval_params_refuse_a_bool_eps():
    # eps=True read as 1 and summed Li_1(1/2) to 0.625, not log 2
    for eps in (True, False):
        with pytest.raises(DomainError, match="eps must be positive and finite"):
            EvalParams(0.5, eps=eps)
    assert EvalParams(0.5, eps=1).eps == 1


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


def _plain_li_series(u, p):
    """The stop-rule loop with no up-front bound and left-to-right
    addition: (value, terms summed), or (None, max_terms) on exhaustion."""
    from starshuffle.words import composition_of_word

    s = composition_of_word(u)
    tail = s[1:]
    h = [0j] * len(tail) + [1.0 + 0j]
    total, zn = 0j, 1.0 + 0j
    cutoff = p.eps * (1.0 - abs(p.z))
    for n in range(1, p.max_terms + 1):
        zn *= p.z
        term = zn / n ** s[0] * h[0]
        total += term
        if n >= len(s) and abs(term) < cutoff:
            return total, n
        for j in range(len(tail)):
            h[j] += h[j + 1] / n ** tail[j]
    return None, p.max_terms


def test_li_series_refuses_exactly_when_the_plain_loop_does():
    import cmath
    import random

    from kernel_reference import li_series_ref

    def li_or_none(u, p):
        try:
            return li_series_ref(u, p)
        except ConvergenceError:
            return None

    rng = random.Random(20161)
    outcomes = set()
    for _ in range(300):
        comp = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        r = 1 - 10 ** rng.uniform(-4, math.log10(0.5))
        z = r if rng.random() < 0.5 else cmath.rect(r, rng.uniform(-3, 3))
        p = EvalParams(z, eps=10 ** rng.uniform(-15, -3),
                       max_terms=int(10 ** rng.uniform(0, math.log10(20000))))
        u = word_of_composition(comp)
        want, n = _plain_li_series(u, p)
        got = li_or_none(u, p)
        assert (got is None) == (want is None), (comp, z, p)
        outcomes.add(got is None)
        if got is not None and n <= 256:
            assert got == want, (comp, z, p)
        elif got is not None:
            assert abs(got - want) <= 1e-12 * abs(want), (comp, z, p)
    assert outcomes == {True, False}
    # eps placed so that the lower bound |z|^N N^-s1 H_tail(depth-1) at
    # N = max_terms sits just above or below eps * (1 - |z|)
    for _ in range(300):
        comp = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
        tail = comp[1:]
        r = 1 - 10 ** rng.uniform(-3, -1)
        z = r if rng.random() < 0.5 else cmath.rect(r, rng.uniform(-3, 3))
        n_max = rng.randint(len(comp), 3000)
        bound = r**n_max / n_max ** comp[0] * math.prod(
            (len(tail) - j) ** -t for j, t in enumerate(tail))
        delta = rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -2)
        p = EvalParams(z, eps=bound * (1 + delta) / (1 - r), max_terms=n_max)
        u = word_of_composition(comp)
        want, _ = _plain_li_series(u, p)
        got = li_or_none(u, p)
        assert (got is None) == (want is None), (comp, z, p)


def test_values_past_the_float_range_are_answered_or_refused():
    # log(z)^n / n! where log(z)^n or n! overflows: the running product,
    # which rounds to 0 below the float range (the true value is -4.9e-337)
    assert eval_li_word(Word("0" * 171), EvalParams(0.5)) == 0
    want = math.exp(170 * math.log(-math.log(1e-300)) - math.lgamma(171))
    got = eval_li_word(Word("0" * 170), EvalParams(1e-300))
    assert abs(got - want) <= 1e-12 * want
    # log(1e-320)^800 / 800! is about e^730
    with pytest.raises(DomainError, match="float range"):
        eval_li_word(Word("0" * 800), EvalParams(1e-320))
    # a factor z^a0 or (1-z)^-a1, or a coefficient, past the float range
    for s, z in ((plane_star(0, 100000), 0.9), (plane_star(-100000, 0), 0.001),
                 (StarSeries({star_term(Word("1")): 10**400}), 0.5)):
        with pytest.raises(DomainError, match="float range"):
            eval_li2(s, EvalParams(z))


def test_powers_of_the_log_at_real_points_are_real():
    # past n = 100 a complex power takes polar form, which would give the
    # real log(z)^n an imaginary part; log(z)^n / n! against mpmath
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for z in (0.5, 0.9, 1e-5, 1e-300):
        log = mp.log(mp.mpf(z))
        for n in range(101, 401):
            got = eval_li_word(Word("0" * n), EvalParams(z))
            assert got.imag == 0.0, (z, n, got)
            want = float(log**n / mp.factorial(n))
            assert abs(got.real - want) <= 1e-13 * abs(want) + 1e-300, (z, n, got, want)


def test_hopeless_requests_are_refused_fast():
    import time

    p = EvalParams(0.999999, eps=1e-14)
    requests = [
        (eval_li_word, Word("1"), p),
        (eval_symfun, SymFun.from_li(Word("01")), p),
        (eval_li2, StarSeries({star_term(Word("11")): 1}), p),
        (eval_li_word, Word("1"), EvalParams(0.5, eps=5e-324)),
    ]
    for fn, arg, params in requests:
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError, match="no convergence at tolerance"):
            fn(arg, params)
        assert time.perf_counter() - t0 < 0.1, (fn.__name__, arg)


def test_li_x1_reaches_eps_near_the_circle():
    import cmath

    for z in (0.9999, 0.99988, 0.99995, complex(0.9999, 0.001)):
        got = eval_li_word(Word("1"), EvalParams(z, eps=1e-12))
        assert abs(got + cmath.log(1 - z)) <= 1e-12, z


def test_deep_x1_powers_match_their_closed_form():
    # Li_{x1^m}(z) = (-log(1 - z))^m / m!.  The first terms of a deep word
    # are tiny and then grow, so the direct series must not stop before
    # their peak; the stop rule is a heuristic past depth 1, so allow 4 eps
    eps = 1e-12
    for z in (0.5, 0.9, 0.95):
        params = EvalParams(z, eps=eps)
        for m in range(1, 21):
            want = (-math.log1p(-z)) ** m / math.factorial(m)
            got = eval_li_word(Word("1" * m), params)
            assert abs(got - want) <= 4 * eps, (z, m, got, want)


def test_max_terms_must_be_a_positive_int():
    for bad in (2.5, 0, -5, True, False, "10", None):
        with pytest.raises(DomainError, match="max_terms"):
            EvalParams(0.5, max_terms=bad)
    assert eval_li_word(Word("1"), EvalParams(0.0, max_terms=1)) == 0
    with pytest.raises(ConvergenceError):
        eval_li_word(Word("11"), EvalParams(0.5, max_terms=1))


def test_powers_past_the_float_range_do_not_overflow():
    # 1100 = s2 in 1 x0^1099 x1 and s1 in x0^1099 x1: n^1100 > 2^1024 from n = 2
    x0_1099 = "0" * 1099
    got = eval_li_word(Word("1" + x0_1099 + "1"), EvalParams(0.5))
    assert abs(got - (math.log(2) - 0.5)) < 1e-12
    assert eval_li_word(Word(x0_1099 + "1"), EvalParams(0.5)) == 0.5
    # composition (1, 1, 1100): the row below the frozen one keeps summing,
    # and H_(1,1100)(n-1) = H_(n-1) - 1 for n >= 2
    got = eval_li_word(Word("11" + x0_1099 + "1"), EvalParams(0.5))
    assert abs(got - (math.log(0.5) ** 2 / 2 + math.log(0.5) + 0.5)) < 1e-12
    # 1 x0^59 x1 only overflows n^60 beyond n ~ 1.4e5
    got = eval_li_word(Word("1" + "0" * 59 + "1"), EvalParams(0.99999))
    assert abs(got - (-math.log(1e-5) - 0.99999)) < 1e-11
