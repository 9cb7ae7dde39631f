"""Li_w near |z| = 1 by Taylor steps (the walk), against oracles, and the
exact nested sums by binary splitting."""

import cmath
import itertools
import math
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from starshuffle import NCPoly, embed, shuffle
from starshuffle.errors import DomainError
from starshuffle.polylog import series
from starshuffle.polylog.series import (
    EvalParams,
    eval_li2,
    eval_li_word,
    harmonic_sum,
    neg_taylor_coeff,
    stirling2,
)
from starshuffle.words import Word, composition_of_word, word_of_composition

from kernel_reference import (
    harmonic_sum_loop,
    harmonic_sum_ref,
    li_series_ref,
    neg_taylor_coeff_loop,
    stirling2_rec,
    walk_may_win,
)

ANGLES = (0.0, 0.3, -0.3, 2.0, -2.0, 2.8, -2.8)


def _walk_values(words, p):
    """Li of each word at p.z by the walk, whatever the route selection."""
    nodes = series._suffix_trie(words)
    points, eps0, tau, _ = series._walk_plan(nodes, p.z, p.eps)
    values = series._walk(nodes, points, eps0, tau, p)
    return [values[u] for u in words]


def _poly_value(u, z):
    """Li_u(z) through eval_li2 of the embedded polynomial u."""
    return eval_li2(embed(u), EvalParams(z))


def test_depth_one_matches_mpmath_near_the_circle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for s in range(1, 6):
        w = Word("0" * (s - 1) + "1")
        for delta in (1e-2, 1e-3, 1e-4, 1e-5):
            for angle in ANGLES:
                z = cmath.rect(1 - delta, angle)
                got = eval_li_word(w, EvalParams(z, eps=1e-12))
                want = complex(mp.polylog(s, mp.mpc(z.real, z.imag)))
                assert abs(got - want) <= 1e-12, (s, delta, angle, abs(got - want))


def test_powers_of_x1_near_the_circle():
    # Li_{x1^n} = (-log(1-z))^n / n!
    for n in (2, 3):
        w = Word("1" * n)
        for delta in (1e-3, 1e-5):
            for angle in ANGLES:
                z = cmath.rect(1 - delta, angle)
                want = (-cmath.log(1 - z)) ** n / math.factorial(n)
                assert abs(eval_li_word(w, EvalParams(z)) - want) <= 1e-12, (n, delta, angle)


def test_shuffle_products_near_the_circle():
    # Li_u Li_v = Li_{u sh v}, with depth-1 factors from mpmath
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    pairs = [((1,), (2,)), ((2,), (2,)), ((1,), (3,)), ((1, 1), (2,)), ((2,), (1, 1))]
    for su, sv in pairs:
        product = shuffle(NCPoly.from_word(word_of_composition(su)),
                          NCPoly.from_word(word_of_composition(sv)))
        weight = float(sum(abs(c) for c in product.terms.values()))
        for delta in (1e-3, 1e-4):
            for angle in (0.0, 0.3, -2.0):
                z = cmath.rect(1 - delta, angle)
                zz = mp.mpc(z.real, z.imag)

                def factor(s):
                    if len(s) == 1:
                        return mp.polylog(s[0], zz)
                    return (-mp.log(1 - zz)) ** 2 / 2  # (1, 1) only

                want = complex(factor(su) * factor(sv))
                got = _poly_value(product, z)
                assert abs(got - want) <= 1e-12 * weight, (su, sv, delta, angle)


def test_walk_agrees_with_the_direct_series_away_from_the_circle():
    words = [word_of_composition(s) for d in (1, 2, 3)
             for s in itertools.product((1, 2, 3), repeat=d)]
    for radius in (0.5001, 0.6, 0.75, 0.9, 0.95):
        for angle in (0.0, 0.3, -2.0, 2.8):
            p = EvalParams(cmath.rect(radius, angle), eps=1e-13)
            walked = _walk_values(words, p)
            for u, got in zip(words, walked):
                want = li_series_ref(u, p)
                assert abs(got - want) <= 1e-12, (u, radius, angle)


def test_selection_picks_the_cheaper_route():
    words = [Word("1"), Word("01"), Word("11")]
    # far from the circle the direct series is cheaper, and its value is kept bitwise
    for z in (0.6, 0.75, cmath.rect(0.8, 0.3), cmath.rect(0.7, -2.0)):
        p = EvalParams(z)
        for u in words:
            assert eval_li_word(u, p) == li_series_ref(u, p), (u, z)
    # near it the walk answers
    for z in (0.9999, cmath.rect(0.999, 2.0)):
        p = EvalParams(z)
        for u in words:
            assert [eval_li_word(u, p)] == _walk_values([u], p), (u, z)


def test_predictions_pick_the_direct_series_wherever_the_former_filter_did():
    # _li_values's decision, |z| > 1/2, past the up-front refusal: the walk
    # when its predicted term count is below the direct series'.  The
    # floor/ceiling filter that once ran first never kept a walk out that
    # the predictions would take.
    rng = random.Random(2020)
    comps = [s for d in range(1, 7) for s in itertools.product(range(1, 7), repeat=d)
             if sum(s) <= 6]
    asked = {True: 0, False: 0}
    while sum(asked.values()) < 10_000:
        words = list({word_of_composition(rng.choice(comps)) for _ in range(rng.randint(1, 4))})
        radius = 1 - 10 ** rng.uniform(-7, math.log10(0.5))
        z = radius if rng.random() < 0.5 else cmath.rect(radius, rng.uniform(-3.1, 3.1))
        p = EvalParams(z, eps=10 ** rng.uniform(-15, -3))
        radius, cutoff = abs(p.z), p.eps * (1.0 - abs(p.z))
        parts = [composition_of_word(u) for u in words]
        try:
            series._refuse_hopeless(parts, p.z, cutoff, p.max_terms)
        except series.ConvergenceError:
            continue
        direct = sum(len(s) * series._direct_terms(s[0], radius, cutoff) for s in parts)
        point = p.z.real if p.z.imag == 0 else p.z
        *_, walk = series._walk_plan(series._suffix_trie(words), point, p.eps)
        may_win = walk_may_win(parts, radius, cutoff, p.eps)
        assert may_win or walk >= direct, (words, z, p.eps)
        asked[may_win] += 1
    assert min(asked.values()) > 300, asked


def test_the_floor_never_passes_the_predicted_walk():
    # _walk_floor reads only the compositions, |z| and eps; wherever it
    # settles a request for the direct series (direct <= floor), the
    # prediction would have too (floor <= walk < direct never happens)
    rng = random.Random(2022)
    comps = [s for d in range(1, 7) for s in itertools.product(range(1, 7), repeat=d)
             if sum(s) <= 6]

    def check(words, z, eps):
        parts = [composition_of_word(u) for u in words]
        *_, walk = series._walk_plan(series._suffix_trie(words), z, eps)
        assert series._walk_floor(parts, abs(z), eps) <= walk, (words, z, eps)

    asked = 0
    while asked < 12_000:
        words = list({word_of_composition(rng.choice(comps)) for _ in range(rng.randint(1, 4))})
        if asked < 10_000:
            radius = 1 - 10 ** rng.uniform(-7, math.log10(0.5))
            eps = 10 ** rng.uniform(-15, -3)
        else:  # |z| within 1e-12 of 1/2, and eps at or below 4 _TINY
            radius = 0.5 + 10 ** rng.uniform(-16, -12)
            eps = rng.choice((10 ** rng.uniform(-15, -3), rng.uniform(1e-3, 4) * series._TINY,
                              5e-324))
        z = radius if rng.random() < 0.5 else cmath.rect(radius, rng.uniform(-3.1, 3.1))
        if abs(z) > 0.5:  # the decision is taken only here
            check(words, z, eps)
            asked += 1


def test_the_floor_settles_far_points_without_the_trie_or_the_path(monkeypatch):
    calls = {"_suffix_trie": 0, "_path": 0}

    def counted(name):
        fn = getattr(series, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(series, name, wrapper)

    counted("_suffix_trie")
    counted("_path")
    for z in (0.55, 0.7, complex(0.6, 0.3)):
        for w in ("1", "01"):
            p = EvalParams(z, eps=1e-12)
            assert eval_li_word(Word(w), p) == li_series_ref(Word(w), p), (w, z)
    assert calls == {"_suffix_trie": 0, "_path": 0}
    # Li_x1 at 0.9999 still plans and takes the walk
    p = EvalParams(0.9999, eps=1e-12)
    got = eval_li_word(Word("1"), p)
    assert calls == {"_suffix_trie": 1, "_path": 1}
    assert [got] == _walk_values([Word("1")], p)
    # and so do the requests of test_near_the_circle_is_fast
    for word in ("1", "01", "11", "011"):
        for z in (0.9999, cmath.rect(0.9999, 0.3), cmath.rect(0.9999, -0.3)):
            p = EvalParams(z, eps=1e-12)
            assert [eval_li_word(Word(word), p)] == _walk_values([Word(word)], p), (word, z)


def test_neg_taylor_coeff_equals_the_loop():
    rng = random.Random(2021)
    for _ in range(3000):
        s = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 4)))
        n = rng.randint(1, 60)
        assert neg_taylor_coeff(s, n) == neg_taylor_coeff_loop(s, n), (s, n)
    for s in ((0, 0), (1, 0, 2), (3, 3, 3)):
        assert neg_taylor_coeff(s, 2003) == neg_taylor_coeff_loop(s, 2003), s
    start = time.perf_counter()
    assert neg_taylor_coeff((1, 1), 10**8) == 499999995000000000000000
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("word", ["1", "01", "11", "011"])
def test_near_the_circle_is_fast(word):
    w = Word(word)
    for z in (0.9999, cmath.rect(0.9999, 0.3), cmath.rect(0.9999, -0.3)):
        p = EvalParams(z, eps=1e-12)
        eval_li_word(w, p)  # warm the reduction cache
        best = min(_timed(eval_li_word, w, p) for _ in range(3))
        assert best < 5e-3, (word, z, best)


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_twice_li_x1x1_meets_eps_where_the_direct_series_missed():
    x1 = NCPoly.from_word(Word("1"))
    for z in (0.999603, 0.999852):
        got = eval_li2(embed(shuffle(x1, x1)), EvalParams(z, eps=1e-12))
        assert abs(got - cmath.log(1 - z) ** 2) <= 2 * 1e-12, z


def test_depth_two_request_once_refused_after_max_terms_is_answered_fast():
    t0 = time.perf_counter()
    got = eval_li_word(Word("11"), EvalParams(0.999999, eps=1e-5))
    assert time.perf_counter() - t0 < 0.1
    assert abs(got - math.log(1e-6) ** 2 / 2) <= 1e-5


def test_loose_tolerances_are_answered():
    # the first term of the direct series already meets eps (1 - |z|)
    for eps in (1.0, 10.0, 100.0):
        for z in (0.6, 0.9, 0.9999):
            p = EvalParams(z, eps=eps)
            assert abs(eval_li_word(Word("1"), p) + cmath.log(1 - z)) <= eps
            eval_li_word(Word("01"), p)


def test_walk_counts_its_terms_against_max_terms():
    # Li_x1x1 at 0.9999 takes about 2,000 Taylor terms
    words = [Word("11")]
    for max_terms, refused in ((600, True), (10_000, False)):
        p = EvalParams(0.9999, max_terms=max_terms)
        try:
            _walk_values(words, p)
        except series.ConvergenceError as e:
            assert refused and "no convergence at tolerance" in str(e)
        else:
            assert not refused


def test_a_walk_past_max_terms_leaves_the_words_to_the_direct_series():
    # the walk is picked here and needs more than 1500 Taylor terms; the
    # direct series answers within them
    w, z = Word("0110010"), 0.9583085183688673
    p = EvalParams(z, eps=8.27e-12, max_terms=1500)
    words: dict = {}
    series._reduced(w, p, words)
    nodes = series._suffix_trie(list(words))
    points, eps0, tau, _ = series._walk_plan(nodes, z, p.eps)
    with pytest.raises(series.ConvergenceError):
        series._walk(nodes, points, eps0, tau, p)
    got = eval_li_word(w, p)
    assert abs(got - eval_li_word(w, EvalParams(z, eps=1e-14))) <= 1e-9


def test_harmonic_sum_equals_the_row_loop():
    for d in (1, 2, 3):
        for s in itertools.product((1, 2, 3), repeat=d):
            want = harmonic_sum_loop(s, 60)
            for n in range(61):
                assert harmonic_sum(s, n) == want[n], (s, n)
    for s in ((2,), (2, 1), (3, 3), (1, 2, 3)):
        want = harmonic_sum_loop(s, 2003)
        for n in (1000, 2003):
            assert harmonic_sum(s, n) == want[n], (s, n)


def test_harmonic_sum_equals_the_product_denominator_split():
    # N on both sides of every multiple of the leaf length and of 128, the
    # length up to which ranges once kept product denominators, so that
    # leaves and merges of every size meet
    rng = random.Random(1515)
    edges = {m * k + d for k in (series._LEAF, 128) for m in (1, 2, 3, 4, 8, 16)
             for d in (-1, 0, 1)}
    for n in sorted(e for e in edges | {2100} if e <= 2100):
        for _ in range(2):
            s = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            assert harmonic_sum(s, n) == harmonic_sum_ref(s, n), (s, n)
    for s in ((), (1,), (4, 4, 4, 4), (3, 1, 2)):
        for n in range(len(s) + 1):
            assert harmonic_sum(s, n) == harmonic_sum_ref(s, n), (s, n)
    assert type(harmonic_sum((2, 1), 300)) is Fraction


def test_harmonic_sum_with_the_largest_part_first_last_or_inside():
    # the largest part sets the leaf's biggest powers (L/n)^s_i and the
    # merges' biggest rescalings, wherever it sits in the composition
    for s in ((4, 1, 1), (1, 1, 4), (1, 4, 1, 1), (1, 1, 4, 1)):
        for n in (15, 16, 17, 31, 32, 33, 2000, 2001, 2002, 2003):
            assert harmonic_sum(s, n) == harmonic_sum_ref(s, n), (s, n)


def test_exact_sums_past_the_bit_budget_are_refused_up_front():
    refused = [
        (harmonic_sum, (99999999999999999999,), 3),
        (harmonic_sum, (1,), 10**20),
        (harmonic_sum, (3, 3, 3), 10**6),
        (neg_taylor_coeff, (99999999999999999999,), 3),
        (neg_taylor_coeff, (2, 2), 2**(2**20)),
    ]
    for fn, s, n in refused:
        start = time.perf_counter()
        with pytest.raises(DomainError, match="bits"):
            fn(s, n)
        # unrefused, none of these would finish within minutes
        assert time.perf_counter() - start < 0.1, (fn, s, n)
    series._check_bits(series._MAX_BITS)
    with pytest.raises(DomainError):
        series._check_bits(series._MAX_BITS + 1)
    # the bounds, 1.5 |s| N bits for H_s(N) and (|s| + r - 1) bit_length(n)
    # for the Taylor coefficient, hold; the largest sums that the CLI tests
    # ask for, hsum 3,3,3 2000 and taylor-neg 2 with n of 2,200 nines,
    # still answer
    value = harmonic_sum((3, 3, 3), 2000)
    assert value == harmonic_sum_ref((3, 3, 3), 2000)
    assert max(value.numerator, value.denominator).bit_length() < 3 * 9 * 2000 // 2
    n = int("9" * 2200)
    assert neg_taylor_coeff((2,), n) == n**2
    assert neg_taylor_coeff((2, 2), 10**4).bit_length() <= 5 * (10**4).bit_length()


def test_exact_sums_refuse_bounds_that_are_not_integers():
    for bound in (3.0, True, False, Word("01"), "3", Fraction(3)):
        with pytest.raises(ValueError):
            harmonic_sum((1,), bound)
        with pytest.raises(ValueError):
            neg_taylor_coeff((2,), bound)
    assert neg_taylor_coeff((2,), 3) == 9


def test_stirling2_runs_without_recursion():
    for n in range(61):
        for k in range(61):
            assert stirling2(n, k) == stirling2_rec(n, k), (n, k)
    assert stirling2(1200, 3) == (3**1200 - 3 * 2**1200 + 3) // 6
    assert stirling2(1200, 2) == 2**1199 - 1
    assert stirling2(1200, 1) == 1


def test_import_of_the_cli_leaves_dataclasses_out():
    code = "import sys, starshuffle.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_eval_params_stay_immutable_and_comparable():
    p = EvalParams(0.5, eps=1e-9, max_terms=100)
    with pytest.raises(AttributeError):
        p.z = 0.25
    assert p == EvalParams(0.5, eps=1e-9, max_terms=100)
    assert hash(p) == hash(EvalParams(0.5, eps=1e-9, max_terms=100))
    assert p != EvalParams(0.5, eps=1e-10, max_terms=100)
    assert repr(p) == "EvalParams(z=(0.5+0j), eps=1e-09, max_terms=100)"
    assert pickle.loads(pickle.dumps(p)) == p
