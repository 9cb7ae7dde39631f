"""Star-term exponents are ints whenever they are integral, and the
rewriting loop on int exponents takes the steps it took on Fractions."""

import itertools
import random
from fractions import Fraction

import pytest

from starshuffle.polylog import integrate, symfun
from starshuffle.polylog.negindex import li_neg_closed_form
from starshuffle.rewrite import normal_form, rewrite_trace
from starshuffle.star_series import (
    StarSeries,
    StarTerm,
    delta_left,
    plane_star,
    shuffle_star,
    star,
    star_term,
    term_sort_key,
)
from starshuffle.words import EPSILON, Word


def exponents(s):
    return [a for t in s.terms for a in (t.a0, t.a1)]


def all_int(s):
    return all(type(a) is int for a in exponents(s))


def test_star_term_stores_integral_exponents_as_int():
    t = star_term(Word("01"), Fraction(4, 2), 3)
    assert type(t.a0) is int and type(t.a1) is int
    t = star_term(EPSILON, Fraction(1, 2), Fraction(-6, 3))
    assert t.a0 == Fraction(1, 2) and type(t.a0) is Fraction
    assert t.a1 == -2 and type(t.a1) is int
    assert type(star_term().a0) is int


def test_int_keys_equal_and_hash_like_fraction_keys():
    w = Word("10")
    t = star_term(w, 2, 3)
    old = StarTerm(w, Fraction(2), Fraction(3))
    assert t == old and hash(t) == hash(old)
    assert {old: 1}[t] == 1


def test_normal_form_emits_int_exponents():
    s = StarSeries({StarTerm(Word("1"), Fraction(3), Fraction(2)): 1,
                    StarTerm(EPSILON, Fraction(-2), Fraction(4)): Fraction(1, 3)})
    nf = normal_form(s)
    assert nf and all_int(nf)
    assert all_int(normal_form(plane_star(7, 5)))


def test_shuffle_star_sums_stay_normalised():
    half = plane_star(Fraction(1, 2), 0)
    prod = shuffle_star(half, half)
    assert prod == plane_star(1, 0)
    assert all_int(prod)
    assert all_int(shuffle_star(plane_star(2, 3), plane_star(-1, 1)))
    mixed = shuffle_star(plane_star(Fraction(1, 2), 1), plane_star(1, Fraction(1, 3)))
    ((t, _),) = mixed.terms.items()
    assert t.a0 == Fraction(3, 2) and type(t.a0) is Fraction
    assert t.a1 == Fraction(4, 3) and type(t.a1) is Fraction


def test_delta_left_and_star_keep_int_exponents():
    s = StarSeries({star_term(Word("01"), 2, 3): 1, star_term(Word("1"), -1, 1): 2})
    for letter in (0, 1):
        d = delta_left(letter, s)
        assert d and all_int(d)
    line = StarSeries({star_term(Word("0")): 2, star_term(Word("1")): Fraction(6, 2)})
    assert all_int(star(line))
    line = StarSeries({star_term(Word("0")): 2, star_term(Word("1")): Fraction(1, 2)})
    a0, a1 = exponents(star(line))
    assert type(a0) is int and type(a1) is Fraction


@pytest.mark.parametrize("strategy", ["measure", "random"])
def test_constructor_stores_integral_fraction_exponents_as_int(strategy):
    s = StarSeries({StarTerm(Word("01"), Fraction(2), Fraction(2)): 1})
    assert all_int(s)
    states = rewrite_trace(s, strategy, random.Random(0))
    assert len(states) > 1
    assert all(all_int(state) for state in states)
    assert all_int(delta_left(0, s)) and all_int(delta_left(1, s))


def _fraction_trace(s, strategy, rng):
    """The rewriting loop on Fraction exponents, as it ran before exponents
    were stored as ints: the reference the int loop must follow step by step."""
    terms = {StarTerm(t.w, Fraction(t.a0), Fraction(t.a1)): c for t, c in s.terms.items()}
    states = [dict(terms)]
    while True:
        candidates = [t for t in terms if t.a0 != 0 and t.a1 >= 1]
        if not candidates:
            return states
        if strategy == "measure":
            t = max(candidates, key=lambda t: (abs(t.a0) + t.a1, term_sort_key(t)))
        else:
            t = rng.choice(sorted(candidates, key=term_sort_key))
        c = terms.pop(t)
        k, l = t.a0, t.a1
        if k >= 1:
            pieces = ((StarTerm(t.w, k - 1, l), c), (StarTerm(t.w, k - 1, l - 1), -c))
        else:
            pieces = ((StarTerm(t.w, k, l - 1), c), (StarTerm(t.w, k + 1, l), c))
        for key, dc in pieces:
            nc = terms.get(key, 0) + dc
            if nc:
                terms[key] = nc
            else:
                terms.pop(key, None)
        states.append(dict(terms))


def _random_laurent(rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        w = Word([rng.randint(0, 1) for _ in range(rng.randint(0, 2))])
        terms[star_term(w, rng.randint(-6, 6), rng.randint(0, 6))] = Fraction(
            rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 3))
    return StarSeries(terms)


@pytest.mark.parametrize("strategy", ["measure", "random"])
def test_rewrite_trace_follows_the_fraction_loop(strategy):
    gen = random.Random(2024)
    for case in range(120):
        s = _random_laurent(gen)
        got = rewrite_trace(s, strategy, random.Random(case))
        want = _fraction_trace(s, strategy, random.Random(case))
        assert len(got) == len(want), s
        for state, ref in zip(got, want):
            assert list(state.terms.items()) == list(ref.items()), s
            assert all_int(state)


def _workload_laurent(rng, cancel):
    """1-3 terms shaped like the ideal workload's traces: |k| <= 12,
    1 <= l <= 12, words of up to 3 letters.  With cancel, a base term
    (k, l) comes with a partner that its first step cancels, and with a
    neighbour of the next level that sends to the partner's key again, so
    that the key drops out of the trace and comes back."""
    w = Word([rng.randint(0, 1) for _ in range(rng.randint(0, 3))])
    c = Fraction(rng.choice((1, -1)) * rng.randint(1, 6), rng.randint(1, 2))
    d = Fraction(rng.choice((1, -1)) * rng.randint(1, 6), rng.randint(1, 2))
    if not cancel:
        terms = {star_term(w, rng.choice((1, -1)) * rng.randint(1, 12), rng.randint(1, 12)): c}
        for _ in range(rng.randint(0, 2)):
            u = Word([rng.randint(0, 1) for _ in range(rng.randint(0, 3))])
            terms[star_term(u, rng.randint(-12, 12), rng.randint(1, 12))] = d
        return StarSeries(terms)
    l = rng.randint(2, 12)
    if rng.random() < 0.5:  # (k, l) -> (k-1, l) - (k-1, l-1); (k, l-1) sends to (k-1, l-1)
        k = rng.randint(2, 12)
        return StarSeries({star_term(w, k, l): c, star_term(w, k - 1, l - 1): c,
                           star_term(w, k, l - 1): d})
    # (k, l) -> (k, l-1) + (k+1, l), and (k-1, l-1), of the same level, sends to (k, l-1)
    k = -rng.randint(1, 11)
    return StarSeries({star_term(w, k, l): c, star_term(w, k, l - 1): -c,
                       star_term(w, k - 1, l - 1): d})


def _comes_back(states):
    """Some key leaves the trace and is present again in a later state."""
    gone = set()
    for before, after in zip(states, states[1:]):
        if gone & after.terms.keys():
            return True
        gone |= before.terms.keys() - after.terms.keys()
    return False


@pytest.mark.parametrize("strategy", ["measure", "random"])
def test_rewrite_trace_follows_the_fraction_loop_on_workload_shapes(strategy):
    gen = random.Random(31)
    came_back = 0
    for case in range(80):
        s = _workload_laurent(gen, cancel=case % 2 == 1)
        got = rewrite_trace(s, strategy, random.Random(case))
        want = _fraction_trace(s, strategy, random.Random(case))
        assert len(got) == len(want), s
        for state, ref in zip(got, want):
            assert list(state.terms.items()) == list(ref.items()), s
            # Fraction(3) == 3, so the comparison above would let an int through
            assert all(type(c) is Fraction for c in state.terms.values()), s
        came_back += _comes_back(got)
    assert came_back >= 20


@pytest.mark.parametrize("strategy", ["measure", "random"])
def test_rewrite_trace_states_are_independent(strategy):
    s = StarSeries({star_term(Word("01"), 3, 4): Fraction(1, 2),
                    star_term(EPSILON, -2, 3): 3, star_term(Word("1"), 0, 2): -1})
    before = dict(s.terms)
    states = rewrite_trace(s, strategy, random.Random(4))
    snapshot = [dict(state.terms) for state in states]
    for i, state in enumerate(states):
        state.terms[star_term(Word("111"), 5, 5)] = Fraction(7)
        state.terms.pop(next(iter(state.terms)))
        for j, other in enumerate(states):
            if j != i:
                assert other.terms == snapshot[j], (i, j)
        state.terms.clear()
        state.terms.update(snapshot[i])
    assert s.terms == before


def _level(t):
    return abs(t.a0) + t.a1


def test_measure_trace_rewrites_in_level_order():
    gen = random.Random(77)
    for case in range(60):
        s = _workload_laurent(gen, cancel=case % 2 == 1)
        states = rewrite_trace(s)
        rewritten = []
        for before, after in zip(states, states[1:]):
            # the rewritten term leaves the state; a piece that cancels
            # leaves it too, but sits at least one level lower
            gone = [t for t in before.terms if t not in after.terms and t.a0 and t.a1 >= 1]
            rewritten.append(max(gone, key=_level))
        levels = [_level(t) for t in rewritten]
        assert levels == sorted(levels, reverse=True), s
        assert len(set(rewritten)) == len(rewritten), s


def test_series_routes_match_the_recursion_up_to_weight_7_depth_3():
    comps = [c for depth in range(1, 4) for c in itertools.product(range(8), repeat=depth)
             if sum(c) <= 7]
    for s in comps:
        want = li_neg_closed_form(s, "recursion")
        for route in ("T", "R", "F"):
            assert li_neg_closed_form(s, route) == want, (s, route)


def test_tables_are_bounded():
    for fn in (integrate._J, integrate._K, integrate._A, integrate._P,
               integrate._zeta_numeric, symfun._reduce_trailing_x0):
        assert fn.cache_info().maxsize is not None, fn.__name__
