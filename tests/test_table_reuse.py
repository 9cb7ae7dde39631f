"""Tables follow reuse: stuffle keeps no product of its own, the lineg route
factors are built once into a bounded table that no caller writes to, and
the key gates of YPoly and SymFun refuse bools."""

import random
from fractions import Fraction

import pytest

from kernel_reference import stuffle_cached_ref
from starshuffle.polylog.negindex import _route_factor, build_neg_series, li_neg_closed_form
from starshuffle.polylog.symfun import SymFun
from starshuffle.shuffle_core import YPoly, _stuffle_words, stuffle
from starshuffle.words import EPSILON


def _compositions(weight_max, depth_max):
    frontier = [()]
    for _ in range(depth_max):
        frontier = [s + (part,) for s in frontier for part in range(weight_max - sum(s) + 1)]
        yield from frontier


def _typed(p):
    return [(key, type(key), c, type(c)) for key, c in p.terms.items()]


def _ypoly(rng):
    """One to three terms on y-words of depth <= 6 and small letters, with
    +-1 and halves as coefficients, so sums cancel often; now and then a
    term and its negative, which cancel in the constructor."""
    items = []
    for _ in range(rng.randint(1, 3)):
        yw = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 6)))
        items.append((yw, rng.choice((1, -1, Fraction(1, 2), Fraction(-3, 2)))))
    if rng.random() < 0.2:
        items.append((items[0][0], -Fraction(items[0][1])))
    return YPoly(items)


def test_stuffle_reads_no_cached_product_and_matches_its_cached_form():
    rng = random.Random(18)
    cases = [(_ypoly(rng), _ypoly(rng)) for _ in range(120)]
    for _ in range(30):
        # (u + v) st (u - v) = u st u - v st v: the cross terms cancel
        u, v = (tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6))) for _ in "uv")
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        cases.append((YPoly({u: c, v: c}), YPoly({u: 1, v: -1})))
    a = YPoly({(1,): Fraction(1, 2), (2,): Fraction(1, 2)})
    cases += [(a, YPoly()), (YPoly(), a)]
    cancelled = 0
    for p, q in cases:
        _stuffle_words.cache_clear()
        got = stuffle(p, q)
        info = _stuffle_words.cache_info()
        assert info.hits == info.misses == info.currsize == 0
        want = stuffle_cached_ref(p, q)
        assert _typed(got) == _typed(want), (p, q)
        raw = {w for u in p.terms for v in q.terms for w in _stuffle_words(u, v)}
        cancelled += len(raw) > len(got.terms)
    assert cancelled >= 30  # the cases include products whose terms cancel


def test_ypoly_refuses_bool_indices():
    for yw in ((True, 2), (2, False), (True,)):
        with pytest.raises(ValueError, match="positive integers"):
            YPoly.from_yword(yw)
        with pytest.raises(ValueError, match="positive integers"):
            YPoly({yw: 1})
    assert str(YPoly.from_yword((1, 2))) == "1*y[1,2]"


def test_symfun_refuses_bool_powers():
    for k, l in ((True, 0), (0, True), (False, 2), (-1, False)):
        with pytest.raises(ValueError, match="must be integers"):
            SymFun.monomial(k, l)
        with pytest.raises(ValueError, match="must be integers"):
            SymFun({(k, l, EPSILON): 1})
    assert list(SymFun.monomial(1, 0).terms) == [(1, 0, EPSILON)]


def test_series_routes_equal_the_recursion_with_a_cold_and_a_warm_factor_table():
    comps = list(_compositions(5, 3))
    want = {s: li_neg_closed_form(s, "recursion") for s in comps}
    for cold in (True, False):
        for s in comps:
            for route in "TRF":
                if cold:
                    _route_factor.cache_clear()
                got = li_neg_closed_form(s, route)
                assert got == want[s], (s, route, cold)
                assert all(type(c) is Fraction for c in got)
    info = _route_factor.cache_info()
    assert info.currsize == 18 and info.hits > 0  # three routes, k <= 5


def test_no_caller_changes_a_cached_factor():
    comps = list(_compositions(5, 3))
    _route_factor.cache_clear()
    for s in comps:
        for route in "TRF":
            build_neg_series(s, route)
    factors = {(route, k): _route_factor(route, k) for route in "TRF" for k in range(6)}
    before = {key: list(f.terms.items()) for key, f in factors.items()}
    for s in comps:
        for route in "TRF":
            series = build_neg_series(s, route)
            assert all(series.terms is not f.terms for f in factors.values())
            li_neg_closed_form(s, route)
    for (route, k), f in factors.items():
        assert _route_factor(route, k) is f
        assert list(f.terms.items()) == before[route, k], (route, k)
