"""Closed forms at nonpositive indices: four routes, one answer."""

from fractions import Fraction

import pytest

from starshuffle.errors import DomainError
from starshuffle.polylog.negindex import (
    ROUTES,
    build_neg_series,
    closed_form_taylor_coeff,
    li_neg_closed_form,
)
from starshuffle.polylog.series import harmonic_sum, neg_taylor_coeff
from starshuffle.star_series import StarSeries, plane_star


def compositions(weight_max, depth_max):
    yield ()
    frontier = [()]
    for _ in range(depth_max):
        nxt = []
        for s in frontier:
            for part in range(weight_max - sum(s) + 1):
                nxt.append(s + (part,))
        yield from nxt
        frontier = nxt


def test_pinned_closed_forms():
    lam = [Fraction(-1), Fraction(1)]
    lam_sq = [Fraction(1), Fraction(-2), Fraction(1)]
    for route in ROUTES:
        assert li_neg_closed_form((0,), route) == lam
        assert li_neg_closed_form((0, 0), route) == lam_sq
        assert li_neg_closed_form((), route) == [Fraction(1)]
    assert li_neg_closed_form((1,)) == [Fraction(0), Fraction(-1), Fraction(1)]


def test_routes_agree_up_to_weight_4_depth_3():
    for s in compositions(4, 3):
        forms = [li_neg_closed_form(s, route) for route in ROUTES]
        assert all(f == forms[0] for f in forms), s


def test_closed_forms_vanish_at_zero():
    for s in compositions(4, 2):
        if not s:
            continue
        cs = li_neg_closed_form(s)
        assert sum(cs) == 0, s


def test_taylor_coefficients_match_the_nested_sum():
    for s in [(0,), (1,), (2,), (0, 1), (1, 1), (3, 2), (1, 0, 2)]:
        cs = li_neg_closed_form(s)
        for n in range(1, 8):
            want = neg_taylor_coeff(s, n)
            assert closed_form_taylor_coeff(cs, n) == want
            # and neg_taylor_coeff itself against a hand-rolled chain sum
            direct = 0
            if len(s) == 1:
                direct = n ** s[0]
            else:

                def chains(top, parts):
                    if not parts:
                        return 1
                    return sum(
                        m ** parts[0] * chains(m - 1, parts[1:])
                        for m in range(1, top + 1)
                    )

                direct = n ** s[0] * chains(n - 1, s[1:])
            assert want == direct


def test_series_routes_build_star_series():
    s = build_neg_series((1, 0), "T")
    assert isinstance(s, StarSeries)
    assert s.is_laurent()
    assert all(len(t.w) == 0 for t in s.terms)
    assert build_neg_series((), "F") == StarSeries.one()


def test_route_validation():
    with pytest.raises(ValueError):
        li_neg_closed_form((1,), route="Q")
    with pytest.raises(ValueError):
        build_neg_series((1,), route="recursion")
    with pytest.raises(ValueError):
        li_neg_closed_form((-1,))
    with pytest.raises(ValueError):
        closed_form_taylor_coeff([Fraction(1)], 0)


def test_closed_form_conversion_rejects_foreign_series():
    from starshuffle.polylog.negindex import _closed_form_from_series
    from starshuffle.star_series import embed
    from starshuffle.shuffle_core import NCPoly
    from starshuffle.words import Word

    with pytest.raises(DomainError):
        _closed_form_from_series(embed(NCPoly.from_word(Word("0"))))
    with pytest.raises(DomainError):
        _closed_form_from_series(plane_star(2, 1))
    with pytest.raises(DomainError):
        _closed_form_from_series(plane_star(-1, 2))
    with pytest.raises(DomainError):
        _closed_form_from_series(plane_star(Fraction(1, 2), 1))


def test_closed_form_conversion_reads_the_normal_form():
    from starshuffle.polylog.negindex import _closed_form_from_series

    # z^2/(1-z) + z = 1/(1-z) - 1: the z-powers of the two terms cancel
    series = plane_star(2, 1) + plane_star(1, 0)
    assert _closed_form_from_series(series) == [-1, 1]


def test_bool_parts_are_refused_by_harmonic_sum():
    with pytest.raises(DomainError, match="got True"):
        harmonic_sum((True, 2), 3)


def test_bool_parts_are_refused_by_neg_taylor_coeff():
    with pytest.raises(DomainError, match="got True"):
        neg_taylor_coeff((True,), 3)


def test_bool_parts_are_refused_by_li_neg_closed_form():
    with pytest.raises(DomainError, match="got True"):
        li_neg_closed_form((True,))


def test_closed_form_taylor_coeff_refuses_a_bool_index():
    with pytest.raises(ValueError, match="indexed by integers n >= 1, got True"):
        closed_form_taylor_coeff([0, 1], True)


def test_closed_form_taylor_coeff_refuses_a_float_index():
    with pytest.raises(ValueError, match=r"indexed by integers n >= 1, got 3\.0"):
        closed_form_taylor_coeff([0, 1], 3.0)


def test_route_r_builds_the_factors_of_route_t():
    # a shuffle of stars adds exponents: x0* sh x1* is (x0+x1)*, so R's
    # factors are T's, built through shuffle_star, dict order included
    from starshuffle.polylog.negindex import _route_factor

    for k in range(8):
        r, t = _route_factor("R", k), _route_factor("T", k)
        assert r == t, k
        assert list(r.terms.items()) == list(t.terms.items()), k
