"""Every product is a pair rule handed to linear._bilinear.  Each must give
what its former double loop gave (kernel_reference.*_loop): the same items
in the same order, or, for SymFun, an equal result.  A SymFun product is
also the star-series product modulo the kernel ideal: the normal form of
shuffle_star on the same terms, read back as (k, l, w) keys."""

import random
from fractions import Fraction

from kernel_reference import (
    conc_loop,
    shuffle_loop,
    shuffle_star_loop,
    stuffle_loop,
    symfun_mul_loop,
)
from starshuffle.polylog.symfun import SymFun
from starshuffle.rewrite import normal_form
from starshuffle.shuffle_core import NCPoly, YPoly, conc, shuffle, stuffle
from starshuffle.star_series import StarSeries, shuffle_star, star_term
from starshuffle.words import Word

DENS = (1, 2, 3, 5, 7)
CASES = 300


def _coeff(rng):
    return Fraction(rng.randint(-4, 4), rng.choice(DENS))


def _word(rng, n=4):
    return Word([rng.randint(0, 1) for _ in range(rng.randint(0, n))])


def _ncpoly(rng):
    return NCPoly({_word(rng): _coeff(rng) for _ in range(rng.randint(0, 4))})


def _ypoly(rng):
    return YPoly({tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3))): _coeff(rng)
                  for _ in range(rng.randint(0, 3))})


def _exponent(rng):
    return rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)))


def _star_series(rng):
    return StarSeries({star_term(_word(rng, 3), _exponent(rng), _exponent(rng)): _coeff(rng)
                       for _ in range(rng.randint(0, 4))})


def _symfun(rng):
    return SymFun({(rng.randint(-3, 3), rng.randint(0, 3), _word(rng, 3)): _coeff(rng)
                   for _ in range(rng.randint(0, 4))})


def _pairs(seed, make):
    rng = random.Random(seed)
    for _ in range(CASES):
        p = make(rng)
        # every third right factor shares the left one's keys, so that
        # whole output keys cancel
        q = make(rng) if rng.randrange(3) else p.scale(_coeff(rng)) - make(rng)
        yield p, q


def _same_items(got, want):
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())


def test_shuffle_matches_its_loop():
    for p, q in _pairs(1, _ncpoly):
        _same_items(shuffle(p, q), shuffle_loop(p, q))


def test_stuffle_matches_its_loop():
    for p, q in _pairs(2, _ypoly):
        _same_items(stuffle(p, q), stuffle_loop(p, q))


def test_shuffle_star_matches_its_loop():
    for s, t in _pairs(3, _star_series):
        _same_items(shuffle_star(s, t), shuffle_star_loop(s, t))


def test_concatenations_match_their_loop():
    for p, q in _pairs(4, _ncpoly):
        _same_items(conc(p, q), conc_loop(p, q))
        _same_items(p * q, conc_loop(p, q))
    for p, q in _pairs(5, _ypoly):
        _same_items(p * q, conc_loop(p, q))


def _as_star_series(f: SymFun) -> StarSeries:
    return StarSeries({star_term(w, k, l): c for (k, l, w), c in f.terms.items()})


def test_symfun_product_matches_its_loop_and_the_star_product_mod_the_ideal():
    for f, g in _pairs(6, _symfun):
        got = f * g
        assert got == symfun_mul_loop(f, g)
        nf = normal_form(shuffle_star(_as_star_series(f), _as_star_series(g)))
        assert got == SymFun({(t.a0, t.a1, t.w): c for t, c in nf.terms.items()})
