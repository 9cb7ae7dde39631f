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
    symfun_mul_canonical_loop,
    symfun_mul_loop,
)
from starshuffle.linear import _bilinear
from starshuffle.polylog.symfun import SymFun
from starshuffle.rewrite import normal_form
from starshuffle.shuffle_core import NCPoly, YPoly, _shuffle_words, _stuffle_words, conc, shuffle, stuffle
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


def _one_term_pairs(seed, make):
    """Pairs of one-term operands; every third operand has coefficient 1."""
    rng = random.Random(seed)

    def one():
        p = make(rng)
        while len(p) != 1:
            p = make(rng)
        if not rng.randrange(3):
            (c,) = p.terms.values()
            p = p.scale(1 / c)
        return p

    for _ in range(CASES):
        yield one(), one()


def test_one_term_products_match_their_loops():
    """Two one-term operands skip _bilinear's accumulation: the pair rule's
    dict is read as it is when the numerators multiply to 1, and scaled by
    a copy otherwise.  Shuffle passes it through wrap, the SymFun product
    through its reduction rule."""
    unit = 0
    for p, q in _one_term_pairs(7, _ncpoly):
        (cp,), (cq,) = p.terms.values(), q.terms.values()
        unit += cp.numerator * cq.numerator == 1
        _same_items(shuffle(p, q), shuffle_loop(p, q))
        _same_items(conc(p, q), conc_loop(p, q))
    assert 30 < unit < CASES - 30  # both branches run
    for p, q in _one_term_pairs(8, _ypoly):
        _same_items(stuffle(p, q), stuffle_loop(p, q))
    for s, t in _one_term_pairs(9, _star_series):
        _same_items(shuffle_star(s, t), shuffle_star_loop(s, t))
    raw = 0
    for f, g in _one_term_pairs(10, _symfun):
        (k1, l1, _), (k2, l2, _) = *f.terms, *g.terms
        raw += (k1 + k2) * (l1 + l2) != 0
        _same_items(f * g, symfun_mul_canonical_loop(f, g))
    assert raw > 30  # products of raw monomials, reduced by the then rule


def test_symfun_product_reduces_its_raw_keys_in_loop_order():
    for f, g in _pairs(11, _symfun):
        _same_items(f * g, symfun_mul_canonical_loop(f, g))


def test_bilinear_never_writes_or_hands_out_the_pair_rules_dict():
    table = {"a": 2, "b": 0, "c": 1}

    def pair(u, v):
        return table

    for cu, cv in ((1, 1), (Fraction(1, 2), Fraction(1, 3)), (Fraction(-2, 7), 3)):
        for then in (None, lambda key: {key.upper(): 1}):
            got = _bilinear({"u": Fraction(cu)}, {"v": Fraction(cv)}, pair, then)
            assert got is not table
            assert table == {"a": 2, "b": 0, "c": 1}
            keys = ("a", "c") if then is None else ("A", "C")
            assert list(got.items()) == [(keys[0], 2 * cu * cv), (keys[1], cu * cv)]
            assert all(type(c) is Fraction for c in got.values())


def test_cached_pair_rules_stay_unchanged_and_private():
    """stuffle reads _stuffle_words, shuffle_star and the SymFun product read
    _shuffle_words: twice each, with coefficients 1 and not 1, the cached
    dicts keep their items and no result's terms is one of them."""
    u, v = (1, 2, 1), (1, 3)
    x, y = Word("0110"), Word("101")
    stuffled, shuffled = _stuffle_words(u, v), _shuffle_words(x, y)
    before = list(stuffled.items()), list(shuffled.items())
    for c in (1, 1, Fraction(-3, 2), Fraction(-3, 2)):
        results = (
            stuffle(YPoly({u: c}), YPoly({v: 1})),
            shuffle_star(StarSeries({star_term(x, 1, 0): c}), StarSeries({star_term(y, 0, 2): 1})),
            SymFun({(0, 0, x): c}) * SymFun({(0, 0, y): 1}),
            SymFun({(2, 0, x): c}) * SymFun({(0, 1, y): 1}),
        )
        for r in results:
            assert r.terms is not stuffled and r.terms is not shuffled
            assert all(type(c) is Fraction for c in r.terms.values())
    assert _stuffle_words(u, v) is stuffled and _shuffle_words(x, y) is shuffled
    assert (list(stuffled.items()), list(shuffled.items())) == before
