"""The packed-integer shuffle kernels against the plain recursions: contents
and iteration order, exact coefficients, cancellation, cache bounds; and
no operation's result holding a zero coefficient."""

import random
from fractions import Fraction

from kernel_reference import (
    check_shuffle_words,
    check_stuffle_words,
    check_unshuffle,
    shuffle_ref,
    shuffle_words_rec,
    stuffle_ref,
    stuffle_words_rec,
    unshuffle_rec,
    words_up_to,
)
from starshuffle.errors import DomainError, NonElementaryConstantError
from starshuffle.polylog.integrate import iota
from starshuffle.polylog.symfun import SymFun, derivative, theta
from starshuffle.rewrite import normal_form
from starshuffle.shuffle_core import (
    NCPoly,
    YPoly,
    _shuffle_row,
    _shuffle_words,
    _stuffle_words,
    conc,
    shuffle,
    stuffle,
    unshuffle,
)
from starshuffle.star_series import StarSeries, shuffle_star
from starshuffle.words import Word


def test_shuffle_words_match_the_recursion_exhaustively():
    assert check_shuffle_words(5) == 63**2


def test_the_last_row_holds_the_shuffle_with_each_prefix():
    """Cell j of the kernel's last row is u sh v[:j] under the sentinel bit
    of |u| + |v|; moved to |u| + j, it is the recursion's product, in
    order.  The last cell is the product itself, whose reader is
    _shuffle_words."""
    words = words_up_to(5)
    for u in words:
        for v in words:
            row = _shuffle_row(u, v)
            top = 1 << len(u) + len(v)
            assert len(row) == len(v) + 1, (u, v)
            for j, cell in enumerate(row):
                got = [(t ^ top | 1 << len(u) + j, c) for t, c in cell.items()]
                want = [(int(w), c) for w, c in shuffle_words_rec(u, v[:j]).items()]
                assert got == want, (u, v, j)
            assert list(row[-1].items()) == [(int(w), c) for w, c in _shuffle_words(u, v).items()]


def test_unshuffle_matches_the_recursion_exhaustively():
    assert check_unshuffle(8) == 511


def test_stuffle_words_match_the_recursion_exhaustively():
    assert check_stuffle_words(4) == 121**2


def test_longer_inputs_match_the_recursions():
    """Seeded inputs past the exhaustive bounds, where the kernels merge long
    disjoint cells with dict.update: items, order and value types."""
    rng = random.Random(14)

    def word():
        return Word([rng.randint(0, 1) for _ in range(rng.randint(6, 12))])

    for _ in range(8):
        u, v = word(), word()
        want = shuffle_words_rec(u, v)
        assert list(_shuffle_words(u, v).items()) == list(want.items())
        c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        got = shuffle(NCPoly.from_word(u, c), NCPoly.from_word(v))
        assert list(got.terms.items()) == [(w, c * m) for w, m in want.items()]
        assert _all_fractions(got)
    equal_letters = 0
    for _ in range(40):
        u, v = (tuple(rng.randint(1, 4) for _ in range(rng.randint(3, 6))) for _ in range(2))
        equal_letters += bool(set(u) & set(v))
        assert list(_stuffle_words(u, v).items()) == list(stuffle_words_rec(u, v).items())
    assert equal_letters > 30  # the summing branch runs too
    for _ in range(10):
        w = word()
        got = list(unshuffle(w).items())
        assert got == list(unshuffle_rec(w).items())
        assert all(type(c) is Fraction for _, c in got)


def _all_fractions(p):
    return all(type(c) is Fraction for c in p.terms.values())


def test_shuffle_with_coprime_denominators_keeps_order_and_values():
    rng = random.Random(5)
    dens = (1, 2, 3, 5, 7, 11, 13)
    for _ in range(200):
        polys = [
            NCPoly({
                Word([rng.randint(0, 1) for _ in range(rng.randint(0, 5))]):
                    Fraction(rng.randint(-6, 6), rng.choice(dens))
                for _ in range(rng.randint(0, 4))
            })
            for _ in range(2)
        ]
        got = shuffle(*polys)
        want = shuffle_ref(*polys)
        assert list(got.terms.items()) == list(want.terms.items())
        assert _all_fractions(got)


def test_stuffle_with_coprime_denominators_keeps_order_and_values():
    rng = random.Random(6)
    dens = (1, 2, 3, 5, 7, 11, 13)
    for _ in range(200):
        polys = [
            YPoly({
                tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 4))):
                    Fraction(rng.randint(-6, 6), rng.choice(dens))
                for _ in range(rng.randint(0, 3))
            })
            for _ in range(2)
        ]
        got = stuffle(*polys)
        want = stuffle_ref(*polys)
        assert list(got.terms.items()) == list(want.terms.items())
        assert _all_fractions(got)


def test_cancelling_terms_are_pruned():
    x0, x1 = Word("0"), Word("1")
    p = NCPoly({x0: Fraction(1, 3), x1: Fraction(1, 3)})
    q = NCPoly({x0: Fraction(1, 5), x1: Fraction(-1, 5)})
    # (x0 + x1) sh (x0 - x1) = 2 x0x0 - 2 x1x1: both mixed words cancel
    assert shuffle(p, q).terms == {Word("00"): Fraction(2, 15), Word("11"): Fraction(-2, 15)}
    assert _all_fractions(shuffle(p, q))
    assert not shuffle(p, NCPoly({x0: 1}) - NCPoly({x0: 1})).terms

    a = YPoly({(1,): Fraction(1, 2), (2,): Fraction(1, 2)})
    b = YPoly({(1,): Fraction(1, 7), (2,): Fraction(-1, 7)})
    # (y1 + y2) st (y1 - y2) = 2 y1y1 + y2 - 2 y2y2 - y4: y1y2, y2y1, y3 cancel
    got = stuffle(a, b)
    assert got.terms == {
        (1, 1): Fraction(1, 7), (2,): Fraction(1, 14),
        (2, 2): Fraction(-1, 7), (4,): Fraction(-1, 14),
    }
    assert _all_fractions(got)


def test_caches_are_bounded_and_hold_whole_products_only():
    _shuffle_words.cache_clear()
    rng = random.Random(10)
    u = NCPoly.from_word(Word([rng.randint(0, 1) for _ in range(10)]))
    v = NCPoly.from_word(Word([rng.randint(0, 1) for _ in range(10)]))
    shuffle(u, v)
    info = _shuffle_words.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= 1
    _stuffle_words.cache_clear()
    stuffle(YPoly.from_yword((1, 2, 3, 1)), YPoly.from_yword((2, 2, 1, 3)))
    info = _stuffle_words.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= 1


def test_no_result_holds_a_zero():
    """_trusted wraps without a check, so every operation must prune what
    it cancels.  Coefficients of +-1 on short words make cancellations
    common."""
    rng = random.Random(11)

    def word():
        return Word([rng.randint(0, 1) for _ in range(rng.randint(0, 2))])

    def coeff():
        return rng.choice((-1, 1, Fraction(1, 2)))

    def poly():
        return NCPoly({word(): coeff() for _ in range(3)})

    def series():
        return StarSeries({(word(), rng.randint(-2, 2), rng.randint(0, 2)): coeff()
                           for _ in range(3)})

    def symfun():
        return SymFun({(rng.randint(-2, 2), rng.randint(0, 2), word()): coeff()
                       for _ in range(3)})

    def ypoly():
        return YPoly({tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2))): coeff()
                      for _ in range(3)})

    zeros = 0
    for _ in range(300):
        p, q = poly(), poly()
        s, t = series(), series()
        f, g = symfun(), symfun()
        y, x = ypoly(), ypoly()
        results = [
            p + q, p - q, p - p, p + -p, p + (q - p), p.scale(0), p * 0, 0 * p,
            shuffle(p, q), shuffle(p, p - q), conc(p, q), conc(p - q, p + q),
            stuffle(y, x), stuffle(y - x, y + x), y - y,
            s - s, s + t, shuffle_star(s, t), shuffle_star(s - t, s + t),
            normal_form(s), normal_form(shuffle_star(s, t) - shuffle_star(t, s)),
            f - f, f + g, f * g, (f - g) * (f + g), derivative(f), theta(0, f),
            theta(1, f - g),
        ]
        for i in (0, 1):
            try:
                results.append(iota(i, f - g))
            except (DomainError, NonElementaryConstantError):  # no elementary anchor
                pass
        for r in results:
            assert all(r.terms.values()), r
            zeros += not r.terms
    assert zeros > 300  # the sums did cancel
