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
from starshuffle.shuffle_core import (NCPoly, YPoly, _shuffle_words, _stuffle_words, conc, left_residual,
                                     pi_x, right_residual, shuffle, stuffle)
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
    a copy otherwise.  Shuffle hands its int keys through as they are,
    the SymFun product passes them through its reduction rule."""
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
        cu, cv = Fraction(cu), Fraction(cv)
        for then in (None, lambda items: {k.upper(): c for k, c in items}):
            got, den = _bilinear(({"u": cu.numerator}, cu.denominator),
                                 ({"v": cv.numerator}, cv.denominator), pair, then)
            assert got is not table
            assert table == {"a": 2, "b": 0, "c": 1}
            keys = ("a", "c") if then is None else ("A", "C")
            assert [(k, Fraction(c, den)) for k, c in got.items()] == [(keys[0], 2 * cu * cv),
                                                                       (keys[1], cu * cv)]
            assert all(type(c) is int for c in got.values())


def test_cached_pair_rules_stay_unchanged_and_private():
    """shuffle_star and the SymFun product read _shuffle_words, and stuffle
    runs next to a _stuffle_words entry: twice each, with coefficients 1
    and not 1, the cached dicts keep their items and no result's terms is
    one of them."""
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


def test_equal_values_are_equal_and_hash_alike_in_either_form():
    """A product's row is in lowest terms, so it equals and hashes as the
    constructor's map of the same value, before and after .terms is read."""
    u, v = Word("0"), Word("1")
    got = shuffle(NCPoly({u: Fraction(2, 3)}), NCPoly({v: Fraction(3, 4)}))
    want = NCPoly({Word("01"): Fraction(1, 2), Word("10"): Fraction(1, 2)})
    assert got._row == ({6: 1, 5: 1}, 2) and want._row is None
    assert got == want and hash(got) == hash(want)
    assert {want: 1}[got] == 1
    assert got.terms == want.terms
    assert got._row is None and got == want and hash(got) == hash(want)
    f = SymFun({(0, 1, u): Fraction(3, 2)}) * SymFun({(0, 0, v): Fraction(4, 9)})
    assert f == SymFun({(0, 1, Word("01")): Fraction(2, 3), (0, 1, Word("10")): Fraction(2, 3)})
    s = StarSeries({star_term(u, 1, 0): Fraction(5, 6)})
    for zero in (s - s, s.scale(0), s + (-s)):
        assert zero == StarSeries.zero() and hash(zero) == hash(StarSeries.zero())
        assert zero._row == ({}, 1)


def test_ncpoly_rows_key_words_by_exactly_int_and_terms_by_exactly_word():
    """Every operation on NCPolys, with one-term and longer operands in map
    and in row form, gives a row keyed by plain ints, and its .terms is
    keyed by Words."""
    maps = [NCPoly({Word("01"): Fraction(2, 3)}), NCPoly({Word(""): 1}),
            NCPoly({Word("0110"): Fraction(-1, 2), Word("01"): 3, Word(""): Fraction(5, 7)}),
            NCPoly({Word("10"): 2, Word("0"): Fraction(1, 4)})]
    polys = [form for p in maps for form in (p, p.scale(1))]
    assert [p._row is None for p in polys] == [True, False] * len(maps)
    results = []
    for p in polys:
        results.append(p.scale(Fraction(-3, 2)))
        for q in polys:
            pq = conc(p, q)
            results += [shuffle(p, q), pq, p + q, p - q, left_residual(q, pq), right_residual(pq, p)]
    for y in (YPoly({(2, 1): Fraction(1, 3)}), YPoly({(1,): 2, (3, 1): Fraction(-1, 5), (): 1})):
        results += [pi_x(y), pi_x(y.scale(1))]
    assert sum(len(r) > 0 for r in results) > len(results) // 2
    for r in results:
        assert r._row is not None and all(type(k) is int for k in r._row[0])
        assert all(type(k) is Word for k in r.terms)


def test_ncpoly_equality_and_hash_agree_across_forms_also_after_terms_is_mutated():
    got = shuffle(NCPoly({Word("01"): Fraction(1, 3)}), NCPoly({Word("1"): 3}))
    want = NCPoly(dict(got.scale(1).terms))
    assert got._row is not None and want._row is None
    assert got == want and hash(got) == hash(want) and {want: 1}[got] == 1
    extra = NCPoly({Word("111"): Fraction(5, 7)})
    got.terms[Word("111")] = Fraction(5, 7)
    assert got._row is None and got != want
    for other in (want + extra, NCPoly({**want.terms, Word("111"): Fraction(5, 7)})):
        assert got == other and hash(got) == hash(other) and {other: 1}[got] == 1
    del got.terms[Word("111")], got.terms[Word("011")]
    assert got == want - NCPoly({Word("011"): want.coeff(Word("011"))})
    one = NCPoly.from_word(Word("1"), Fraction(3, 4))
    assert one == one.scale(1) and hash(one) == hash(one.scale(1))


def test_a_mutated_terms_map_is_what_the_next_operation_reads():
    p = shuffle(NCPoly({Word("01"): Fraction(1, 3)}), NCPoly({Word("1"): 3}))
    p.terms[Word("111")] = Fraction(5, 7)
    del p.terms[Word("011")]
    want = NCPoly(dict(p.terms))
    assert p == want and hash(p) == hash(want)
    one = NCPoly.one()
    for got, ref in ((shuffle(p, one), want), (p + NCPoly.zero(), want), (p.scale(2), want.scale(2)),
                     (-p, want.scale(-1)), (conc(one, p), want)):
        assert list(got.terms.items()) == list(ref.terms.items())


def test_reading_the_tables_terms_leaves_later_results_unchanged():
    """The antiderivative tables and the lineg factors hold row-form
    objects.  Reading their .terms turns them to map form, which later
    reads take through the common scale: every later result keeps its
    items, values, value types and order."""
    from starshuffle.polylog.integrate import _J, _K, _anchor, _iota1_row, iota
    from starshuffle.polylog.negindex import _route_factor, build_neg_series

    f = SymFun({(0, 1, Word("01")): Fraction(1, 2), (2, 0, Word("1")): Fraction(-3),
                (0, 2, Word("10")): Fraction(2, 5), (1, 0, Word("")): Fraction(7, 3)})
    comps = ((1,), (2, 1), (0, 3), (1, 1, 1))

    def results():
        out = [[(k, c, type(c)) for k, c in iota(i, f).terms.items()] for i in (0, 1)]
        return out + [list(build_neg_series(s, r).terms.items()) for s in comps for r in "TRF"]

    for table in (_J, _K, _anchor, _iota1_row, _route_factor):
        table.cache_clear()
    before = results()
    read = 0
    for k, l in ((k, l) for k in range(-3, 4) for l in range(3) if k * l == 0):
        for w in (Word(""), Word("0"), Word("1"), Word("01"), Word("10"), Word("11")):
            for table in (_J, _K):
                read += table(k, l, w)._row is not None
                table(k, l, w).terms
    for route in "TRF":
        for k in range(4):
            read += _route_factor(route, k)._row is not None
            _route_factor(route, k).terms
    assert read > 100
    assert results() == before
    _anchor.cache_clear()
    _iota1_row.cache_clear()
    assert results() == before
