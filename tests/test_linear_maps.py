"""d/dz, theta, iota, the basepoint limits, the residuals, the projections,
delta_left, the normal form and to_pieces are linear maps fixed by their
values on basis keys, and the sums of the lineg routes are summed in one
dict.  Each must give what its term-by-term reference or former loop in
kernel_reference gives: the same values and value types, or the same
raised exception class, and the same dict order; a float limit must be
the same float, bit for bit."""

import random
from fractions import Fraction
from itertools import product

from kernel_reference import (
    against_dz_loop,
    apply_word_op_ref,
    build_neg_series_ref,
    delta_left_loop,
    derivative_ref,
    iota0_sections_ref,
    iota_ref,
    kernel_member_loop,
    left_residual_loop,
    limit_at_one_ref,
    limit_at_zero_ref,
    normal_form_loop,
    pi_x_loop,
    pi_y_loop,
    reduce_exponents_rec,
    reduce_trailing_x0_levels_ref,
    reduce_trailing_x0_loop,
    right_residual_loop,
    sorted_row,
    symfun_mul_ref,
    theta_ref,
    to_pieces_loop,
    words_up_to,
)
from starshuffle.errors import DomainError, NonElementaryConstantError
from starshuffle.linear import _bilinear, _common_scale, _row_of
from starshuffle.polylog.integrate import (
    _J,
    _K,
    _anchor,
    _germ,
    _iota1_row,
    apply_word_op,
    iota,
    limit_at_one,
    limit_at_zero,
)
from starshuffle.polylog.negindex import build_neg_series
from starshuffle.polylog.symfun import (
    SymFun,
    _reduce_trailing_x0,
    derivative,
    reduce_trailing_x0,
    theta,
    to_pieces,
)
from starshuffle.rewrite import kernel_member, normal_form
from starshuffle.shuffle_core import NCPoly, YPoly, left_residual, pi_x, pi_y, right_residual
from starshuffle.star_series import (
    StarSeries,
    delta_left,
    plane_star,
    shuffle_star,
    star_term,
)
from starshuffle.words import EPSILON, Word

CASES = 300


def _word(rng, n=4):
    return Word([rng.randint(0, 1) for _ in range(rng.randint(0, n))])


def _key(rng):
    if rng.random() < 0.3:
        return 0, rng.randint(1, 4), _word(rng)
    return rng.randint(-4, 4), 0, _word(rng)


def _coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _symfun(rng):
    return SymFun({_key(rng): _coeff(rng) for _ in range(rng.randint(1, 4))})


def _outcome(fn, *args, **kwargs):
    """("ok", items) for a SymFun, ("ok", items, float) for a (SymFun,
    float) pair, ("raise", class) for an exception."""
    try:
        res = fn(*args, **kwargs)
    except Exception as exc:  # the class is compared, whatever it is
        return ("raise", type(exc))
    if isinstance(res, tuple):
        sym, num = res
        return ("ok", list(sym.terms.items()), num)
    return ("ok", list(res.terms.items()))


def _cases(seed, cancelling):
    """Random SymFuns; every third one is cancelling(rng, f) plus a random
    term, so that terms of the operator's images cancel across keys."""
    rng = random.Random(seed)
    for n in range(CASES):
        f = _symfun(rng)
        if n % 3 == 0:
            try:
                f = cancelling(rng, f) + SymFun({_key(rng): _coeff(rng)})
            except DomainError:
                pass
        yield rng, f


def _integrated(rng, f):
    return iota_ref(rng.randint(0, 1), f, numeric_constants=True)[0]


def _differentiated(rng, f):
    return theta_ref(rng.randint(0, 1), f)


def test_derivative_and_theta_match_their_references():
    for _, f in _cases(1, _integrated):
        assert _outcome(derivative, f) == _outcome(derivative_ref, f)
        for i in (0, 1):
            assert _outcome(theta, i, f) == _outcome(theta_ref, i, f)


def test_iota_matches_its_reference():
    for _, f in _cases(2, _differentiated):
        for i in (0, 1):
            for numeric in (False, True):
                got = _outcome(iota, i, f, numeric_constants=numeric)
                assert got == _outcome(iota_ref, i, f, numeric_constants=numeric), (i, numeric, f)


def test_iota0_sums_the_anchored_sections_of_its_pieces():
    """iota_0 is the sum of its pieces' anchored sections: the same
    values and floats, bit for bit.  The sections refuse a float constant
    as soon as its piece is reached, where iota_0 refuses a piece with no
    limit first."""
    floats = 0
    for _, f in _cases(2, _differentiated):
        for numeric in (False, True):
            got = _outcome(iota, 0, f, numeric_constants=numeric)
            want = _outcome(iota0_sections_ref, f, numeric_constants=numeric)
            if want[0] == "ok":
                assert got[0] == "ok" and dict(got[1]) == dict(want[1]), (numeric, f)
                assert [x.hex() for x in got[2:]] == [x.hex() for x in want[2:]], f
                floats += numeric and got[2] != 0
            elif want[1] is NonElementaryConstantError:
                assert got[1] in (NonElementaryConstantError, DomainError), f
            else:
                assert got == want, (numeric, f)
    assert floats > 0


def test_word_op_strings_match_their_references():
    for rng, f in _cases(3, _differentiated):
        w = _word(rng, 3)
        got = _outcome(apply_word_op, "iota", w, f)
        assert got == _outcome(apply_word_op_ref, "iota", w, f), (w, f)
        if got[0] == "ok":
            g = SymFun(got[1])
            v = Word(list(w)[::-1])
            assert _outcome(apply_word_op, "theta", v, g) == _outcome(apply_word_op_ref, "theta", v, g)


def test_symfun_product_keeps_the_merged_order():
    rng = random.Random(4)
    for _ in range(CASES):
        f = _symfun(rng)
        # every third right factor shares the left one's keys, so that
        # whole raw keys cancel
        g = _symfun(rng) if rng.randrange(3) else f.scale(_coeff(rng)) - _symfun(rng)
        assert list((f * g).terms.items()) == list(symfun_mul_ref(f, g).terms.items())


def _limit(fn, *args, **kwargs):
    """("ok", type, value), a float as its hex string, or ("raise", class)."""
    try:
        res = fn(*args, **kwargs)
    except Exception as exc:  # the class is compared, whatever it is
        return ("raise", type(exc))
    return ("ok", type(res), res.hex() if isinstance(res, float) else res)


def test_limits_match_their_references():
    seen = set()
    cancelled = 0
    for _, f in _cases(5, _differentiated):
        got = _limit(limit_at_zero, f)
        assert got == _limit(limit_at_zero_ref, f), f
        seen.add(("zero", got[:2]))
        if got[0] == "ok":
            # the limit exists although the limit of some single term does not
            cancelled += any(_limit(limit_at_zero, SymFun({key: c}))[0] == "raise"
                             for key, c in f.terms.items())
        for numeric in (False, True):
            got = _limit(limit_at_one, f, numeric_fallback=numeric)
            assert got == _limit(limit_at_one_ref, f, numeric_fallback=numeric), (numeric, f)
            seen.add((numeric, got[:2]))
    # every outcome of each limit is reached
    assert len(seen) == 2 + 3 + 3, seen
    assert cancelled > 0


def test_iota_returns_fresh_results_and_its_table_is_bounded():
    f = SymFun({(0, 1, Word("01")): Fraction(1, 2), (2, 0, Word("1")): Fraction(-3),
                (0, 2, Word("10")): Fraction(2, 5)})
    for i in (0, 1):
        first = iota(i, f)
        want = list(first.terms.items())
        first.terms.clear()
        assert list(iota(i, f).terms.items()) == want
    for table in (_anchor, _germ, _iota1_row):
        assert table.cache_info().maxsize is not None


def test_no_dz_over_one_minus_z_antiderivative_has_a_constant_term():
    # so iota appends its anchor as a new key, as anti - base * 1 does;
    # the antiderivatives against dz/z have none either
    for k, l in product(range(-4, 5), range(5)):
        if k * l == 0:
            for w in words_up_to(3):
                for table in (_J, _K):
                    assert (0, 0, EPSILON) not in table(k, l, w).terms, (table, k, l, w)


def _compositions(weight_max, depth_max):
    yield ()
    frontier = [()]
    for _ in range(depth_max):
        frontier = [s + (part,) for s in frontier for part in range(weight_max - sum(s) + 1)]
        yield from frontier


def _typed(items):
    """The items of a combination or a dict with each value's type, since
    Fraction(1) == 1."""
    items = items.terms if hasattr(items, "terms") else items
    return [(k, type(v), v) for k, v in items.items()]


def _ncpoly(rng, n, terms):
    return NCPoly({_word(rng, n): _coeff(rng) for _ in range(rng.randint(0, terms))})


def test_residuals_and_projections_match_their_loops():
    rng = random.Random(6)
    for _ in range(CASES):
        # short divisors, so that words divide and keys meet and cancel
        p, s = _ncpoly(rng, 2, 3), _ncpoly(rng, 5, 6)
        assert _typed(left_residual(p, s)) == _typed(left_residual_loop(p, s)), (p, s)
        assert _typed(right_residual(s, p)) == _typed(right_residual_loop(s, p)), (p, s)
        assert _typed(pi_y(s)) == _typed(pi_y_loop(s)), s
        q = YPoly({tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3))): _coeff(rng)
                   for _ in range(rng.randint(0, 4))})
        assert _typed(pi_x(q)) == _typed(pi_x_loop(q)), q


def _exponent(rng):
    return rng.choice((0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)))


def test_delta_left_matches_its_loop_with_rational_exponents():
    rng = random.Random(7)
    for _ in range(CASES):
        s = StarSeries({star_term(_word(rng, 3), _exponent(rng), _exponent(rng)): _coeff(rng)
                        for _ in range(rng.randint(0, 4))})
        if s and rng.randrange(2):
            # x_letter t with coefficient -c a: its stripped key cancels the
            # eigenvalue term c a of t, for letter 0
            (w, a0, a1), c = next(iter(s.terms.items()))
            s += StarSeries({star_term(Word("0") + w, a0, a1): -c * a0 if a0 else c})
        for letter in (0, 1):
            assert _typed(delta_left(letter, s)) == _typed(delta_left_loop(letter, s)), s


def _laurent(rng):
    s = StarSeries({star_term(_word(rng, 3), rng.randint(-4, 4), rng.randint(0, 4)): _coeff(rng)
                    for _ in range(rng.randint(0, 4))})
    if rng.randrange(3) == 0:
        # a multiple of the generator of the kernel ideal, with or without s
        gen = shuffle_star(plane_star(1, 0), plane_star(0, 1)) - plane_star(0, 1) + StarSeries.one()
        mult = StarSeries({star_term(_word(rng, 2), rng.randint(-3, 3), rng.randint(0, 3)):
                           _coeff(rng)})
        s = shuffle_star(gen, mult) + (s if rng.randrange(2) else StarSeries.zero())
    return s


def test_normal_form_and_kernel_member_match_their_loop():
    rng = random.Random(8)
    members = 0
    for _ in range(CASES):
        s = _laurent(rng)
        assert _typed(normal_form(s)) == _typed(normal_form_loop(s)), s
        assert kernel_member(s) is kernel_member_loop(s), s
        members += kernel_member(s)
    assert members > 0


def test_reduced_rows_and_pieces_match_their_loops():
    for w in words_up_to(8):
        assert _typed(reduce_trailing_x0(w)) == _typed(sorted_row(w)), w
        assert reduce_trailing_x0(w) == reduce_trailing_x0_loop(w), w
    # the piece (x0x0x1, 0) cancels at the second term and comes back at the third
    back = SymFun({(0, 0, Word("001")): 2, (0, 0, Word("010")): 1, (0, 0, Word("100")): 1})
    for f in [*(f for _, f in _cases(9, _integrated)), back]:
        got = to_pieces(f)
        assert _typed(got) == _typed(to_pieces_loop(f, sorted_row)), f
        assert got == to_pieces_loop(f), f


def test_closed_form_rows_match_the_recursion():
    # every word of <= 10 letters and 300 seeded words of 11-16 letters:
    # the int row equals the recursion's Fractions, key by key, in order,
    # and the former levels loop's ints, item for item
    rng = random.Random(21)
    words = list(words_up_to(10))
    words += [Word([rng.randrange(2) for _ in range(rng.randint(11, 16))]) for _ in range(300)]
    for w in words:
        row = _reduce_trailing_x0(w)
        want = sorted_row(w)
        assert [(key, type(c)) for key, c in row] == [(key, int) for key in want], w
        assert dict(row) == want == reduce_trailing_x0_loop(w), w
        assert _typed(reduce_trailing_x0(w)) == _typed(want), w
        assert _typed(dict(row)) == _typed(dict(reduce_trailing_x0_levels_ref(w))), w
    # rows too long for the recursion, up to the letter budget: the levels loop alone
    for text in ("1" + "0" * 1030, "1" + "0" * 1400, "1" * 9 + "0" * 10, "0" * 540 + "1" + "0" * 560,
                 "01" * 10 + "0" * 8, "1" * 5 + "0" * 30 + "1" + "0" * 6):
        w = Word(text)
        row = _reduce_trailing_x0(w)
        assert _typed(dict(row)) == _typed(dict(reduce_trailing_x0_levels_ref(w))), text


def test_antiderivative_tables_match_their_loop():
    for k, l in product(range(-4, 5), range(5)):
        if k * l == 0:
            for w in words_up_to(3):
                want = against_dz_loop(reduce_exponents_rec(k - 1, l), w)
                assert _typed(_J(k, l, w)) == _typed(want), (k, l, w)
                want = against_dz_loop(reduce_exponents_rec(k, l + 1), w)
                assert _typed(_K(k, l, w)) == _typed(want), (k, l, w)


def test_neg_series_match_their_summed_loop():
    for s in _compositions(6, 3):
        for route in "TRF":
            got = list(build_neg_series(s, route).terms.items())
            assert got == list(build_neg_series_ref(s, route).terms.items()), (s, route)


def test_word_order_is_tuple_order_and_equal_words_hash_equal():
    words = [Word(t) for m in range(8) for t in product((0, 1), repeat=m)]
    tuples = [tuple(w) for w in words]
    for u, tu in zip(words, tuples):
        for v, tv in zip(words, tuples):
            assert (u < v, u <= v, u > v, u >= v) == (tu < tv, tu <= tv, tu > tv, tu >= tv)
        twin = (Word("1") + u)[1:]
        assert twin == u and hash(twin) == hash(u)


def test_items_and_repr_read_the_terms():
    p = NCPoly({Word("1"): Fraction(3, 2), Word("0"): Fraction(-1)})
    assert list(p.items()) == list(p.terms.items())
    assert dict(p.items()) == {Word("1"): Fraction(3, 2), Word("0"): Fraction(-1)}
    assert repr(p) == f"NCPoly({p.terms!r})"
    assert repr(NCPoly.zero()) == "NCPoly({})"


def test_bilinear_makes_keys_of_exactly_int_from_its_own_dict():
    """Sentinel-int keys come out exactly int, a zero sum is dropped, and
    the pair rule's dict is neither written to nor handed out."""
    table = {0b101: 2, 0b110: 0, 0b11: 1}

    def pair(u, v):
        return table

    for p_num, q_num in (({1: 1}, {1: 1}), ({1: -3}, {1: 5}), ({1: 1, 3: 2}, {2: -1})):
        got, den = _bilinear((p_num, 7), (q_num, 1), pair)
        assert got is not table and table == {0b101: 2, 0b110: 0, 0b11: 1}
        assert all(type(k) is int for k in got) and all(type(c) is int for c in got.values())
        scale = sum(p_num.values()) * sum(q_num.values())
        assert list(got.items()) == [(int(Word("10")), 2 * scale), (int(Word("1")), scale)]
        assert den == 7


def test_a_one_term_map_reads_as_the_common_scale_row():
    for c in (Fraction(-3), Fraction(-5, 7), Fraction(22, 15), Fraction(1, 3 ** 80),
              Fraction(-(2 ** 90) - 1, 7 ** 40), Fraction(1)):
        for p in (NCPoly({Word("01"): c}), YPoly({(2, 1): c}), StarSeries({star_term(Word("1"), 1, 0): c})):
            assert p._row is None
            nums, den = _common_scale(p.terms.values())
            row = _row_of(p)
            # an NCPoly's Word keys are read as their plain sentinel ints
            keys = map(int, p.terms) if type(p) is NCPoly else p.terms
            assert row == (dict(zip(keys, nums)), den)
            assert all(type(n) is int for n in row[0].values()) and type(row[1]) is int
            assert p._row is None and p.terms == {next(iter(p.terms)): c}
