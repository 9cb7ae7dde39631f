"""Words, Lyndon generation, CLF factorization, composition encoding."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starshuffle.errors import DomainError
from starshuffle.expressions import ExprTypeError, parse_value
from starshuffle.polylog.series import EvalParams, harmonic_sum
from starshuffle.polylog.symfun import SymFun
from starshuffle.shuffle_core import NCPoly, YPoly
from starshuffle.star_series import StarSeries, plane_star
from starshuffle.words import (
    EPSILON,
    Word,
    clf_factorize,
    composition_of_word,
    lyndon_up_to,
    shortlex_items,
    shortlex_key,
    word_of_composition,
)

words_st = st.lists(st.integers(0, 1), max_size=10).map(Word)


def all_words(max_len):
    for n in range(max_len + 1):
        for bits in range(1 << n):
            yield Word._raw(bits, n)


def is_lyndon_oracle(w):
    """Brute force: nonempty and strictly smaller than every proper rotation."""
    s = str(w)
    return bool(s) and all(s < s[i:] + s[:i] for i in range(1, len(s)))


def mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def test_word_basics():
    w = Word("0110")
    assert len(w) == 4
    assert list(w) == [0, 1, 1, 0]
    assert str(w) == "0110"
    assert w[0] == 0 and w[-1] == 0 and w[1] == 1
    assert w[1:] == Word("110")
    assert w[:-1] == Word("011")
    assert w[1:3] == Word("11")
    assert w.count(0) == 2 and w.count(1) == 2
    assert Word("01") + Word("10") == w
    assert Word("01") * 3 == Word("010101")
    assert Word("01") * 0 == EPSILON
    assert w.startswith(Word("011")) and w.endswith(Word("10"))
    assert not w.startswith(Word("1"))
    assert Word([0, 1, 1, 0]) == w and Word("0110") == w
    assert hash(Word("01")) == hash(Word([0, 1]))


def test_word_repeats_only_by_an_int():
    for bad in (True, 2.5, Word("1")):
        with pytest.raises(TypeError, match="can't multiply Word by non-int"):
            Word("01") * bad


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word("012")
    with pytest.raises(ValueError):
        Word([0, 2])


def test_word_order_is_lexicographic_with_prefix_first():
    assert Word("0") < Word("1")
    assert Word("0") < Word("00")
    assert Word("001") < Word("01")
    assert Word("01") < Word("010")
    assert not Word("1") < Word("011")
    ws = sorted(all_words(3))
    assert [str(w) for w in ws[:6]] == ["", "0", "00", "000", "001", "01"]


@given(st.lists(st.integers(0, 1), max_size=12))
def test_word_roundtrips_through_letters(letters):
    w = Word(letters)
    assert list(w) == letters
    assert Word(str(w)) == w


def test_lyndon_counts_lengths_1_to_8():
    expected = [2, 1, 2, 3, 6, 9, 18, 30]
    ws = lyndon_up_to(8)
    counts = [sum(1 for w in ws if len(w) == n) for n in range(1, 9)]
    assert counts == expected
    # Witt formula cross-check
    for n in range(1, 9):
        witt = sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        assert counts[n - 1] == witt


def test_lyndon_matches_rotation_oracle_and_is_sorted():
    ws = lyndon_up_to(7)
    assert ws == sorted(ws)
    assert len(ws) == len(set(ws))
    expected = {w for w in all_words(7) if is_lyndon_oracle(w)}
    assert set(ws) == expected


def test_lyndon_edge_cases():
    assert lyndon_up_to(0) == []
    assert [str(w) for w in lyndon_up_to(1)] == ["0", "1"]
    for bad in (-1, 2.5, True):
        with pytest.raises(ValueError):
            lyndon_up_to(bad)


def test_clf_examples():
    assert [str(f) for f in clf_factorize(Word("10010"))] == ["1", "001", "0"]
    assert [str(f) for f in clf_factorize(Word("0101"))] == ["01", "01"]
    assert clf_factorize(EPSILON) == []
    assert [str(f) for f in clf_factorize(Word("011"))] == ["011"]


def test_clf_properties_all_words_up_to_6():
    for w in all_words(6):
        factors = clf_factorize(w)
        joined = EPSILON
        for f in factors:
            joined = joined + f
        assert joined == w
        assert all(is_lyndon_oracle(f) for f in factors)
        assert all(str(factors[i]) >= str(factors[i + 1]) for i in range(len(factors) - 1))


def test_composition_encoding():
    assert word_of_composition((2, 1)) == Word("011")
    assert word_of_composition(()) == EPSILON
    assert word_of_composition((1, 1, 1)) == Word("111")
    assert word_of_composition((3,)) == Word("001")
    assert composition_of_word(Word("011")) == (2, 1)
    assert composition_of_word(EPSILON) == ()
    with pytest.raises(ValueError):
        composition_of_word(Word("010"))
    with pytest.raises(ValueError):
        word_of_composition((0,))
    with pytest.raises(ValueError):
        word_of_composition((2, -1))
    with pytest.raises(ValueError, match="positive integers, got True"):
        word_of_composition((True, 2))  # a bool is not a part


@given(st.lists(st.integers(1, 6), max_size=5))
def test_composition_roundtrip(parts):
    s = tuple(parts)
    assert composition_of_word(word_of_composition(s)) == s


# The Word contract: a Word is the int bits | 1 << n, yet it orders,
# compares and measures as a word, and never passes as a number.

def test_word_is_its_sentinel_key():
    for w in all_words(6):
        assert isinstance(w, int) and type(w) is Word
        assert int(w) == w.bits | 1 << w.n
        assert Word._raw(w.bits, w.n) == w and len(w) == w.n


def test_comparisons_agree_with_tuple_order():
    ws = list(all_words(6))
    for u in ws:
        tu = tuple(u)
        for v in ws:
            tv = tuple(v)
            assert (u < v, u <= v, u > v, u >= v) == (tu < tv, tu <= tv, tu > tv, tu >= tv)


def test_hashes_agree_exactly_when_words_are_equal():
    ws = list(all_words(6))
    copies = [Word(str(w)) for w in ws]
    for u in ws:
        for v in copies:
            assert (hash(u) == hash(v)) == (u == v) == (str(u) == str(v))
            assert (u != v) == (str(u) != str(v))


def test_truth_is_nonemptiness():
    assert bool(EPSILON) is False
    assert not Word("")
    assert all(bool(w) is True for w in all_words(4) if len(w))


@pytest.mark.parametrize("protocol", range(6))
def test_pickle_round_trip(protocol):
    for w in (EPSILON, Word("0"), Word("0110"), Word("1" * 70)):
        back = pickle.loads(pickle.dumps(w, protocol))
        assert back == w and type(back) is Word and repr(back) == repr(w)


def test_word_is_immutable():
    w = Word("01")
    for name in ("bits", "n", "letters"):
        with pytest.raises(AttributeError):
            setattr(w, name, 3)
    assert w == Word("01")


def test_word_never_equals_an_int():
    assert Word("0") != 2 and 2 != Word("0")
    assert not Word("0") == 2 and not 2 == Word("0")
    assert int(Word("0")) == 2
    assert {Word("0"): 1}.get(2) is None


W01 = Word("01")
# Each case raises the exception class it raised when Word was not an int.
LOOKALIKES = {
    "ncpoly_times_word": (TypeError, lambda: NCPoly.one() * W01),
    "word_times_ncpoly": (TypeError, lambda: W01 * NCPoly.one()),
    "ypoly_times_word": (TypeError, lambda: YPoly.one() * W01),
    "symfun_times_word": (TypeError, lambda: SymFun.one() * W01),
    "word_times_symfun": (TypeError, lambda: W01 * SymFun.one()),
    "series_times_word": (TypeError, lambda: StarSeries.one() * W01),
    "word_as_coefficient": (TypeError, lambda: NCPoly({EPSILON: W01})),
    "word_as_scalar": (TypeError, lambda: NCPoly.one().scale(W01)),
    "int_plus_word": (TypeError, lambda: 1 + W01),
    "word_plus_int": (TypeError, lambda: W01 + 1),
    "word_lt_int": (TypeError, lambda: W01 < 2),
    "int_lt_word": (TypeError, lambda: 2 < W01),
    "word_le_int": (TypeError, lambda: W01 <= 2),
    "word_ge_int": (TypeError, lambda: W01 >= 2),
    "word_gt_int": (TypeError, lambda: W01 > 2),
    "word_times_word": (TypeError, lambda: W01 * W01),
    "word_as_exponent": (TypeError, lambda: plane_star(W01, 1)),
    "word_as_composition_part": (ValueError, lambda: word_of_composition((W01,))),
    "word_as_sum_index": (DomainError, lambda: harmonic_sum((W01,), 3)),
    "word_as_max_terms": (DomainError, lambda: EvalParams(0.25, max_terms=W01)),
    "word_as_power": (ValueError, lambda: SymFun({(W01, 0, EPSILON): 1})),
    "word_as_y_index": (ValueError, lambda: YPoly({(W01,): 1})),
    "word_literal_times_word_literal": (ExprTypeError, lambda: parse_value('w"0" * w"1"')),
}


@pytest.mark.parametrize("case", sorted(LOOKALIKES))
def test_a_word_is_refused_where_a_number_is_expected(case):
    error, call = LOOKALIKES[case]
    with pytest.raises(error):
        call()


def test_shortlex_items_orders_as_shortlex_key():
    terms = {w: Fraction(int(w) % 7 - 3, 5) for w in reversed(list(all_words(6)))}
    expected = [(str(w), c) for w, c in sorted(terms.items(), key=lambda kv: shortlex_key(kv[0]))]
    assert list(shortlex_items(terms)) == expected
    assert list(shortlex_items({})) == []
