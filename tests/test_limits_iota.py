"""Antiderivations, basepoint limits, operator strings, the discontinuity."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_reference import zeta_numeric_ref
from starshuffle.errors import DomainError, NonElementaryConstantError
from starshuffle.polylog.integrate import (
    _antiderivative,
    _zeta_numeric,
    apply_word_op,
    discontinuity_demo,
    iota,
    limit_at_one,
    limit_at_zero,
)
from starshuffle.polylog.series import EvalParams, eval_symfun
from starshuffle.polylog.symfun import (
    SymFun,
    inv_lambda_fun,
    lambda_fun,
    theta,
)
from starshuffle.shuffle_core import unshuffle
from starshuffle.words import EPSILON, Word

words_st = st.lists(st.integers(0, 1), max_size=4).map(Word)
coeffs_st = st.fractions(min_value=-3, max_value=3, max_denominator=2)
keys_st = st.tuples(st.integers(-2, 2), st.integers(0, 2), words_st)
symfun_st = st.dictionaries(keys_st, coeffs_st, max_size=3).map(SymFun)

ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854


@given(symfun_st)
@settings(max_examples=50, deadline=None)
def test_antiderivatives_are_sections_of_theta(f):
    # theta_i kills constants, so this holds before any basepoint choice
    for i in (0, 1):
        assert theta(i, _antiderivative(i, f)) == f


def test_limit_at_zero_exact_cases():
    assert limit_at_zero(SymFun.one()) == 1
    assert limit_at_zero(SymFun.from_li(Word("011"))) == 0
    assert limit_at_zero(SymFun.monomial(1, 2)) == 0
    # Li_{x1}/z -> 1
    assert limit_at_zero(SymFun.monomial(-1, 0, Word("1"))) == 1
    # Li_{x1x1}/z -> 0 (second coefficient needed)
    assert limit_at_zero(SymFun.monomial(-1, 0, Word("11"))) == 0
    # Li_{x1x1}/z^2 -> 1/2: the coefficient of z^2 in Li_{x1x1}
    assert limit_at_zero(SymFun.monomial(-2, 0, Word("11"))) == Fraction(1, 2)
    # (Li_{x1} - z)/z -> 0: the constant terms cancel across pieces
    f = SymFun.monomial(-1, 0, Word("1")) - SymFun.one()
    assert limit_at_zero(f) == 0


def test_limit_at_zero_divergences():
    with pytest.raises(DomainError):
        limit_at_zero(SymFun.monomial(-1, 0))
    with pytest.raises(DomainError):
        limit_at_zero(SymFun.from_li(Word("0")))  # log z
    with pytest.raises(DomainError):
        limit_at_zero(SymFun.monomial(-2, 0, Word("1")))  # Li_{x1}/z^2 ~ 1/z
    # but a cancelled pole is fine
    f = SymFun.monomial(-2, 0, Word("1")) - SymFun.monomial(-1, 0)
    assert limit_at_zero(f) == Fraction(1, 2)


def test_limit_at_zero_matches_numeric_evaluation():
    # close enough to 0 that the slowest surviving pieces (z log^3 z)
    # are far below the tolerance
    rng = random.Random(5)
    p = EvalParams(1e-10, eps=1e-14)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = Word([rng.randint(0, 1) for _ in range(rng.randint(0, 3))])
            k = rng.randint(0, 2)
            l = rng.randint(0, 2)
            terms[(k, l, w)] = Fraction(rng.randint(-3, 3))
        f = SymFun(terms)
        try:
            lim = limit_at_zero(f)
        except DomainError:
            continue
        assert abs(eval_symfun(f, p) - float(lim)) < 1e-3


def test_limit_at_one_exact_cases():
    assert limit_at_one(SymFun.one()) == 1
    assert limit_at_one(SymFun.monomial(3, 0)) == 1
    assert limit_at_one(SymFun.from_li(Word("0"))) == 0  # log z -> 0
    assert limit_at_one(SymFun.from_li(Word("00"))) == 0
    # (1-z) Li_{x1} -> 0: intra-group cancellation of the log divergence
    f = SymFun.monomial(0, -1, Word("1"))
    assert limit_at_one(f) == 0
    # lambda - 1/(1-z) -> -1
    assert limit_at_one(lambda_fun() - SymFun.monomial(0, 1)) == -1


def test_limit_at_one_divergences():
    with pytest.raises(DomainError):
        limit_at_one(SymFun.monomial(0, 1))
    with pytest.raises(DomainError):
        limit_at_one(SymFun.from_li(Word("1")))
    with pytest.raises(DomainError):
        limit_at_one(SymFun.from_li(Word("101")))  # word starting with x1
    with pytest.raises(DomainError):
        limit_at_one(SymFun.monomial(0, 2, Word("0")))


def test_limit_at_one_divergence_wins_over_a_non_elementary_constant():
    # Li_{x0x1} -> zeta(2) and Li_{x1} diverges; the sum diverges whatever
    # the order in which the groups are visited
    f = SymFun.from_li(Word("01")) + SymFun.from_li(Word("11"))
    for fallback in (False, True):
        with pytest.raises(DomainError) as info:
            limit_at_one(f, numeric_fallback=fallback)
        assert not isinstance(info.value, NonElementaryConstantError)


def test_limit_at_one_non_elementary_constants():
    f = SymFun.from_li(Word("01"))
    with pytest.raises(NonElementaryConstantError, match="non-elementary"):
        limit_at_one(f)
    got = limit_at_one(f, numeric_fallback=True)
    assert isinstance(got, float)
    assert abs(got - ZETA2) < 1e-10
    got = limit_at_one(SymFun.from_li(Word("001")), numeric_fallback=True)
    assert abs(got - ZETA3) < 1e-10
    got = limit_at_one(SymFun.from_li(Word("011")), numeric_fallback=True)
    assert abs(got - ZETA3) < 1e-10  # the classical depth-2 evaluation
    # rational plus zeta mixes keep the rational part exact in spirit
    g = SymFun.one() + f
    assert abs(limit_at_one(g, numeric_fallback=True) - (1 + ZETA2)) < 1e-10


def test_zeta_numeric_pins():
    assert abs(_zeta_numeric(Word("01")) - ZETA2) < 1e-12
    assert abs(_zeta_numeric(Word("0001")) - math.pi**4 / 90) < 1e-12


def test_zeta_numeric_gives_its_per_factor_floats():
    # every convergent word of at most 8 letters: x0 v x1
    words = [Word([0, *((bits >> j) & 1 for j in range(n)), 1])
             for n in range(7) for bits in range(1 << n)]
    assert len(set(words)) == 127
    for u in words:
        assert _zeta_numeric(u).hex() == zeta_numeric_ref(u).hex(), u


def test_limit_at_one_power_prefactors():
    # z^2 Li_{x0x1} -> zeta(2): positive-power branch of the expansion
    f = SymFun.monomial(2, 0, Word("01"))
    assert abs(limit_at_one(f, numeric_fallback=True) - ZETA2) < 1e-10
    # z^{-1} Li_{x0x1} -> zeta(2): negative-power branch
    f = SymFun.monomial(-1, 0, Word("01"))
    assert abs(limit_at_one(f, numeric_fallback=True) - ZETA2) < 1e-10
    # (z^2 - 1) Li_{x1} -> 0: the log divergence cancels inside the group
    f = SymFun.monomial(2, 0, Word("1")) - SymFun.from_li(Word("1"))
    assert limit_at_one(f) == 0
    assert limit_at_one(SymFun.monomial(2, 0, Word("0"))) == 0


def test_limit_at_one_matches_numeric_evaluation():
    # direct series evaluation is expensive close to 1, so sanity-check a
    # moderate point where the limit error is of order t*log(1/t) ~ 7e-3
    p = EvalParams(0.999, eps=1e-12)
    f = SymFun.monomial(2, 0, Word("01"))
    lim = limit_at_one(f, numeric_fallback=True)
    assert abs(eval_symfun(f, p) - lim) < 0.05
    g = SymFun.monomial(0, -1, Word("1"))
    assert abs(eval_symfun(g, p) - 0.0) < 0.05


def supported_monomials(rng, i):
    while True:
        w = Word([rng.randint(0, 1) for _ in range(rng.randint(0, 3))])
        k = rng.randint(-2, 3)
        l = rng.randint(0, 3)
        if k and l:
            k, l = (k, 0) if rng.random() < 0.5 else (0, l)
        f = SymFun.monomial(k, l, w)
        if not f:
            continue
        try:
            iota(i, f)
        except DomainError:
            continue
        return f


def test_iota_is_a_section_of_theta_on_random_monomials():
    rng = random.Random(2024)
    for i in (0, 1):
        for _ in range(40):
            f = supported_monomials(rng, i)
            assert theta(i, iota(i, f)) == f


def test_crossed_compositions_are_multiplication_operators():
    rng = random.Random(77)
    lam = lambda_fun()
    inv = inv_lambda_fun()
    for _ in range(20):
        w = Word([rng.randint(0, 1) for _ in range(rng.randint(0, 4))])
        f = SymFun.from_li(w)
        assert theta(0, iota(1, f)) == lam * f
        assert theta(1, iota(0, f)) == inv * f


def test_operator_string_rebuilds_the_polylogarithm():
    for n in range(5):
        for bits in range(1 << n):
            w = Word._raw(bits, n)
            assert apply_word_op("iota", w, SymFun.one()) == SymFun.from_li(w)


def test_theta_string_satisfies_the_shuffle_leibniz_rule():
    for n in range(4):
        for bits in range(1 << n):
            u = Word._raw(bits, n)
            f = SymFun.from_li(Word("01"))
            g = SymFun.monomial(1, 0, Word("1"))
            lhs = apply_word_op("theta", u, f * g)
            rhs = SymFun.zero()
            for (u1, u2), m in unshuffle(u).items():
                rhs += m * (apply_word_op("theta", u1, f) * apply_word_op("theta", u2, g))
            assert lhs == rhs


def test_apply_word_op_validates_kind():
    with pytest.raises(ValueError):
        apply_word_op("sigma", Word("0"), SymFun.one())


def test_iota_numeric_constants_plumbing():
    f = SymFun.monomial(0, 1, Word("0"))  # log z / (1 - z), basepoint 1
    with pytest.raises(NonElementaryConstantError):
        iota(0, f)
    sym, num = iota(0, f, numeric_constants=True)
    assert abs(num - ZETA2) < 1e-10
    z = 0.3
    p = EvalParams(z)
    total = eval_symfun(sym, p).real + num
    # independent numeric integral of log s/((1-s) s) from 1 to z
    steps = 40000
    acc = 0.0
    for j in range(steps):
        s0 = 1 + (z - 1) * (j + 0.5) / steps
        acc += math.log(s0) / ((1 - s0) * s0)
    acc *= (z - 1) / steps
    assert abs(total - acc) < 1e-5
    # exact-constant inputs return plain SymFun results with a zero float
    sym2, num2 = iota(1, SymFun.one(), numeric_constants=True)
    assert num2 == 0.0
    assert sym2 == SymFun.from_li(Word("1"))


def test_discontinuity_demo_limits():
    report = discontinuity_demo(40, 0.5)
    assert abs(report["f_image_values"][-1] - (-0.5)) < 1e-6
    assert abs(report["g_image_values"][-1] - 0.5) < 1e-6
    assert report["f_image_limit"] == -0.5
    assert report["g_image_limit"] == 0.5
    assert len(report["f_image_values"]) == 40
    # the two image limits really are different functions of z
    report2 = discontinuity_demo(30, 0.25)
    assert abs(report2["f_image_values"][-1] - (-0.75)) < 1e-6
    assert abs(report2["g_image_values"][-1] - 0.25) < 1e-6
    with pytest.raises(DomainError):
        discontinuity_demo(10, 1.5)
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError):
            discontinuity_demo(bad, 0.5)


def test_iota0_refuses_a_piece_with_no_limit_before_a_float_constant():
    # z^-1 Li_{x1 x0} = z^-1 (Li_{x1} log - Li_{x0 x1}): the first piece
    # is anchored at 1, at -zeta(2), and the second, anchored at 0, has
    # no limit there; the missing limit is refused, with either flag
    f = SymFun({(-2, 0, EPSILON): 1, (-1, 0, Word("10")): 1})
    for numeric in (False, True):
        with pytest.raises(DomainError) as info:
            iota(0, f, numeric_constants=numeric)
        assert info.type is DomainError, numeric


def test_iota_rejects_bad_index():
    f = SymFun.from_li(Word("01"))
    for bad in (2, True, False, 1.0, 0.0):
        with pytest.raises(ValueError, match="operator index must be 0 or 1"):
            iota(bad, f)


def test_antiderivative_tables_are_sections_of_theta_on_a_grid():
    from starshuffle.polylog.integrate import _A, _J, _K, _P

    words = [Word([(bits >> i) & 1 for i in range(n)])
             for n in range(4) for bits in range(1 << n)]
    keys = [(k, 0) for k in range(-8, 9)] + [(0, l) for l in range(1, 9)]
    for w in words:
        for k, l in keys:
            assert theta(0, _J(k, l, w)) == SymFun.monomial(k, l, w), (k, l, w)
            assert theta(1, _K(k, l, w)) == SymFun.monomial(k, l, w), (k, l, w)
        for i in range(-8, 9):
            assert theta(0, _P(i, w)) == SymFun.monomial(i + 1, 0, w), (i, w)
        for j in range(1, 9):
            assert theta(1, _A(j, w)) == SymFun.monomial(0, j - 1, w), (j, w)
