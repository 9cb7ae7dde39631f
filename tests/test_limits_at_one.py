"""limit_at_one against an independent Laurent oracle at z = 1.

At z = 1 - t the elementary piece z^k (1-z)^(-l) log^n(z)/n! is
(1-t)^k t^(-l) log^n(1-t)/n!, a Laurent series in t.  The oracle below
expands it in Fraction power series and never calls the package, so the
limit it reads off (the t^0 coefficient, once no negative order is left)
checks the germ rule of limit_at_one from outside.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from starshuffle.errors import DomainError, NonElementaryConstantError
from starshuffle.polylog.integrate import limit_at_one
from starshuffle.polylog.symfun import SymFun
from starshuffle.words import Word

CASES = 300


def _series_mul(a: list, b: list, order: int) -> list:
    """The product of two power series in t, truncated after t^order."""
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[:order + 1]):
        if x:
            for j, y in enumerate(b[:order + 1 - i]):
                out[i + j] += x * y
    return out


def _log_one_minus_t(order: int) -> list:
    """log(1 - t) = -sum t^j / j."""
    return [Fraction(0)] + [Fraction(-1, j) for j in range(1, order + 1)]


def _one_minus_t_power(k: int, order: int) -> list:
    """(1 - t)^k for any integer k, by the binomial series."""
    out = [Fraction(1)]
    for j in range(1, order + 1):
        out.append(out[-1] * (k - j + 1) / j * -1)
    return out


def _oracle(pieces) -> dict:
    """The orders t^m, m <= 0, of the sum of c z^k (1-z)^(-l) log^n(z)/n!
    over the pieces (c, k, l, n) at z = 1 - t, as {m: Fraction}, zeros
    left out."""
    out: dict = {}
    for c, k, l, n in pieces:
        s = _one_minus_t_power(k, l)
        log = _log_one_minus_t(l)
        for _ in range(n):
            s = _series_mul(s, log, l)
        for p, a in enumerate(s):
            out[p - l] = out.get(p - l, 0) + c * a / factorial(n)
    return {m: a for m, a in out.items() if a}


def _symfun(pieces) -> SymFun:
    f = SymFun.zero()
    for c, k, l, n in pieces:
        f += SymFun.monomial(k, l, Word("0" * n), c)
    return f


def _random_pieces(rng) -> list:
    pieces = []
    for _ in range(rng.randint(1, 4)):
        l = rng.randint(0, 3)
        k = rng.randint(-3, 3) if rng.randrange(2) else 0
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        pieces.append((c, k, l, rng.randint(0, 3)))
    return pieces


def _finite_by_cancellation(rng) -> tuple:
    """Random pieces with poles plus the pure poles c (1-z)^(-a) that
    cancel every negative order the oracle finds, and the limit.  One
    piece (1-z)^(-l) log^n(z)/n! with 1 <= n < l always has a pole that
    only pieces of other powers n cancel."""
    pieces = _random_pieces(rng)
    l = rng.randint(2, 3)
    pieces.append((Fraction(rng.randint(1, 4)), 0, l, rng.randint(1, l - 1)))
    orders = _oracle(pieces)
    pieces += [(-a, 0, -m, 0) for m, a in orders.items() if m < 0]
    assert all(m == 0 for m in _oracle(pieces))
    return pieces, orders.get(0, Fraction(0))


def test_a_pole_cancelled_by_a_log_power_of_another_piece():
    f = SymFun.monomial(0, 2, Word("0")) + SymFun.monomial(0, 1)
    assert _oracle([(1, 0, 2, 1), (1, 0, 1, 0)]) == {0: Fraction(-1, 2)}
    got = limit_at_one(f)
    assert type(got) is Fraction and got == Fraction(-1, 2)
    mpmath = pytest.importorskip("mpmath")
    got = limit_at_one(f * SymFun.from_li(Word("01")), numeric_fallback=True)
    assert abs(got - float(-mpmath.zeta(2) / 2)) < 1e-12


def test_cancelled_poles_give_the_oracle_limit():
    rng = random.Random(11)
    for _ in range(CASES):
        pieces, want = _finite_by_cancellation(rng)
        got = limit_at_one(_symfun(pieces))
        assert type(got) is Fraction and got == want, pieces


def test_divergence_is_raised_exactly_when_a_pole_survives():
    rng = random.Random(12)
    raised = 0
    for _ in range(CASES):
        pieces = _random_pieces(rng)
        orders = _oracle(pieces)
        f = _symfun(pieces)
        if any(m < 0 for m in orders):
            raised += 1
            with pytest.raises(DomainError):
                limit_at_one(f)
        else:
            assert limit_at_one(f) == orders.get(0, 0), pieces
    assert 0 < raised < CASES


def test_times_a_word_the_limit_is_the_factor_times_the_word_at_one():
    mpmath = pytest.importorskip("mpmath")
    convergent = {Word("01"): mpmath.zeta(2), Word("001"): mpmath.zeta(3),
                  Word("011"): mpmath.zeta(3)}
    rng = random.Random(13)
    for case in range(CASES):
        pieces, r1 = _finite_by_cancellation(rng)
        if case % 4 == 0:
            # R(1) = 0 as well: the word's factor vanishes at 1
            pieces.append((-r1, 0, 0, 0))
            r1 = Fraction(0)
        f = _symfun(pieces)
        for u, zeta in convergent.items():
            g = f * SymFun.from_li(u)
            if r1:
                with pytest.raises(NonElementaryConstantError):
                    limit_at_one(g)
                got = limit_at_one(g, numeric_fallback=True)
                assert abs(got - float(r1.numerator * zeta / r1.denominator)) < 1e-12, (pieces, u)
            else:
                assert limit_at_one(g) == 0
        for u in (Word("1"), Word("101")):
            g = f * SymFun.from_li(u)
            if r1:
                with pytest.raises(DomainError) as info:
                    limit_at_one(g, numeric_fallback=True)
                assert not isinstance(info.value, NonElementaryConstantError)
            else:
                assert limit_at_one(g) == 0
