"""Closed forms for polylogarithms at nonpositive indices.

For a composition (s1, ..., sr) of nonnegative integers, the series with
coefficients neg_taylor_coeff lies in Z[1/(1-z)]; closed forms are
returned as coefficient lists on the powers (1-z)^0, (1-z)^-1, ....

Four routes are implemented.  "recursion" iterates the exact operator
recursion f -> theta_0^s (lambda f) on polynomials in Y = 1/(1-z).  The
series routes "T", "R" and "F" expand the function as the extended
polylogarithm of an explicit star series built from Stirling-weighted
shuffle powers of (x0+x1)*, of x0* sh x1*, and of x1* - 1; the nested
summation indices k_i range over 0..M_i with M_i = s1+..+si - (k1+..+
k_{i-1}), the last index being forced to k_r = M_r (its binomial is 1),
and each term carries the product of the remaining binomials C(M_i, k_i).
The series routes read the coefficients off the normal form of that
series modulo the kernel ideal (rewrite.normal_form), so they check the
reducer.  The factor of each (route, k) is built once, into the bounded
table _route_factor, and read, never written to, by every composition
whose indices take that k.  The sums over indices are summed as ints
into one dict (linear._combine), in the order a chain of + would give.
The recursion route keeps its own arithmetic on polynomials in Y on
purpose: it is the one route that does not go through the reducer.
All routes are normalized so the depth >= 1 closed forms vanish at z = 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Sequence

from ..errors import DomainError
from ..linear import _combine, _items
from ..rewrite import normal_form
from ..star_series import StarSeries, plane_star, shuffle_star
from .series import _check_composition, _check_taylor_index, stirling2

ROUTES = ("T", "R", "F", "recursion")
# Entries of the factor table, one per (route, k) with k at most the
# weight.  The shuffle workload (weight <= 5, all three routes) fills 18,
# and the test suite (weight <= 7) at most 24.
_FACTOR_TABLE_SIZE = 64


def _stirling_block(k: int, base: StarSeries, shift: StarSeries) -> StarSeries:
    """shift sh sum over j of S2(k, j) j! base^(sh j), the k >= 1 case of
    the three series factors."""

    def parts():
        power = StarSeries.one()
        for j in range(1, k + 1):
            power = shuffle_star(power, base)
            yield stirling2(k, j) * factorial(j), *_items(power.terms)

    return shuffle_star(shift, StarSeries._trusted(_combine(parts())))


@lru_cache(maxsize=_FACTOR_TABLE_SIZE)
def _route_factor(route: str, k: int) -> StarSeries:
    """The series factor of one summation index k of a route.  Cached,
    treat the result as read-only."""
    if route == "T":
        if k == 0:
            return plane_star(1, 1)
        return _stirling_block(k, plane_star(1, 1), plane_star(0, 1))
    if route == "R":
        both = shuffle_star(plane_star(1, 0), plane_star(0, 1))
        if k == 0:
            return both
        return _stirling_block(k, both, plane_star(0, 1))
    if route == "F":
        lam = plane_star(0, 1) - StarSeries.one()
        if k == 0:
            return lam
        return _stirling_block(k, lam, plane_star(0, 1))
    raise ValueError(f"unknown route {route!r}")


def _nested_indices(s: Sequence[int]):
    """Yield (indices, coefficient) for the constrained nested sum: the
    i-th index runs over 0..M_i, the last is pinned to M_r."""
    r = len(s)

    def rec(i: int, used: int, prefix: tuple, coeff: int):
        budget = sum(s[: i + 1]) - used
        if i == r - 1:
            yield prefix + (budget,), coeff
            return
        for k in range(budget + 1):
            yield from rec(i + 1, used + k, prefix + (k,), coeff * comb(budget, k))

    yield from rec(0, 0, (), 1)


def build_neg_series(s: Iterable[int], route: str = "T") -> StarSeries:
    """The star series whose extended polylogarithm is the nonpositive-
    index polylogarithm of the composition s.  The empty composition gives
    the unit series (the constant function 1)."""
    s = _check_composition(s, 0)
    if route not in ("T", "R", "F"):
        raise ValueError(f"route must be one of T, R, F, got {route!r}")
    if not s:
        return StarSeries.one()

    def parts():
        for indices, coeff in _nested_indices(s):
            term = _route_factor(route, indices[0])
            for k in indices[1:]:
                term = shuffle_star(term, _route_factor(route, k))
            yield coeff, *_items(term.terms)

    return StarSeries._trusted(_combine(parts()))


def _closed_form_from_series(series: StarSeries) -> list:
    """Read the coefficients on powers of 1/(1-z) off the normal form of
    a star series; DomainError unless only such powers survive."""
    out: dict = {}
    for t, c in normal_form(series).terms.items():
        if len(t.w) or t.a0:
            raise DomainError("series does not lie in Z[1/(1-z)]")
        out[int(t.a1)] = c
    return [out.get(j, Fraction(0)) for j in range(max(out, default=0) + 1)]


def _lambda_times(p: list) -> list:
    """Multiply a polynomial in Y = 1/(1-z) by lambda = Y - 1."""
    out = [Fraction(0)] * (len(p) + 1)
    for j, c in enumerate(p):
        out[j + 1] += c
        out[j] -= c
    return out


def _theta0(p: list) -> list:
    """theta_0 = z d/dz on polynomials in Y: theta_0 Y^j = j (Y^(j+1) - Y^j)."""
    out = [Fraction(0)] * (len(p) + 1)
    for j, c in enumerate(p):
        if j:
            out[j + 1] += j * c
            out[j] -= j * c
    return out


def _trim(p: list) -> list:
    while len(p) > 1 and not p[-1]:
        p = p[:-1]
    return p


def li_neg_closed_form(s: Iterable[int], route: str = "recursion") -> list:
    """The nonpositive-index polylogarithm of the composition s as exact
    coefficients on (1-z)^0, (1-z)^-1, ..., normalized to vanish at z = 0
    for nonempty s.  The empty composition returns [1]."""
    s = _check_composition(s, 0)
    if route == "recursion":
        p = [Fraction(1)]
        for part in reversed(s):
            p = _lambda_times(p)
            for _ in range(part):
                p = _theta0(p)
    elif route in ("T", "R", "F"):
        p = _closed_form_from_series(build_neg_series(s, route))
    else:
        raise ValueError(f"route must be one of {ROUTES}, got {route!r}")
    p = [Fraction(c) for c in p]
    if s:
        p[0] -= sum(p, Fraction(0))  # normalize so the value at z = 0 is 0
    return _trim(p)


def closed_form_taylor_coeff(coeffs: Sequence, n: int) -> Fraction:
    """n-th Taylor coefficient (n >= 1) of sum_j coeffs[j] (1-z)^(-j)."""
    _check_taylor_index(n)
    total = Fraction(0)
    for j, c in enumerate(coeffs):
        if j and c:
            total += Fraction(c) * comb(n + j - 1, j - 1)
    return total
