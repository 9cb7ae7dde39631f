"""Antiderivations, basepoint limits, and word-indexed operator strings.

The two sections iota_0 and iota_1 integrate a symbolic function against
dz/z and dz/(1-z).  Antiderivatives are computed exactly inside the span of
z^k (1-z)^(-l) Li_w by four cached tables, each with one job:

    _P(i, w)     integral of z^i Li_w dz for every integer i, by parts,
                 with base case i = -1 -> Li_{x0 w};
    _A(j, w)     integral of (1-z)^(-j) Li_w dz for j >= 1, by parts,
                 with base case j = 1 -> Li_{x1 w};
    _J(k, l, w)  integral against dz/z, and
    _K(k, l, w)  integral against dz/(1-z): both write the integrand
                 against dz with rewrite.reduce_exponents and sum
                 _P and _A over the pieces.

The integration constant is fixed by a basepoint limit.  iota_1 is
always anchored at 0.  iota_0 is anchored piecewise: a reduced piece
z^k (1-z)^(-l) Li_u log^n/n! of index k + |u| >= 1 is anchored at 0,
otherwise at 1, which makes the string of operators read off a word
reproduce the polylogarithm of that word.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from ..errors import DomainError, NonElementaryConstantError
from ..rewrite import reduce_exponents
from ..words import Word, composition_of_word
from .series import EvalParams, eval_li_word, eval_symfun, harmonic_sum
from .symfun import SymFun, from_piece, theta, to_pieces

X0 = Word("0")
X1 = Word("1")
# Entries per antiderivative table.  The ideal workload fills about 100 of
# each, iota strings of every word up to 7 letters about 130, and the test
# suite at most 476.
_TABLE_SIZE = 1024


def _strip(w: Word, letter: int):
    """w with a leading letter removed, or None when it does not start
    with that letter (the corresponding derivative term is absent)."""
    if len(w) and w[0] == letter:
        return w[1:]
    return None


@lru_cache(maxsize=_TABLE_SIZE)
def _J(k: int, l: int, w: Word) -> SymFun:
    """An antiderivative of z^k (1-z)^(-l) Li_w against dz/z."""
    return _against_dz(reduce_exponents(k - 1, l), w)


@lru_cache(maxsize=_TABLE_SIZE)
def _K(k: int, l: int, w: Word) -> SymFun:
    """An antiderivative of z^k (1-z)^(-l) Li_w against dz/(1-z)."""
    return _against_dz(reduce_exponents(k, l + 1), w)


@lru_cache(maxsize=_TABLE_SIZE)
def _A(j: int, w: Word) -> SymFun:
    """An antiderivative of (1-z)^(-j) Li_w against dz, j >= 1."""
    if j == 1:
        return SymFun.from_li(X1 + w)
    out = SymFun.monomial(0, j - 1, w, Fraction(1, j - 1))
    u = _strip(w, 0)
    if u is not None:
        out -= Fraction(1, j - 1) * _J(0, j - 1, u)
    u = _strip(w, 1)
    if u is not None:
        out -= Fraction(1, j - 1) * _A(j, u)
    return out


@lru_cache(maxsize=_TABLE_SIZE)
def _P(i: int, w: Word) -> SymFun:
    """An antiderivative of z^i Li_w against dz, for every integer i."""
    if i == -1:
        return SymFun.from_li(X0 + w)
    out = SymFun.monomial(i + 1, 0, w, Fraction(1, i + 1))
    u = _strip(w, 0)
    if u is not None:
        out -= Fraction(1, i + 1) * _P(i, u)
    u = _strip(w, 1)
    if u is not None:
        out -= Fraction(1, i + 1) * _K(i + 1, 0, u)
    return out


def _against_dz(pieces: dict, w: Word) -> SymFun:
    """An antiderivative against dz of the sum of c z^k (1-z)^(-l) Li_w
    over canonical pieces {(k, l): c} with k*l = 0."""
    out: dict = {}
    for (k, l), c in pieces.items():
        table = _A(l, w) if l else _P(k, w)
        for key, v in table.terms.items():
            out[key] = out.get(key, 0) + c * v
    return SymFun._trusted(out)


def _antiderivative(i: int, f: SymFun) -> SymFun:
    fn = _J if i == 0 else _K
    out: dict = {}
    for (k, l, w), c in f.terms.items():
        for key, v in fn(k, l, w).terms.items():
            v = out.get(key, 0) + c * v
            # drop a key as soon as it cancels, so one that comes back
            # is appended, as a sum of SymFuns would do
            if v:
                out[key] = v
            else:
                del out[key]
    return SymFun._trusted(out)


def _li_coeffs(u: Word, p_max: int) -> list:
    """Exact Taylor coefficients of Li_u at 0 up to order p_max: for u the
    word of (s1, *tail), the coefficient of z^p is H_tail(p - 1) / p^s1."""
    s = composition_of_word(u)
    if not s:
        return [Fraction(1)] + [Fraction(0)] * p_max
    return [Fraction(0)] + [harmonic_sum(s[1:], p - 1) / p ** s[0] for p in range(1, p_max + 1)]


def limit_at_zero(f: SymFun) -> Fraction:
    """The limit of f at 0 along the disc, exact; DomainError when it
    does not exist (a pole or a logarithm survives)."""
    groups: dict = {}
    for (k, l, u, n), c in to_pieces(f).items():
        groups.setdefault(n, []).append((k, l, u, c))
    total = Fraction(0)
    for n, plist in groups.items():
        orders: dict = {}
        for (k, l, u, c) in plist:
            dep = u.count(1)
            if k + dep > 0:
                continue
            cs = _li_coeffs(u, -k)
            for p in range(dep, -k + 1):
                if cs[p]:
                    # k <= 0 and k*l = 0: only the constant term of (1-z)^(-l)
                    # reaches the orders <= 0
                    orders[k + p] = orders.get(k + p, Fraction(0)) + c * cs[p]
        if any(m < 0 and v for m, v in orders.items()):
            raise DomainError("divergent basepoint limit at z = 0")
        a0 = orders.get(0, Fraction(0))
        if n == 0:
            total += a0
        elif a0:
            raise DomainError("divergent basepoint limit at z = 0")
    return total


# One float per convergent word; the numeric workload asks for about 12.
@lru_cache(maxsize=256)
def _zeta_numeric(u: Word) -> float:
    """Li_u(1) for a convergent word (starts x0, ends x1), numerically.

    Splits the iterated integral at z = 1/2: Li_u(1) equals the sum over
    factorizations u = p q of Li_{p~}(1/2) Li_q(1/2), where p~ reverses p
    and swaps the letters.  Every factor converges geometrically."""
    params = EvalParams(0.5, eps=1e-15)
    total = 0.0
    for cut in range(len(u) + 1):
        pre = u[:cut]
        suf = u[cut:]
        tilde = Word([1 - a for a in reversed(list(pre))])
        va = eval_li_word(tilde, params).real if len(tilde) else 1.0
        vb = eval_li_word(suf, params).real if len(suf) else 1.0
        total += va * vb
    return total


def limit_at_one(f: SymFun, *, numeric_fallback: bool = False):
    """The limit of f at 1 along the disc.

    Exact (a Fraction) whenever the value is rational; when the finite
    limit involves a polylogarithm constant at 1, raises
    NonElementaryConstantError unless numeric_fallback is set, in which
    case a float is returned.  DomainError when the limit is infinite,
    also when another group carries a non-elementary constant.
    Divergences are detected group by group in the reduced basis;
    cancellations across different Li_u log^n groups are out of scope.
    """
    groups: dict = {}
    for (k, l, u, n), c in to_pieces(f).items():
        # z^k -> 1, so the piece contributes c (1-z)^(-l) (k*l = 0)
        sig = groups.setdefault((u, n), {})
        sig[-l] = sig.get(-l, Fraction(0)) + c
    exact = Fraction(0)
    constants = []
    for (u, n), sig in sorted(
        groups.items(), key=lambda g: (len(g[0][0]), tuple(g[0][0]), g[0][1])
    ):
        neg_beyond = any(j < -n and v for j, v in sig.items())
        at = sig.get(-n, Fraction(0))
        if neg_beyond or (at and len(u) and u[0] == 1):
            raise DomainError("divergent basepoint limit at z = 1")
        if len(u) == 0:
            exact += at * Fraction((-1) ** n, factorial(n))
        elif at:
            constants.append((u, n, at))
    if not constants:
        return exact
    if not numeric_fallback:
        raise NonElementaryConstantError()
    approx = 0.0
    for u, n, at in constants:
        approx += float(at) * ((-1) ** n / factorial(n)) * _zeta_numeric(u)
    return float(exact) + approx


def _piece_index(k: int, u: Word) -> int:
    return k + len(u) if len(u) else k


def iota(i: int, f: SymFun, *, numeric_constants: bool = False):
    """The section iota_i of theta_i.

    iota_1 integrates against dz/(1-z) from 0.  iota_0 integrates against
    dz/z, anchoring each reduced piece at 0 when its index is >= 1 and at
    1 otherwise.  Returns a SymFun; with numeric_constants=True returns
    (SymFun, float) where the float carries any non-elementary basepoint
    constants (the exact rational part stays in the SymFun).
    """
    if i not in (0, 1):
        raise ValueError("operator index must be 0 or 1")
    if i == 1:
        anti = _antiderivative(1, f)
        base = limit_at_zero(anti)
        result = anti - base * SymFun.one()
        return (result, 0.0) if numeric_constants else result
    sym = SymFun.zero()
    numeric = 0.0
    for (k, l, u, n), c in sorted(
        to_pieces(f).items(), key=lambda g: (g[0][0], g[0][1], len(g[0][2]), tuple(g[0][2]), g[0][3])
    ):
        anti = _antiderivative(0, from_piece(k, l, u, n))
        if _piece_index(k, u) >= 1:
            base = limit_at_zero(anti)
        else:
            base = limit_at_one(anti, numeric_fallback=numeric_constants)
        if isinstance(base, Fraction):
            sym += c * (anti - base * SymFun.one())
        else:
            sym += c * anti
            numeric -= float(c) * base
    return (sym, numeric) if numeric_constants else sym


def apply_word_op(kind: str, w: Word, f: SymFun) -> SymFun:
    """Apply the word-indexed operator string to f.

    kind "theta" maps w = v x_i to Theta(v) theta_i (differential
    operators), kind "iota" maps it to the string of sections; in both
    cases the rightmost letter acts first and the empty word is the
    identity.
    """
    ops = {"theta": theta, "iota": iota}
    if kind not in ops:
        raise ValueError(f"kind must be 'theta' or 'iota', got {kind!r}")
    op = ops[kind]
    for a in reversed(list(w)):
        f = op(a, f)
    return f


def discontinuity_demo(n_max: int, z: float) -> dict:
    """Apply iota_0 to two sequences with the same pointwise limit and
    report the values at z, exhibiting the discontinuity of the section.

    f_n sums Li over x0^m (the partial exponential of log z) and g_n
    alternates Li over x1^m; both converge pointwise to the identity
    function of z, yet the iota_0-images converge to z - 1 and to z.
    """
    if not 0 < z < 1:
        raise DomainError("demo needs a real z strictly between 0 and 1")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    params = EvalParams(z)
    f_running = SymFun.one()
    g_running = SymFun.zero()
    f_values = []
    g_values = []
    for n in range(1, n_max + 1):
        f_running += SymFun.from_li(Word([0] * n))
        g_running += SymFun.from_li(Word([1] * n)) * ((-1) ** (n + 1))
        f_values.append(eval_symfun(iota(0, f_running), params).real)
        g_values.append(eval_symfun(iota(0, g_running), params).real)
    return {
        "z": z,
        "n_max": n_max,
        "f_image_values": f_values,
        "g_image_values": g_values,
        "f_image_limit": z - 1.0,
        "g_image_limit": z,
        "f_final_error": abs(f_values[-1] - (z - 1.0)),
        "g_final_error": abs(g_values[-1] - z),
    }
