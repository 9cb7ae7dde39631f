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
                 against dz as a row of the exponent table
                 rewrite._exponent_row and sum _P and _A over its pieces.

Integrating by parts, _P and _A differentiate Li_w by the rule of
symfun._d_rule, d Li_{x0 u} = Li_u dz/z and d Li_{x1 u} = Li_u dz/(1-z),
so each branches once on the first letter of w: an x0 recurses into _P
or _J, an x1 into _K or _A, and the empty word adds no term.

The integration constant is fixed by a basepoint limit.  iota_1 is
always anchored at 0.  iota_0 is anchored piecewise: a reduced piece
z^k (1-z)^(-l) Li_u log^n/n! of index k + |u| >= 1 is anchored at 0,
otherwise at 1, which makes the string of operators read off a word
reproduce the polylogarithm of that word.

The sections and the limits are linear in their argument's row, so
each sums its int numerators times bounded tables, one entry per
canonical key (k, l, w) or reduced piece, with linear._combine, the one
loop that sums rows, over the argument's denominator:

    _germ(key)     the germ of the key's function at 0: its coefficients
                   of z^m log^n(z)/n! for m <= 0, read off the word's
                   reduced row symfun._reduce_trailing_x0.  limit_at_zero
                   sums the germs of its terms; the limit is the (0, 0)
                   entry, and it exists exactly when no other entry
                   survives.
    _iota1_row(key)  _K of the key and that antiderivative's germ.
    _anchor(k, l, u, n)  iota_0's basepoint constant of a reduced piece:
                   the limit of _J's antiderivative of it, a Fraction, or
                   a float when it is a non-elementary constant.

iota builds both sections with one _combine: the antiderivative rows of
its argument's keys (_J or _K) come first, so the result's keys follow
them, and the basepoint constants follow as one row on the constant key.
iota_1's constant is the limit of the summed germ of _iota1_row, the
limit of the whole antiderivative taken per call, so divergences of
single terms may cancel.  iota_0's is the sum of c * _anchor over the
pieces of its argument, each c read off the row symfun._piece_sums.
That is the piecewise anchoring, since _antiderivative is linear and a
key's reduced row is an identity w = sum m (u sh x0^n): the pieces'
antiderivatives add up to the key's _J row exactly.  The exact
constants are rationals, whose sum does not depend on the piece order;
only the pieces whose constant is a float are summed in the sorted
piece order, so that float is the same bit for bit.

limit_at_one needs no table of its own: it is limit_at_zero after
z -> 1 - t, word by word.  At z = 1 - t the reduced piece
z^k (1-z)^(-l) Li_u log^n/n! is (-1)^n (1-t)^k t^(-l) Li_{x1^n}(t) Li_u,
as log^n(z)/n! = (-1)^n Li_{x1^n}(t).  Since k*l = 0, (1-t)^k is 1
when l > 0 and changes no order t^m, m <= 0, of a power series when
l = 0, so those orders of the factor before Li_u are the germ of the
key (-l, 0, x1^n), read as a function of t.  So limit_at_one sums
(-1)^n c * _germ((-l, 0, x1^n)) over the pieces of each word u of
symfun._piece_sums and reads the limit R_u(1) of that factor with
_limit_of_germ: poles that cancel within a word are decided exactly,
and a pole that survives is divergent.  The limit is R_u(1) Li_u(1)
summed over the words: the empty word gives the exact part, and a
nonzero R_u(1) on a word starting with x1, whose Li_u diverges at 1, is
divergent.  Cancellation across different words needs relations between
the values Li_u(1) and is out of scope.  The antiderivative tables _J
and _K sum the rows of _P and _A over the pieces of an exponent row
with _combine as well.

_J, _K, _A and _P hold SymFuns, _germ and _iota1_row hold rows, and
_anchor holds limits; the readers of SymFuns take rows with
linear._row_of, and no reader writes to a row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from ..errors import DomainError, NonElementaryConstantError
from ..linear import _combine, _row_of
from ..rewrite import _exponent_row
from ..words import EPSILON, X0, X1, Word, _is_int, composition_of_word, shortlex_key
from .series import EvalParams, _li_values, eval_symfun, harmonic_sum
from .symfun import SymFun, _piece_sums, _reduce_trailing_x0, from_piece, theta

_ONE = (0, 0, EPSILON)  # the key of the constant function 1
# Entries per table.  The ideal workload fills about 100 of each
# antiderivative table and about 220 germs, iota strings of every word up
# to 7 letters about 130, and the test suite at most 642.
_TABLE_SIZE = 1024


@lru_cache(maxsize=_TABLE_SIZE)
def _J(k: int, l: int, w: Word) -> SymFun:
    """An antiderivative of z^k (1-z)^(-l) Li_w against dz/z."""
    return _against_dz(_exponent_row(k - 1, l), w)


@lru_cache(maxsize=_TABLE_SIZE)
def _K(k: int, l: int, w: Word) -> SymFun:
    """An antiderivative of z^k (1-z)^(-l) Li_w against dz/(1-z)."""
    return _against_dz(_exponent_row(k, l + 1), w)


@lru_cache(maxsize=_TABLE_SIZE)
def _A(j: int, w: Word) -> SymFun:
    """An antiderivative of (1-z)^(-j) Li_w against dz, j >= 1."""
    if j == 1:
        return SymFun.from_li(X1 + w)
    out = SymFun.monomial(0, j - 1, w, Fraction(1, j - 1))
    if len(w):
        u = w[1:]
        out -= Fraction(1, j - 1) * (_J(0, j - 1, u) if w[0] == 0 else _A(j, u))
    return out


@lru_cache(maxsize=_TABLE_SIZE)
def _P(i: int, w: Word) -> SymFun:
    """An antiderivative of z^i Li_w against dz, for every integer i."""
    if i == -1:
        return SymFun.from_li(X0 + w)
    out = SymFun.monomial(i + 1, 0, w, Fraction(1, i + 1))
    if len(w):
        u = w[1:]
        out -= Fraction(1, i + 1) * (_P(i, u) if w[0] == 0 else _K(i + 1, 0, u))
    return out


def _against_dz(row: tuple, w: Word) -> SymFun:
    """An antiderivative against dz of the sum of c z^k (1-z)^(-l) Li_w
    over the items ((k, l), c) of an exponent row, each with k*l = 0."""
    return SymFun._from_row(_combine((c, _row_of(_A(l, w) if l else _P(k, w)))
                                     for (k, l), c in row))


def _antiderivative(i: int, f: SymFun) -> SymFun:
    """An antiderivative of f against dz/z (i = 0) or dz/(1-z) (i = 1):
    the sum of c * _J or c * _K over its terms."""
    fn = _J if i == 0 else _K
    num, den = _row_of(f)
    return SymFun._from_row(_combine(((c, _row_of(fn(*key))) for key, c in num.items()), den))


def _li_coeffs(u: Word, p_max: int) -> list:
    """Exact Taylor coefficients of Li_u at 0 up to order p_max: for u the
    word of (s1, *tail), the coefficient of z^p is H_tail(p - 1) / p^s1."""
    s = composition_of_word(u)
    if not s:
        return [Fraction(1)] + [Fraction(0)] * p_max
    return [Fraction(0)] + [harmonic_sum(s[1:], p - 1) / p ** s[0] for p in range(1, p_max + 1)]


@lru_cache(maxsize=_TABLE_SIZE)
def _germ(key: tuple) -> tuple:
    """The germ at 0 of the canonical key (k, l, w): its coefficients of
    z^m log^n(z)/n! for m <= 0, as a row {(n, m): int} over one
    denominator.  The orders m > 0 vanish at 0 and are left out."""
    k, l, w = key
    parts = []
    for (u, n), c in _reduce_trailing_x0(w):
        dep = u.count(1)
        if k + dep <= 0:
            cs = _li_coeffs(u, -k)
            # k <= 0 and k*l = 0: only the constant term of (1-z)^(-l)
            # reaches the orders <= 0
            parts += ((c * cs[p], ({(n, k + p): 1}, 1)) for p in range(dep, -k + 1))
    return _combine(parts)


def _limit_of_germ(germ: tuple, z: int) -> Fraction:
    """The limit at the basepoint z (0, or 1 for a germ in t = 1 - z) of
    the function whose germ is the row germ: its constant term;
    DomainError when a pole or a logarithm survives."""
    num, den = germ
    if any(g != (0, 0) for g in num):
        raise DomainError(f"divergent basepoint limit at z = {z}")
    return Fraction(num.get((0, 0), 0), den)


def limit_at_zero(f: SymFun) -> Fraction:
    """The limit of f at 0 along the disc, exact; DomainError when it
    does not exist (a pole or a logarithm survives)."""
    num, den = _row_of(f)
    return _limit_of_germ(_combine(((c, _germ(key)) for key, c in num.items()), den), 0)


@lru_cache(maxsize=_TABLE_SIZE)
def _iota1_row(key: tuple) -> tuple:
    """iota_1's table row for the canonical key (k, l, w): the
    antiderivative _K(k, l, w) and its germ at 0, as two rows."""
    num, den = anti = _row_of(_K(*key))
    return anti, _combine(((c, _germ(g)) for g, c in num.items()), den)


# One float per convergent word; the numeric workload asks for about 12.
@lru_cache(maxsize=256)
def _zeta_numeric(u: Word) -> float:
    """Li_u(1) for a convergent word (starts x0, ends x1), numerically.

    Splits the iterated integral at z = 1/2: Li_u(1) equals the sum over
    factorizations u = p q of Li_{p~}(1/2) Li_q(1/2), where p~ reverses p
    and swaps the letters.  Every factor converges geometrically, and
    ends in x1, so all of them come from one _li_values call."""
    cuts = [(Word([1 - a for a in reversed(list(u[:cut]))]), u[cut:])
            for cut in range(len(u) + 1)]
    li = _li_values(list({w: None for cut in cuts for w in cut if len(w)}),
                    EvalParams(0.5, eps=1e-15))
    total = 0.0
    for tilde, suf in cuts:
        total += (li[tilde].real if len(tilde) else 1.0) * (li[suf].real if len(suf) else 1.0)
    return total


def limit_at_one(f: SymFun, *, numeric_fallback: bool = False):
    """The limit of f at 1 along the disc.

    Exact (a Fraction) whenever the value is rational; when the finite
    limit involves a polylogarithm constant at 1, raises
    NonElementaryConstantError unless numeric_fallback is set, in which
    case a float is returned.  DomainError when the limit is infinite,
    also when another word carries a non-elementary constant.

    Each word u of the reduced basis is decided alone, by the germ rule
    of limit_at_zero at t = 1 - z (see the module docstring), so poles
    and logarithms that cancel within a word are decided exactly.
    Cancellations across different words are out of scope: they raise
    DomainError.
    """
    sums, den = _piece_sums(_row_of(f))
    parts: dict = {}
    for (_, l, u, n), c in sums.items():
        germ = _germ((-l, 0, Word._raw((1 << n) - 1, n)))  # of t^(-l) Li_{x1^n}(t)
        parts.setdefault(u, []).append((-c if n & 1 else c, germ))
    exact = Fraction(0)
    constants = []
    for u in sorted(parts, key=shortlex_key):
        value = _limit_of_germ(_combine(parts[u], den), 1)
        if not len(u):
            exact = value
        elif value:
            if u[0] == 1:
                raise DomainError("divergent basepoint limit at z = 1")
            constants.append((u, value))
    if not constants:
        return exact
    if not numeric_fallback:
        raise NonElementaryConstantError()
    approx = 0.0
    for u, value in constants:
        approx += value * _zeta_numeric(u)
    return float(exact) + approx


def _piece_index(k: int, u: Word) -> int:
    return k + len(u) if len(u) else k


@lru_cache(maxsize=_TABLE_SIZE)
def _anchor(k: int, l: int, u: Word, n: int):
    """iota_0's basepoint constant of the reduced piece
    z^k (1-z)^(-l) Li_u log^n/n!: the limit of _J's antiderivative of it,
    at 0 when its index is >= 1 and at 1 otherwise.  A Fraction, or a
    float when the limit is a non-elementary constant; DomainError when
    it does not exist."""
    anti = _antiderivative(0, from_piece(k, l, u, n))
    if _piece_index(k, u) >= 1:
        return limit_at_zero(anti)
    return limit_at_one(anti, numeric_fallback=True)


def _section_order(item: tuple) -> tuple:
    """Sort key of a (piece, coeff) item: k, l, then u by length and
    letters, then n."""
    (k, l, u, n), _ = item
    return (k, l, *shortlex_key(u), n)


def iota(i: int, f: SymFun, *, numeric_constants: bool = False):
    """The section iota_i of theta_i: the antiderivative of f against
    dz/z (i = 0) or dz/(1-z) (i = 1) minus its basepoint constants.

    iota_1 is anchored at 0, at the limit of the whole antiderivative.
    iota_0 anchors each reduced piece of f at 0 when its index is >= 1
    and at 1 otherwise.  Returns a SymFun; with numeric_constants=True
    returns (SymFun, float) where the float carries any non-elementary
    basepoint constants (the exact rational part stays in the SymFun).

    Refusals: DomainError when a basepoint limit does not exist (for
    iota_0, that of any piece); otherwise NonElementaryConstantError when
    a non-elementary constant remains and numeric_constants is False.
    """
    if not _is_int(i) or i not in (0, 1):
        raise ValueError("operator index must be 0 or 1")
    num, den = _row_of(f)
    numeric = 0.0
    if i:
        rows = [(c, _iota1_row(key)) for key, c in num.items()]
        antis = [(c, anti) for c, (anti, _) in rows]
        constants = [(_limit_of_germ(_combine(((c, germ) for c, (_, germ) in rows), den), 0),
                      ({_ONE: 1}, 1))]
    else:
        antis = [(c, _row_of(_J(*key))) for key, c in num.items()]
        sums, pden = _piece_sums((num, den))
        floats = []
        constants = []
        for piece, c in sums.items():
            base = _anchor(*piece)
            if isinstance(base, float):
                floats.append((piece, c))
            elif base:
                constants.append((base, ({_ONE: c}, pden)))
        if floats and not numeric_constants:
            raise NonElementaryConstantError()
        for piece, c in sorted(floats, key=_section_order):
            numeric -= c / pden * _anchor(*piece)
    # no key of _J or _K is the constant 1, so the anchor is a new last
    # key, as in anti - base * SymFun.one()
    sym = SymFun._from_row(_combine([*antis, (-den, _combine(constants))], den))
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

    f_n sums Li over x0^m, m = 0..n (the partial exponential of log z),
    and g_n sums (-1)^(m+1) Li over x1^m, m = 1..n, for n = 1..n_max;
    both converge pointwise to the identity function of z, yet the
    iota_0-images converge to z - 1 and to z.  iota_0 and evaluation are
    linear, so each term is imaged and evaluated once, its image one word
    (Li_{x0^(m+1)}, anchored at 1, and Li_{x0 x1^m}, anchored at 0, both
    with constant 0), and the values are the running sums of those
    floats: 2 n_max + 1 images in all.
    """
    if not 0 < z < 1:
        raise DomainError("demo needs a real z strictly between 0 and 1")
    if not _is_int(n_max) or n_max < 1:
        raise ValueError("n_max must be at least 1")
    params = EvalParams(z)

    def running(terms) -> list:
        return list(accumulate(eval_symfun(iota(0, t), params).real for t in terms))

    # the first running sum, of the constant 1 alone, is no f_n
    f_values = running(SymFun.from_li(Word([0] * m)) for m in range(n_max + 1))[1:]
    g_values = running(SymFun.from_li(Word([1] * m)) * (-1) ** (m + 1) for m in range(1, n_max + 1))
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
