"""Exact sums and numeric series evaluation.

harmonic_sum computes the finite multiple harmonic sum
H_s(N) = sum over N >= n1 > ... > nr >= 1 of 1 / (n1^s1 ... nr^sr),
exactly, from aligned blocks: block (a, j) holds the numbers
a 2^j + 1 .. (a + 1) 2^j.  The nested sum over a contiguous
sub-composition t = s[i:k] and the numbers of a range R is an integer
over L_R^|t|, L_R = lcm(R) and |t| the sum of the parts, since each n^t_m
divides L_R^t_m; L_R grows like e^|R|.  A leaf, a block of _LEAF = 16
numbers, runs the step loop, which fills every sub-composition.  Every
range holds its values in one layout, every cell (i, k), i < k, rows in
turn, and two adjacent ranges merge by one rule (_merge): a longer block
merges its two halves, and [1, N], the aligned blocks of the binary
digits of N above the leaf and one partial leaf on top, is merged from
the top down.  That fold reads only row 0 of the part merged so far, the
sums over the prefixes s[:k], so it asks the rule for those r cells of
the C(r + 1, 2) alone; the blocks keep every cell.  Below N = 2 _LEAF
there is no block to share, and the sum is one loop.

Every left half, a block (a, j) with a even, goes to one table, _blocks,
which holds the entry (t, a, j), the numerator over lcm(block)^|t|,
under the block with its lcm.  So calls that share blocks read them
instead of building them: other N with the same high digits (a run of
N, as in the coefficients H_tail(p - 1) of _li_coeffs), other
compositions with the same sub-compositions.  A right half (a odd) is
built, merged into its parent and dropped: the blocks of the binary
digits of N all have a even, as the digits below each are cleared, so
no sum folds a right half, and only its parent, built in the same call,
reads it.  The table is bounded by the bits of its ints,
_TABLE_BITS = 2^23, the least recently used blocks out first, and never
holds an int longer than a 2^-_ENTRY_SHIFT part of that; cache_info()
and cache_clear() read and empty it as they do an lru_cache's.

neg_taylor_coeff gives the N-th Taylor coefficient of the polylogarithm at
nonpositive indices, which is the same nested sum with the powers flipped
above the line.  Both refuse with DomainError, before any power is taken,
a sum whose answer may be longer than _MAX_BITS bits.

Numeric evaluation first reduces every word to words u ending in x1
(powers of log z pick up trailing x0s), then finds Li_u(z) for all of
them at once, by one of two routes:

- the direct series (_series_sum), Li_u(z) = sum z^n / n^s1 * H_tail(n-1),
  which stops at the first n >= depth with |term| < eps * (1 - |z|) whose
  next term is no larger, so a deep word's rising first terms do not stop
  it, and costs O(1 / (1 - |z|)) terms;
- the walk (_walk), which takes the values of every suffix of every word
  at p0 = z / (2|z|) from the direct series, then carries them to z by
  Taylor steps along the differential equations
  d Li_{x0 v} = Li_v dz/z and d Li_{x1 v} = Li_v dz/(1-z).  The path
  (_path) runs along the ray to z with |h| <= min(|p|, |1-p|) / 2, so it
  takes O(log 1 / (1 - |z|)) steps.  Each step fills the scaled Taylor
  terms b_k of all suffixes from a two-term recurrence, and a suffix
  stops when its last two terms are below tau = eps / (4 S W), derived
  in _walk_plan from the step count S and the path's length in the
  metric |dt/t| + |dt/(1-t)|.

One decision: _li_values takes the walk when its predicted term count
(_walk_plan) is below the direct series' (_direct_terms), and the direct
series otherwise; for |z| <= 1/2 the walk has no steps and the direct
series answers, so those values are exactly the direct series'.  Its
first and cheapest stage is a floor on the prediction (_walk_floor),
from the compositions, |z| and eps alone: where the direct count is at
most the floor, it is at most the prediction too, so the direct series
answers without a trie, a path or a plan, as the prediction would have
chosen; every route, float operation and exception stays the same.

One refusal: _li_values refuses a request with ConvergenceError up front
exactly when _cannot_stop proves that the direct series cannot meet its
stop rule within max_terms terms, whichever route would then have
answered it; so a hopeless request costs microseconds, not max_terms
terms.  A walk that raises ConvergenceError, past max_terms terms or on
a first leg that cannot stop, leaves its words to the direct series,
which answers or refuses them as it always did.

A factor z^a0, (1-z)^-a1 or log(z)^n / n!, a coefficient of a term or
of a reduced row, or a sum, that lies outside the float range is refused
with DomainError (_eval_terms, _log_power).
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict, namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from operator import add, mul
from threading import Lock
from typing import Iterable, Sequence

from ..errors import ConvergenceError, DomainError
from ..star_series import StarSeries, term_sort_key
from ..words import Word, _is_int, _new, composition_of_word
from .symfun import SymFun, _reduce_trailing_x0


class EvalParams:
    """Where and how precisely to sum a series.

    z must satisfy |z| < 1 and stay off the strictly negative real axis
    (z = 0 is allowed; every series here is 0 or its constant term there).
    Immutable; two are equal when z, eps and max_terms are.
    """

    __slots__ = ("z", "eps", "max_terms")

    def __init__(self, z: complex, eps: float = 1e-12, max_terms: int = 10_000_000):
        z = complex(z)
        if not cmath.isfinite(z):
            raise DomainError("evaluation point must be finite")
        if abs(z) >= 1:
            raise DomainError("evaluation needs |z| < 1")
        if z.imag == 0 and z.real < 0:
            raise DomainError("evaluation point must avoid the negative real axis")
        if isinstance(eps, bool) or not 0 < eps < math.inf:
            raise DomainError("eps must be positive and finite")
        if not _is_int(max_terms) or max_terms < 1:
            raise DomainError(f"max_terms must be an integer >= 1, got {max_terms!r}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "max_terms", max_terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"EvalParams is immutable: cannot set {name!r}")

    def _key(self) -> tuple:
        return (self.z, self.eps, self.max_terms)

    def __eq__(self, other):
        if not isinstance(other, EvalParams):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"EvalParams(z={self.z!r}, eps={self.eps!r}, max_terms={self.max_terms!r})"

    def __reduce__(self):
        return (EvalParams, self._key())


def _check_composition(s: Sequence[int], minimum: int) -> tuple:
    s = tuple(s)
    for part in s:
        if not _is_int(part) or part < minimum:
            raise DomainError(
                f"composition parts must be integers >= {minimum}, got {part!r}"
            )
    return s


def _check_taylor_index(n) -> None:
    if not _is_int(n) or n < 1:
        raise ValueError(f"Taylor coefficients are indexed by integers n >= 1, got {n!r}")


# An exact sum whose answer may be longer than this many bits is refused
# with DomainError before any power is taken (_check_bits).
_MAX_BITS = 1 << 20


def _check_bits(bits: int) -> None:
    """Refuse an exact sum when bits, a bound on its answer's bit length,
    passes _MAX_BITS."""
    if bits > _MAX_BITS:
        raise DomainError(f"the exact answer may need {bits} bits, more than {_MAX_BITS}")


# Aligned blocks: block (a, j) holds the numbers a 2^j + 1 .. (a + 1) 2^j.
# A leaf is a block of _LEAF = 2^_LEAF_BITS numbers.
_LEAF_BITS = 4
_LEAF = 1 << _LEAF_BITS
# The block table holds at most _TABLE_BITS bits of ints, and never an int
# longer than a 2^-_ENTRY_SHIFT part of its budget.
_TABLE_BITS = 1 << 23
_ENTRY_SHIFT = 4

_BlockInfo = namedtuple("_BlockInfo", "hits misses maxsize currsize entries")


class _BlockTable:
    """The entries of the left halves, the aligned blocks (a, j) with a
    even, that harmonic_sum has built, the least recently used blocks out
    first once they hold more than budget bits.

    The entry (t, a, j), the numerator of block (a, j)'s nested sum over
    the composition t, an int over lcm(block)^|t|, is held under the
    block, as [lcm, {t: numerator}, bits held]: one block is read and
    dropped at once.  An int longer than budget >> _ENTRY_SHIFT bits is
    never stored.  cache_info() reads as an lru_cache's: hits and misses
    count the block reads that found all their entries and those that did
    not, currsize and maxsize count bits, and entries counts the ints
    held.  A lock makes each read and store one step for concurrent
    callers.

    The budget counts the ints' payload, their bits, and not the objects
    around them: int headers, the dicts and the OrderedDict.  A table of
    small entries takes several times its reading; every composition of
    weight <= 12 at N = 40 holds 355 KiB of bits in 8,192 ints, and
    cache_clear() then frees 908 KiB traced by tracemalloc (2.6 times).
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._held: OrderedDict = OrderedDict()
        self._bits = self._hits = self._misses = 0
        self._lock = Lock()

    def read(self, a: int, j: int, subs: list):
        """(lcm, [entry (t, a, j) for t in subs]), the block marked as
        used, or None when one of them is missing."""
        with self._lock:
            block = self._held.get((a, j))
            if block is not None:
                entries = block[1]
                try:
                    values = [entries[t] for t in subs]
                except KeyError:
                    pass
                else:
                    self._hits += 1
                    self._held.move_to_end((a, j))
                    return block[0], values
            self._misses += 1
            return None

    def store(self, a: int, j: int, lcm: int, subs: list, values: list) -> None:
        """Hold the lcm and the entries (t, a, j) not held yet, then drop
        the least recently used blocks until at most budget bits are
        held."""
        held, budget = self._held, self.budget
        cap = budget >> _ENTRY_SHIFT
        with self._lock:
            block = held.get((a, j))
            if block is None:
                if lcm.bit_length() > cap:
                    return
                block = held[a, j] = [lcm, {}, lcm.bit_length()]
                self._bits += block[2]
            else:
                held.move_to_end((a, j))
            entries, added = block[1], 0
            for t, value in zip(subs, values):
                bits = value.bit_length()
                if bits <= cap and t not in entries:
                    entries[t] = value
                    added += bits
            block[2] += added
            self._bits += added
            while self._bits > budget:
                self._bits -= held.popitem(last=False)[1][2]

    def cache_info(self) -> _BlockInfo:
        with self._lock:
            ints = sum(1 + len(entries) for _, entries, _ in self._held.values())
            return _BlockInfo(self._hits, self._misses, self.budget, self._bits, ints)

    def cache_clear(self) -> None:
        with self._lock:
            self._held.clear()
            self._bits = self._hits = self._misses = 0


_blocks = _BlockTable(_TABLE_BITS)


def _leaf(s: tuple, first: int, last: int) -> tuple:
    """(L, values) of the numbers first..last: L = lcm(first..last), and
    in cell (i, k), i < k, rows in turn, the numerator over
    L^(s_i + ... + s_{k-1}) of the nested sum over s[i:k].

    h[i] = H_{s_i..s_{r-1}} obeys h[i] += h[i+1] / n^s_i at each n, rows
    ascending; over L^w that adds (L/n)^s_i to u[i][i+1] and
    (L/n)^s_i u[i+1][k] to u[i][k] above it, so no step divides.
    """
    r = len(s)
    lcm = math.lcm(*range(first, last + 1))
    if r == 1:  # one cell, one sum
        return lcm, [sum([(lcm // n) ** s[0] for n in range(first, last + 1)])]
    u = [[0] * (r + 1) for _ in range(r + 1)]
    # rows ascending: row i reads row i + 1 before it changes
    plan = [(t, i + 1, u[i], u[i + 1], range(i + 2, r + 1)) for i, t in enumerate(s)]
    for n in range(first, last + 1):
        q = lcm // n
        for t, diagonal, row, below, above in plan:
            c = q**t
            row[diagonal] += c
            for k in above:
                row[k] += c * below[k]
    return lcm, [v for i, row in enumerate(u[:-1]) for v in row[i + 1:]]


@lru_cache(maxsize=256)
def _plan(s: tuple) -> tuple:
    """The sub-compositions s[i:k] of the cells (i, k), i < k, rows in
    turn, which key the table, and the merge rule of s (see _merge): the
    weights w = s_i + ... + s_{k-1} of the cells, their set, and per cell
    its place and the places of the pairs (i, m), (m, k), i < m < k."""
    r = len(s)
    cells = [(i, k) for i in range(r) for k in range(i + 1, r + 1)]
    at = {cell: p for p, cell in enumerate(cells)}
    ends = [0, *accumulate(s)]
    weights = [ends[k] - ends[i] for i, k in cells]
    sums = [(at[i, k], [(at[i, m], at[m, k]) for m in range(i + 1, k)]) for i, k in cells]
    return [s[i:k] for i, k in cells], (weights, set(weights), sums)


def _merge(hi: tuple, lo: tuple, rule: tuple, cells: int | None = None) -> tuple:
    """(L, values) of two adjacent ranges (L, values), hi above lo, by the
    merge rule of their composition (_plan): every cell, or with cells
    given only that many, the first in the layout.  A cell (i, k) reads
    hi's cells (i, m), m < k, which come before it in the layout, so hi
    may hold only as many cells as are asked for.

    With lcms L_h and L_l, g = gcd(L_h, L_l), L = L_h x_h = L_l x_l for
    x_h = L_l / g and x_l = L_h / g; and since a nested sum over s[i:k]
    splits at each m, i <= m <= k, into the part above (hi, s[i:m]) and
    the part below (lo, s[m:k]),
    u[i][k] = A[i][k] + B[i][k] + sum over i < m < k of A[i][m] B[m][k]
    with A = hi's values times x_h^w and B = lo's times x_l^w.
    """
    (lh, uh), (ll, ul) = hi, lo
    weights, exps, sums = rule
    sums = sums[:cells]
    g = math.gcd(lh, ll)
    xh, xl = ll // g, lh // g
    powers = {e: xh**e for e in exps}
    a = [v * powers[e] for v, e in zip(uh, weights[:len(sums)])]
    powers = {e: xl**e for e in exps}
    b = [v * powers[e] for v, e in zip(ul, weights)]
    out = []
    for p, pairs in sums:
        acc = a[p] + b[p]
        for x, y in pairs:
            acc += a[x] * b[y]
        out.append(acc)
    return lh * xh, out


def _block(s: tuple, subs: list, rule: tuple, a: int, j: int) -> tuple:
    """(L, values) of block (a, j), every cell, a leaf by its loop and a
    longer block by merging its halves.  A left half (a even) is read
    from the table where it holds it, else built and stored; a right half
    (a odd) is only built.  _aligned yields only even a, so the left
    halves are the blocks a sum can fold, and a right half is read only
    by its parent, built in the same call."""
    held = not a & 1
    found = _blocks.read(a, j, subs) if held else None
    if found is None:
        if j == _LEAF_BITS:
            found = _leaf(s, (a << j) + 1, (a + 1) << j)
        else:
            lo = _block(s, subs, rule, 2 * a, j - 1)
            found = _merge(_block(s, subs, rule, 2 * a + 1, j - 1), lo, rule)
        if held:
            _blocks.store(a, j, found[0], subs, found[1])
    return found


def _aligned(leaves: int) -> list:
    """The aligned blocks (a, j) that make up the numbers
    1..leaves * _LEAF, the highest first: one per binary digit of leaves,
    the last of them (a = 0) from 1."""
    blocks = []
    for bit in range(leaves.bit_length()):
        if leaves >> bit & 1:
            leaves ^= 1 << bit
            blocks.append((leaves >> bit, bit + _LEAF_BITS))
    return blocks


def harmonic_sum(s: Iterable[int], n_max: int) -> Fraction:
    """H_s(n_max), exact.  The empty composition gives 1.

    The nested sum over s[i:k] of a range R of numbers, the sum over
    n_i > ... > n_{k-1} in R of prod_m n_m^-s_m, is an integer over L_R^w
    with L_R = lcm(R) and w = s_i + ... + s_{k-1}, as each n_m^s_m
    divides L_R^s_m.  [1, n_max] is the partial leaf above the last
    multiple of _LEAF and the aligned blocks of that multiple's binary
    digits (_aligned, _block).  They merge from the top down (_merge),
    each merge computing only the cells (0, k) that the next one reads,
    and H_s(n_max) is U / lcm(1..n_max)^|s|, U the cell (0, r) and
    |s| = s_1 + ... + s_r.  Below two leaves there is no block to share,
    and one loop (_leaf) sums [1, n_max].

    Since log2 lcm(1..N) < 1.5 N, the answer has fewer than about
    1.5 |s| n_max bits; past _MAX_BITS the sum is refused with DomainError.
    """
    s = _check_composition(s, 1)
    if not _is_int(n_max) or n_max < 0:
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max!r}")
    r = len(s)
    if r == 0:
        return Fraction(1)
    if n_max < r:
        return Fraction(0)
    weight = sum(s)
    _check_bits(3 * weight * n_max // 2)
    if n_max < 2 * _LEAF:
        lcm, values = _leaf(s, 1, n_max)
        return Fraction(values[r - 1], lcm**weight)
    subs, rule = _plan(s)
    top = None  # the numbers above the blocks merged so far
    if n_max % _LEAF:
        top = _leaf(s, n_max - n_max % _LEAF + 1, n_max)
    for a, j in _aligned(n_max >> _LEAF_BITS):
        block = _block(s, subs, rule, a, j)
        top = block if top is None else _merge(top, block, rule, r)
    lcm, values = top
    return Fraction(values[r - 1], lcm**weight)


def neg_taylor_coeff(s: Iterable[int], n: int) -> int:
    """N-th Taylor coefficient of the nonpositive-index polylogarithm:
    sum over n = n1 > n2 > ... > nr >= 1 of n1^s1 ... nr^sr, an integer.

    It is at most n^(r-1) n^|s|, so it has at most (|s| + r - 1) times the
    bit length of n bits; past _MAX_BITS it is refused with DomainError.

    The inner sums are polynomials in m, kept as coefficients a_k in the
    basis C(m, k), from the innermost out: starting from 1, each part t
    multiplies by m t times, by m C(m, k) = (k+1) C(m, k+1) + k C(m, k),
    and then sums over 1 <= x < m, by
    sum_{1 <= x < m} C(x, k) = C(m, k+1) - [k = 0].  So the coefficient
    takes O((|s| + r)^2) integer operations, whatever n."""
    s = _check_composition(s, 0)
    _check_taylor_index(n)
    if not s:
        return 0
    _check_bits((sum(s) + len(s) - 1) * n.bit_length())
    a = [1]
    for t in reversed(s[1:]):
        for _ in range(t):
            a = [k * (low + high) for k, (low, high) in enumerate(zip([0, *a], [*a, 0]))]
        a = [-a[0], *a]
    return n ** s[0] * sum(c * math.comb(n, k) for k, c in enumerate(a))


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind, from S2(m, j) =
    j S2(m-1, j) + S2(m-1, j-1) one row m at a time."""
    if not _is_int(n) or not _is_int(k) or n < 0 or k < 0:
        raise ValueError("stirling2 needs nonnegative arguments")
    if k > n:
        return 0
    row = [1] + [0] * k  # S2(0, j)
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


# Terms are added in blocks of this many; block sums go to math.fsum.
_BLOCK = 256
# Below exp(_LOG_TINY) ~ 1e-304 floats near the subnormal range and lose
# relative precision, so the up-front bound is trusted only above it.
_LOG_TINY = -700.0


def _cannot_stop(s: tuple, z: complex, cutoff: float, max_terms: int) -> bool:
    """True when no n <= max_terms can meet the stop rule of _series_sum,
    whose first two tests are n >= depth and |term_n| < cutoff; its
    next-term test only makes the rule stricter.

    For n >= depth, h[0] = H_tail(n-1) >= H_tail(r) = prod_j (r-j)^-t_j,
    r = len(tail), as h[0] never decreases; so
    |term_n| >= |z|^n n^-s1 H_tail(r), which decreases in n.  If that bound
    at n = max_terms still reaches cutoff, with room for the rounding of
    max_terms float steps, the loop cannot stop.  Every False is safe: the
    loop then decides.
    """
    depth = len(s)
    if cutoff == 0.0 or max_terms < depth:
        return True
    radius = abs(z)
    if z == 0 or max_terms * (1.0 - radius) > -math.log(cutoff):
        # |z|^max_terms <= exp(-max_terms (1 - |z|)) < cutoff: cannot fire
        return False
    tail = s[1:]
    log_bound = (max_terms * math.log(radius) - s[0] * math.log(max_terms)
                 - sum(t * math.log(len(tail) - j) for j, t in enumerate(tail)))
    log_cutoff = math.log(cutoff)
    # The computed |term_n| may sit a few roundoffs (2^-53) per term summed
    # below its exact value, and each log a few roundoffs of its size;
    # allow 128 of each.
    margin = 128 * 2.0**-53 * (max_terms + depth + 8 - log_bound + abs(log_cutoff))
    return log_bound - margin >= max(log_cutoff, _LOG_TINY)


def _refuse_hopeless(comps: list, z, cutoff: float, max_terms: int) -> None:
    """Raise ConvergenceError when _cannot_stop proves it for a composition."""
    for s in comps:
        if _cannot_stop(s, z, cutoff, max_terms):
            raise _no_convergence(max_terms, cutoff)


def _series_sum(s: tuple, z, cutoff: float, n_max: int):
    """Sum the direct series of Li_u, u the word of the composition s, at
    z in the number type of z: float for a real point (see _li_values),
    else complex.  The direct route of _li_values, and the first leg of
    the walk.

    Stop rule: stop after the first term n >= depth with |term_n| < cutoff,
    cutoff = eps * (1 - |z|), and |term_{n+1}| <= |term_n|, the next term
    read off h[0] = H_tail(n) after this step's row update.  For depth 1
    the terms |z|^n / n^s1 shrink at least geometrically, so the next-term
    test always holds and the tail left behind is below eps.  A deeper
    word's first term carries h[0] = H_tail(depth - 1), as small as
    1/(depth - 1)! for x1^depth, and its terms grow while h[0] grows
    faster than |z|^n shrinks: the next-term test keeps the sum going
    past that peak.  Past it h[0] grows slowly and the rule is a heuristic.

    Refusal: ConvergenceError is raised when n_max terms do not meet the
    rule.  _cannot_stop proves this up front from the lower bound
    |term_n| >= |z|^n n^-s1 H_tail(len(tail)), and _li_values applies it to
    every word before it picks a route (_refuse_hopeless).  At depth 1
    h[0] = 1, the bound is the term itself, and a hopeless request is
    refused up front unless it lies within rounding of the boundary or
    below exp(_LOG_TINY).  Deeper words grow h[0], so there the bound is
    conservative, and this loop refuses some hopeless requests only after
    n_max terms.  Both raise the same message.

    Summation: terms are added in blocks of _BLOCK, and the block sums'
    real and imaginary parts are added with math.fsum, so rounding grows
    with the block length, not the term count.  Up to _BLOCK terms the
    result equals plain left-to-right addition bitwise.

    Overflow: once a power n^t of the composition is past the float range,
    so is every later one, and what it still divides adds up to below
    2^-1000 times the largest h.  A row h[j] then stays put, and the rows
    above it no longer matter; when n^s1 overflows, the sum stops there.
    """
    number = type(z)
    s1 = s[0]
    tail = s[1:]
    h = [number(0)] * len(tail) + [number(1)]
    zn = number(1)
    depth = len(s)
    rows = range(len(tail))
    blocks = []
    try:
        for start in range(1, n_max + 1, _BLOCK):
            block = number(0)
            for n in range(start, min(start + _BLOCK, n_max + 1)):
                zn *= z
                term = zn / n**s1 * h[0]
                block += term
                for j in rows:
                    try:
                        h[j] += h[j + 1] / n ** tail[j]
                    except OverflowError:  # h[j] stays put from here on
                        rows = range(j)
                        break
                if (n >= depth and abs(term) < cutoff
                        and abs(zn * z / (n + 1)**s1 * h[0]) <= abs(term)):
                    blocks.append(block)
                    return _fsum(blocks, number)
            blocks.append(block)
    except OverflowError:  # of n**s1; caught out here so that terms cost no more
        blocks.append(block)
        return _fsum(blocks, number)
    raise _no_convergence(n_max, cutoff)


def _fsum(blocks: list, number: type):
    """math.fsum of the block sums' real parts and, for complex blocks, of
    their imaginary parts."""
    real = math.fsum(b.real for b in blocks)
    return real if number is float else complex(real, math.fsum(b.imag for b in blocks))


def _no_convergence(n_max: int, cutoff: float) -> ConvergenceError:
    return ConvergenceError(
        f"no convergence at tolerance: {n_max} terms leave |term| above "
        f"eps*(1-|z|) = {cutoff:.3g}"
    )


# Tolerances of the walk are clamped here, the smallest normal float, so
# that its first leg keeps a positive cutoff.
_TINY = 2.0**-1022


def _path(z: complex) -> tuple:
    """The walk's points p_0 = z / (2|z|), p_1, ..., p_S = z and L.

    Each step heads for z with |h| <= min(|p|, |1-p|) / 2, half the radius
    of convergence of the Taylor series at p, so the terms shrink at least
    as 2^-k.  L bounds the integral of |dt/t| + |dt/(1-t)| along the path:
    after arc length s on a step from p, |t| >= |p| - s and
    |1-t| >= |1-p| - s, so the step adds at most
    log(|p| / (|p| - |h|)) + log(|1-p| / (|1-p| - |h|)).
    Consecutive points differ by less than a factor 2 in each component,
    so q - p is exact and every step lands on the float q.
    """
    p = z * (0.5 / abs(z))
    if z.imag and not p.imag:  # a subnormal imaginary part halved to 0
        p = complex(p.real, z.imag)
    points, length = [p], 0.0
    while p != z:
        gap = z - p
        room = 0.5 * min(abs(p), abs(1 - p))
        q = z if abs(gap) <= room else p + gap * (room / abs(gap))
        h = abs(q - p)
        length += math.log(abs(p) / (abs(p) - h)) + math.log(abs(1 - p) / (abs(1 - p) - h))
        points.append(q)
        p = q
    return points, length


def _suffix_trie(words: list) -> list:
    """Every distinct nonempty suffix of the words, shorter first and then
    by letter bits, which is the order of their int values; the child of a
    node u is u[1:], whose int value is u >> 1."""
    return [_new(Word, u) for u in sorted({u >> i for u in words for i in range(len(u))})]


def _walk_plan(nodes: list, z: complex, eps: float) -> tuple:
    """(points, eps0, tau, predicted terms) of the walk to z.

    Error budget, from which tau follows.  An error e in the value of a
    node v, made anywhere on the path, reaches a node u = a_1 ... a_m v at
    z as e times an iterated integral of m of the forms dt/t, dt/(1-t)
    over the rest of the path, whose modulus is at most L^m / m!.  Let
    W = sum_{m <= d} L^m / m!, d the longest word; S and L come from _path
    before the first step.  Summed over the suffixes of a word:
    - the first leg sums each node's direct series at p_0 to
      eps0 = eps / (4 W) (a bound at depth 1, the stop rule's heuristic
      deeper), which carries at most eps / 4 to z;
    - past its child's terms a node's terms shrink by at least half each,
      so once its last term is below tau the terms left sum to less than
      tau; with tau = eps0 / S = eps / (4 S W), the S steps carry at most
      eps / 4 to z.
    Half of eps is left for rounding.

    Predicted terms: the first leg takes about log2(1 / eps0) terms per
    node and per letter x1, and a step of ratio rho = |h| / min(|p|, |1-p|)
    about log(tau) / log(rho) terms (its size) per node and per letter's
    factors.
    """
    points, length = _path(z)
    steps = len(points) - 1
    weight, term = 1.0, 1.0
    for m in range(1, len(nodes[-1]) + 1):
        term *= length / m
        weight += term
    eps0 = max(eps / (4 * weight), _TINY)
    tau = max(eps0 / steps, _TINY)
    sizes = [max(2.0, math.log(tau) / math.log(abs(q - p) / min(abs(p), abs(1 - p))))
             for p, q in zip(points, points[1:])]
    first = math.log2(1 / eps0) + 1
    letters = len({u & 1 for u in nodes})
    predicted = (sum(first * u.count(1) for u in nodes)
                 + (len(nodes) + letters) * sum(sizes))
    return points, eps0, tau, predicted


def _walk_floor(comps: list, radius: float, eps: float) -> float:
    """A floor on _walk_plan's predicted count, from the compositions, |z|
    and eps alone: no trie, no path.

    With e = max(eps / 4, _TINY), eps0 <= e and tau <= e.  The trie holds
    every suffix of each word u, and the suffixes hold sum(accumulate(s))
    letters x1 (the x1 at place k of u lies in k of them), so the first
    leg takes at least log2(1 / e) terms per one of them.  The first step
    leaves p_0 (|p_0| = 1/2 <= |1 - p_0|) with ratio rho = min(1/2, 2|z| - 1),
    so it takes at least log(e) / log(rho) terms per node and per letter's
    factors, of which there are at least |u| + 1.  Rounding margin: the
    prediction's first leg counts one term more per letter x1, at least one
    in all, and rho is taken 2^-40 lower (and at least _TINY), below the
    rounding of the path's first step.  For eps >= 4 the floor is not
    positive, so it is below every direct count and settles nothing.
    """
    tol = max(eps / 4, _TINY)
    first = math.log2(1 / tol)
    rho = max(min(0.5, 2 * radius - 1) - 2.0**-40, _TINY)
    step = math.log(tol) / math.log(rho)
    return max(first * sum(accumulate(s)) + step * (sum(s) + 1) for s in comps)


def _walk(nodes: list, points: list, eps0: float, tau: float, p: EvalParams) -> dict:
    """Li of every trie node at p.z, by Taylor steps along the path.

    With g_u(s) = Li_u(p + s h) = sum_k b_k s^k on a step from p, the
    equations d Li_{x0 v} = Li_v dz/z and d Li_{x1 v} = Li_v dz/(1-z) give
    (p + s h) g_u' = h g_v and (1 - p - s h) g_u' = h g_v, so
        x0: b_{k+1} = h (b_v,k - k b_k) / (p (k+1)),
        x1: b_{k+1} = h (b_v,k + k b_k) / ((1-p) (k+1)),
    from b_0 = Li_u(p), v the node's child; the empty word has
    b = (1, 0, 0, ...).  With c = h/p (x0) or h/(1-p) (x1), a step keeps
    per letter the factors c/(k+1) and -+ c k/(k+1) for all nodes, grown as
    far as the nodes ask; each is the same float whenever it is computed.

    A node takes at least as many terms as its child.  Past them its terms
    shrink by at least half each, and it stops when its last two terms are
    below tau (see _walk_plan); the next value is their sum, smallest
    first.  The first leg is the direct series (_series_sum) at p_0, which
    raises ConvergenceError when it cannot stop; the Taylor terms of all
    steps count against p.max_terms, and past it ConvergenceError is
    raised.

    The walk computes in the number type of its points, float on the real
    axis and complex elsewhere.  Each value is the sum of its terms from
    the last, added left to right on every Python version (sum() of floats
    is compensated from 3.12 on, and of complex numbers is not).
    """
    start = points[0]
    cutoff = eps0 * (1.0 - abs(start))
    values = [_series_sum(composition_of_word(u), start, cutoff, p.max_terms) for u in nodes]
    index = {int(u): i for i, u in enumerate(nodes)}  # u >> 1 is a plain int
    children = [index.get(u >> 1) for u in nodes]
    letters = [u & 1 for u in nodes]
    budget = p.max_terms
    for a, q in zip(points, points[1:]):
        h = q - a
        rates = (h / a, h / (1 - a))
        factors = ([], []), ([], [])
        taylor = []
        for value, child, letter in zip(values, children, letters):
            c = rates[letter]
            cks, oks = factors[letter]
            child_terms = [1.0] if child is None else taylor[child]
            k = len(child_terms)
            if len(oks) <= k:
                _grow(cks, oks, c, letter, k + 8)
            b = [value]
            bk = value
            for bc, ck, ok in zip(child_terms, cks, oks):
                bk = ck * bc + ok * bk
                b.append(bk)
            while abs(bk) >= tau:
                if k + 1 == len(oks):
                    _grow(cks, oks, c, letter, k + 8)
                bk = oks[k] * bk
                b.append(bk)
                k += 1
            b.append(oks[k] * bk)  # so the last two terms are below tau
            budget -= k + 1
            if budget < 0:
                raise _no_convergence(p.max_terms, p.eps * (1.0 - abs(p.z)))
            taylor.append(b)
        values = [reduce(add, reversed(b), 0) for b in taylor]
    return dict(zip(nodes, values))


def _grow(cks: list, oks: list, c: complex, letter: int, n: int) -> None:
    """Extend a step's factors c/(k+1) and (c if x1 else -c) k/(k+1) to n."""
    own = c if letter else -c
    for k in range(len(cks), n):
        cks.append(c / (k + 1))
        oks.append(own * (k / (k + 1)))


def _direct_terms(s1: int, radius: float, cutoff: float) -> float:
    """About the n at which |z|^n / n^s1 falls to cutoff: n = e^x with
    a e^x + s1 x = b, a = -log|z|, b = -log(cutoff), by Newton's method,
    which the convex left side keeps from overshooting after one step."""
    a, b = -math.log(radius), -math.log(cutoff)
    if b <= 0:  # the first term is below cutoff already
        return 1.0
    x = math.log(b / a)
    for _ in range(4):
        ex = a * math.exp(x)
        x -= (ex + s1 * x - b) / (ex + s1)
    return max(1.0, math.exp(x))


def _li_values(words: list, p: EvalParams) -> dict:
    """{u: Li_u(p.z)} for distinct words u ending in x1.

    One refusal: a word that _cannot_stop refuses is refused here, before
    any summing, whichever route would answer.

    One decision: all the words take one walk when its predicted term
    count (_walk_plan) is below the direct series', which sums about
    _direct_terms terms per word, each updating one row per letter x1;
    otherwise each word takes the direct series.  For |z| <= 1/2 the walk
    has no steps and the direct series answers.  The floor (_walk_floor)
    comes first: where the direct count is at most the floor, which is at
    most the predicted count, the prediction would pick the direct series
    too, so it answers with no trie and no plan built; this cannot change
    a route.  A walk that raises
    ConvergenceError leaves the words to the direct series, so the walk
    only ever turns a refusal into an answer.

    A real point is summed in floats, and its values come back as complex
    numbers with imaginary part +0.0.  Complex products, quotients, sums
    and moduli whose imaginary parts are zero round exactly like the float
    ones, so the real parts are those of the complex sums bitwise; and
    every caller adds the values to a sum that starts at +0j, where the
    sign of a zero imaginary part is lost.
    """
    radius = abs(p.z)
    cutoff = p.eps * (1.0 - radius)
    comps = [composition_of_word(u) for u in words]
    _refuse_hopeless(comps, p.z, cutoff, p.max_terms)
    z = p.z.real if p.z.imag == 0 else p.z
    if radius > 0.5 and comps:
        per_s1 = {s1: _direct_terms(s1, radius, cutoff) for s1 in {s[0] for s in comps}}
        direct = sum(len(s) * per_s1[s[0]] for s in comps)
        if direct > _walk_floor(comps, radius, p.eps):
            nodes = _suffix_trie(words)
            points, eps0, tau, walk = _walk_plan(nodes, z, p.eps)
            if walk < direct:
                try:
                    values = _walk(nodes, points, eps0, tau, p)
                except ConvergenceError:  # the direct series decides
                    pass
                else:
                    return {u: complex(values[u]) for u in words}
    return {u: complex(_series_sum(s, z, cutoff, p.max_terms)) for u, s in zip(words, comps)}


def _reduced(w: Word, p: EvalParams, words: dict) -> tuple:
    """Li_w as its reduced row, pieces ((u, n), c) meaning
    c Li_u log^n(z) / n! with c an int and u empty or ending in x1.  Adds
    each nonempty u to words, and raises at once on the logarithm's pole
    at z = 0."""
    row = _reduce_trailing_x0(w)
    for (u, n), _ in row:
        if len(u):
            words[u] = None
        if n and p.z == 0:
            raise DomainError("logarithm pole at z = 0")
    return row


def _sum_pieces(pieces: tuple, li: dict, z: complex) -> complex:
    """The float sum of the pieces ((u, n), c) of _reduced, Li_u read off
    li.  float(c) rounds once and raises OverflowError outside the float
    range."""
    total = 0j
    for (u, n), c in pieces:
        val = li[u] if len(u) else 1.0 + 0j
        if n:
            val *= _log_power(z, n)
        total += float(c) * val
    return total


def _log_power(z: complex, n: int) -> complex:
    """log(z)^n / n!.  Past n = 100 a complex power goes through polar form,
    which gives a real log(z)^n an imaginary part; so at a real z > 0 (the
    only real z that reaches here with n > 0) it is then the float power.
    Where log(z)^n or n! overflows, it is the running product of
    log(z) / k over k = 1..n instead, which rounds to 0 where the value is
    below the float range; where that product passes the float range, the
    value is refused with DomainError."""
    try:
        if n > 100 and not z.imag:
            return complex(math.log(z.real) ** n / math.factorial(n))
        return cmath.log(z) ** n / math.factorial(n)
    except OverflowError:
        value = reduce(mul, [cmath.log(z) / k for k in range(1, n + 1)], 1.0 + 0j)
    if not cmath.isfinite(value):
        raise DomainError(f"log(z)^{n} / {n}! lies outside the float range")
    return value


def eval_li_word(w: Word, p: EvalParams) -> complex:
    """Li_w(z) numerically, via the reduction to words without trailing x0
    (powers of log pick up the removed letters): the one-term case of
    _eval_terms, with the same floats, since the sum of the pieces holds
    no negative zero."""
    return _eval_terms((((w, 0, 0), 1),), p)


def _eval_terms(terms: Iterable, p: EvalParams) -> complex:
    """Sum c * Li_w(z) * z^a0 * (1-z)^(-a1) over pairs ((w, a0, a1), c),
    in term order, with every Li_u from one call of _li_values.  A factor
    z^a0 or (1-z)^-a1, an exponent, a coefficient c or one of a reduced
    row, or a sum outside the float range is refused with DomainError."""
    z = p.z
    words: dict = {}
    todo = []
    for (w, a0, a1), c in sorted(terms, key=lambda tc: term_sort_key(tc[0])):
        if z == 0 and a0 < 0:
            raise DomainError("pole at z = 0")
        todo.append((a0, a1, c, _reduced(w, p, words) if len(w) else None))
    li = _li_values(list(words), p)
    total = 0j
    for a0, a1, c, pieces in todo:
        val = 1.0 + 0j
        try:
            if a0:
                val *= z ** float(a0) if z != 0 else 0j
            if a1:
                val *= (1.0 - z) ** (-float(a1))
            coeff = float(c)
            if pieces is not None:
                val *= _sum_pieces(pieces, li, z)
        except OverflowError:
            raise DomainError("a factor z^a0 or (1-z)^-a1 or a coefficient "
                              "lies outside the float range") from None
        total += coeff * val
    if not cmath.isfinite(total):  # a sum of finite terms past the float range
        raise DomainError("the sum lies outside the float range")
    return total


def eval_symfun(f: SymFun, p: EvalParams) -> complex:
    """Evaluate a symbolic function at p.z."""
    return _eval_terms((((w, k, l), c) for (k, l, w), c in f.terms.items()), p)


def eval_li2(s: StarSeries, p: EvalParams) -> complex:
    """Evaluate the extended polylogarithm of a star series:
    (w, a0, a1) maps to Li_w(z) * z^a0 * (1-z)^(-a1)."""
    return _eval_terms(s.terms.items(), p)
