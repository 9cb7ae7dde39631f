"""Exact arithmetic in the free algebra over {x0, x1} and its stuffle cousin.

NCPoly is a noncommutative polynomial: a finite Word -> Fraction map with
concatenation as ``*``, whose rows key each word by its sentinel int.
The shuffle product, unshuffle coproduct, left and right residuals, the
exchangeability test and the X/Y projections live here as module
functions.  YPoly is the analogue over the indexed alphabet
{y_k : k >= 1}, whose words are tuples of positive integers, with the
quasi-shuffle (stuffle) product.

A Word is its sentinel key, the int ``bits | 1 << n`` (bit i is letter
i, and the top bit keeps x0-padded words apart), so the kernels take
Words as ints and return plain-int keys.  An NCPoly's rows hold those
keys as they are, so a product hands them on between operations, and
its .terms makes them Words (linear's _key_type) on first read, with no
decoding; only the cached _shuffle_words, read by the star and SymFun
rules whose keys are Words, makes one int.__new__(Word, key) call per
key.  _shuffle_row, the package's one shuffle kernel, reads the lengths
from bit_length and is a dynamic programme over prefix lengths: cell
(i, j) of its table holds u[:i] sh v[:j], filled from (i - 1, j) by
appending u[i-1] and from (i, j - 1) by appending v[j-1], in that order.  Appending a letter
at position i + j - 1 ors in one bit, and appending x0 copies the key
unchanged.  Every seed of the table already carries the sentinel bit
1 << (a + b) of the result's length, so its keys come out as sentinel
keys and need no second pass.  It returns its last row, u sh v[:j] for
j = 0..b: the product u sh v is the last cell (_shuffle_bits), and the
cells j < b carry the full length's sentinel, so a reader of a shorter
product moves that bit from a + b to a + j (symfun._reduce_trailing_x0
reads every u sh x0^m so from one table).  _stuffle_tuples runs the
same programme over suffix lengths.  Both fill their cells in the order
of the first-letter recursion they replace, so result dicts keep that
recursion's iteration order.

Parts of a cell that end (or, for the stuffle, start) in different
letters share no key, so they are merged in C: a shuffle cell whose two
letters differ by dict.update, where the x0 part keeps its keys and the
x1 part takes its bit in one comprehension.  A stuffle cell (i, j) with
x = u[i] != y = v[j] is one dict comprehension over its three disjoint
parts, in the recursion's order: x (u[i+1:] st v[j:]), y (u[i:] st
v[j+1:]), then (x + y) (u[i+1:] st v[j+1:]); x + y exceeds both letters,
so no part shares a key with another.  The one-letter prefixes (x,) and
(y,) are made once per row and column, (x + y,) once per cell.  When x
== y, the y part is summed into the x part term by term and the (x + y)
part is appended by update.  A comprehension or update places new keys
in the order of its parts with their own values, which is what the
per-term loop did for keys it had not met, so values and dict order are
the loop's.

shuffle, stuffle and conc (and the YPoly product) are pair rules,
_shuffle_bits, _stuffle_tuples, _conc_bits and _conc_tuples, handed to
linear._bilinear, the package's one loop over pairs of terms, which
keeps multiplicities and numerators as ints; so are the left and right
residuals.  pi_y and pi_x are rules on single words handed to
linear._linear.  The word rules take and give sentinel ints:
concatenation and the prefix and suffix tests of the residuals are
shifts and masks.

Both products sum their DP tables directly: shuffle sums _shuffle_bits,
the last cell of _shuffle_row, and stuffle sums _stuffle_tuples, and
each returns a dict its caller owns.  _shuffle_words and _stuffle_words
are the two products behind lru caches of fixed size, which hold whole
products, never the prefix or suffix pairs of a table.  Only the star and SymFun pair rules
(and the expand oracle) read _shuffle_words, whose word pairs recur.
Stuffle products are not re-read (a shuffle benchmark run of 4,500
operations met none of its 450 twice), so the package keeps none;
_stuffle_words serves callers outside the package.
unshuffle builds its (Word, Word) -> Fraction result from the int pairs
in one pass, making each distinct subword a Word once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .linear import LinearCombination, _bilinear, _is_scalar, _linear, _row_of, _signed_sum
from .words import (EPSILON, Word, _check_word, _is_int, _new, composition_of_word, shortlex_items,
                    word_of_composition)


class NCPoly(LinearCombination):
    """Noncommutative polynomial over {x0, x1} with rational coefficients.

    ``*`` is concatenation (or scalar multiplication when one side is a
    rational number); use shuffle() for the shuffle product.

    Keys are Words in the map form (.terms, the constructor, _trusted)
    and the plain sentinel ints of those Words in a row, as coefficients
    are ints in a row and Fractions in the map: between operations an
    NCPoly holds neither, and the first read of .terms makes both.
    """

    _key_type = Word

    @classmethod
    def _insert(cls, data: dict, key, coeff: Fraction) -> None:
        _check_word(key)
        super()._insert(data, key, coeff)

    @classmethod
    def one(cls) -> "NCPoly":
        return cls({EPSILON: 1})

    @classmethod
    def from_word(cls, w: Word, coeff=1) -> "NCPoly":
        return cls({w: coeff})

    def degree(self) -> int:
        """Length of the longest word present; -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            return conc(self, other)
        if _is_scalar(other):
            return self.scale(other)
        return NotImplemented

    def __str__(self) -> str:
        return format_poly(self)


def _conc_bits(u: int, v: int) -> dict:
    """The concatenation rule on sentinel keys: v's bits, sentinel
    included, move up past u's letters."""
    n = u.bit_length() - 1
    return {u ^ 1 << n | v << n: 1}


def conc(p: NCPoly, q: NCPoly) -> NCPoly:
    """Concatenation product."""
    return NCPoly._from_row(_bilinear(_row_of(p), _row_of(q), _conc_bits))


def _shuffle_row(ub: int, vb: int) -> list:
    """The last row of the shuffle table of the words with sentinel keys ub
    and vb (Words or ints): cell j is u sh v[:j] as a {key: multiplicity}
    map of plain ints, whose keys all carry the sentinel bit
    1 << (|u| + |v|) of the full length, so the last cell is u sh v in
    sentinel keys.  Only the letter bits below each sentinel are read.

    The caller owns the returned list and its dicts.
    """
    a = ub.bit_length() - 1
    b = vb.bit_length() - 1
    top = 1 << (a + b)
    prev = [{vb & ((1 << j) - 1) | top: 1} for j in range(b + 1)]
    for i in range(1, a + 1):
        u_letter = (ub >> (i - 1)) & 1
        left = {ub & ((1 << i) - 1) | top: 1}
        row = [left]
        for j in range(1, b + 1):
            pos = 1 << (i + j - 1)
            # prev[j] = u[:i-1] sh v[:j] has no reader left, so it is reused.
            if u_letter:
                out = {w | pos: c for w, c in prev[j].items()}
            else:
                out = prev[j]
            v_letter = (vb >> (j - 1)) & 1
            if v_letter != u_letter:
                # The two parts end in different letters, so share no key.
                out.update({w | pos: c for w, c in left.items()} if v_letter else left)
            elif v_letter:
                for w, c in left.items():
                    w |= pos
                    out[w] = out.get(w, 0) + c
            else:
                for w, c in left.items():
                    out[w] = out.get(w, 0) + c
            row.append(out)
            left = out
        prev = row
    return prev


def _shuffle_bits(ub: int, vb: int) -> dict:
    """u sh v as a {sentinel key: multiplicity} map, the last cell of
    _shuffle_row; the caller owns the returned dict."""
    return _shuffle_row(ub, vb)[-1]


@lru_cache(maxsize=1024)
def _shuffle_words(u: Word, v: Word) -> dict:
    """Shuffle of two words as a Word -> int multiplicity map.

    Cached; callers must treat the returned dict as read-only.
    """
    return {_new(Word, w): c for w, c in _shuffle_bits(u, v).items()}


def shuffle(p: NCPoly, q: NCPoly) -> NCPoly:
    """Shuffle product, extended bilinearly."""
    return NCPoly._from_row(_bilinear(_row_of(p), _row_of(q), _shuffle_bits))


def unshuffle(w: Word) -> dict:
    """Unshuffle coproduct of a word: a (Word, Word) -> Fraction map.

    Each letter is primitive, so the coproduct of a word is the product of
    x (x) 1 + 1 (x) x over its letters.  Dual to shuffle:
    sum of m * <p|w1><q|w2> over the coproduct equals <shuffle(p, q)|w>.
    Anything but a Word is refused with TypeError.
    """
    _check_word(w)
    # Keys are pairs of sentinel ints; appending letter a to a word of
    # length n adds (a + 1) << n, which moves the sentinel up one place.
    out = {(1, 1): 1}
    for t, a in enumerate(w):
        a += 1
        nxt: dict = {}
        for (u, v), c in out.items():
            n = u.bit_length() - 1
            k1 = (u + (a << n), v)
            nxt[k1] = nxt.get(k1, 0) + c
            k2 = (u, v + (a << (t - n)))
            nxt[k2] = nxt.get(k2, 0) + c
        out = nxt
    # One Word per distinct subword and one Fraction per distinct count.
    words = {k: _new(Word, k) for k in {k for pair in out for k in pair}}
    counts = {c: Fraction(c) for c in set(out.values())}
    return {(words[u], words[v]): counts[c] for (u, v), c in out.items()}


def _left_pair(v: int, u: int) -> dict:
    """The left residual rule on sentinel keys: v = w u gives w (v's low
    n bits under a new sentinel, n = |v| - |u|), other pairs nothing."""
    n = v.bit_length() - u.bit_length()
    return {v & (1 << n) - 1 | 1 << n: 1} if n >= 0 and v >> n == u else {}


def _right_pair(v: int, u: int) -> dict:
    """The right residual rule on sentinel keys: v = u w gives w (v shifted
    down past u's p letters), other pairs nothing."""
    p = u.bit_length() - 1
    return {v >> p: 1} if p < v.bit_length() and not (v ^ u) & (1 << p) - 1 else {}


def left_residual(p: NCPoly, s: NCPoly) -> NCPoly:
    """p left-divides s: the polynomial with <p \\ s | w> = <s | w p>."""
    return NCPoly._from_row(_bilinear(_row_of(s), _row_of(p), _left_pair))


def right_residual(s: NCPoly, p: NCPoly) -> NCPoly:
    """p right-divides s: the polynomial with <s / p | w> = <s | p w>."""
    return NCPoly._from_row(_bilinear(_row_of(s), _row_of(p), _right_pair))


def is_exchangeable(p: NCPoly) -> bool:
    """True when the coefficient of each word depends only on how many
    x0's and x1's it contains (all words of a bidegree share one value,
    absent words counting as zero)."""
    classes: dict = {}
    for w, c in p.terms.items():
        key = (w.count(0), w.count(1))
        classes.setdefault(key, []).append(c)
    for (n0, n1), coeffs in classes.items():
        if any(c != coeffs[0] for c in coeffs):
            return False
        if len(coeffs) < comb(n0 + n1, n0) and coeffs[0] != 0:
            return False
    return True


def _conc_tuples(u: tuple, v: tuple) -> dict:
    """The concatenation rule on y-words."""
    return {u + v: 1}


class YPoly(LinearCombination):
    """Polynomial over the alphabet {y_k : k >= 1}; words are tuples of
    positive integers.  ``*`` is concatenation; use stuffle() for the
    quasi-shuffle product."""

    @classmethod
    def _insert(cls, data: dict, key, coeff: Fraction) -> None:
        key = tuple(key)
        if any(not _is_int(k) or k < 1 for k in key):
            raise ValueError(f"y-word indices must be positive integers, got {key!r}")
        old = data.get(key)
        data[key] = coeff if old is None else old + coeff

    @classmethod
    def one(cls) -> "YPoly":
        return cls({(): 1})

    @classmethod
    def from_yword(cls, yw, coeff=1) -> "YPoly":
        return cls({tuple(yw): coeff})

    def __mul__(self, other):
        if isinstance(other, YPoly):
            return YPoly._from_row(_bilinear(_row_of(self), _row_of(other), _conc_tuples))
        if _is_scalar(other):
            return self.scale(other)
        return NotImplemented

    def __str__(self) -> str:
        return _signed_sum(
            (c, "y[" + ",".join(map(str, yw)) + "]")
            for yw, c in sorted(self.terms.items(), key=lambda item: (len(item[0]), item[0]))
        )


def _stuffle_tuples(u: tuple, v: tuple) -> dict:
    """Quasi-shuffle of two y-words as a y-word -> int multiplicity map.

    Cell (i, j) of the table is u[i:] st v[j:], the sum of u[i] (u[i+1:] st
    v[j:]), v[j] (u[i:] st v[j+1:]) and (u[i] + v[j]) (u[i+1:] st v[j+1:]),
    accumulated in that order.

    The caller owns the returned dict.
    """
    a, b = len(u), len(v)
    below = [{v[j:]: 1} for j in range(b + 1)]
    ys = [(y,) for y in v]
    for i in range(a - 1, -1, -1):
        x = u[i]
        xp = (x,)
        right = {u[i:]: 1}
        row = [right]
        for j in range(b - 1, -1, -1):
            y = v[j]
            # x + y exceeds both x and y, so its part shares no key.
            xy = (x + y,)
            if x != y:
                parts = ((xp, below[j]), (ys[j], right), (xy, below[j + 1]))
                out = {p + w: c for p, part in parts for w, c in part.items()}
            else:
                out = {xp + w: c for w, c in below[j].items()}
                for w, c in right.items():
                    w = xp + w
                    out[w] = out.get(w, 0) + c
                out.update({xy + w: c for w, c in below[j + 1].items()})
            row.append(out)
            right = out
        row.reverse()
        below = row
    return below[0]


@lru_cache(maxsize=256)
def _stuffle_words(u: tuple, v: tuple) -> dict:
    """_stuffle_tuples, cached; callers must treat the result as read-only."""
    return _stuffle_tuples(u, v)


def stuffle(p: YPoly, q: YPoly) -> YPoly:
    """Quasi-shuffle (stuffle) product, extended bilinearly."""
    return YPoly._from_row(_bilinear(_row_of(p), _row_of(q), _stuffle_tuples))


def _pi_y_rule(w: int) -> dict:
    n = w.bit_length() - 1
    if n and not w >> n - 1 & 1:  # w ends in x0
        return {}
    return {composition_of_word(_new(Word, w)): 1}


def _pi_x_rule(yw: tuple) -> dict:
    return {int(word_of_composition(yw)): 1}


def pi_y(p: NCPoly) -> YPoly:
    """Project onto words ending in x1 (plus the empty word) and transcribe
    them to y-words; words ending in x0 are sent to zero."""
    return YPoly._from_row(_linear(_row_of(p), _pi_y_rule))


def pi_x(q: YPoly) -> NCPoly:
    """Transcribe y-words back to words over {x0, x1}; right adjoint of
    pi_y for the canonical scalar products on both sides."""
    return NCPoly._from_row(_linear(_row_of(q), _pi_x_rule))


def format_poly(p: NCPoly) -> str:
    """Render as ``3/2*011 + 1*0 - 2`` (bare rationals are coefficients of
    the empty word); the zero polynomial prints as ``0``."""
    return _signed_sum((c, text) for text, c in shortlex_items(p.terms))


def parse_poly(text: str) -> NCPoly:
    """Inverse of format_poly.  Terms are ``coeff*word`` or bare rationals
    (coefficients of the empty word), joined by + and -."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    s = s.replace("-", "+-")
    out: dict = {}
    for piece in s.split("+"):
        if piece in ("", "-"):
            if piece == "-":
                raise ValueError("dangling sign in polynomial text")
            continue
        if "*" in piece:
            cs, ws = piece.split("*", 1)
            if ws and any(ch not in "01" for ch in ws):
                raise ValueError(f"bad word {ws!r} in polynomial text")
            key = Word(ws)
        else:
            cs, key = piece, EPSILON
        try:
            c = Fraction(cs)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator {cs!r} in polynomial text") from None
        out[key] = out.get(key, 0) + c
    return NCPoly(out)
