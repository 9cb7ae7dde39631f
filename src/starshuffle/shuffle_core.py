"""Exact arithmetic in the free algebra over {x0, x1} and its stuffle cousin.

NCPoly is a noncommutative polynomial: a finite Word -> Fraction map with
concatenation as ``*``.  The shuffle product, unshuffle coproduct, left and
right residuals, the exchangeability test and the X/Y projections live here
as module functions.  YPoly is the analogue over the indexed alphabet
{y_k : k >= 1}, whose words are tuples of positive integers, with the
quasi-shuffle (stuffle) product.

The kernels run on packed integers and build Words only at the public
boundary.  A word of length n is the int of its letter bits (bit i is
letter i, as in Word.bits); where words of different lengths share a
dict, the key carries a sentinel top bit, ``bits | 1 << n``, so that
x0-padded words stay apart.  _shuffle_bits is a dynamic programme over
prefix lengths: cell (i, j) of its table holds u[:i] sh v[:j], filled
from (i - 1, j) by appending u[i-1] and from (i, j - 1) by appending
v[j-1], in that order.  Appending a letter at position i + j - 1 ors in
one bit, and appending x0 copies the key unchanged.  Every seed of the
table already carries the sentinel bit 1 << (a + b) of the result's
length, so its keys come out as sentinel keys and need no second pass.
_stuffle_words runs the same programme over suffix lengths.  Both fill
their cells in the order of the first-letter recursion they replace, so
result dicts keep that recursion's iteration order.

shuffle, stuffle and conc (and the YPoly product) are pair rules,
_shuffle_bits, _stuffle_words and _conc, handed to linear._bilinear, the
package's one loop over pairs of terms, which keeps multiplicities and
numerators as ints.

_shuffle_words and _stuffle_words cache whole products, never the
prefix or suffix pairs of a table, in lru caches of fixed size; shuffle
itself sums _shuffle_bits directly and does not read the cache.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from numbers import Rational

from .linear import LinearCombination, _bilinear, _fractions
from .words import EPSILON, Word, composition_of_word, word_of_composition


class NCPoly(LinearCombination):
    """Noncommutative polynomial over {x0, x1} with rational coefficients.

    ``*`` is concatenation (or scalar multiplication when one side is a
    rational number); use shuffle() for the shuffle product.
    """

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
        if isinstance(other, Rational):
            return self.scale(other)
        return NotImplemented

    def __str__(self) -> str:
        return format_poly(self)


def _conc(u, v) -> dict:
    """The concatenation rule on words and on y-words."""
    return {u + v: 1}


def conc(p: NCPoly, q: NCPoly) -> NCPoly:
    """Concatenation product."""
    return NCPoly._trusted(_bilinear(p.terms, q.terms, _conc))


def _shuffle_bits(ub: int, a: int, vb: int, b: int) -> dict:
    """Shuffle of the words with letter bits ub (length a) and vb (length b)
    as a {sentinel key: multiplicity} map; every key is bits | 1 << (a + b).

    The caller owns the returned dict.
    """
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
            if (vb >> (j - 1)) & 1:
                for w, c in left.items():
                    w |= pos
                    out[w] = out.get(w, 0) + c
            else:
                for w, c in left.items():
                    out[w] = out.get(w, 0) + c
            row.append(out)
            left = out
        prev = row
    return prev[b]


@lru_cache(maxsize=1024)
def _shuffle_words(u: Word, v: Word) -> dict:
    """Shuffle of two words as a Word -> int multiplicity map.

    Cached; callers must treat the returned dict as read-only.
    """
    return {_word(w): c for w, c in _shuffle_bits(u.bits, u.n, v.bits, v.n).items()}


def _word(s: int) -> Word:
    """The Word of a sentinel key bits | 1 << n."""
    n = s.bit_length() - 1
    return Word._raw(s ^ (1 << n), n)


def shuffle(p: NCPoly, q: NCPoly) -> NCPoly:
    """Shuffle product, extended bilinearly."""
    out = _bilinear(p.terms, q.terms, lambda u, v: _shuffle_bits(u.bits, u.n, v.bits, v.n))
    return NCPoly._trusted({_word(w): c for w, c in out.items()})


def unshuffle(w: Word) -> dict:
    """Unshuffle coproduct of a word: a (Word, Word) -> Fraction map.

    Each letter is primitive, so the coproduct of a word is the product of
    x (x) 1 + 1 (x) x over its letters.  Dual to shuffle:
    sum of m * <p|w1><q|w2> over the coproduct equals <shuffle(p, q)|w>.
    """
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
    return {(_word(u), _word(v)): c for (u, v), c in _fractions(out, 1).items()}


def left_residual(p: NCPoly, s: NCPoly) -> NCPoly:
    """p left-divides s: the polynomial with <p \\ s | w> = <s | w p>."""
    out: dict = {}
    for v, cv in s.terms.items():
        for u, cu in p.terms.items():
            if v.endswith(u):
                key = v[: len(v) - len(u)]
                out[key] = out.get(key, 0) + cu * cv
    return NCPoly(out)


def right_residual(s: NCPoly, p: NCPoly) -> NCPoly:
    """p right-divides s: the polynomial with <s / p | w> = <s | p w>."""
    out: dict = {}
    for v, cv in s.terms.items():
        for u, cu in p.terms.items():
            if v.startswith(u):
                key = v[len(u) :]
                out[key] = out.get(key, 0) + cu * cv
    return NCPoly(out)


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


class YPoly(LinearCombination):
    """Polynomial over the alphabet {y_k : k >= 1}; words are tuples of
    positive integers.  ``*`` is concatenation; use stuffle() for the
    quasi-shuffle product."""

    @classmethod
    def _insert(cls, data: dict, key, coeff: Fraction) -> None:
        key = tuple(key)
        if any(not isinstance(k, int) or k < 1 for k in key):
            raise ValueError(f"y-word indices must be positive integers, got {key!r}")
        data[key] = data.get(key, 0) + coeff

    @classmethod
    def one(cls) -> "YPoly":
        return cls({(): 1})

    @classmethod
    def from_yword(cls, yw, coeff=1) -> "YPoly":
        return cls({tuple(yw): coeff})

    def __mul__(self, other):
        if isinstance(other, YPoly):
            return YPoly._trusted(_bilinear(self.terms, other.terms, _conc))
        if isinstance(other, Rational):
            return self.scale(other)
        return NotImplemented

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for yw in sorted(self.terms, key=lambda t: (len(t), t)):
            c = self.terms[yw]
            body = "y[" + ",".join(map(str, yw)) + "]"
            bits.append((c, f"{abs(c)}*{body}"))
        parts = []
        for i, (c, text) in enumerate(bits):
            if i == 0:
                parts.append(("-" if c < 0 else "") + text)
            else:
                parts.append(("- " if c < 0 else "+ ") + text)
        return " ".join(parts)


@lru_cache(maxsize=256)
def _stuffle_words(u: tuple, v: tuple) -> dict:
    """Quasi-shuffle of two y-words; cached, treat the result as read-only.

    Cell (i, j) of the table is u[i:] st v[j:], the sum of u[i] (u[i+1:] st
    v[j:]), v[j] (u[i:] st v[j+1:]) and (u[i] + v[j]) (u[i+1:] st v[j+1:]),
    accumulated in that order.
    """
    a, b = len(u), len(v)
    below = [{v[j:]: 1} for j in range(b + 1)]
    for i in range(a - 1, -1, -1):
        x = u[i]
        right = {u[i:]: 1}
        row = [right]
        for j in range(b - 1, -1, -1):
            y = v[j]
            out = {(x,) + w: c for w, c in below[j].items()}
            for w, c in right.items():
                w = (y,) + w
                out[w] = out.get(w, 0) + c
            xy = (x + y,)
            for w, c in below[j + 1].items():
                w = xy + w
                out[w] = out.get(w, 0) + c
            row.append(out)
            right = out
        row.reverse()
        below = row
    return below[0]


def stuffle(p: YPoly, q: YPoly) -> YPoly:
    """Quasi-shuffle (stuffle) product, extended bilinearly."""
    return YPoly._trusted(_bilinear(p.terms, q.terms, _stuffle_words))


def pi_y(p: NCPoly) -> YPoly:
    """Project onto words ending in x1 (plus the empty word) and transcribe
    them to y-words; words ending in x0 are sent to zero."""
    out: dict = {}
    for w, c in p.terms.items():
        if len(w) and w[-1] != 1:
            continue
        key = composition_of_word(w)
        out[key] = out.get(key, 0) + c
    return YPoly(out)


def pi_x(q: YPoly) -> NCPoly:
    """Transcribe y-words back to words over {x0, x1}; right adjoint of
    pi_y for the canonical scalar products on both sides."""
    out: dict = {}
    for yw, c in q.terms.items():
        key = word_of_composition(yw)
        out[key] = out.get(key, 0) + c
    return NCPoly(out)


def format_poly(p: NCPoly) -> str:
    """Render as ``3/2*011 + 1*0 - 2`` (bare rationals are coefficients of
    the empty word); the zero polynomial prints as ``0``."""
    if not p.terms:
        return "0"
    parts = []
    for w in sorted(p.terms, key=lambda w: (len(w), tuple(w))):
        c = p.terms[w]
        body = str(abs(c)) if len(w) == 0 else f"{abs(c)}*{w}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


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
            c = Fraction(cs)
        else:
            key = EPSILON
            c = Fraction(piece)
        out[key] = out.get(key, 0) + c
    return NCPoly(out)
