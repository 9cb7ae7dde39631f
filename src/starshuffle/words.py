"""Words over the two-letter alphabet {x0, x1} and Lyndon-word machinery.

Letters are the integers 0 and 1, ordered 0 < 1.  A composition
(s1, ..., sr) of positive integers is encoded as the word
x0^(s1-1) x1 ... x0^(sr-1) x1, which always ends in x1.

A Word is its sentinel key: the int bits | 1 << n, where bit i of bits is
letter i and the top bit 1 << n marks the length, so that words differing
only by trailing x0s stay apart.  The kernels in shuffle_core and
polylog.series compute on these ints, and a key becomes a Word by one
int.__new__(Word, key) call, with no decoding.  Hashing is int's.
Everything else a Word does is a word's, not an int's:

- equality holds only between Words, so Word("0") != 2 although its int
  value is 2;
- order is lexicographic with x0 < x1, a proper prefix first, and
  comparing a Word with anything else raises TypeError;
- len is the length, and the empty word EPSILON is false;
- + concatenates Words and * k repeats; adding an int raises TypeError.

A Word is still an int to isinstance and to int-only code, so the
package's gates on numbers exclude it explicitly, and _is_int, its test
of an int argument, refuses a Word and a bool.
int arithmetic on Words (such as w - 1 or w >> 1) is not part of the API.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

Letters = Union[Iterable[int], str]

_new = int.__new__
_int_eq = int.__eq__
_DIGITS = bytes.maketrans(b"\0\1", b"01")


class Word(int):
    """Immutable word over {x0, x1}, which is its sentinel key: the int
    bits | 1 << n, bit i of bits holding letter i.

    Comparison is lexicographic with x0 < x1, a proper prefix sorting
    before its extensions.  Equality, order, len, truth, + and * are the
    word's (see the module docstring); hashing is int's.

    Operators of other number types cannot refuse a Word: Fraction's and
    float's run before any reflected method of Word and take it as its
    sentinel int, so Fraction(1) + Word("01") == 7 and
    1.5 * Word("0") == 3.0.  Keep Words out of such arithmetic.
    """

    __slots__ = ()

    def __new__(cls, letters: Letters = ()):
        if isinstance(letters, str):
            bad = letters.strip("01")
            if bad:
                raise ValueError(f"letter must be 0 or 1, got {bad[0]!r}")
            return _new(cls, int("1" + letters[::-1], 2))
        if type(letters) in (tuple, list):
            try:
                raw = bytes(letters)
            except (TypeError, ValueError):  # letters such as "0" or 1.0
                pass
            else:
                if not raw.strip(b"\0\1"):
                    return _new(cls, int(b"1" + raw[::-1].translate(_DIGITS), 2))
        bits = 0
        n = 0
        for a in letters:
            if a == "0":
                a = 0
            elif a == "1":
                a = 1
            if a not in (0, 1):
                raise ValueError(f"letter must be 0 or 1, got {a!r}")
            bits |= int(a) << n
            n += 1
        return _new(cls, bits | 1 << n)

    @classmethod
    def _raw(cls, bits: int, n: int) -> "Word":
        """The word of length n with letter bits bits < 2^n."""
        return _new(cls, bits | 1 << n)

    @property
    def n(self) -> int:
        """The length."""
        return self.bit_length() - 1

    @property
    def bits(self) -> int:
        """The letters as an int, bit i holding letter i."""
        return self ^ 1 << self.bit_length() - 1

    def __len__(self) -> int:
        return self.bit_length() - 1

    def __bool__(self) -> bool:
        return self.bit_length() > 1

    def __iter__(self) -> Iterator[int]:
        s = int(self)
        while s > 1:
            yield s & 1
            s >>= 1

    def __getitem__(self, i):
        n = self.bit_length() - 1
        if isinstance(i, slice):
            start, stop, step = i.indices(n)
            if step != 1:
                return Word(tuple(self)[i])
            m = max(stop - start, 0)
            return _new(Word, (self >> start) & ((1 << m) - 1) | 1 << m)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("word index out of range")
        return (self >> i) & 1

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            raise TypeError(f"can only concatenate Word (not {type(other).__name__!r}) to Word")
        n = self.bit_length() - 1
        return _new(Word, self ^ 1 << n | other << n)

    def __radd__(self, other):
        # int.__add__ would accept a Word, so this must raise, not defer.
        raise TypeError(f"can only concatenate Word (not {type(other).__name__!r}) to Word")

    def __mul__(self, k: int) -> "Word":
        if not _is_int(k):
            raise TypeError(f"can't multiply Word by non-int of type {type(k).__name__!r}")
        return Word(str(self) * k)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and _int_eq(self, other)

    def __ne__(self, other) -> bool:
        return not (isinstance(other, Word) and _int_eq(self, other))

    __hash__ = int.__hash__

    # int's order would compare the ints, and int's reflected methods would
    # accept a Word, so these raise on anything but a Word.
    def __lt__(self, other: "Word") -> bool:
        return _precedes(self, other, False)

    def __le__(self, other: "Word") -> bool:
        return _precedes(self, other, True)

    def __gt__(self, other: "Word") -> bool:
        return _precedes(other, self, False)

    def __ge__(self, other: "Word") -> bool:
        return _precedes(other, self, True)

    def count(self, letter: int) -> int:
        """Number of occurrences of the given letter (0 or 1)."""
        ones = self.bit_count() - 1
        return ones if letter == 1 else self.bit_length() - 1 - ones

    def startswith(self, prefix: "Word") -> bool:
        p = prefix.bit_length() - 1
        return p < self.bit_length() and not (self ^ prefix) & ((1 << p) - 1)

    def endswith(self, suffix: "Word") -> bool:
        shift = self.bit_length() - suffix.bit_length()
        return shift >= 0 and _int_eq(self >> shift, suffix)

    def __str__(self) -> str:
        return format(self, "b")[:0:-1]

    def __repr__(self) -> str:
        return f'Word("{self}")'

    def __reduce__(self):
        return (Word, (str(self),))


def _precedes(u: Word, v: Word, or_equal: bool) -> bool:
    """u < v, or u <= v with or_equal, in lexicographic order."""
    if not (isinstance(u, Word) and isinstance(v, Word)):
        raise TypeError(f"cannot order {type(u).__name__!r} and {type(v).__name__!r}")
    n, m = u.bit_length(), v.bit_length()
    diff = (u ^ v) & ((1 << min(n, m) - 1) - 1)
    if diff:
        # the lowest differing bit is the first differing letter
        return not u & diff & -diff
    return n < m or or_equal and n == m


def shortlex_key(w: Word) -> tuple:
    """Sort key of a word: by length, then lexicographically with x0 < x1.

    It orders as (len(w), str(w)) does, since "0" < "1", and is built by
    int's bit_length and format, with no Python-level call per letter.
    """
    return w.bit_length(), format(w, "b")[:0:-1]


def shortlex_items(terms: dict) -> Iterator:
    """Iterate over the (str(w), value) pairs of a {Word: value} map, the
    words in shortlex_key order.

    Each row (shortlex_key(w), value) is built once, with no Python-level
    key call per term; distinct words never tie, so no value is compared.
    """
    rows = sorted([(w.bit_length(), format(w, "b")[:0:-1], v) for w, v in terms.items()])
    return ((text, v) for _, text, v in rows)


EPSILON = Word()
X0 = Word("0")
X1 = Word("1")


def lyndon_up_to(max_len: int) -> list[Word]:
    """All Lyndon words over {0, 1} of length <= max_len, in lexicographic
    order (Duval's generation algorithm)."""
    if not _is_int(max_len) or max_len < 0:
        raise ValueError("max_len must be nonnegative")
    out: list[Word] = []
    w = "0"
    while w:
        if len(w) <= max_len:
            out.append(_new(Word, int("1" + w[::-1], 2)))
        w = (w * (max_len // len(w) + 1))[:max_len].rstrip("1")
        if w:
            w = w[:-1] + "1"
    return out


def clf_factorize(w: Word) -> list[Word]:
    """Factor w into its unique nonincreasing product of Lyndon words
    (Chen-Fox-Lyndon factorization, by Duval's algorithm)."""
    out: list[Word] = []
    i = 0
    n = len(w)
    while i < n:
        j = i + 1
        k = i
        while j < n and w[k] <= w[j]:
            k = i if w[k] < w[j] else k + 1
            j += 1
        step = j - k
        while i <= k:
            out.append(w[i : i + step])
            i += step
    return out


def _is_int(n) -> bool:
    """True for an int that is neither a bool nor a Word: the package's
    one test of an int argument."""
    return isinstance(n, int) and not isinstance(n, (bool, Word))


def _check_word(w) -> None:
    """Refuse a word part of a basis key that is not a Word."""
    if not isinstance(w, Word):
        raise TypeError(f"a word part must be a Word, got {w!r}")


def word_of_composition(s: Iterable[int]) -> Word:
    """Encode a composition of positive integers as the word
    x0^(s1-1) x1 ... x0^(sr-1) x1.  The empty composition gives the
    empty word."""
    letters: list[int] = []
    for part in s:
        if not _is_int(part) or part < 1:
            raise ValueError(f"composition parts must be positive integers, got {part!r}")
        letters.extend([0] * (part - 1))
        letters.append(1)
    return Word(letters)


def composition_of_word(w: Word) -> tuple[int, ...]:
    """Inverse of word_of_composition.  Requires w empty or ending in x1."""
    if len(w) and w[-1] != 1:
        raise ValueError("word must be empty or end in x1 to encode a composition")
    parts: list[int] = []
    run = 0
    for a in w:
        if a == 0:
            run += 1
        else:
            parts.append(run + 1)
            run = 0
    return tuple(parts)
