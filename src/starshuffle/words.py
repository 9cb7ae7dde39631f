"""Words over the two-letter alphabet {x0, x1} and Lyndon-word machinery.

Letters are the integers 0 and 1, ordered 0 < 1.  Words are immutable and
hashable, so they can serve as basis keys of sparse linear combinations.
A composition (s1, ..., sr) of positive integers is encoded as the word
x0^(s1-1) x1 ... x0^(sr-1) x1, which always ends in x1.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, Union

Letters = Union[Iterable[int], str]


@total_ordering
class Word:
    """Immutable word over {x0, x1}, stored as packed bits plus a length.

    Bit i of ``bits`` holds the i-th letter.  Comparison is lexicographic
    with x0 < x1, a proper prefix sorting before its extensions.
    """

    __slots__ = ("bits", "n")

    def __init__(self, letters: Letters = ()):
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
        self.bits = bits
        self.n = n

    @classmethod
    def _raw(cls, bits: int, n: int) -> "Word":
        w = cls.__new__(cls)
        w.bits = bits
        w.n = n
        return w

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        for _ in range(self.n):
            yield bits & 1
            bits >>= 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(self.n)
            if step != 1:
                return Word(tuple(self)[i])
            m = max(stop - start, 0)
            return Word._raw((self.bits >> start) & ((1 << m) - 1), m)
        if i < 0:
            i += self.n
        if not 0 <= i < self.n:
            raise IndexError("word index out of range")
        return (self.bits >> i) & 1

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word._raw(self.bits | (other.bits << self.n), self.n + other.n)

    def __mul__(self, k: int) -> "Word":
        if not isinstance(k, int):
            return NotImplemented
        out = EPSILON
        for _ in range(k):
            out = out + self
        return out

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.bits == other.bits and self.n == other.n

    def __hash__(self) -> int:
        # bits < 2^n, so the sentinel bit makes this int unique to the word
        return hash(self.bits | 1 << self.n)

    def __lt__(self, other: "Word") -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        diff = (self.bits ^ other.bits) & ((1 << min(self.n, other.n)) - 1)
        if diff:
            # the lowest differing bit is the first differing letter
            return not self.bits & diff & -diff
        return self.n < other.n

    def count(self, letter: int) -> int:
        """Number of occurrences of the given letter (0 or 1)."""
        ones = bin(self.bits).count("1")
        return ones if letter == 1 else self.n - ones

    def startswith(self, prefix: "Word") -> bool:
        return prefix.n <= self.n and self.bits & ((1 << prefix.n) - 1) == prefix.bits

    def endswith(self, suffix: "Word") -> bool:
        return suffix.n <= self.n and self.bits >> (self.n - suffix.n) == suffix.bits

    def __str__(self) -> str:
        return "".join("1" if a else "0" for a in self)

    def __repr__(self) -> str:
        return f'Word("{self}")'


EPSILON = Word()
X0 = Word("0")
X1 = Word("1")


def lyndon_up_to(max_len: int) -> list[Word]:
    """All Lyndon words over {0, 1} of length <= max_len, in lexicographic
    order (Duval's generation algorithm)."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    out: list[Word] = []
    w = [0]
    while w:
        if len(w) <= max_len:
            out.append(Word(w))
        w = [w[i % len(w)] for i in range(max_len)]
        while w and w[-1] == 1:
            w.pop()
        if w:
            w[-1] += 1
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


def word_of_composition(s: Iterable[int]) -> Word:
    """Encode a composition of positive integers as the word
    x0^(s1-1) x1 ... x0^(sr-1) x1.  The empty composition gives the
    empty word."""
    letters: list[int] = []
    for part in s:
        if not isinstance(part, int) or part < 1:
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
