"""Bitwise goldens of numeric evaluation at real points.

Each case is one call of eval_li_word, eval_symfun or eval_li2 at a real z,
given as complex(x, 0.0) or complex(x, -0.0), and its golden is the
float.hex of the answer's .real and .imag joined by a space, or the name
of the exception class it raised.  The file holds the goldens in the
order of cases().  The points run over [0, 1) and include
1 - 10^-k for k = 1..5; the words are every word of weight <= 5 for
eval_li_word, those of weight <= 2 for eval_symfun and eval_li2, and a
few shuffle products, whose words eval_li2 sums in one call.

    PYTHONPATH=src python tests/series_goldens.py > tests/series_goldens.json

writes the file that test_series_goldens.py compares with.  Stdlib only.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction

from starshuffle import NCPoly, embed, shuffle
from starshuffle.errors import ConvergenceError, DomainError
from starshuffle.polylog.series import EvalParams, eval_li2, eval_li_word, eval_symfun
from starshuffle.polylog.symfun import SymFun
from starshuffle.star_series import StarSeries, star_term
from starshuffle.words import Word

REALS = (0.0, 0.1, 0.3, 0.5, 0.6, 0.75, 0.95, *(1 - 10.0**-k for k in range(1, 6)))
EPS = (1e-6, 1e-12, 1e-14)
WORDS = ["".join(bits) for n in range(6) for bits in itertools.product("01", repeat=n)]
SHORT = [w for w in WORDS if len(w) <= 2]
PAIRS = [("1", "01"), ("01", "011"), ("10", "1"), ("001", "11")]


def cases() -> list:
    """Every case as (entry, args), args being JSON-ready."""
    out = []
    for x, sign, eps in itertools.product(REALS, (1.0, -1.0), EPS):
        point = (x, sign, eps)
        out += [("li_word", (w, *point)) for w in WORDS]
        out += [("symfun", (k, l, w, *point))
                for w in SHORT for k, l in ((0, 0), (-2, 0), (3, 0), (0, 2))]
        out += [("li2", (a0, a1, w, *point))
                for w in SHORT for a0, a1 in ((-1, 0), (2, 1), (0, 2))]
        out += [("shuffle", (u, v, *point)) for u, v in PAIRS]
    return out


def evaluate(entry: str, args) -> object:
    """The golden of one case: "<real hex> <imag hex>" or an exception name."""
    *head, x, sign, eps = args
    p = EvalParams(complex(x, sign * 0.0), eps=eps)
    try:
        if entry == "li_word":
            v = eval_li_word(Word(head[0]), p)
        elif entry == "symfun":
            k, l, w = head
            v = eval_symfun(SymFun.monomial(k, l, Word(w), Fraction(7, 3)), p)
        elif entry == "li2":
            a0, a1, w = head
            v = eval_li2(StarSeries({star_term(Word(w), a0, a1): Fraction(-5, 2)}), p)
        else:
            left, right = (NCPoly.from_word(Word(t)) for t in head)
            v = eval_li2(embed(shuffle(left, right)), p)
    except (ConvergenceError, DomainError) as exc:
        return type(exc).__name__
    return f"{v.real.hex()} {v.imag.hex()}"


def main() -> None:
    json.dump([evaluate(entry, args) for entry, args in cases()], sys.stdout, indent=0)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
