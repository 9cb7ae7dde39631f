"""Batch command line front end for the series kernel.

Every verb is one row of the verb table _VERBS: its help text, its
arguments (as add_argument would take them) and its handler.  build_parser
adds each row as a subcommand with the --json/--csv pair.  A handler
returns (data, text, rows): --json prints data as one object (with a
"schema": 1 field), --csv prints the header and rows, and the default
prints text.  An error a handler raises is printed on stderr as
"error: <message>", and its exit code is read off the table _EXIT_CODES
by the first class of its method resolution order listed there: 2 syntax
error or bad value, 3 type error, 4 numeric non-convergence, 5
unsupported domain.  Success exits 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .errors import ConvergenceError, DomainError
from .expressions import (ExprSyntaxError, ExprTypeError, _as_series, _operate, _quoted,
                          format_value, parse_value)
from .linear import _signed_sum
from .polylog import (
    EvalParams,
    closed_form_taylor_coeff,
    discontinuity_demo,
    eval_li2,
    harmonic_sum,
    li_neg_closed_form,
    neg_taylor_coeff,
)
from .rewrite import kernel_member, normal_form
from .star_series import StarSeries
from .words import lyndon_up_to, shortlex_key

TAYLOR_CHECK_DEPTH = 20
HSUM_COLUMNS = (5, 10, 20)


def _parse_composition(text: str) -> tuple[int, ...]:
    body = text.strip()
    if body in ("", "()"):
        return ()
    try:
        return tuple(int(p) for p in body.split(","))
    except ValueError:
        raise ExprSyntaxError(f"bad composition {text!r}") from None


def _parse_point(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ExprSyntaxError(f"bad evaluation point {text!r}, expected re or re,im")


def _expr_series(args) -> StarSeries:
    """The verb's expression argument, elaborated to an x-side series."""
    series = _as_series(parse_value(args.expr))
    if series is None:
        raise ExprTypeError(f"{args.verb} needs an x-side series, not a y-side one")
    return series


def _format_complex(v: complex) -> str:
    if v.imag == 0:
        return repr(v.real)
    return f"({v.real!r},{v.imag!r})"


def _format_den_powers(coeffs: Sequence) -> str:
    """Render closed-form coefficients as a polynomial in (1-z)^-1."""
    return _signed_sum((c, f"(1-z)^-{j}" if j else "") for j, c in enumerate(coeffs) if c)


def _json_coeff(c) -> object:
    c = Fraction(c)
    return int(c) if c.denominator == 1 else str(c)


def _comp_str(s: Sequence[int]) -> str:
    return ",".join(map(str, s)) if s else "()"


def _table_text(header: Sequence[str], rows: list) -> str:
    cells = [list(header)] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    return "\n".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells
    )


def _compositions(weight: int) -> list[tuple[int, ...]]:
    """Every composition of weight at most weight, the empty one
    included, built depth by depth."""
    comps, frontier = [()], [()]
    while frontier:
        frontier = [s + (part,) for s in frontier for part in range(1, weight - sum(s) + 1)]
        comps += frontier
    return comps


def _lineg_compositions(bound: int) -> list[tuple[int, ...]]:
    """Compositions of nonnegative parts, of depth 1..max(bound, 1) and
    weight at most bound + 1 - depth: the compositions of weight at most
    bound + 1 with each part lowered by one."""
    comps = [tuple(p - 1 for p in s) for s in _compositions(bound + 1)
             if 0 < len(s) <= max(bound, 1)]
    comps.sort(key=lambda s: (len(s), sum(s), tuple(-p for p in s)))
    return comps


def _hsum_compositions(bound: int) -> list[tuple[int, ...]]:
    comps = _compositions(bound)
    comps.sort(key=lambda s: (sum(s), len(s), tuple(-p for p in s)))
    return comps


def _lyndon_count(max_len: int) -> int:
    """The number of Lyndon words of length 1..max_len over two letters:
    with L(n) of each length, the sum of d L(d) over the divisors d of n
    is 2^n."""
    counts = [0]
    for n in range(1, max_len + 1):
        counts.append((2 ** n - sum(d * counts[d] for d in range(1, n) if n % d == 0)) // n)
    return sum(counts)


# Rows a table or the lyndon verb builds, by kind, as functions of the
# bound: 2^b compositions for hsum, 2^(b+1) - 2 (1 at b = 0) for lineg.
_ROW_COUNTS = {"lineg": lambda b: max(2 ** (b + 1) - 2, 1), "hsum": lambda b: 2 ** b,
               "lyndon": _lyndon_count}
# Rows per answer, by kind; a bound whose rows pass its kind's budget is
# refused before any row is built.  The budgets follow the cost of a row
# (2-core shared host, Python 3.11), so that every admitted answer takes
# a few seconds at most: a Lyndon word ~3 us (lyndon 20, 111,013 rows,
# ~0.3 s), an hsum row ~140 us at bound 15 (table hsum 15, 32,768 rows,
# ~4.5 s) and a lineg row ~1.3 ms at bound 11 (table lineg 11, 4,094
# rows, ~5.3 s), each growing with the bound.
_ROW_BUDGETS = {"lyndon": 1 << 17, "hsum": 1 << 15, "lineg": 1 << 12}


def _check_rows(kind: str, bound: int) -> None:
    # the counts grow with the bound, and pass the budgets well before 64
    budget = _ROW_BUDGETS[kind]
    if _ROW_COUNTS[kind](min(bound, 64)) > budget:
        raise DomainError(f"{kind} up to {bound} would build more than {budget} rows")


def _lyndon_rows(max_len: int) -> list[list]:
    """[word, length] for each Lyndon word up to max_len, in shortlex order."""
    return [[str(w), len(w)] for w in sorted(lyndon_up_to(max_len), key=shortlex_key)]


def _do_lyndon(args) -> tuple[dict, str, tuple]:
    _check_rows("lyndon", args.max_len)
    rows = _lyndon_rows(args.max_len)
    names = [name for name, _ in rows]
    data = {"max_len": args.max_len, "count": len(names), "words": names}
    return data, "\n".join(names), (["word", "length"], rows)


def _do_product(args, op: str, kind: str) -> tuple[dict, str, tuple]:
    left, right = parse_value(args.left), parse_value(args.right)
    try:
        value = _operate(kind, left, right)
    except ExprTypeError as exc:  # the product itself is refused: no position
        raise _quoted(str(exc), f"({args.left}) {op} ({args.right})") from None
    text = format_value(value)
    return {"result": text}, text, (["result"], [[text]])


def _do_nf(args) -> tuple[dict, str, tuple]:
    series = _expr_series(args)
    rng = random.Random(args.seed) if args.seed is not None else None
    text = format_value(normal_form(series, strategy=args.strategy, rng=rng))
    data = {"result": text, "strategy": args.strategy}
    return data, text, (["result"], [[text]])


def _do_kernel(args) -> tuple[dict, str, tuple]:
    member = kernel_member(_expr_series(args))
    text = "true" if member else "false"
    return {"kernel": member}, text, (["kernel"], [[text]])


def _do_eval(args) -> tuple[dict, str, tuple]:
    series = _expr_series(args)
    params = EvalParams(_parse_point(args.z), eps=args.eps)
    value = eval_li2(series, params)
    text = _format_complex(value)
    data = {
        "re": value.real,
        "im": value.imag,
        "z": [params.z.real, params.z.imag],
        "eps": args.eps,
    }
    return data, text, (["re", "im"], [[repr(value.real), repr(value.imag)]])


def _do_lineg(args) -> tuple[dict, str, tuple]:
    comp = _parse_composition(args.composition)
    route = "recursion" if args.route == "rec" else args.route
    coeffs = li_neg_closed_form(comp, route=route)
    text = _format_den_powers(coeffs)
    data = {
        "composition": list(comp),
        "den_powers": [_json_coeff(c) for c in coeffs],
        "route": route,
    }
    rows = (["den_power", "coefficient"], [[j, str(c)] for j, c in enumerate(coeffs)])
    return data, text, rows


def _do_exact_sum(args, value_of) -> tuple[dict, str, tuple]:
    """hsum and taylor-neg: one exact value of a composition and a bound."""
    comp = _parse_composition(args.composition)
    text = str(value_of(comp, args.n))
    data = {"composition": list(comp), "n": args.n, "value": text}
    return data, text, (["value"], [[text]])


def _table_lyndon(bound: int) -> tuple[list, list, list]:
    rows = _lyndon_rows(bound)
    return ["word", "length"], rows, [{"word": w, "length": n} for w, n in rows]


def _table_lineg(bound: int) -> tuple[list, list, list]:
    rows, entries = [], []
    for comp in _lineg_compositions(bound):
        coeffs = li_neg_closed_form(comp)
        verified = all(
            closed_form_taylor_coeff(coeffs, n) == neg_taylor_coeff(comp, n)
            for n in range(1, TAYLOR_CHECK_DEPTH + 1)
        )
        rows.append([_comp_str(comp), _format_den_powers(coeffs), "true" if verified else "false"])
        entries.append(
            {
                "composition": list(comp),
                "den_powers": [_json_coeff(c) for c in coeffs],
                "verified": verified,
            }
        )
    return ["composition", "closed_form", "verified"], rows, entries


def _table_hsum(bound: int) -> tuple[list, list, list]:
    rows, entries = [], []
    for comp in _hsum_compositions(bound):
        values = [harmonic_sum(comp, n) for n in HSUM_COLUMNS]
        rows.append([_comp_str(comp)] + [str(v) for v in values])
        entries.append(
            {
                "composition": list(comp),
                "values": {str(n): str(v) for n, v in zip(HSUM_COLUMNS, values)},
            }
        )
    return ["composition"] + [f"H(N={n})" for n in HSUM_COLUMNS], rows, entries


_TABLES = {"lineg": _table_lineg, "hsum": _table_hsum, "lyndon": _table_lyndon}


def _do_table(args) -> tuple[dict, str, tuple]:
    if args.bound < 0:
        raise ValueError("table bound must be nonnegative")
    _check_rows(args.kind, args.bound)
    header, rows, entries = _TABLES[args.kind](args.bound)
    data = {"kind": args.kind, "bound": args.bound, "rows": entries}
    return data, _table_text(header, rows), (header, rows)


def _do_demo(args) -> tuple[dict, str, tuple]:
    data = discontinuity_demo(args.n, args.z)
    lines = [
        f"z = {data['z']!r}  n_max = {data['n_max']}",
        f"f-image: last = {data['f_image_values'][-1]!r}"
        f"  limit = {data['f_image_limit']!r}"
        f"  error = {data['f_final_error']:.3e}",
        f"g-image: last = {data['g_image_values'][-1]!r}"
        f"  limit = {data['g_image_limit']!r}"
        f"  error = {data['g_final_error']:.3e}",
    ]
    header = ["n", "f_image", "g_image"]
    rows = [
        [n + 1, repr(f), repr(g)]
        for n, (f, g) in enumerate(zip(data["f_image_values"], data["g_image_values"]))
    ]
    return data, "\n".join(lines), (header, rows)


def _arg(name: str, **options) -> tuple[str, dict]:
    return name, options


# verb: (help text, handler, *arguments as add_argument takes them)
_VERBS = {
    "lyndon": ("Lyndon words up to a length", _do_lyndon, _arg("max_len", type=int)),
    "shuffle": ("shuffle product of two expressions", partial(_do_product, op="#", kind="shuf"),
                _arg("left"), _arg("right")),
    "stuffle": ("stuffle product of two y-expressions", partial(_do_product, op="##", kind="stuf"),
                _arg("left"), _arg("right")),
    "nf": ("normal form modulo the kernel ideal", _do_nf, _arg("expr"),
           _arg("--strategy", choices=("measure", "random"), default="measure"),
           _arg("--seed", type=int)),
    "kernel": ("membership in the kernel ideal", _do_kernel, _arg("expr")),
    "eval": ("numeric value of an expression", _do_eval, _arg("expr"),
             _arg("--z", default="0.5", help="evaluation point, re or re,im"),
             _arg("--eps", type=float, default=1e-12)),
    "lineg": ("nonpositive-index closed form", _do_lineg, _arg("composition"),
              _arg("--route", choices=("T", "R", "F", "rec", "recursion"), default="recursion")),
    "hsum": ("exact harmonic sum H_s(N)", partial(_do_exact_sum, value_of=harmonic_sum),
             _arg("composition"), _arg("n", type=int)),
    "taylor-neg": ("Taylor coefficient of the nonpositive-index polylogarithm",
                   partial(_do_exact_sum, value_of=neg_taylor_coeff),
                   _arg("composition"), _arg("n", type=int)),
    "table": ("regression tables", _do_table,
              _arg("kind", choices=tuple(_TABLES)), _arg("bound", type=int)),
    "demo-discontinuity": ("the two image sequences separating at a point", _do_demo,
                           _arg("--z", type=float, default=0.5),
                           _arg("--n", type=int, default=40)),
}

# error class -> exit code; an error takes the code of the first class of
# its method resolution order found here
_EXIT_CODES = {ExprSyntaxError: 2, ExprTypeError: 3, ConvergenceError: 4, DomainError: 5,
               ValueError: 2}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="starshuffle",
        description="exact shuffle-algebra and polylogarithm toolkit",
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb, (help_text, handler, *arguments) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for name, options in arguments:
            p.add_argument(name, **options)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true", help="emit one JSON object")
        group.add_argument("--csv", action="store_true", help="emit CSV rows")
        p.set_defaults(handler=handler)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Exact values print in full: the limit on int-to-str conversion
    # (4,300 digits by default, on Python >= 3.10.7) is lifted while the
    # CLI runs and restored after.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: Optional[Sequence[str]]) -> int:
    args = build_parser().parse_args(argv)
    try:
        data, text, rows = args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)
    if args.json:
        print(json.dumps({"schema": 1, **data}, sort_keys=True))
    elif args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(rows[1])
    else:
        print(text)
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
