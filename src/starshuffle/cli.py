"""Batch command line front end for the series kernel.

Verbs: lyndon, shuffle, stuffle, nf, kernel, eval, lineg, hsum,
taylor-neg, table, demo-discontinuity.  Output is text by default,
--json emits one object (with a "schema": 1 field), --csv emits rows.
Exit codes: 0 success, 2 syntax error, 3 type error, 4 numeric
non-convergence, 5 unsupported domain.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ConvergenceError, DomainError
from .expressions import ExprSyntaxError, ExprTypeError, _as_series, format_value, parse_value
from .linear import _signed_sum
from .polylog import (
    ROUTES,
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


def _require_series(value, verb: str) -> StarSeries:
    series = _as_series(value)
    if series is None:
        raise ExprTypeError(f"{verb} needs an x-side series, not a y-side one")
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


def _lineg_compositions(bound: int) -> list[tuple[int, ...]]:
    comps = []
    for depth in range(1, max(bound, 1) + 1):
        budget = bound + 1 - depth
        if budget < 0:
            continue
        for parts in itertools.product(range(budget + 1), repeat=depth):
            if sum(parts) <= budget:
                comps.append(parts)
    comps.sort(key=lambda s: (len(s), sum(s), tuple(-p for p in s)))
    return comps


def _hsum_compositions(bound: int) -> list[tuple[int, ...]]:
    comps = [()]

    def extend(prefix: tuple[int, ...], rest: int) -> None:
        for part in range(1, rest + 1):
            comps.append(prefix + (part,))
            extend(prefix + (part,), rest - part)

    extend((), bound)
    comps.sort(key=lambda s: (sum(s), len(s), tuple(-p for p in s)))
    return comps


def _do_lyndon(args) -> tuple[dict, str, tuple]:
    words = sorted(lyndon_up_to(args.max_len), key=shortlex_key)
    names = [str(w) for w in words]
    data = {"max_len": args.max_len, "count": len(names), "words": names}
    rows = (["word", "length"], [[n, len(n)] for n in names])
    return data, "\n".join(names), rows


def _do_product(args, op: str) -> tuple[dict, str, tuple]:
    value = parse_value(f"({args.left}) {op} ({args.right})")
    text = format_value(value)
    return {"result": text}, text, (["result"], [[text]])


def _do_nf(args) -> tuple[dict, str, tuple]:
    series = _require_series(parse_value(args.expr), "nf")
    rng = random.Random(args.seed) if args.seed is not None else None
    text = format_value(normal_form(series, strategy=args.strategy, rng=rng))
    data = {"result": text, "strategy": args.strategy}
    return data, text, (["result"], [[text]])


def _do_kernel(args) -> tuple[dict, str, tuple]:
    member = kernel_member(_require_series(parse_value(args.expr), "kernel"))
    text = "true" if member else "false"
    return {"kernel": member}, text, (["kernel"], [[text]])


def _do_eval(args) -> tuple[dict, str, tuple]:
    series = _require_series(parse_value(args.expr), "eval")
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


def _route(name: str) -> str:
    return "recursion" if name == "rec" else name


def _do_lineg(args) -> tuple[dict, str, tuple]:
    comp = _parse_composition(args.composition)
    coeffs = li_neg_closed_form(comp, route=_route(args.route))
    text = _format_den_powers(coeffs)
    data = {
        "composition": list(comp),
        "den_powers": [_json_coeff(c) for c in coeffs],
        "route": _route(args.route),
    }
    rows = (["den_power", "coefficient"], [[j, str(c)] for j, c in enumerate(coeffs)])
    return data, text, rows


def _do_hsum(args) -> tuple[dict, str, tuple]:
    comp = _parse_composition(args.composition)
    value = harmonic_sum(comp, args.n)
    text = str(value)
    data = {"composition": list(comp), "n": args.n, "value": text}
    return data, text, (["value"], [[text]])


def _do_taylor_neg(args) -> tuple[dict, str, tuple]:
    comp = _parse_composition(args.composition)
    value = neg_taylor_coeff(comp, args.n)
    text = str(value)
    data = {"composition": list(comp), "n": args.n, "value": text}
    return data, text, (["value"], [[text]])


def _do_table(args) -> tuple[dict, str, tuple]:
    if args.bound < 0:
        raise DomainError("table bound must be nonnegative")
    if args.kind == "lyndon":
        words = sorted(lyndon_up_to(args.bound), key=shortlex_key)
        header = ["word", "length"]
        rows = [[str(w), len(w)] for w in words]
        entries = [{"word": str(w), "length": len(w)} for w in words]
    elif args.kind == "lineg":
        header = ["composition", "closed_form", "verified"]
        rows = []
        entries = []
        for comp in _lineg_compositions(args.bound):
            coeffs = li_neg_closed_form(comp)
            verified = all(
                closed_form_taylor_coeff(coeffs, n) == neg_taylor_coeff(comp, n)
                for n in range(1, TAYLOR_CHECK_DEPTH + 1)
            )
            rows.append(
                [_comp_str(comp), _format_den_powers(coeffs),
                 "true" if verified else "false"]
            )
            entries.append(
                {
                    "composition": list(comp),
                    "den_powers": [_json_coeff(c) for c in coeffs],
                    "verified": verified,
                }
            )
    else:
        header = ["composition"] + [f"H(N={n})" for n in HSUM_COLUMNS]
        rows = []
        entries = []
        for comp in _hsum_compositions(args.bound):
            values = [harmonic_sum(comp, n) for n in HSUM_COLUMNS]
            rows.append([_comp_str(comp)] + [str(v) for v in values])
            entries.append(
                {
                    "composition": list(comp),
                    "values": {str(n): str(v) for n, v in zip(HSUM_COLUMNS, values)},
                }
            )
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


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit one JSON object")
    group.add_argument("--csv", action="store_true", help="emit CSV rows")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="starshuffle",
        description="exact shuffle-algebra and polylogarithm toolkit",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("lyndon", help="Lyndon words up to a length")
    p.add_argument("max_len", type=int)
    p.set_defaults(handler=_do_lyndon)

    p = sub.add_parser("shuffle", help="shuffle product of two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=lambda a: _do_product(a, "#"))

    p = sub.add_parser("stuffle", help="stuffle product of two y-expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=lambda a: _do_product(a, "##"))

    p = sub.add_parser("nf", help="normal form modulo the kernel ideal")
    p.add_argument("expr")
    p.add_argument("--strategy", choices=("measure", "random"), default="measure")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_do_nf)

    p = sub.add_parser("kernel", help="membership in the kernel ideal")
    p.add_argument("expr")
    p.set_defaults(handler=_do_kernel)

    p = sub.add_parser("eval", help="numeric value of an expression")
    p.add_argument("expr")
    p.add_argument("--z", default="0.5", help="evaluation point, re or re,im")
    p.add_argument("--eps", type=float, default=1e-12)
    p.set_defaults(handler=_do_eval)

    p = sub.add_parser("lineg", help="nonpositive-index closed form")
    p.add_argument("composition")
    p.add_argument("--route", choices=("T", "R", "F", "rec", "recursion"),
                   default="recursion")
    p.set_defaults(handler=_do_lineg)

    p = sub.add_parser("hsum", help="exact harmonic sum H_s(N)")
    p.add_argument("composition")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_do_hsum)

    p = sub.add_parser("taylor-neg", help="Taylor coefficient of the "
                       "nonpositive-index polylogarithm")
    p.add_argument("composition")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_do_taylor_neg)

    p = sub.add_parser("table", help="regression tables")
    p.add_argument("kind", choices=("lineg", "hsum", "lyndon"))
    p.add_argument("bound", type=int)
    p.set_defaults(handler=_do_table)

    p = sub.add_parser("demo-discontinuity", help="the two image sequences "
                       "separating at a point")
    p.add_argument("--z", type=float, default=0.5)
    p.add_argument("--n", type=int, default=40)
    p.set_defaults(handler=_do_demo)

    for sp in sub.choices.values():
        _add_format_flags(sp)
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
    except ExprSyntaxError as exc:
        return _fail(2, exc)
    except ExprTypeError as exc:
        return _fail(3, exc)
    except ConvergenceError as exc:
        return _fail(4, exc)
    except DomainError as exc:
        return _fail(5, exc)
    except ValueError as exc:
        return _fail(2, exc)
    if args.json:
        print(json.dumps({"schema": 1, **data}, sort_keys=True))
    elif args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(rows[1])
    else:
        print(text)
    return 0


def _fail(code: int, exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
