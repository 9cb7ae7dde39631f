"""Byte goldens of the command line front end.

Each case is one argv list handed to starshuffle.cli.main in process, and
its golden is the return code with the exact stdout and stderr text.  The
cases run every verb in text, --json and --csv mode, every message of
ExprSyntaxError and ExprTypeError, and every exit code main returns: 0, 2
(syntax or bad value), 3 (type), 4 (no convergence) and 5 (domain).
argparse's own exits and --help are left out, because their text changes
between Python versions.

    PYTHONPATH=src python tests/cli_goldens.py > tests/cli_goldens.json

writes the file that test_cli_goldens.py compares with.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from starshuffle import cli

MODES = ((), ("--json",), ("--csv",))

# x-side expressions that elaborate, each operator and literal at least once
X_EXPRS = [
    "0", "3/4", "-2", 'w""', 'w"0"', 'w"01"', 'w"110"', "star(1,0)", "star(1/2,-1)",
    'star(w"1")', 'w"1"*', "star(1,0) # star(0,1) - star(0,1) + 1",
    '3 * star(2,2) - star(-1,1) # w"01"', 'w"01" . w"1"', '2 * w"0" . 3',
    "star(1,1) # star(0,1)", '-w"1" + 1/2', '(w"1" - w"0") * 5/2', "1 - 1",
    '-(star(2,0) . 1) # w"1"*', '1 ## 2 + 2 # 3', 'w"1"**',
]
# y-side expressions that elaborate
Y_EXPRS = [
    "y[2]", "y[1,2]", "y[]", "y[2] + y[1]", "y[2] . y[1]", "2 * y[3]",
    "y[1] ## y[2]", "3 ## y[1]", "1/2 - y[1,1]", "y[1] * 4 - 1",
]
# one expression per error message of the tokenizer, parser and elaborator
BAD_EXPRS = [
    # ExprSyntaxError
    "y[1,x]", "y[1", 'w"2"', 'w"01', "@", "1/0", "(1", "1 1", "", "star(1",
    "star(1,2,3)", "1/", "*", "w\"1\" +\n  @", "(" * 3000 + "1" + ")" * 3000,
    "-" * 3000 + "1", "-" * 700 + "1", "²", "y[1,\n2] + @", "y[1_0]", "y[+2]", "y[1,,2]",
    # ExprTypeError
    "y[0]", "y[-1]", "star(1,0)*", "star(y[1])", "y[1]*", 'star(w"0",1)',
    'w"1" * w"0"', 'w"1" . star(1,0)', 'y[1] . w"1"', 'y[1] + w"0"', 'w"0" - y[1]',
    "y[1] # y[1]", 'w"1" ## 1', 'w""*', 'star(w"01")', "y[2] * y[1]", "y[1,\n2] # y[3]",
    # DomainError
    "star(1/2,0)",
]
# (left, right) arguments of shuffle and stuffle; each argument is one
# expression, so a left argument that closes and reopens a parenthesis is
# refused
SHUFFLE_PAIRS = [('w"0"', 'w"1"'), ('w"01"', 'w"011"'), ("star(1,0)", "star(0,1)"), ("2", "3/5"),
                 ('w"1"', "-1"), ("star(1,1) # w\"1\"", 'w"01" - w"10"'), ("y[1]", 'w"0"'),
                 ('w"0"', "y[1]"), ("1 +", "1"), ('w"0"', "@"), ('w"1") + (w"0"', 'w"1"')]
STUFFLE_PAIRS = [("y[2]", "y[1]"), ("y[1,2]", "y[2,1]"), ("y[]", "y[3]"), ("2", "y[1] + 1"),
                 ("1/2", "4"), ('w"0"', "y[1]"), ("y[1]", 'w"1"'), ("y[0]", "y[1]")]
COMPOSITIONS = ["()", "", "0", "1", "2", "0,0", "2,1", "1,0,2", " 3 ", "x", "2,,1", "-1", "1,-1"]
POINTS = [
    ("0.5",), ("0.25,0.1",), ("-0.5",), ("0",), ("1.5",), ("nan",), ("abc",), ("1,2,3",),
    ("0.5", "--eps", "1e-6"), ("0.5", "--eps", "inf"), ("0.999999", "--eps", "1e-14"),
]


def cases() -> list[list[str]]:
    """Every argv, in the order of the goldens."""
    out = []

    def each_mode(verb: str, *argv: str) -> None:
        out.extend([verb, *mode, *argv] for mode in MODES)

    for n in ("0", "1", "3", "5", "-1"):
        each_mode("lyndon", n)
    for left, right in SHUFFLE_PAIRS:
        each_mode("shuffle", left, right)
    for left, right in STUFFLE_PAIRS:
        each_mode("stuffle", left, right)
    for expr in X_EXPRS:
        each_mode("nf", "--", expr)
        out.append(["nf", "--strategy", "random", "--seed", "9", "--json", "--", expr])
        each_mode("kernel", "--", expr)
    for expr in Y_EXPRS:
        out.append(["nf", "--", expr])
        out.append(["kernel", "--", expr])
        out.append(["eval", "--", expr])
    for expr in BAD_EXPRS:
        out.append(["nf", "--", expr])
        out.append(["eval", "--json", "--", expr])
    for expr in ['w"01"', "star(1,1)", 'star(1,1) # w"01"', "3/4", 'w"1" - 2*w"01"', 'w"0"',
                 'w"1"']:
        for point in POINTS:
            each_mode("eval", expr, "--z", *point)
    for comp in COMPOSITIONS:
        for route in ("T", "R", "F", "rec", "recursion"):
            out.append(["lineg", comp, "--route", route])
        each_mode("lineg", comp)
        for n in ("0", "1", "7", "-1"):
            out.append(["hsum", comp, n])
            out.append(["taylor-neg", comp, n])
        each_mode("hsum", comp, "9")
        each_mode("taylor-neg", comp, "4")
    for kind in ("lineg", "hsum", "lyndon"):
        for bound in ("0", "1", "2", "3", "-1"):
            each_mode("table", kind, bound)
    for argv in [(), ("--z", "0.25", "--n", "2"), ("--z", "0.5", "--n", "12"), ("--n", "0"),
                 ("--z", "1.5"), ("--z", "1"), ("--z", "0.9", "--n", "5")]:
        each_mode("demo-discontinuity", *argv)
    # values past the float range, refused or summed as a running product,
    # and a Taylor index far past any loop over it
    out += [["eval", "star(0,100000)", "--z", "0.9"],
            ["eval", "star(-100000,0)", "--z", "0.001"],
            ["eval", "9" * 400 + ' * w"1"', "--z", "0.5"],
            ["eval", 'w"' + "0" * 171 + '"', "--z", "0.5"],
            ["eval", 'w"' + "0" * 170 + '"', "--z", "1e-300"],
            ["taylor-neg", "1,1", "100000000"]]
    # sizes refused before any work: a table or Lyndon list past the row
    # budget, and a reduction past the exponent bit budget
    out += [["table", "hsum", "995"], ["lyndon", "99999999999"],
            ["nf", "star(100000,100000)"], ["kernel", "star(-100000,100000)"]]
    return out


def run(argv: list[str]) -> list:
    """The golden of one case: [argv, return code, stdout, stderr]."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return [argv, code, out.getvalue(), err.getvalue()]


def main() -> None:
    json.dump([run(argv) for argv in cases()], sys.stdout, indent=0, ensure_ascii=False)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
