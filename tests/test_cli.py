import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import starshuffle
from cli_goldens import SHUFFLE_PAIRS, STUFFLE_PAIRS
from starshuffle.cli import main
from starshuffle.expressions import format_value, parse_value

GENERATOR = 'star(1,0) # star(0,1) - star(0,1) + 1'


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lyndon_golden(capsys):
    code, out, _ = run_cli(capsys, "lyndon", "3")
    assert code == 0
    assert out == "0\n1\n01\n001\n011\n"


def test_shuffle_golden(capsys):
    code, out, _ = run_cli(capsys, "shuffle", 'w"0"', 'w"1"')
    assert code == 0
    assert out == '1*w"01" + 1*w"10"\n'


def test_stuffle_golden(capsys):
    code, out, _ = run_cli(capsys, "stuffle", "y[2]", "y[1]")
    assert code == 0
    assert out == "1*y[3] + 1*y[1,2] + 1*y[2,1]\n"


def test_each_product_argument_is_one_expression(capsys):
    # a left argument that closes and reopens a parenthesis is not spliced
    # into the product's text, and a position counts on its own argument
    code, out, err = run_cli(capsys, "shuffle", 'w"1") + (w"0"', 'w"1"')
    assert (code, out) == (2, "")
    assert err == "error: line 1, column 5: unexpected ')' after expression\n"
    checked = 0
    for verb, op, pairs in (("shuffle", "#", SHUFFLE_PAIRS), ("stuffle", "##", STUFFLE_PAIRS)):
        for left, right in pairs:
            try:
                parse_value(left), parse_value(right)
                want = format_value(parse_value(f"({left}) {op} ({right})"))
            except ValueError:
                continue
            assert run_cli(capsys, verb, left, right) == (0, want + "\n", ""), (verb, left, right)
            checked += 1
    assert checked == 11


def test_nf_and_kernel_golden(capsys):
    code, out, _ = run_cli(capsys, "nf", GENERATOR)
    assert code == 0
    assert out == "0\n"
    code, out, _ = run_cli(capsys, "kernel", GENERATOR)
    assert code == 0
    assert out == "true\n"
    code, out, _ = run_cli(capsys, "kernel", "star(1,1)")
    assert code == 0
    assert out == "false\n"


def test_nf_strategies_agree(capsys):
    expr = '3 * star(2,2) - star(-1,1) # w"01"'
    _, measure, _ = run_cli(capsys, "nf", expr)
    _, randomized, _ = run_cli(capsys, "nf", expr, "--strategy", "random",
                               "--seed", "9")
    assert measure == randomized


def test_eval_golden(capsys):
    code, out, _ = run_cli(capsys, "eval", 'w"01"', "--z", "0.5")
    assert code == 0
    dilog_half = math.pi**2 / 12 - math.log(2) ** 2 / 2
    assert abs(float(out) - dilog_half) < 1e-12
    code, out, _ = run_cli(capsys, "eval", "star(1,1)", "--z", "0.25,0.1",
                           "--json")
    data = json.loads(out)
    assert data["schema"] == 1
    z = complex(0.25, 0.1)
    want = z / (1 - z)
    assert abs(complex(data["re"], data["im"]) - want) < 1e-12


def test_lineg_golden(capsys):
    code, out, _ = run_cli(capsys, "lineg", "0", "--route", "F", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["den_powers"] == [-1, 1]
    assert data["schema"] == 1
    code, out, _ = run_cli(capsys, "lineg", "0")
    assert out == "-1 + 1*(1-z)^-1\n"
    code, out, _ = run_cli(capsys, "lineg", "0,0")
    assert out == "1 - 2*(1-z)^-1 + 1*(1-z)^-2\n"


def test_lineg_routes_match(capsys):
    outs = set()
    for route in ("T", "R", "F", "rec", "recursion"):
        _, out, _ = run_cli(capsys, "lineg", "2,1", "--route", route)
        outs.add(out)
    assert len(outs) == 1


def test_hsum_golden(capsys):
    code, out, _ = run_cli(capsys, "hsum", "2", "3")
    assert code == 0
    assert out == "49/36\n"
    code, out, _ = run_cli(capsys, "hsum", "()", "7")
    assert out == "1\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int-to-str conversion before Python 3.10.7")
def test_exact_values_print_past_the_int_digit_limit(capsys):
    from starshuffle import harmonic_sum

    limit = sys.get_int_max_str_digits()
    value = harmonic_sum((3, 3, 3), 2000)
    n = int("9" * 2200)
    sys.set_int_max_str_digits(0)
    try:
        want_hsum, want_taylor = str(value), str(n**2)
        arg = str(n)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want_hsum) > limit
    code, out, err = run_cli(capsys, "hsum", "3,3,3", "2000")
    assert (code, out, err) == (0, want_hsum + "\n", "")
    code, out, _ = run_cli(capsys, "hsum", "3,3,3", "2000", "--json")
    assert code == 0
    assert out.startswith('{"composition": [3, 3, 3], "n": 2000, "schema": 1, "value": "')
    assert out.endswith(want_hsum + '"}\n')
    code, out, _ = run_cli(capsys, "taylor-neg", "2", arg)
    assert (code, out) == (0, want_taylor + "\n")
    # the limit holds again for the rest of the process
    assert sys.get_int_max_str_digits() == limit


def test_taylor_neg_golden(capsys):
    code, out, _ = run_cli(capsys, "taylor-neg", "2,1", "5")
    assert code == 0
    # sum over 5 = n1 > n2 of n1^2 n2 = 25 * (1+2+3+4)
    assert out == "250\n"


def test_table_lyndon_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "lyndon", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["word", "length"]
    assert len(lines) == 6
    assert lines[1].split() == ["0", "1"]
    assert lines[5].split() == ["011", "3"]


def test_table_lineg_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "lineg", "2", "--json")
    assert code == 0
    data = json.loads(out)
    comps = [tuple(r["composition"]) for r in data["rows"]]
    assert comps == [(0,), (1,), (2,), (0, 0), (1, 0), (0, 1)]
    assert all(r["verified"] for r in data["rows"])


def test_table_hsum_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "hsum", "0", "--csv")
    assert code == 0
    assert out == "composition,H(N=5),H(N=10),H(N=20)\n(),1,1,1\n"
    code, out, _ = run_cli(capsys, "table", "hsum", "2", "--json")
    data = json.loads(out)
    comps = [tuple(r["composition"]) for r in data["rows"]]
    assert comps == [(), (1,), (2,), (1, 1)]
    assert data["rows"][1]["values"]["5"] == "137/60"


def test_demo_discontinuity_golden(capsys):
    code, out, _ = run_cli(capsys, "demo-discontinuity", "--z", "0.5", "--n",
                           "12", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["f_image_limit"] == -0.5
    assert data["g_image_limit"] == 0.5
    assert len(data["f_image_values"]) == 12
    assert data["f_final_error"] < 1e-3
    code, out, _ = run_cli(capsys, "demo-discontinuity", "--z", "0.5", "--n",
                           "3", "--csv")
    assert len(out.splitlines()) == 4


def test_exit_codes(capsys):
    cases = [
        (2, ("nf", 'w"0" @')),
        (2, ("hsum", "2,x", "5")),
        (3, ("nf", "y[2]")),
        (3, ("shuffle", "y[1]", 'w"0"')),
        (3, ("nf", 'star(w"01")')),
        (4, ("eval", 'w"1"', "--z", "0.999999", "--eps", "1e-14")),
        (5, ("nf", "star(1/2,0)")),
        (5, ("eval", 'w"0"', "--z", "1.5")),
        (5, ("hsum", "0,1", "5")),
        (2, ("table", "lineg", "-1")),
        (2, ("table", "lyndon", "-1")),
        (5, ("hsum", "99999999999999999999", "3")),
        (5, ("taylor-neg", "99999999999999999999", "3")),
        # values outside the float range are refused, not raised as OverflowError
        (5, ("eval", "star(0,100000)", "--z", "0.9")),
        (5, ("eval", "star(-100000,0)", "--z", "0.001")),
        (5, ("eval", "9" * 400 + ' * w"1"', "--z", "0.5")),
        # log(z)^n / n! past the float range on the way: a running product
        (0, ("eval", 'w"' + "0" * 171 + '"', "--z", "0.5")),
        (0, ("eval", 'w"' + "0" * 170 + '"', "--z", "1e-300")),
        # an index far past any loop over it
        (0, ("taylor-neg", "1,1", "100000000")),
        # the trailing-x0 row in closed form: no recursion, int entries
        # checked against the float range, and a bounded row
        (0, ("eval", 'w"1' + "0" * 1030 + '"', "--z", "0.5")),
        (5, ("eval", 'w"' + "0" * 540 + "1" + "0" * 560 + '"', "--z", "0.5")),
        (5, ("eval", 'w"' + "10110" * 4 + "0" * 40 + '"', "--z", "0.5")),
        # a sum of finite terms past the float range, in text and in JSON
        (5, ("eval", "9" * 300 + " * star(0,10)", "--z", "0.9")),
        (5, ("eval", "9" * 300 + " * star(0,10)", "--z", "0.9", "--json")),
        # past the row budget, refused before any row is built
        (5, ("table", "hsum", "995")),
        (5, ("lyndon", "99999999999")),
        # past the exponent bit budget, refused before any binomial
        (5, ("nf", "star(100000,100000)")),
        (5, ("kernel", "star(-100000,100000)")),
    ]
    for want, argv in cases:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 5, argv
        assert code == want, argv
        if want:
            assert not out
            assert err.startswith("error: ")
        else:
            assert out and not err, argv


def test_powers_of_the_log_at_a_real_point_print_a_real_number(capsys):
    # the trailing x0s pick up log(0.5)^n / n! with n past 100, which is real
    for word in ("0" * 101, "1" + "0" * 1030):
        code, out, err = run_cli(capsys, "eval", f'w"{word}"', "--z", "0.5")
        assert code == 0 and not err
        float(out)  # one real number, not a (re,im) pair


def test_json_outputs_carry_schema(capsys):
    invocations = [
        ("lyndon", "2"),
        ("shuffle", 'w"0"', 'w"1"'),
        ("stuffle", "y[1]", "y[1]"),
        ("nf", "star(1,1)"),
        ("kernel", "star(1,1)"),
        ("eval", 'w"1"', "--z", "0.25"),
        ("lineg", "1"),
        ("hsum", "2,1", "9"),
        ("taylor-neg", "1", "4"),
        ("table", "hsum", "1"),
        ("demo-discontinuity", "--z", "0.25", "--n", "2"),
    ]
    for argv in invocations:
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0, argv
        assert json.loads(out)["schema"] == 1, argv


def test_byte_identical_reruns(capsys):
    for argv in [
        ("table", "lineg", "3", "--csv"),
        ("table", "hsum", "3"),
        ("nf", '3 * star(2,1) - star(-2,0)', "--json"),
        ("eval", 'star(1,1) # w"01"', "--z", "0.3,0.2", "--json"),
    ]:
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


@pytest.mark.skipif(shutil.which("starshuffle") is None,
                    reason="console script not installed")
def test_console_script_runs():
    proc = subprocess.run(["starshuffle", "hsum", "2", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "49/36\n"


def test_module_entry_point_matches_main(capsys):
    _, want, _ = run_cli(capsys, "lyndon", "3")
    src = str(Path(starshuffle.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "starshuffle.cli", "lyndon", "3"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert proc.stdout == want


def test_deep_nesting_exits_with_syntax_error(capsys):
    for argv in (("nf", "(" * 3000 + "1" + ")" * 3000), ("nf", "--", "-" * 3000 + "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "nested too deeply" in err


def _balanced(text):
    depth = 0
    for ch in text:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth < 0:
            return False
    return depth == 0


def test_an_error_quotes_a_parenthesised_operand_whole(capsys):
    # a node built on a parenthesised operand covers its parentheses, so
    # the quoted text never cuts them in half
    for argv, quote in (
        (("nf", '(w"01")*'), '(w"01")*'),
        (("nf", 'w"0" . (star(1,0))'), 'w"0" . (star(1,0))'),
        (("nf", "--", '-((w"01"))*'), '-((w"01"))*'),
        (("shuffle", "y[1]", 'w"0"'), '(y[1]) # (w"0")'),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.endswith(f": '{quote}'\n") and _balanced(quote), err


def test_non_finite_eval_arguments_are_domain_errors(capsys):
    for argv in (("--z", "nan"), ("--z", "0.5", "--eps", "inf"), ("--z", "0.5", "--eps", "nan")):
        code, out, _ = run_cli(capsys, "eval", 'w"1"', *argv)
        assert code == 5, argv
        assert out == ""


def test_hopeless_eval_is_refused_fast(capsys):
    import time

    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", 'w"1"', "--z", "0.999999", "--eps", "1e-14")
    assert time.perf_counter() - t0 < 0.1
    assert code == 4
    assert out == ""
    assert err.startswith("error: no convergence at tolerance")


def test_eval_of_powers_past_the_float_range(capsys):
    word = 'w"1' + "0" * 1099 + '1"'
    code, out, err = run_cli(capsys, "eval", word, "--z", "0.5")
    assert code == 0, err
    assert abs(float(out) - (math.log(2) - 0.5)) < 1e-12


def test_row_counts_are_the_rows_built_and_the_budget_refuses_past_them(capsys):
    from starshuffle import cli

    for bound in range(11):
        assert len(cli._hsum_compositions(bound)) == cli._ROW_COUNTS["hsum"](bound) == 2 ** bound
        assert len(cli._lineg_compositions(bound)) == cli._ROW_COUNTS["lineg"](bound)
        assert len(cli._lyndon_rows(bound)) == cli._ROW_COUNTS["lyndon"](bound)
    code, out, err = run_cli(capsys, "lyndon", "20", "--json")
    assert code == 0 and not err and json.loads(out)["count"] == 111013
    # the largest bounds each kind's budget admits, which answer within
    # seconds, and the smallest it refuses
    for kind, bound in (("lyndon", 20), ("hsum", 15), ("lineg", 11)):
        cli._check_rows(kind, bound)
    for argv in (("lyndon", "21"), ("table", "lyndon", "21"), ("table", "hsum", "18"),
                 ("table", "lineg", "17"), ("table", "lineg", "9" * 30),
                 ("table", "hsum", "16"), ("table", "hsum", "17"),
                 ("table", "lineg", "12"), ("table", "lineg", "16")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.1, argv
        assert code == 5 and not out and err.startswith("error: "), argv


def test_run_exits_with_the_code_of_main(monkeypatch, capsys):
    from starshuffle.cli import run

    monkeypatch.setattr(sys, "argv", ["starshuffle", "hsum", "2", "3"])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "49/36\n"
