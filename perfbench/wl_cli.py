"""Workload `cli`: every verb as a user runs it, one fresh interpreter per call.

Each verb runs in text, --json and --csv modes on small inputs, so
interpreter start, imports, argparse and parse/format dominate.  Cheap
invocations that must exit 2, 3 or 5 are mixed in, and so is `nf` on a
3000-deep nested expression, which must exit 2 (today it ends in an
uncaught RecursionError, exit 1, and counts as a failure).

`python -m starshuffle.cli` is a silent no-op (cli.py has no __main__
guard) and the console script is not installed in a source checkout, so
the child runs starshuffle.cli:run through `python -c` with
sys.argv[0] = "starshuffle".
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import oracles as O
from harness import Mismatch, child_env

ROOT = os.getcwd()
ENV = child_env(ROOT)
CHILD = "import sys; sys.argv[0] = 'starshuffle'; from starshuffle.cli import run; run()"
# Traced child: the same entry point, with its phase clocks and spans around
# the calls cli.py makes into the expressions module; reported on stderr.
TRACED_CHILD = """
import json, os, sys, time
t1 = time.monotonic()
sys.argv[0] = "starshuffle"
import starshuffle.cli as cli
t2 = time.monotonic()
st = [0.0, 0, 0]
def wrap(fn, arg_chars):
    def inner(x):
        t = time.perf_counter()
        try:
            out = fn(x)
        finally:
            st[0] += time.perf_counter() - t
        st[1 if arg_chars else 2] += len(x if arg_chars else out)
        return out
    return inner
cli.parse_value = wrap(cli.parse_value, True)
cli.format_value = wrap(cli.format_value, False)
try:
    cli.run()
finally:
    os.write(2, ("\\n@perfbench " + json.dumps([t1, t2, time.monotonic()] + st) + "\\n").encode())
"""
MARK = b"\n@perfbench "
TIMEOUT_S = 60
DEEP = 3000


class CliExit(Exception):
    """A child exited with a nonzero code."""


class Exit1(CliExit):
    pass


class Exit2(CliExit):
    pass


class Exit3(CliExit):
    pass


class Exit4(CliExit):
    pass


class Exit5(CliExit):
    pass


class BadRefusal(CliExit):
    """A nonzero exit that printed to stdout or no error message."""


EXITS = {1: Exit1, 2: Exit2, 3: Exit3, 4: Exit4, 5: Exit5}
CODES = {cls: code for code, cls in EXITS.items()}
MODES = ("text", "json", "csv")
SCHEDULE = ("lyndon", "shuffle", "nf", "eval", "refuse", "stuffle", "kernel", "lineg",
            "hsum", "taylor", "table_lyndon", "refuse", "table_hsum", "table_lineg", "demo",
            "nf", "shuffle", "eval", "refuse", "kernel")
DEEP_EVERY = 40
REPEAT_EVERY = 8  # every 8th answer is run again to check byte-identical output
RATE = 10


def _w(bits):
    return 'w"' + "".join(map(str, bits)) + '"'


def _word(rng, lo, hi):
    return tuple(rng.randint(0, 1) for _ in range(rng.randint(lo, hi)))


def _comp(s):
    return ",".join(map(str, s)) if s else "()"


def _make(kind, rng, i):
    mode = MODES[i % 3]
    m = i // 10 + 1
    if i % DEEP_EVERY == DEEP_EVERY - 1:
        return ("deep", Exit2, m, mode)
    if kind == "lyndon":
        return (kind, None, rng.randint(1, 7), mode)
    if kind == "shuffle":
        return (kind, None, (_word(rng, 1, 4), _word(rng, 1, 4)), mode)
    if kind == "stuffle":
        yw = lambda: tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))  # noqa: E731
        return (kind, None, (yw(), yw()), mode)
    if kind == "nf":
        return (kind, None, (_word(rng, 0, 2), rng.randint(-5, 5), rng.randint(0, 5)), mode)
    if kind == "kernel":
        return (kind, None, (rng.random() < 0.5, rng.randint(-4, 4) or 1, rng.randint(1, 4)), mode)
    if kind == "eval":
        z = (round(rng.uniform(0.05, 0.8), 3), round(rng.uniform(-0.4, 0.4), 3) if rng.random() < 0.5 else 0.0)
        return (kind, None, (rng.randint(1, 4), z), mode)
    if kind == "lineg":
        s = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 2)))
        return (kind, None, (s, rng.choice(("T", "R", "F", "rec"))), mode)
    if kind == "hsum":
        return (kind, None, (tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2))), rng.randint(1, 30)), mode)
    if kind == "taylor":
        return (kind, None, (tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3))), rng.randint(1, 12)), mode)
    if kind == "table_lyndon":
        return (kind, None, rng.randint(1, 6), mode)
    if kind == "table_hsum":
        return (kind, None, rng.randint(0, 3), mode)
    if kind == "table_lineg":
        return (kind, None, rng.randint(0, 2), mode)
    if kind == "demo":
        return (kind, None, (round(rng.uniform(0.2, 0.8), 2), rng.randint(5, 15)), mode)
    return rng.choice((
        ("bad_syntax", Exit2, f"star(1,{m}", mode),
        ("bad_composition", Exit2, f"1,x{m}", mode),
        ("bad_point", Exit2, f"0.5,0.1,{m}", mode),
        ("mixed_sides", Exit3, f"y[{m}]", mode),
        ("series_product", Exit3, _w((0,) + tuple(int(b) for b in bin(m)[2:])), mode),
        ("fractional_star", Exit5, f"star(1/2,{m})", mode),
        ("negative_index", Exit5, f"-{m}", mode),
        ("off_disc", Exit5, f"1.{m}", mode),
    ))


def generate(rng, n):
    ops, seen = [], set()
    for i in range(n):
        kind = SCHEDULE[i % len(SCHEDULE)]
        for _ in range(50):
            op = _make(kind, rng, i)
            if op not in seen:
                seen.add(op)
                ops.append(op)
                break
    return ops


def fixed_ops():
    return []


def argv(op):
    kind, _, p, mode = op
    if kind == "lyndon":
        args = ["lyndon", str(p)]
    elif kind == "shuffle":
        args = ["shuffle", _w(p[0]), _w(p[1])]
    elif kind == "stuffle":
        args = ["stuffle"] + ["y[" + ",".join(map(str, y)) + "]" for y in p]
    elif kind == "nf":
        w, k, l = p
        args = ["nf", (_w(w) + " # " if w else "") + f"star({k},{l})"]
    elif kind == "kernel":
        member, a, b = p
        expr = f"star({a},{b})"
        if member:
            expr += " # (star(1,0) # star(0,1) - star(0,1) + 1)"
        args = ["kernel", expr]
    elif kind == "eval":
        s, (re, im) = p
        args = ["eval", _w((0,) * (s - 1) + (1,)), "--z", f"{re},{im}" if im else f"{re}"]
    elif kind == "lineg":
        args = ["lineg", _comp(p[0]), "--route", p[1]]
    elif kind in ("hsum", "taylor"):
        args = ["hsum" if kind == "hsum" else "taylor-neg", _comp(p[0]), str(p[1])]
    elif kind.startswith("table_"):
        args = ["table", kind[6:], str(p)]
    elif kind == "demo":
        args = ["demo-discontinuity", "--z", str(p[0]), "--n", str(p[1])]
    elif kind == "deep":
        args = ["nf", "(" * DEEP + str(p) + ")" * DEEP]
    elif kind in ("bad_syntax", "fractional_star"):
        args = ["nf", p]
    elif kind == "bad_composition":
        args = ["hsum", p, "3"]
    elif kind == "bad_point":
        args = ["eval", 'w"01"', "--z", p]
    elif kind == "mixed_sides":
        args = ["shuffle", p, 'w"0"']
    elif kind == "series_product":
        args = ["kernel", f'w"1" * {p}']
    elif kind == "negative_index":
        args = ["lineg", p]
    elif kind == "off_disc":
        args = ["eval", 'w"1"', "--z", p]
    else:
        raise ValueError(kind)
    return args + ([] if mode == "text" else ["--" + mode])


_peak_kb = [0]
_phases: dict = {"spawn": [], "import": [], "main": [], "expr": []}


def _drain(p):
    """Read both pipes to the end, then reap the child with wait4 for its
    peak RSS; returns (stdout, stderr)."""
    sel = selectors.DefaultSelector()
    out_fd, err_fd = p.stdout.fileno(), p.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    for f in (p.stdout, p.stderr):
        sel.register(f, selectors.EVENT_READ)
    deadline = time.monotonic() + TIMEOUT_S
    try:
        while sel.get_map():
            events = sel.select(max(0.0, deadline - time.monotonic()))
            if not events:
                p.kill()
                raise TimeoutError("cli child did not finish")
            for key, _ in events:
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    finally:
        sel.close()
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        p.stderr.close()
    _peak_kb[0] = max(_peak_kb[0], ru.ru_maxrss)
    return b"".join(chunks[out_fd]), b"".join(chunks[err_fd])


def spawn(args, traced=False):
    """Run the CLI in a fresh interpreter; return (code, stdout, stderr)."""
    t0 = time.monotonic()
    p = subprocess.Popen([sys.executable, "-c", TRACED_CHILD if traced else CHILD, *args],
                         cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = _drain(p)
    if traced and MARK in err:
        head, _, rest = err.partition(MARK)
        line, _, tail = rest.partition(b"\n")
        err = head + tail
        t1, t2, t3, expr_s, chars_in, chars_out = json.loads(line)
        _phases["spawn"].append(t1 - t0)
        _phases["import"].append(t2 - t1)
        _phases["main"].append(t3 - t2)
        _phases["expr"].append((expr_s, chars_in, chars_out))
    return p.returncode, out, err


def execute(op, T):
    code, out, err = spawn(argv(op), T.enabled)
    want = CODES.get(op[1], 0)
    T.add("cli.exit_mismatch", int(code != want))
    if code == 0:
        return out
    if out or not (err.startswith(b"error: ") or b"usage:" in err):
        raise BadRefusal(code)
    raise EXITS.get(code, CliExit)(code)


# ---- expected output, rendered from benchmark-side values ----

def _signed(parts):
    out = []
    for c, body in parts:
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out) if out else "0"


def _series_text(terms):
    """terms {(word, a0, a1): c} in the CLI's canonical rendering."""
    parts = []
    for (w, a0, a1) in sorted(terms, key=lambda t: (len(t[0]), t[0], t[1], t[2])):
        c = terms[w, a0, a1]
        atoms = ([_w(w)] if w else []) + ([f"star({Fraction(a0)},{Fraction(a1)})"] if a0 or a1 else [])
        body = " # ".join(atoms)
        parts.append((c, f"{abs(c)}*{body}" if body else str(abs(c))))
    return _signed(parts)


def _den_powers_text(coeffs):
    parts = [(c, str(abs(c)) if j == 0 else f"{abs(c)}*(1-z)^-{j}") for j, c in enumerate(coeffs) if c]
    return _signed(parts)


def _json_coeff(c):
    return int(c) if c.denominator == 1 else str(c)


def _table_text(header, rows):
    cells = [list(header)] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells)


def _lineg_compositions(bound):
    comps = [parts for depth in range(1, max(bound, 1) + 1)
             for parts in itertools.product(range(bound + 2 - depth), repeat=depth)
             if sum(parts) <= bound + 1 - depth]
    return sorted(comps, key=lambda s: (len(s), sum(s), tuple(-p for p in s)))


def _hsum_compositions(bound):
    comps = [()] + [s for n in range(1, bound + 1) for d in range(1, n + 1)
                    for s in itertools.product(range(1, n + 1), repeat=d) if sum(s) == n]
    return sorted(comps, key=lambda s: (sum(s), len(s), tuple(-p for p in s)))


def expected(op):
    """(data, text, (header, rows)) as the CLI documents them."""
    kind, _, p, _ = op
    if kind in ("lyndon", "table_lyndon"):
        names = ["".join(map(str, w)) for w in sorted(O.brute_lyndon(p), key=lambda w: (len(w), w))]
        header, rows = ["word", "length"], [[n, len(n)] for n in names]
        if kind == "lyndon":
            return {"max_len": p, "count": len(names), "words": names}, "\n".join(names), (header, rows)
        data = {"kind": "lyndon", "bound": p, "rows": [{"word": n, "length": len(n)} for n in names]}
        return data, _table_text(header, rows), (header, rows)
    if kind in ("shuffle", "stuffle", "nf"):
        if kind == "shuffle":
            text = _series_text({(w, 0, 0): c for w, c in O.naive_shuffle(*p).items()})
        elif kind == "stuffle":
            terms = O.naive_stuffle(*p)
            text = _signed([(terms[y], f"{terms[y]}*y[" + ",".join(map(str, y)) + "]")
                            for y in sorted(terms, key=lambda t: (len(t), t))])
        else:
            w, k, l = p
            text = _series_text({(w, k2, l2): c for (k2, l2), c in O.plane_nf(k, l).items()})
        data = {"result": text, "strategy": "measure"} if kind == "nf" else {"result": text}
        return data, text, (["result"], [[text]])
    if kind == "kernel":
        member = p[0]
        text = "true" if member else "false"
        return {"kernel": member}, text, (["kernel"], [[text]])
    if kind == "lineg":
        s, route = p
        coeffs = O.lineg_reference(s)
        data = {"composition": list(s), "den_powers": [_json_coeff(c) for c in coeffs],
                "route": "recursion" if route == "rec" else route}
        return data, _den_powers_text(coeffs), (["den_power", "coefficient"], [[j, str(c)] for j, c in enumerate(coeffs)])
    if kind in ("hsum", "taylor"):
        s, n = p
        text = str(O.harmonic_naive(s, n) if kind == "hsum" else O.neg_taylor_naive(s, n))
        return {"composition": list(s), "n": n, "value": text}, text, (["value"], [[text]])
    if kind == "table_hsum":
        header = ["composition"] + [f"H(N={n})" for n in (5, 10, 20)]
        rows, entries = [], []
        for s in _hsum_compositions(p):
            values = [O.harmonic_naive(s, n) for n in (5, 10, 20)]
            rows.append([_comp(s)] + [str(v) for v in values])
            entries.append({"composition": list(s), "values": {str(n): str(v) for n, v in zip((5, 10, 20), values)}})
        return {"kind": "hsum", "bound": p, "rows": entries}, _table_text(header, rows), (header, rows)
    if kind == "table_lineg":
        header = ["composition", "closed_form", "verified"]
        rows, entries = [], []
        for s in _lineg_compositions(p):
            coeffs = O.lineg_reference(s)
            rows.append([_comp(s), _den_powers_text(coeffs), "true"])
            entries.append({"composition": list(s), "den_powers": [_json_coeff(c) for c in coeffs], "verified": True})
        return {"kind": "lineg", "bound": p, "rows": entries}, _table_text(header, rows), (header, rows)
    raise ValueError(kind)


def _render(data, text, rows, mode):
    if mode == "json":
        return json.dumps({"schema": 1, **data}, sort_keys=True) + "\n"
    if mode == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(rows[1])
        return buf.getvalue()
    return text + "\n"


def _close(a, b, tol):
    if abs(a - b) > tol * (1 + abs(b)):
        raise Mismatch(f"{a!r} != {b!r}")


def _check_eval(op, out):
    s, (re, im) = op[2]
    z = complex(re, im)
    want = O.polylog(s, z)
    mode = op[3]
    if mode == "json":
        d = json.loads(out)
        if sorted(d) != ["eps", "im", "re", "schema", "z"] or d["z"] != [re, im] or d["eps"] != 1e-12:
            raise Mismatch("eval JSON keys")
        got = complex(d["re"], d["im"])
    elif mode == "csv":
        lines = out.decode().splitlines()
        if lines[0] != "re,im" or len(lines) != 2:
            raise Mismatch("eval CSV shape")
        got = complex(*map(float, lines[1].split(",")))
    else:
        text = out.decode().strip()
        got = complex(*map(float, text.strip("()").split(","))) if text.startswith("(") else complex(float(text))
    _close(got.real, want.real, 1e-11)
    _close(got.imag, want.imag, 1e-11)


def _demo_reference(z, n):
    """iota_0 images: partial sums of exp(log z) - 1, and the integral from
    0 to z of sum (-1)^(m+1) Li_{x1^m}(t) dt / t, by quadrature."""
    import mpmath

    log = cmath.log(z).real
    f_vals, g_vals, acc = [], [], 0.0
    for j in range(1, n + 2):
        acc += log ** j / mpmath.factorial(j)
        if j >= 2:
            f_vals.append(float(acc))
    for m in range(1, n + 1):
        g = lambda t, m=m: sum((-1) ** (j + 1) * (-mpmath.log(1 - t)) ** j / mpmath.factorial(j)  # noqa: E731
                               for j in range(1, m + 1)) / t
        g_vals.append(float(mpmath.quad(g, [0, z])))
    return f_vals, g_vals


def _check_demo(op, out):
    z, n = op[2]
    f_vals, g_vals = _demo_reference(z, n)
    mode = op[3]
    text = out.decode()
    if mode == "json":
        d = json.loads(text)
        if d["z"] != z or d["n_max"] != n or d["f_image_limit"] != z - 1.0 or d["g_image_limit"] != z:
            raise Mismatch("demo JSON fields")
        got_f, got_g = d["f_image_values"], d["g_image_values"]
    elif mode == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["n", "f_image", "g_image"] or [r[0] for r in rows[1:]] != [str(i) for i in range(1, n + 1)]:
            raise Mismatch("demo CSV shape")
        got_f = [float(r[1]) for r in rows[1:]]
        got_g = [float(r[2]) for r in rows[1:]]
    else:
        lines = text.splitlines()
        if len(lines) != 3 or lines[0] != f"z = {z!r}  n_max = {n}":
            raise Mismatch("demo text shape")
        got_f = [float(lines[1].split("last = ")[1].split()[0])]
        got_g = [float(lines[2].split("last = ")[1].split()[0])]
        f_vals, g_vals = f_vals[-1:], g_vals[-1:]
    if len(got_f) != len(f_vals) or len(got_g) != len(g_vals):
        raise Mismatch("demo value count")
    for a, b in zip(got_f + got_g, f_vals + g_vals):
        _close(a, b, 1e-9)


_answers = [0]


def check(op, out):
    if op[0] == "eval":
        _check_eval(op, out)
    elif op[0] == "demo":
        _check_demo(op, out)
    else:
        want = _render(*expected(op), op[3]).encode()
        if out != want:
            raise Mismatch(f"stdout {out[:80]!r} != {want[:80]!r}")
    _answers[0] += 1
    if _answers[0] % REPEAT_EVERY == 0:
        code, again, _ = spawn(argv(op))
        if code != 0 or again != out:
            raise Mismatch("two identical invocations printed different bytes")


def peak_rss_mb():
    return _peak_kb[0] / 1024.0


def layer_stats(T):
    expr = _phases["expr"]
    return {
        "cli.spawn_ms": statistics.median(_phases["spawn"]) * 1e3,
        "cli.import_ms": statistics.median(_phases["import"]) * 1e3,
        "cli.main_ms": statistics.median(_phases["main"]) * 1e3,
        "expressions.busy_ms": sum(e[0] for e in expr) * 1e3,
        "expressions.chars_in": sum(e[1] for e in expr),
        "expressions.chars_out": sum(e[2] for e in expr),
    }
