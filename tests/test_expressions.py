import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starshuffle.expressions import (
    ExprSyntaxError,
    ExprTypeError,
    Node,
    format_series,
    format_value,
    parse_expr,
    parse_value,
)
from starshuffle.shuffle_core import NCPoly, YPoly, conc, shuffle, stuffle
from starshuffle.star_series import (
    StarSeries,
    embed,
    plane_star,
    shuffle_star,
    star_term,
)
from starshuffle.words import Word


def x_word(bits: str) -> StarSeries:
    return embed(NCPoly.from_word(Word(bits)))


def as_series(v) -> StarSeries:
    if isinstance(v, Fraction):
        return StarSeries({star_term(Word()): v})
    return v


def test_literals():
    assert parse_value("3") == Fraction(3)
    assert parse_value("3/2") == Fraction(3, 2)
    assert parse_value("-3/2") == Fraction(-3, 2)
    assert parse_value('w"011"') == x_word("011")
    assert parse_value('w""') == x_word("")
    assert parse_value("y[2,1]") == YPoly({(2, 1): Fraction(1)})
    assert parse_value("y[]") == YPoly({(): Fraction(1)})
    assert parse_value("star(1,0)") == plane_star(1, 0)
    assert parse_value("star(1/2,-2)") == plane_star(Fraction(1, 2), -2)


def test_sum_and_scalar_precedence():
    assert parse_value("1 + 2 * 3") == Fraction(7)
    assert parse_value("(1 + 2) * 3") == Fraction(9)
    assert parse_value("2 - -3") == Fraction(5)
    v = parse_value('2 * w"0" + w"1"')
    assert v == x_word("0").scale(2) + x_word("1")


def test_shuffle_and_conc_precedence():
    # conc binds tighter than shuffle, shuffle tighter than +
    v = parse_value('w"0" . w"1" # w"1" + w"0"')
    want = shuffle_star(x_word("01"), x_word("1")) + x_word("0")
    assert v == want
    assert parse_value('w"0" . w"1" . w"0"') == x_word("010")
    assert parse_value('w"0" # w"1"') == embed(
        shuffle(NCPoly.from_word(Word("0")), NCPoly.from_word(Word("1")))
    )


def test_postfix_star_vs_scalar_star():
    # '*' before a primary is scalar multiplication, otherwise Kleene star
    assert parse_value('w"0"*') == plane_star(1, 0)
    assert parse_value('w"0" * 2') == x_word("0").scale(2)
    assert parse_value('2 * w"0"*') == plane_star(1, 0).scale(2)
    assert parse_value('(w"0" + w"1")*') == plane_star(1, 1)
    assert parse_value('(2 * w"0" - w"1")*') == plane_star(2, -1)
    assert parse_value('w"0"* # w"1"') == shuffle_star(plane_star(1, 0), x_word("1"))
    # one-argument star(e) is the same postfix star
    assert parse_value('star(w"0" + w"1")') == plane_star(1, 1)
    assert parse_value("star(0)") == plane_star(0, 0)


def test_star_exponents_add_under_shuffle():
    assert parse_value("star(1,0) # star(0,1)") == plane_star(1, 1)
    v = parse_value("star(1,0) # star(0,1) - star(0,1) + 1")
    want = (
        plane_star(1, 1)
        - plane_star(0, 1)
        + StarSeries({star_term(Word()): Fraction(1)})
    )
    assert v == want


def test_stuffle_side():
    v = parse_value("y[2] ## y[1]")
    assert v == stuffle(YPoly({(2,): Fraction(1)}), YPoly({(1,): Fraction(1)}))
    assert parse_value("2 ## y[1]") == YPoly({(1,): Fraction(2)})
    assert parse_value("y[2] . y[1]") == YPoly({(2, 1): Fraction(1)})
    assert parse_value("y[2] + 1") == YPoly({(2,): Fraction(1), (): Fraction(1)})


def test_whitespace_insensitivity():
    assert parse_value('w"0"#w"1"') == parse_value(' w"0"  #  w"1" ')
    assert parse_value('1+\n2') == Fraction(3)


def test_type_errors():
    for text in (
        'star(w"01")',
        "star(y[1])",
        "star(2)",
        'star(w"0", 1)',
        "y[1] # y[1]",
        'w"0" ## w"0"',
        'w"0" * w"1"',
        'w"0" + y[1]',
        "y[0]",
        '(w"0"# star(1,0)) . w"1"',
    ):
        with pytest.raises(ExprTypeError):
            parse_value(text)


def test_syntax_errors():
    for text in (
        "",
        'w"0" @',
        "star(1",
        "star(1,2,3)",
        'w"2"',
        'w"01',
        "1/0",
        "y[1",
        "y[a]",
        '(w"0"',
        "1 +",
        "##",
        'w"0" w"1"',
        "1 / w",
    ):
        with pytest.raises(ExprSyntaxError):
            parse_value(text)


DEEP_INPUTS = ("(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1")


def test_deep_nesting_is_a_syntax_error():
    for text in DEEP_INPUTS:
        with pytest.raises(ExprSyntaxError, match="nested too deeply"):
            parse_value(text)
    # nesting well inside the recursion limit still parses
    assert parse_value("(" * 50 + "1" + ")" * 50) == Fraction(1)
    assert parse_value("-" * 51 + "1") == Fraction(-1)


def test_error_positions():
    with pytest.raises(ExprSyntaxError, match="line 1, column 6"):
        parse_value('w"0" @')
    with pytest.raises(ExprSyntaxError, match="line 2, column 1"):
        parse_value("1 +\n@")
    with pytest.raises(ExprTypeError, match="column 6.*y\\[1\\]"):
        parse_value('w"0" + y[1]')


def random_series(rng: random.Random) -> StarSeries:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        w = Word([rng.randint(0, 1) for _ in range(rng.randint(0, 4))])
        a0 = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))
        a1 = Fraction(rng.randint(0, 4), rng.choice((1, 1, 2)))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if c:
            terms[star_term(w, a0, a1)] = c
    return StarSeries(terms)


def random_ypoly(rng: random.Random) -> YPoly:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        yw = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if c:
            terms[yw] = c
    return YPoly(terms)


def test_round_trip_on_generated_corpus():
    rng = random.Random(2027)
    for i in range(100):
        kind = i % 3
        if kind == 0:
            value = random_series(rng)
        elif kind == 1:
            value = random_ypoly(rng)
        else:
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        text = format_value(value)
        back = parse_value(text)
        if isinstance(value, StarSeries):
            back = as_series(back)
        elif isinstance(value, YPoly) and isinstance(back, Fraction):
            back = YPoly({(): back})
        assert back == value, text
        assert format_value(parse_value(text)) == text


def test_format_series_canonical_pieces():
    assert format_series(StarSeries.zero()) == "0"
    # epsilon-word terms sort by exponents, so star(-1,0) precedes the scalar
    s = plane_star(-1, 0) - x_word("01").scale(Fraction(3, 2)) + as_series(Fraction(2))
    assert format_series(s) == '1*star(-1,0) + 2 - 3/2*w"01"'
    assert parse_value(format_series(s)) == s


def test_parse_expr_tree_shape():
    node = parse_expr('w"0" # w"1" + 1')
    assert node.kind == "add"
    assert node.kids[0].kind == "shuf"
    assert node.kids[1].kind == "scalar"


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_a_nesting_level_costs_at_most_six_frames():
    # one level of '(' takes a frame for each of the four operator levels,
    # starred and primary; the margin covers parse_expr, the tokenizer and
    # the innermost node, not a seventh frame per level (100 more frames)
    levels, margin = 100, 40
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 6 * levels + margin)
    try:
        tree = parse_expr("(" * levels + "1" + ")" * levels)
    finally:
        sys.setrecursionlimit(limit)
    assert tree.kind == "scalar"


def test_a_digit_int_cannot_read_is_an_unexpected_character():
    # '²' is a digit to str.isdigit, but not a decimal digit
    with pytest.raises(ExprSyntaxError, match="^line 1, column 1: unexpected character '²'$"):
        parse_expr("²")
    # the Arabic-Indic digits are decimal digits, and int reads them
    assert parse_value("١٢") == Fraction(12)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
def test_an_integer_past_the_digit_limit_is_a_syntax_error():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ExprSyntaxError, match=r"^line 1, column 1: .*\(4300 digits\)"):
            parse_expr("9" * 5000)
        with pytest.raises(ExprSyntaxError, match=r"^line 2, column 3: .*\(4300 digits\)"):
            parse_expr("1 +\n  " + "9" * 5000)
        # a y-word index is placed at its own position too
        with pytest.raises(ExprSyntaxError, match=r"^line 2, column 2: .*\(4300 digits\)"):
            parse_expr("y[1,\n " + "9" * 5000 + "]")
    finally:
        sys.set_int_max_str_digits(limit)


def test_positions_after_a_literal_that_spans_lines():
    # the text the stuffle verb parses for the operands 'y[1,\n2] ## q' and 'y[1]'
    with pytest.raises(ExprSyntaxError, match="^line 2, column 7: unexpected character 'q'$"):
        parse_expr("(y[1,\n2] ## q) ## (y[1])")
    node = parse_expr("y[1,\n2] ## y[3]")
    assert (node.line, node.col) == (2, 4)
    assert [(kid.line, kid.col) for kid in node.kids] == [(1, 1), (2, 7)]
    # the quoted operand's line break is escaped, so the message is one line
    with pytest.raises(ExprTypeError, match=r"^line 2, column 4: .*'y\[1,\\n2\] # y\[3\]'$"):
        parse_value("y[1,\n2] # y[3]")


def test_y_word_indices_are_integer_tokens_placed_at_their_own_position():
    for text, where in (("y[1_0]", "line 1, column 3"), ("y[+2]", "line 1, column 3"),
                        ("y[1,,2]", "line 1, column 5"), ("y[1,x]", "line 1, column 5"),
                        ("y[1,]", "line 1, column 5"), ("y[1,\n 2 ,\t+3]", "line 2, column 6"),
                        ("y[1\x0c]", "line 1, column 3")):
        with pytest.raises(ExprSyntaxError, match=f"^{where}: y-word indices must be integers$"):
            parse_expr(text)
    # whitespace around an index, a newline included, is skipped
    assert parse_value("y[ 2 ,\n\t1\r\n]") == YPoly({(2, 1): Fraction(1)})
    assert parse_value("y[ \n]") == YPoly({(): Fraction(1)})
    # a minus sign is read, and the elaborator refuses indices below 1
    for text in ("y[-1]", "y[0]", "y[2, -3]"):
        with pytest.raises(ExprTypeError, match="must be positive integers"):
            parse_value(text)


def test_a_type_error_quoting_an_operand_across_lines_is_one_line():
    for text in ("y[1,\n2] # y[3]", "y[1,\r\n2] # y[3]", "(\ny[1]\n) # w\"0\""):
        with pytest.raises(ExprTypeError) as info:
            parse_value(text)
        assert "\n" not in str(info.value) and "\r" not in str(info.value)
        assert str(info.value).endswith(": '" + text.replace("\n", "\\n").replace("\r", "\\r") + "'")


def _nodes(node: Node):
    yield node
    for kid in node.kids:
        yield from _nodes(kid)


@given(st.one_of(st.text(), st.text(alphabet='01239²١wy"[],()+-*./#star \t\n@')))
@settings(max_examples=300, deadline=None)
def test_any_text_parses_to_a_node_or_raises_a_syntax_error(text):
    try:
        tree = parse_expr(text)
    except ExprSyntaxError as exc:
        assert str(exc).startswith("line ") or "nested too deeply" in str(exc)
        return
    assert isinstance(tree, Node)
    # each node's line and column name an offset inside its span
    starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    for node in _nodes(tree):
        offset = starts[node.line - 1] + node.col - 1
        assert node.span[0] <= offset < node.span[1]
        assert "\n" not in text[starts[node.line - 1]:offset]
