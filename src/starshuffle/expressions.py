r"""Expression language for series: parser, elaborator, pretty-printer.

Tokens.  One compiled pattern scans the text, one alternative per token
kind: whitespace (space, tab, carriage return, newline), skipped; INT,
which is \d+, the Unicode decimal digits, exactly the ones int() reads;
the literals w"bits" and y[k,...]; and star, ##, # ( ) + - * . / ,.  Any
other character is refused.  A literal runs to its first closing quote
or bracket, and one without it is refused as unterminated.  Each index
k of a y-word is an INT with an optional minus sign, between optional
whitespace, and a bad one is refused at its own offset.  An INT past
the interpreter's digit limit (sys.get_int_max_str_digits) is refused
with int's own message, which names the limit.  Tokens carry offsets
into the text only.

Grammar.  The binary operators form a precedence table, loosest first,
and each level is left-associative::

    level  operators  node kinds
    0      + -        add, sub
    1      # ##       shuf, stuf      shuffle / stuffle
    2      . (dot)    cat             concatenation
    3      *          mul             scalar multiplication

    expr    :=  level 0;  level i := level i+1 (op_i level i+1)*
    level 4 :=  starred
    starred :=  primary '*'*                   postfix Kleene star
    primary :=  INT ['/' INT] | w"bits" | y[k,...] | star(expr[, expr])
             |  '(' expr ')' | '-' primary

A '*' is read as scalar multiplication exactly when the next token can
start a primary, and as the postfix star otherwise.  star(a0, a1) builds
the plane star (a0 x0 + a1 x1)*; star(e) is the postfix star of e.

Expressions elaborate to a Fraction, a StarSeries (x-side) or a YPoly
(y-side).  The binary operators other than '*' elaborate by one table:
per node kind, the operation on two scalars, the x-side lift and
operation, the y-side operation (on operands lifted to YPoly), and the
refusal for each side.  An operand on the y-side puts the node there.
_operate applies a row to two values; the elaborator places its refusal
at the node, and the command line's shuffle and stuffle, which parse
each argument as one expression, apply their row through it too.
Type mismatches (stuffle on the x-side, star of a non-plane element,
products of two series) raise ExprTypeError; malformed input raises
ExprSyntaxError.  Both name a line and a column, each from 1, counted
on the text as given (a newline inside a y[...] literal counts).  They
are worked out from offsets only where they are reported: an
ExprSyntaxError counts them from its offset, and the parser reads each
Node's off one table of line-start offsets, by bisection, so parsing
stays linear in the text.  An ExprTypeError quotes the operand's text
with its line breaks written as \n and \r, so every message is one line.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple, NoReturn, Optional, Union

from .errors import DomainError
from .linear import _signed_sum
from .shuffle_core import NCPoly, YPoly, conc, stuffle
from .star_series import (
    StarSeries,
    embed,
    plane_star,
    shuffle_star,
    star,
    star_term,
    term_sort_key,
)
from .words import Word

Value = Union[Fraction, StarSeries, YPoly]


class ExprSyntaxError(ValueError):
    """Malformed expression text."""


class ExprTypeError(ValueError):
    """Structurally valid expression with an ill-typed subterm."""


class Token(NamedTuple):
    """One token; start and end are offsets into the source text."""

    kind: str
    value: object
    start: int
    end: int


class Node(NamedTuple):
    """Expression tree node; span indexes into the source text."""

    kind: str
    line: int
    col: int
    span: tuple[int, int]
    value: object = None
    kids: tuple["Node", ...] = ()


_PRIMARY_START = frozenset({"int", "word", "yword", "star", "(", "-"})

# The binary operators, loosest first: token kind -> node kind.  A '*' is
# an operator only before a token in _PRIMARY_START.
_LEVELS = (
    {"+": "add", "-": "sub"},
    {"#": "shuf", "##": "stuf"},
    {".": "cat"},
    {"*": "mul"},
)
_TIGHTEST = len(_LEVELS) - 1

# One alternative per token kind: whitespace (unnamed, skipped), then the
# tokens, then any other character, which is refused.  A literal's closing
# quote or bracket is optional, so that an unterminated literal is matched
# and then refused.
_TOKEN = re.compile(r'''[ \t\r\n]+
    | (?P<int>\d+)
    | (?P<word>w"(?P<bits>[^"]*)(?P<word_end>")?)
    | (?P<yword>y\[(?P<indices>[^\]]*)(?P<yword_end>\])?)
    | (?P<op>star|\#\#|[#()+\-*./,])
    | (?P<bad>.)''', re.VERBOSE | re.DOTALL)


# the whitespace the tokenizer skips, and one y-word index: an INT with an
# optional minus (the elaborator refuses indices below 1) in whitespace
_SPACE = " \t\r\n"
_INDEX = re.compile(r"[ \t\r\n]*-?\d+[ \t\r\n]*")


def _syntax_error(text: str, offset: int, msg: str) -> ExprSyntaxError:
    """The error at an offset, its line and column (both from 1) counted
    on the text."""
    line, col = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    return ExprSyntaxError(f"line {line}, column {col}: {msg}")


def _word(m: re.Match) -> Word:
    if m["word_end"] is None:
        raise ValueError("unterminated word literal")
    if m["bits"].strip("01"):
        raise ValueError("word literals contain only 0 and 1")
    return Word(m["bits"])


def _yword(m: re.Match) -> tuple[int, ...]:
    if m["yword_end"] is None:
        raise ValueError("unterminated y-word literal")
    body, at, out = m["indices"], m.start("indices"), []
    for piece in body.split(",") if body.strip(_SPACE) else ():
        # the offset of this index's first character that is not whitespace
        start, at = at + len(piece) - len(piece.lstrip(_SPACE)), at + len(piece) + 1
        try:
            if not _INDEX.fullmatch(piece):
                raise ValueError("y-word indices must be integers")
            out.append(int(piece))
        except ValueError as exc:  # int's own names the digit limit
            raise ValueError(str(exc), start) from None
    return tuple(out)


def _bad(m: re.Match) -> NoReturn:
    raise ValueError(f"unexpected character {m['bad']!r}")


# token kind: its value, read off the match; a ValueError names what is
# wrong with the token, and a second argument, if any, the offset of the
# fault inside it.  int's own names the interpreter's digit limit.
_VALUE = {"int": lambda m: int(m["int"]), "word": _word, "yword": _yword, "bad": _bad}


def tokenize(text: str) -> list[Token]:
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "op":
            toks.append(Token(m["op"], m["op"], m.start(), m.end()))
        elif kind:
            try:
                value = _VALUE[kind](m)
            except ValueError as exc:
                msg, at = exc.args if len(exc.args) == 2 else (str(exc), m.start())
                raise _syntax_error(text, at, msg) from None
            toks.append(Token(kind, value, m.start(), m.end()))
    toks.append(Token("eof", None, len(text), len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        # the offset of each line's first character, for the nodes' positions
        self.starts = [0] + [m.end() for m in re.finditer("\n", text)]
        self.pos = 0
        # id of a parenthesised node -> the span of its outermost parentheses
        self.bracketed: dict[int, tuple[int, int]] = {}

    def outer(self, node: Node) -> tuple[int, int]:
        """node's span, widened to the parentheses around it: the part of
        the text that a node built on it covers."""
        return self.bracketed.get(id(node), node.span)

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def take(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(tok, f"expected {kind!r}, found {tok.kind!r}")
        return self.take()

    def error(self, tok: Token, msg: str) -> None:
        raise _syntax_error(self.text, tok.start, msg)

    def node(self, kind: str, at: Token, start: int, end: int, value=None, kids=()) -> Node:
        """A node placed at token at, spanning text[start:end]."""
        line = bisect_right(self.starts, at.start)
        col = at.start - self.starts[line - 1] + 1
        return Node(kind, line, col, (start, end), value, tuple(kids))

    def parse(self) -> Node:
        node = self.binary()
        tok = self.peek()
        if tok.kind != "eof":
            self.error(tok, f"unexpected {tok.kind!r} after expression")
        return node

    def binary(self, level: int = 0) -> Node:
        # The tightest level calls starred() itself, so a nesting level
        # costs one Python frame per grammar rule and no more.
        ops = _LEVELS[level]
        node = self.starred() if level == _TIGHTEST else self.binary(level + 1)
        while (kind := self.peek().kind) in ops and (
            kind != "*" or self.peek(1).kind in _PRIMARY_START
        ):
            op = self.take()
            rhs = self.starred() if level == _TIGHTEST else self.binary(level + 1)
            node = self.node(ops[kind], op, self.outer(node)[0], self.outer(rhs)[1], None,
                             (node, rhs))
        return node

    def starred(self) -> Node:
        node = self.primary()
        while self.peek().kind == "*" and self.peek(1).kind not in _PRIMARY_START:
            op = self.take()
            node = self.node("kstar", op, self.outer(node)[0], op.end, None, (node,))
        return node

    def primary(self) -> Node:
        tok = self.peek()
        if tok.kind == "-":
            self.take()
            inner = self.primary()
            return self.node("neg", tok, tok.start, self.outer(inner)[1], None, (inner,))
        if tok.kind == "int":
            self.take()
            if self.peek().kind == "/":
                self.take()
                den = self.expect("int")
                if den.value == 0:
                    self.error(den, "zero denominator")
                return self.node("scalar", tok, tok.start, den.end,
                                 Fraction(tok.value, den.value))
            return self.node("scalar", tok, tok.start, tok.end, Fraction(tok.value))
        if tok.kind in ("word", "yword"):
            self.take()
            return self.node(tok.kind, tok, tok.start, tok.end, tok.value)
        if tok.kind == "star":
            self.take()
            self.expect("(")
            first = self.binary()
            if self.peek().kind == ",":
                self.take()
                second = self.binary()
                close = self.expect(")")
                return self.node("plane", tok, tok.start, close.end, None, (first, second))
            close = self.expect(")")
            return self.node("kstar", tok, tok.start, close.end, None, (first,))
        if tok.kind == "(":
            self.take()
            node = self.binary()
            self.bracketed[id(node)] = (tok.start, self.expect(")").end)
            return node
        self.error(tok, f"expected an expression, found {tok.kind!r}")


_TOO_DEEP = "expression nested too deeply"


def parse_expr(text: str) -> Node:
    """Parse expression text into a tree; raises ExprSyntaxError."""
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ExprSyntaxError(_TOO_DEEP) from None


def _as_series(v: Value) -> Optional[StarSeries]:
    if isinstance(v, StarSeries):
        return v
    if isinstance(v, Fraction):
        return StarSeries({star_term(Word()): v})
    return None


def _as_ypoly(v: Value) -> Optional[YPoly]:
    if isinstance(v, YPoly):
        return v
    if isinstance(v, Fraction):
        return YPoly({(): v})
    return None


def _as_ncpoly(v: Value) -> Optional[NCPoly]:
    if isinstance(v, Fraction):
        return NCPoly({Word(): v})
    if isinstance(v, StarSeries):
        if any(t.a0 or t.a1 for t in v.terms):
            return None
        return NCPoly({t.w: c for t, c in v.terms.items()})
    return None


_MIXED = "cannot mix x-side and y-side series"
_NOT_X = "'##' is the y-side stuffle; use '#' on x-series"

# node kind: (op on two scalars, x-side lift, x-side op, y-side op,
#             x-side refusal, y-side refusal); an op of None refuses its side
_BINARY = {
    "add": (operator.add, _as_series, operator.add, operator.add, None, _MIXED),
    "sub": (operator.sub, _as_series, operator.sub, operator.sub, None, _MIXED),
    "cat": (operator.mul, _as_ncpoly, lambda p, q: embed(conc(p, q)), operator.mul,
            "concatenation needs star-free operands", _MIXED),
    "shuf": (operator.mul, _as_series, shuffle_star, None,
             None, "'#' is the x-side shuffle; use '##' on y-series"),
    "stuf": (operator.mul, _as_series, None, stuffle, _NOT_X, _NOT_X),
}


def _operate(kind: str, a: Value, b: Value) -> Value:
    """a and b under the binary operator of a node kind other than "mul",
    by its _BINARY row.  A refusal raises ExprTypeError with the row's
    message alone, which the caller places."""
    on_scalars, x_lift, x_op, y_op, x_refusal, y_refusal = _BINARY[kind]
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return on_scalars(a, b)
    y_side = isinstance(a, YPoly) or isinstance(b, YPoly)
    lift, op, refusal = (_as_ypoly, y_op, y_refusal) if y_side else (x_lift, x_op, x_refusal)
    la, lb = lift(a), lift(b)
    if op is None or la is None or lb is None:
        raise ExprTypeError(refusal)
    return op(la, lb)


def _quoted(msg: str, text: str) -> ExprTypeError:
    """The type error msg quoting text, its line breaks written as \\n and
    \\r, so that the message is one line."""
    text = text.replace("\n", "\\n").replace("\r", "\\r")
    return ExprTypeError(f"{msg}: '{text}'")


class _Elaborator:
    def __init__(self, text: str):
        self.text = text

    def fail(self, node: Node, msg: str) -> None:
        raise _quoted(f"line {node.line}, column {node.col}: {msg}", self.text[slice(*node.span)])

    def value(self, node: Node) -> Value:
        method = getattr(self, "_" + node.kind)
        return method(node)

    def _scalar(self, node: Node) -> Value:
        return node.value

    def _word(self, node: Node) -> Value:
        return StarSeries({star_term(node.value): Fraction(1)})

    def _yword(self, node: Node) -> Value:
        try:
            return YPoly({node.value: Fraction(1)})
        except ValueError as exc:
            self.fail(node, str(exc))

    def _neg(self, node: Node) -> Value:
        return -self.value(node.kids[0])

    def _binary(self, node: Node) -> Value:
        a = self.value(node.kids[0])
        b = self.value(node.kids[1])
        try:
            return _operate(node.kind, a, b)
        except ExprTypeError as exc:
            self.fail(node, str(exc))

    _add = _sub = _cat = _shuf = _stuf = _binary

    def _mul(self, node: Node) -> Value:
        a = self.value(node.kids[0])
        b = self.value(node.kids[1])
        if isinstance(a, Fraction):
            return b.scale(a) if not isinstance(b, Fraction) else a * b
        if isinstance(b, Fraction):
            return a.scale(b)
        self.fail(node, "'*' multiplies by scalars; use '#' or '##' for series")

    def _kstar(self, node: Node) -> Value:
        v = self.value(node.kids[0])
        s = _as_series(v)
        if s is None:
            self.fail(node, "star is undefined for y-side series")
        try:
            return star(s)
        except DomainError as exc:
            self.fail(node, str(exc))

    def _plane(self, node: Node) -> Value:
        a = self.value(node.kids[0])
        b = self.value(node.kids[1])
        if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
            self.fail(node, "star(a0, a1) needs scalar arguments")
        return plane_star(a, b)


def elaborate(text: str, node: Node) -> Value:
    """Evaluate a parsed tree to a Fraction, StarSeries or YPoly.

    A tree nested deeper than the interpreter's recursion limit raises
    ExprSyntaxError."""
    try:
        return _Elaborator(text).value(node)
    except RecursionError:
        raise ExprSyntaxError(_TOO_DEEP) from None


def parse_value(text: str) -> Value:
    """Parse and elaborate in one step."""
    return elaborate(text, parse_expr(text))


def _format_star_atoms(t) -> list[str]:
    atoms = []
    if len(t.w):
        atoms.append(f'w"{t.w}"')
    if t.a0 or t.a1:
        atoms.append(f"star({t.a0},{t.a1})")
    return atoms


def format_series(s: StarSeries) -> str:
    """Canonical parseable rendering; terms sorted by (|w|, w, a0, a1)."""
    items = sorted(s.terms.items(), key=lambda item: term_sort_key(item[0]))
    return _signed_sum((c, " # ".join(_format_star_atoms(t))) for t, c in items)


def format_value(v: Value) -> str:
    """Render any elaborated value in its canonical text form."""
    if isinstance(v, StarSeries):
        return format_series(v)
    return str(v)
