"""Expression language for series: parser, elaborator, pretty-printer.

Grammar, loosest first::

    sum     :=  shuf (('+' | '-') shuf)*
    shuf    :=  cat (('#' | '##') cat)*        shuffle / stuffle
    cat     :=  scaled ('.' scaled)*           concatenation
    scaled  :=  starred ('*' starred)*         scalar multiplication
    starred :=  primary '*'*                   postfix Kleene star
    primary :=  INT ['/' INT] | w"bits" | y[k,...] | star(expr[, expr])
             |  '(' sum ')' | '-' primary

A '*' is read as scalar multiplication exactly when the next token can
start a primary, and as the postfix star otherwise.  star(a0, a1) builds
the plane star (a0 x0 + a1 x1)*; star(e) is the postfix star of e.

Expressions elaborate to a Fraction, a StarSeries (x-side) or a YPoly
(y-side).  Type mismatches (stuffle on the x-side, star of a non-plane
element, products of two series) raise ExprTypeError; malformed input
raises ExprSyntaxError.  Both carry line/column positions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import DomainError
from .linear import _signed_sum
from .shuffle_core import NCPoly, YPoly, conc, stuffle
from .star_series import StarSeries, embed, plane_star, shuffle_star, star, star_term
from .words import Word

Value = Union[Fraction, StarSeries, YPoly]


class ExprSyntaxError(ValueError):
    """Malformed expression text."""


class ExprTypeError(ValueError):
    """Structurally valid expression with an ill-typed subterm."""


class Token(NamedTuple):
    kind: str
    value: object
    line: int
    col: int
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


def tokenize(text: str) -> list[Token]:
    toks = []
    i, line, col = 0, 1, 1

    def err(msg: str) -> ExprSyntaxError:
        return ExprSyntaxError(f"line {line}, column {col}: {msg}")

    while i < len(text):
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        start, tline, tcol = i, line, col

        def emit(kind: str, value: object, end: int) -> None:
            nonlocal i, col
            toks.append(Token(kind, value, tline, tcol, start, end))
            col += end - i
            i = end

        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            emit("int", int(text[i:j]), j)
        elif ch == "w" and i + 1 < len(text) and text[i + 1] == '"':
            j = text.find('"', i + 2)
            if j < 0:
                raise err("unterminated word literal")
            bits = text[i + 2 : j]
            if any(b not in "01" for b in bits):
                raise err("word literals contain only 0 and 1")
            emit("word", Word(bits), j + 1)
        elif ch == "y" and i + 1 < len(text) and text[i + 1] == "[":
            j = text.find("]", i + 2)
            if j < 0:
                raise err("unterminated y-word literal")
            body = text[i + 2 : j].replace(" ", "")
            try:
                yw = tuple(int(p) for p in body.split(",")) if body else ()
            except ValueError:
                raise err("y-word indices must be integers") from None
            emit("yword", yw, j + 1)
        elif text.startswith("star", i):
            emit("star", "star", i + 4)
        elif ch == "#":
            if text.startswith("##", i):
                emit("##", "##", i + 2)
            else:
                emit("#", "#", i + 1)
        elif ch in "()+-*./,":
            emit(ch, ch, i + 1)
        else:
            raise err(f"unexpected character {ch!r}")
    toks.append(Token("eof", None, line, col, len(text), len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0

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
        raise ExprSyntaxError(f"line {tok.line}, column {tok.col}: {msg}")

    def node(self, kind: str, at: Token, end: Token, value=None, kids=()) -> Node:
        return Node(kind, at.line, at.col, (at.start, end.end), value, tuple(kids))

    def binop(self, kind: str, lhs: Node, rhs: Node, op: Token) -> Node:
        return Node(kind, op.line, op.col, (lhs.span[0], rhs.span[1]), None, (lhs, rhs))

    def parse(self) -> Node:
        node = self.sum()
        tok = self.peek()
        if tok.kind != "eof":
            self.error(tok, f"unexpected {tok.kind!r} after expression")
        return node

    def sum(self) -> Node:
        node = self.shuf()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            node = self.binop("add" if op.kind == "+" else "sub", node, self.shuf(), op)
        return node

    def shuf(self) -> Node:
        node = self.cat()
        while self.peek().kind in ("#", "##"):
            op = self.take()
            kind = "shuf" if op.kind == "#" else "stuf"
            node = self.binop(kind, node, self.cat(), op)
        return node

    def cat(self) -> Node:
        node = self.scaled()
        while self.peek().kind == ".":
            op = self.take()
            node = self.binop("cat", node, self.scaled(), op)
        return node

    def scaled(self) -> Node:
        node = self.starred()
        while self.peek().kind == "*" and self.peek(1).kind in _PRIMARY_START:
            op = self.take()
            node = self.binop("mul", node, self.starred(), op)
        return node

    def starred(self) -> Node:
        node = self.primary()
        while self.peek().kind == "*" and self.peek(1).kind not in _PRIMARY_START:
            op = self.take()
            node = Node("kstar", op.line, op.col, (node.span[0], op.end), None, (node,))
        return node

    def primary(self) -> Node:
        tok = self.peek()
        if tok.kind == "-":
            self.take()
            inner = self.primary()
            return Node("neg", tok.line, tok.col, (tok.start, inner.span[1]), None, (inner,))
        if tok.kind == "int":
            self.take()
            if self.peek().kind == "/":
                self.take()
                den = self.expect("int")
                if den.value == 0:
                    self.error(den, "zero denominator")
                return self.node("scalar", tok, den, Fraction(tok.value, den.value))
            return self.node("scalar", tok, tok, Fraction(tok.value))
        if tok.kind == "word":
            self.take()
            return self.node("word", tok, tok, tok.value)
        if tok.kind == "yword":
            self.take()
            return self.node("yword", tok, tok, tok.value)
        if tok.kind == "star":
            self.take()
            self.expect("(")
            first = self.sum()
            if self.peek().kind == ",":
                self.take()
                second = self.sum()
                close = self.expect(")")
                return self.node("plane", tok, close, None, (first, second))
            close = self.expect(")")
            return self.node("kstar", tok, close, None, (first,))
        if tok.kind == "(":
            self.take()
            node = self.sum()
            self.expect(")")
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


class _Elaborator:
    def __init__(self, text: str):
        self.text = text

    def fail(self, node: Node, msg: str) -> None:
        s, e = node.span
        raise ExprTypeError(
            f"line {node.line}, column {node.col}: {msg}: '{self.text[s:e]}'"
        )

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

    def _add(self, node: Node) -> Value:
        return self._additive(node, lambda a, b: a + b)

    def _sub(self, node: Node) -> Value:
        return self._additive(node, lambda a, b: a - b)

    def _additive(self, node: Node, op) -> Value:
        a = self.value(node.kids[0])
        b = self.value(node.kids[1])
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return op(a, b)
        if isinstance(a, YPoly) or isinstance(b, YPoly):
            ya, yb = _as_ypoly(a), _as_ypoly(b)
            if ya is None or yb is None:
                self.fail(node, "cannot mix x-side and y-side series")
            return op(ya, yb)
        return op(_as_series(a), _as_series(b))

    def _mul(self, node: Node) -> Value:
        a = self.value(node.kids[0])
        b = self.value(node.kids[1])
        if isinstance(a, Fraction):
            return b.scale(a) if not isinstance(b, Fraction) else a * b
        if isinstance(b, Fraction):
            return a.scale(b)
        self.fail(node, "'*' multiplies by scalars; use '#' or '##' for series")

    def _cat(self, node: Node) -> Value:
        a = self.value(node.kids[0])
        b = self.value(node.kids[1])
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a * b
        if isinstance(a, YPoly) or isinstance(b, YPoly):
            ya, yb = _as_ypoly(a), _as_ypoly(b)
            if ya is None or yb is None:
                self.fail(node, "cannot mix x-side and y-side series")
            return ya * yb
        pa, pb = _as_ncpoly(a), _as_ncpoly(b)
        if pa is None or pb is None:
            self.fail(node, "concatenation needs star-free operands")
        return embed(conc(pa, pb))

    def _shuf(self, node: Node) -> Value:
        a = self.value(node.kids[0])
        b = self.value(node.kids[1])
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a * b
        if isinstance(a, YPoly) or isinstance(b, YPoly):
            self.fail(node, "'#' is the x-side shuffle; use '##' on y-series")
        return shuffle_star(_as_series(a), _as_series(b))

    def _stuf(self, node: Node) -> Value:
        a = self.value(node.kids[0])
        b = self.value(node.kids[1])
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a * b
        ya, yb = _as_ypoly(a), _as_ypoly(b)
        if ya is None or yb is None:
            self.fail(node, "'##' is the y-side stuffle; use '#' on x-series")
        return stuffle(ya, yb)

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
    from .star_series import term_sort_key

    items = sorted(s.terms.items(), key=lambda item: term_sort_key(item[0]))
    return _signed_sum((c, " # ".join(_format_star_atoms(t))) for t, c in items)


def format_value(v: Value) -> str:
    """Render any elaborated value in its canonical text form."""
    if isinstance(v, StarSeries):
        return format_series(v)
    return str(v)
