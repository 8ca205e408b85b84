"""Recursive-descent parser for polynomial Hamiltonian expressions.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-'* atom
    atom   := NUMBER | VARIABLE | '(' expr ')'

Variables are x1, y1, z1, x2, y2, z2.  There is no division and there are no
function calls; after expansion the total degree must not exceed 3.  The
parser builds no syntax tree: each rule expands its polynomial and prints its
canonical text as it parses; it recurses only into parentheses, at most
MAX_NESTING deep.  Error positions are byte offsets into the UTF-8 input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DegreeTooHigh, ExpressionSyntaxError, UnknownVariable
from .hamiltonian import MAX_DEGREE, VARIABLES, HamiltonianFunction

MAX_SOURCE_BYTES = 4096
MAX_NESTING = 100   # parenthesis depth; each level is four frames of recursion

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*()]))"
)


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | op | end
    text: str
    pos: int   # char offset


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExpressionSyntaxError(
                f"unexpected character {text[bad]!r}", _byte_offset(text, bad),
                expected=("number", "variable", "operator"),
            )
        for kind in ("number", "ident", "op"):
            got = m.group(kind)
            if got is not None:
                tokens.append(_Token(kind, got, m.start(kind)))
                break
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


_ZERO_EXP = (0, 0, 0, 0, 0, 0)


def _paren(text: str, wrap: bool) -> str:
    return f"({text})" if wrap else text


class _Parser:
    """Expands and prints as it parses: each rule returns (terms, text, kind),
    the expanded polynomial, its canonical text and its precedence class
    (sum, mul, neg or atom), which decides where the text needs parentheses."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0   # open parentheses around the current token
        self.overflow = None  # the first DegreeTooHigh, raised once the whole text has parsed

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def _fail(self, expected):
        tok = self.cur
        what = f"unexpected {tok.kind} {tok.text!r}" if tok.kind != "end" else "unexpected end of input"
        raise ExpressionSyntaxError(what, _byte_offset(self.text, tok.pos), expected=expected)

    def _eat_op(self, op: str) -> bool:
        if self.cur.kind == "op" and self.cur.text == op:
            self.i += 1
            return True
        return False

    def _product(self, a, b):
        out: dict[tuple, float] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if sum(e) > MAX_DEGREE:
                    # a later syntax error or unknown variable still wins, and the
                    # empty product keeps every term within the degree cap
                    self.overflow = self.overflow or DegreeTooHigh(
                        f"monomial of degree {sum(e)} exceeds the limit {MAX_DEGREE}"
                    )
                    return {}
                out[e] = out.get(e, 0.0) + ca * cb
        return {e: c for e, c in out.items() if c != 0.0}

    def parse(self) -> HamiltonianExpr:
        terms, text, _ = self.expr()
        if self.cur.kind != "end":
            self._fail(("+", "-", "*", "end of input"))
        if self.overflow is not None:
            raise self.overflow
        return HamiltonianExpr(text, tuple(sorted(terms.items())))

    def expr(self):
        terms, text, kind = self.term()
        while True:
            if self._eat_op("+"):
                op, sign = "+", 1.0
            elif self._eat_op("-"):
                op, sign = "-", -1.0
            else:
                return terms, text, kind
            right, right_text, right_kind = self.term()
            out = dict(terms)
            for e, c in right.items():
                out[e] = out.get(e, 0.0) + sign * c
            terms = {e: c for e, c in out.items() if c != 0.0}
            text, kind = f"{text} {op} {_paren(right_text, right_kind == 'sum')}", "sum"

    def term(self):
        terms, text, kind = self.factor()
        while self._eat_op("*"):
            right, right_text, right_kind = self.factor()
            terms = self._product(terms, right)
            text = f"{_paren(text, kind == 'sum')}*{_paren(right_text, right_kind == 'sum')}"
            kind = "mul"
        return terms, text, kind

    def factor(self):
        minuses = 0
        while self._eat_op("-"):
            minuses += 1
        terms, text, kind = self.atom()
        if minuses:   # the chain's parity is its sign
            terms = {e: -c for e, c in terms.items()} if minuses % 2 else terms
            text, kind = "-" * minuses + _paren(text, kind in ("sum", "mul")), "neg"
        return terms, text, kind

    def atom(self):
        tok = self.cur
        if tok.kind == "number":
            self.i += 1
            value = float(tok.text)
            return ({_ZERO_EXP: value} if value != 0.0 else {}), repr(value), "atom"
        if tok.kind == "ident":
            if tok.text not in VARIABLES:
                raise UnknownVariable(tok.text, _byte_offset(self.text, tok.pos))
            self.i += 1
            exp = [0] * 6
            exp[VARIABLES.index(tok.text)] = 1
            return {tuple(exp): 1.0}, tok.text, "atom"
        if self._eat_op("("):
            if self.depth == MAX_NESTING:
                raise ExpressionSyntaxError(f"parentheses nested deeper than {MAX_NESTING}",
                                            _byte_offset(self.text, tok.pos))
            self.depth += 1
            inner = self.expr()
            if not self._eat_op(")"):
                self._fail((")",))
            self.depth -= 1
            return inner
        self._fail(("number", "variable", "(", "-"))


@dataclass(frozen=True)
class HamiltonianExpr:
    """Parsed expression: its canonical text and its expanded polynomial."""

    text: str
    terms: tuple

    def to_text(self) -> str:
        return self.text

    def polynomial(self) -> HamiltonianFunction:
        return HamiltonianFunction(dict(self.terms))


def parse_hamiltonian(text: str) -> HamiltonianExpr:
    """Parse expression text; raises on syntax errors, unknown variables,
    or expanded degree above 3."""
    data = text.encode("utf-8")
    if len(data) > MAX_SOURCE_BYTES:
        raise ExpressionSyntaxError(
            f"source too large ({len(data)} bytes > {MAX_SOURCE_BYTES})", MAX_SOURCE_BYTES
        )
    return _Parser(text).parse()
