"""Text grammar for expressions.

    expr   := ["-"] term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := base ("^" INT)?
    base   := NUMBER | COORD | FUNC "(" args ")" | "(" expr ")"
    COORD  := "w" INT
    FUNC   := "exp" | "tanh" | "hermite"     (hermite's first arg is the order)

Whitespace is insignificant.  Division is only allowed by a nonzero constant
subexpression, because a general quotient would not be smooth everywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    Constant,
    Coordinate,
    Exp,
    Expression,
    ExpressionError,
    Hermite,
    Negate,
    Power,
    Product,
    Sum,
    Tanh,
)


class ParseError(ExpressionError):
    """Syntax or semantic error, with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER, COORD, FUNC, OP, LPAREN, RPAREN, COMMA, END
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<NUMBER>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<COORD>w\d+)
  | (?P<FUNC>exp|tanh|hermite)
  | (?P<OP>[-+*/^])
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "WS":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("END", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], dim: int):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return self.advance()

    def parse(self) -> Expression:
        expr = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
        return expr

    def expr(self) -> Expression:
        negated = False
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            negated = True
        node = self.term()
        if negated:
            node = Negate(node)
        terms = [node]
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            terms.append(Negate(rhs) if op == "-" else rhs)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> Expression:
        factors = [self.factor()]
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op_tok = self.advance()
            rhs = self.factor()
            if op_tok.text == "/":
                value = _constant_value(rhs)
                if value is None:
                    raise ParseError("division is only allowed by a constant",
                                     op_tok.line, op_tok.column)
                if value == 0.0:
                    raise ParseError("division by zero", op_tok.line, op_tok.column)
                rhs = Constant(1.0 / value)
            factors.append(rhs)
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self) -> Expression:
        node = self.base()
        if self.peek().kind == "OP" and self.peek().text == "^":
            caret = self.advance()
            tok = self.expect("NUMBER")
            if not tok.text.isdigit():
                raise ParseError("exponent must be a plain integer", tok.line, tok.column)
            k = int(tok.text)
            if k < 1:
                raise ParseError("exponent must be >= 1", caret.line, caret.column)
            node = Power(node, k)
        return node

    def base(self) -> Expression:
        tok = self.advance()
        if tok.kind == "NUMBER":
            return Constant(float(tok.text))
        if tok.kind == "COORD":
            index = int(tok.text[1:])
            if index >= self.dim:
                raise ParseError(
                    f"coordinate w{index} out of range for dimension {self.dim}",
                    tok.line, tok.column)
            return Coordinate(index)
        if tok.kind == "FUNC":
            self.expect("LPAREN")
            if tok.text == "hermite":
                order_tok = self.expect("NUMBER")
                if not order_tok.text.isdigit():
                    raise ParseError("hermite order must be a plain integer",
                                     order_tok.line, order_tok.column)
                self.expect("COMMA")
                child = self.expr()
                self.expect("RPAREN")
                return Hermite(int(order_tok.text), child)
            child = self.expr()
            self.expect("RPAREN")
            return Exp(child) if tok.text == "exp" else Tanh(child)
        if tok.kind == "LPAREN":
            child = self.expr()
            self.expect("RPAREN")
            return child
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.column)


def _constant_value(node: Expression) -> float | None:
    """Fold a coordinate-free subtree to its value, else None."""
    if node.coordinates():
        return None
    import numpy as np

    return float(node.value(np.zeros(1)))


def parse_expression(text: str, dim: int) -> Expression:
    """Parse ``text`` against a space of dimension ``dim``."""
    return _Parser(_tokenize(text), dim).parse()
