"""Recursive-descent parser for the CLI expression language.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := rational | 'i' | 'e' nat | 'rev' '(' expr ')' | '(' expr ')'
            | '-' atom

Exponents are at most MAX_EXPONENT; x^n costs O(log n) products.
Generator indices are at most MAX_GENERATOR: a blade is a bitmask as wide
as its top index, and every product works on the whole mask.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import scalars
from .core import Context, Multivector, mv_product, reverse
from .errors import DomainMismatchError, ParseError

MAX_EXPONENT = 10 ** 6
MAX_GENERATOR = 10 ** 4

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|([+\-*^/()]))")


@dataclass(frozen=True)
class Token:
    kind: str  # "nat" | "name" | "op"
    text: str
    line: int
    column: int


def _lex(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            line = text.count("\n", 0, pos) + 1
            column = pos - (text.rfind("\n", 0, pos) + 1)
            raise ParseError(f"unexpected character {stripped[0]!r}", line, column)
        start = m.start(m.lastindex)
        line = text.count("\n", 0, start) + 1
        column = start - (text.rfind("\n", 0, start) + 1)
        kind = ("nat", "name", "op")[m.lastindex - 1]
        tokens.append(Token(kind, m.group(m.lastindex), line, column))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], context: Context):
        self.tokens = tokens
        self.pos = 0
        self.context = context

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("op", "", 1, 0)
            raise ParseError("unexpected end of input", last.line,
                             last.column + len(last.text))
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}",
                             tok.line, tok.column)
        return tok

    def parse(self) -> Multivector:
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
        return value

    def expr(self) -> Multivector:
        value = self.term()
        while (tok := self.peek()) and tok.text in "+-":
            self.next()
            rhs = self.term()
            value = value + rhs if tok.text == "+" else value - rhs
        return value

    def term(self) -> Multivector:
        value = self.factor()
        while (tok := self.peek()) and tok.text == "*":
            self.next()
            value = mv_product(value, self.factor())
        return value

    def factor(self) -> Multivector:
        value = self.atom()
        if (tok := self.peek()) and tok.text == "^":
            self.next()
            exp_tok = self.next()
            if exp_tok.kind != "nat":
                raise ParseError("power must be a nonnegative integer",
                                 exp_tok.line, exp_tok.column)
            return _power(value, _bounded(exp_tok.text, MAX_EXPONENT,
                                          "exponent", exp_tok))
        return value

    def atom(self) -> Multivector:
        tok = self.next()
        if tok.text == "-":
            return -self.atom()
        if tok.text == "(":
            value = self.expr()
            self.expect(")")
            return value
        if tok.kind == "nat":
            try:
                num = int(tok.text)
            except ValueError:
                raise ParseError(f"integer literal of {len(tok.text)} digits is too long",
                                 tok.line, tok.column) from None
            if (nxt := self.peek()) and nxt.text == "/":
                self.next()
                den_tok = self.next()
                if den_tok.kind != "nat" or int(den_tok.text) == 0:
                    raise ParseError("denominator must be a positive integer",
                                     den_tok.line, den_tok.column)
                return Multivector.scalar(self.context,
                                          Fraction(num, int(den_tok.text)))
            return Multivector.scalar(self.context, num)
        if tok.kind == "name":
            return self.named(tok)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)

    def named(self, tok: Token) -> Multivector:
        if tok.text == "i":
            if not self.context.domain.has_i:
                raise DomainMismatchError(
                    f"'i' is not available in the {self.context.domain.value} domain")
            return Multivector.scalar(
                self.context, scalars.imaginary_unit(self.context.domain))
        if tok.text == "rev":
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return reverse(inner)
        m = re.fullmatch(r"e(\d+)", tok.text)
        if m:
            k = _bounded(m.group(1), MAX_GENERATOR, "generator index", tok)
            if k < 1:
                raise ParseError("generator indices start at 1",
                                 tok.line, tok.column)
            return Multivector.generator(self.context, k)
        raise ParseError(f"unknown atom {tok.text!r}", tok.line, tok.column)


def _bounded(digits: str, limit: int, what: str, tok: Token) -> int:
    """int(digits), refusing a value above `limit` before converting it."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(limit)) or int(digits) > limit:
        raise ParseError(f"{what} exceeds the limit {limit}", tok.line, tok.column)
    return int(digits)


def _power(value: Multivector, n: int) -> Multivector:
    """value^n by square-and-multiply over the bits of n from the top, so
    n <= 3 multiplies in the same order as repeated multiplication."""
    if n == 0:
        return Multivector.unit(value.context)
    out = value
    for bit in bin(n)[3:]:
        out = mv_product(out, out)
        if bit == "1":
            out = mv_product(out, value)
    return out


def parse(text: str, context: Context) -> Multivector:
    """Parse and evaluate an expression in the given context."""
    tokens = _lex(text)
    if not tokens:
        raise ParseError("empty expression")
    return _Parser(tokens, context).parse()
