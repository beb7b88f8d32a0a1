"""Recursive-descent parser for the CLI expression language.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := rational | 'i' | 'e' nat | 'rev' '(' expr ')' | '(' expr ')'
            | '-' atom

Exponents are at most MAX_EXPONENT; x^n costs O(log n) products.  A run
of bare generators in a term (`*e2*e4*e5`, none followed by '^') forms no
product: it is one blade B with a reordering sign, applied to the value
before it as the relabelling A -> A ^ B.  The fold holds while every
contraction's weight is exactly +-1, i.e. while the next generator is
outside Context._mask or in neither the value's support nor the run; the
generator that ends it is multiplied in.  c64 never folds, as its product
by +-(1+0j) can change a signed zero or an inf.  Results, term order and
float signs are those of one product per '*', and so are the budgets below:
each '*' of a run is charged, and checked, as its product would be.
Generator indices are at most MAX_GENERATOR: a blade is a bitmask as wide
as its top index, and every product works on the whole mask.  One parse
forms at most MAX_PRODUCT_PAIRS blade pairs over all its products, so a
short text cannot ask for 2^30 terms; a pair counts once per interpreter
digit of its coefficients.  In the exact domains the largest coefficient
sizes of a product's operands (numerator plus denominator bits, over both
parts of a Gaussian value) add up to at most MAX_COEFF_BITS, so a short
power cannot grow million-bit coefficients.  Lexing and summing take time
linear in the text.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

from . import scalars
from .core import (Context, Multivector, _accumulate, _relabel, mv_product,
                   reverse)
from .errors import ParseError
from .scalars import Domain, GaussianRational

MAX_EXPONENT = 10 ** 6
MAX_GENERATOR = 10 ** 4
MAX_PRODUCT_PAIRS = 2 ** 18
MAX_COEFF_BITS = 2 ** 15

# One scan: the last alternative catches any other character, and leading
# whitespace belongs to the match that follows it.  The scan ends at the last
# non-space: retrying `\s*` at each offset of trailing blanks is quadratic.
_TOKEN = re.compile(r"\s*(?:(?P<nat>\d+)|(?P<name>[A-Za-z]\w*)"
                    r"|(?P<op>[+\-*^/()])|(?P<bad>\S))")
_GENERATOR = re.compile(r"e(\d+)")


class Token(NamedTuple):
    kind: str  # "nat" | "name" | "op"
    text: str
    pos: int  # offset of the first character in the source text


def _error(text: str, message: str, pos: int) -> ParseError:
    """A ParseError at offset `pos`: lines count from 1, columns from 0."""
    return ParseError(message, text.count("\n", 0, pos) + 1,
                      pos - (text.rfind("\n", 0, pos) + 1))


def _coeff_bits(value) -> int:
    """Numerator plus denominator bits of an exact value, over both parts of
    a Gaussian one."""
    parts = (value.re, value.im) if isinstance(value, GaussianRational) else (value,)
    return sum(p.numerator.bit_length() + p.denominator.bit_length()
               for p in parts)


def _lex(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN.finditer(text, 0, len(text.rstrip())):
        kind = m.lastgroup
        if kind == "bad":
            raise _error(text, f"unexpected character {m[kind]!r}", m.start())
        tokens.append(Token(kind, m[kind], m.start(kind)))
    return tokens


class _Parser:
    def __init__(self, text: str, tokens: list[Token], context: Context):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.context = context
        self.pairs = 0  # blade pairs of every product formed so far
        # c64 runs every product: its weight +-(1+0j) can change a zero or inf
        self.fold = context.domain is not Domain.C64
        self.unit_bits = self.size(Multivector.unit(context))

    def error(self, message: str, tok: Token) -> ParseError:
        return _error(self.text, message, tok.pos)

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1]
            raise _error(self.text, "unexpected end of input",
                         last.pos + len(last.text))
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}", tok)

    def parse(self) -> Multivector:
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise self.error(f"trailing input {tok.text!r}", tok)
        return value

    def expr(self) -> Multivector:
        value = self.term()
        if not ((tok := self.peek()) and tok.text in "+-"):
            return value
        terms = dict(value.terms)
        while (tok := self.peek()) and tok.text in "+-":
            self.next()
            items = self.term().terms.items()
            _accumulate(terms, items if tok.text == "+"
                        else ((blade, -c) for blade, c in items))
        return Multivector(self.context, terms, _canonical=True)

    def term(self) -> Multivector:
        """factor ('*' factor)*; while a run of generators is pending (see
        the module docstring), `value` stands for value * (-1)**odd v_blade."""
        value = self.factor()
        support = None  # set while a run is pending
        while (tok := self.peek()) and tok.text == "*":
            self.next()
            k = self.bare_generator() if self.fold else None
            if k is not None:
                b = 1 << (k - 1)
                if support is None:
                    support = blade = odd = 0
                    for A in value.terms:
                        support |= A
                    cost = len(value.terms), self.size(value) + self.unit_bits
                if not (support | blade) & b & self.context._mask:
                    self.charge(*cost, tok)
                    # -(b << 1) is _prefix_parity(b)
                    odd ^= (blade & -(b << 1)).bit_count() & 1
                    blade ^= b
                    continue
            if support is not None:
                value, support = _relabel(value, blade, odd), None
            value = self.product(value, self.factor() if k is None
                                 else Multivector.generator(self.context, k), tok)
        return value if support is None else _relabel(value, blade, odd)

    def factor(self) -> Multivector:
        value = self.atom()
        if (tok := self.peek()) and tok.text == "^":
            self.next()
            exp_tok = self.next()
            if exp_tok.kind != "nat":
                raise self.error("power must be a nonnegative integer", exp_tok)
            n = self.bounded(exp_tok.text, MAX_EXPONENT, "exponent", exp_tok)
            return self.power(value, n, tok)
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
            num = self.integer(tok)
            if (nxt := self.peek()) and nxt.text == "/":
                self.next()
                den_tok = self.next()
                den = self.integer(den_tok) if den_tok.kind == "nat" else 0
                if den == 0:
                    raise self.error("denominator must be a positive integer",
                                     den_tok)
                return Multivector.scalar(self.context, Fraction(num, den))
            return Multivector.scalar(self.context, num)
        if tok.kind == "name":
            return self.named(tok)
        raise self.error(f"unexpected token {tok.text!r}", tok)

    def named(self, tok: Token) -> Multivector:
        if tok.text == "i":
            return Multivector.scalar(
                self.context, scalars.imaginary_unit(self.context.domain))
        if tok.text == "rev":
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return reverse(inner)
        k = self.generator_index(tok)
        if k is not None:
            return Multivector.generator(self.context, k)
        raise self.error(f"unknown atom {tok.text!r}", tok)

    def generator_index(self, tok: Token) -> int | None:
        """k of a name `e<k>`, checked at `tok`; None for any other name."""
        m = _GENERATOR.fullmatch(tok.text)
        if m is None:
            return None
        k = self.bounded(m.group(1), MAX_GENERATOR, "generator index", tok)
        if k < 1:
            raise self.error("generator indices start at 1", tok)
        return k

    def bare_generator(self) -> int | None:
        """k of a next factor `e<k>` with no '^' after it, consumed and checked
        at its token; None, consuming nothing, for any other factor."""
        tok = self.peek()
        if tok is None or tok.kind != "name" or (
                self.pos + 1 < len(self.tokens)
                and self.tokens[self.pos + 1].text == "^"):
            return None
        k = self.generator_index(tok)
        if k is not None:
            self.pos += 1
        return k

    def integer(self, tok: Token) -> int:
        """int(tok.text), refused with a position past the interpreter's
        digit limit for integer conversion."""
        try:
            return int(tok.text)
        except ValueError:
            raise self.error(f"integer literal of {len(tok.text)} digits "
                             f"is too long", tok) from None

    def bounded(self, digits: str, limit: int, what: str, tok: Token) -> int:
        """int(digits), refusing a value above `limit` before converting it."""
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(limit)) or int(digits) > limit:
            raise self.error(f"{what} exceeds the limit {limit}", tok)
        return int(digits)

    def size(self, value: Multivector) -> int:
        """The largest coefficient size of `value` in the exact domains, else
        0."""
        if not self.context.domain.is_exact:
            return 0
        return max(map(_coeff_bits, value.terms.values()), default=0)

    def charge(self, pairs: int, bits: int, tok: Token) -> None:
        """Count `pairs` blade pairs of operands whose largest coefficients
        add up to `bits` against MAX_PRODUCT_PAIRS, and refuse more than
        MAX_COEFF_BITS; `tok` is the operator."""
        self.pairs += pairs * max(1, bits // sys.int_info.bits_per_digit)
        if self.pairs > MAX_PRODUCT_PAIRS:
            raise self.error(f"expression needs more than {MAX_PRODUCT_PAIRS} "
                             f"blade products", tok)
        if bits > MAX_COEFF_BITS:
            raise self.error(f"expression needs coefficients of more than "
                             f"{MAX_COEFF_BITS} bits", tok)

    def product(self, a: Multivector, b: Multivector, tok: Token) -> Multivector:
        """a * b, charged before it is formed; `tok` is the operator."""
        self.charge(len(a.terms) * len(b.terms), self.size(a) + self.size(b), tok)
        return mv_product(a, b)

    def power(self, value: Multivector, n: int, tok: Token) -> Multivector:
        """value^n by square-and-multiply over the bits of n from the top, so
        n <= 3 multiplies in the same order as repeated multiplication."""
        if n == 0:
            return Multivector.unit(value.context)
        out = value
        for bit in bin(n)[3:]:
            out = self.product(out, out, tok)
            if bit == "1":
                out = self.product(out, value, tok)
        return out


def parse(text: str, context: Context) -> Multivector:
    """Parse and evaluate an expression in the given context."""
    tokens = _lex(text)
    if not tokens:
        raise ParseError("empty expression")
    parser = _Parser(text, tokens, context)
    try:
        return parser.parse()
    except RecursionError:
        tok = tokens[min(parser.pos, len(tokens) - 1)]
        raise parser.error("expression nests too deeply", tok) from None
