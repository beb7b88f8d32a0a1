"""Recursive-descent parser for the CLI expression language.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := rational | 'i' | 'e' nat | 'rev' '(' expr ')' | '(' expr ')'
            | '-' atom
    nat    := [0-9]+  (ASCII digits, in literals, exponents and indices)

The text is lexed once into a list of token texts that the parser reads
through one cursor.

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
short text cannot ask for 2^30 terms, and `parse_all` charges a list of
texts (a `deriv extract` table) against one such budget; a pair counts
once per interpreter digit of its coefficients.  In the exact domains the
largest coefficient sizes of a product's operands (numerator plus
denominator bits, over both parts of a Gaussian value) add up to at most
MAX_COEFF_BITS, so a short power cannot grow million-bit coefficients.
Lexing takes time linear in the text, and so does summing while the terms'
common denominator is shorter than one interpreter digit.  A sum holds every
numerator over that denominator, so at each '+' or '-' it is charged against
MAX_PRODUCT_PAIRS as its terms so far times the whole digits of their
common denominator: a long sum over distinct prime denominators is refused.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from typing import Iterable

from . import scalars
from .core import (Context, Multivector, _form, _relabel, _size, _sum,
                   mv_product, reverse)
from .errors import ParseError
from .scalars import Domain

MAX_EXPONENT = 10 ** 6
MAX_GENERATOR = 10 ** 4
MAX_PRODUCT_PAIRS = 2 ** 18
MAX_COEFF_BITS = 2 ** 15

# One scan: the last alternative catches any other character, and leading
# whitespace belongs to the match that follows it.  The scan ends at the last
# non-space: retrying `\s*` at each offset of trailing blanks is quadratic.
# A token's text shows its kind: ASCII digits are a natural number, a leading
# letter starts a name, and any other token is an operator.
_TOKEN = re.compile(r"\s*(?:([0-9]+|[A-Za-z]\w*|[+\-*^/()])|(\S))")
_GENERATOR = re.compile(r"e([0-9]+)")


def _error(text: str, message: str, pos: int) -> ParseError:
    """A ParseError at offset `pos`: lines count from 1, columns from 0."""
    return ParseError(message, text.count("\n", 0, pos) + 1,
                      pos - (text.rfind("\n", 0, pos) + 1))


def _lex(text: str) -> tuple[list[str], list[int]]:
    """The token texts of `text` and the offsets of their first characters,
    then the end sentinel: the text "" at the end of the last token."""
    end = len(text.rstrip())
    tokens, offsets = [], []
    for m in _TOKEN.finditer(text, 0, end):
        if m[2] is not None:
            raise _error(text, f"unexpected character {m[2]!r}", m.start())
        tokens.append(m[1])
        offsets.append(m.start(1))
    tokens.append("")
    offsets.append(end)
    return tokens, offsets


class _Parser:
    def __init__(self, text: str, context: Context, pairs: int = 0):
        self.text = text
        self.tokens, self.offsets = _lex(text)
        self.pos = 0  # index of the current token, self.tok
        self.tok = self.tokens[0]
        self.context = context
        self.pairs = pairs  # blade pairs of every product formed so far
        # c64 runs every product: its weight +-(1+0j) can change a zero or inf
        self.fold = context.domain is not Domain.C64
        self.unit_bits = _size(Multivector.unit(context))

    def error(self, message: str, pos: int) -> ParseError:
        """A ParseError at the token of index `pos`."""
        return _error(self.text, message, self.offsets[pos])

    def take(self) -> int:
        """The current token's index, moving past it; refused at the end."""
        pos = self.pos
        if not self.tok:
            raise self.error("unexpected end of input", pos)
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return pos

    def expect(self, text: str) -> None:
        tok = self.tokens[pos := self.take()]
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok!r}", pos)

    def parse(self) -> Multivector:
        value = self.expr()
        if self.tok:
            raise self.error(f"trailing input {self.tok!r}", self.pos)
        return value

    def expr(self) -> Multivector:
        value = self.term()
        if self.tok != "+" and self.tok != "-":
            return value
        terms, (count, den, _), cost = [value], _form(value), 0
        while (op := self.tok) == "+" or op == "-":
            pos = self.take()
            term = self.term()
            terms.append(term if op == "+" else -term)
            if den:  # each term's numerators, widened to the common denominator
                n, d, _ = _form(term)
                count, den = count + n, lcm(den, d)
                grown = count * (den.bit_length() // sys.int_info.bits_per_digit)
                if grown > cost:
                    self.charge(grown - cost, 0, pos, "blade products and sum digits")
                    cost = grown
        return _sum(self.context, terms)

    def term(self) -> Multivector:
        """factor ('*' factor)*; while a run of generators is pending (see
        the module docstring), `value` stands for value * (-1)**odd v_blade."""
        value = self.factor()
        support = None  # set while a run is pending
        while self.tok == "*":
            star = self.take()
            k = self.bare_generator() if self.fold else None
            if k is not None:
                b = 1 << (k - 1)
                if support is None:
                    blade = odd = 0
                    count, _, support = _form(value)
                    cost = count, _size(value) + self.unit_bits
                if not (support | blade) & b & self.context._mask:
                    self.charge(*cost, star)
                    # -(b << 1) is _prefix_parity(b)
                    odd ^= (blade & -(b << 1)).bit_count() & 1
                    blade ^= b
                    continue
            if support is not None:
                value, support = _relabel(value, blade, odd), None
            value = self.product(value, self.factor() if k is None
                                 else Multivector.generator(self.context, k), star)
        return value if support is None else _relabel(value, blade, odd)

    def factor(self) -> Multivector:
        value = self.atom()
        if self.tok != "^":
            return value
        caret = self.take()
        tok = self.tokens[pos := self.take()]
        if not tok.isdigit():
            raise self.error("power must be a nonnegative integer", pos)
        n = self.bounded(tok, MAX_EXPONENT, "exponent", pos)
        return self.power(value, n, caret)

    def atom(self) -> Multivector:
        tok = self.tokens[pos := self.take()]
        if tok == "-":
            return -self.atom()
        if tok == "(":
            value = self.expr()
            self.expect(")")
            return value
        if tok.isdigit():
            num = self.integer(tok, pos)
            if self.tok != "/":
                return Multivector.scalar(self.context, num)
            self.take()
            tok = self.tokens[pos := self.take()]
            den = self.integer(tok, pos) if tok.isdigit() else 0
            if den == 0:
                raise self.error("denominator must be a positive integer", pos)
            return Multivector.scalar(self.context, Fraction(num, den))
        if tok[0].isalpha():
            return self.named(tok, pos)
        raise self.error(f"unexpected token {tok!r}", pos)

    def named(self, tok: str, pos: int) -> Multivector:
        if tok == "i":
            return Multivector.scalar(
                self.context, scalars.imaginary_unit(self.context.domain))
        if tok == "rev":
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return reverse(inner)
        k = self.generator_index(tok, pos)
        if k is not None:
            return Multivector.generator(self.context, k)
        raise self.error(f"unknown atom {tok!r}", pos)

    def generator_index(self, tok: str, pos: int) -> int | None:
        """k of a token `e<k>`, checked at token `pos`; None for any other."""
        m = _GENERATOR.fullmatch(tok)
        if m is None:
            return None
        k = self.bounded(m[1], MAX_GENERATOR, "generator index", pos)
        if k < 1:
            raise self.error("generator indices start at 1", pos)
        return k

    def bare_generator(self) -> int | None:
        """k of a next factor `e<k>` with no '^' after it, consumed and checked
        at its token; None, consuming nothing, for any other factor."""
        if not self.tok or self.tokens[self.pos + 1] == "^":
            return None
        k = self.generator_index(self.tok, self.pos)
        if k is not None:
            self.take()
        return k

    def integer(self, tok: str, pos: int) -> int:
        """int(tok), refused at token `pos` past the interpreter's digit limit
        for integer conversion."""
        try:
            return int(tok)
        except ValueError:
            raise self.error(f"integer literal of {len(tok)} digits "
                             f"is too long", pos) from None

    def bounded(self, digits: str, limit: int, what: str, pos: int) -> int:
        """int(digits), refusing a value above `limit` before converting it."""
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(limit)) or int(digits) > limit:
            raise self.error(f"{what} exceeds the limit {limit}", pos)
        return int(digits)

    def charge(self, pairs: int, bits: int, pos: int, what: str = "blade products") -> None:
        """Count `pairs` blade pairs (or sum digits) of operands whose largest
        coefficients add up to `bits` against MAX_PRODUCT_PAIRS, and refuse
        more than MAX_COEFF_BITS; `pos` is the operator's token."""
        self.pairs += pairs * max(1, bits // sys.int_info.bits_per_digit)
        if self.pairs > MAX_PRODUCT_PAIRS:
            raise self.error(f"expression needs more than {MAX_PRODUCT_PAIRS} {what}", pos)
        if bits > MAX_COEFF_BITS:
            raise self.error(f"expression needs coefficients of more than "
                             f"{MAX_COEFF_BITS} bits", pos)

    def product(self, a: Multivector, b: Multivector, pos: int) -> Multivector:
        """a * b, charged before it is formed; `pos` is the operator's token."""
        self.charge(len(a.terms) * len(b.terms), _size(a) + _size(b), pos)
        return mv_product(a, b)

    def power(self, value: Multivector, n: int, pos: int) -> Multivector:
        """value^n by square-and-multiply over the bits of n from the top, so
        n <= 3 multiplies in the same order as repeated multiplication."""
        if n == 0:
            return Multivector.unit(value.context)
        out = value
        for bit in bin(n)[3:]:
            out = self.product(out, out, pos)
            if bit == "1":
                out = self.product(out, value, pos)
        return out


def parse(text: str, context: Context) -> Multivector:
    """Parse and evaluate an expression in the given context."""
    return parse_all([text], context)[0]


def parse_all(texts: Iterable[str], context: Context) -> list[Multivector]:
    """Parse and evaluate expressions in the given context, in order; the
    products of all of them share one MAX_PRODUCT_PAIRS budget."""
    pairs, out = 0, []
    for text in texts:
        parser = _Parser(text, context, pairs)
        if not parser.tok:
            raise ParseError("empty expression")
        try:
            out.append(parser.parse())
        except RecursionError:
            raise parser.error("expression nests too deeply", parser.pos) from None
        pairs = parser.pairs
    return out
