"""The text layer: error positions, linear-time scanning and summing, and
the per-parse product and coefficient-size budgets."""

import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliffalg.cli import run
from cliffalg.core import Blade, Context
from cliffalg.errors import CliffordError, DigitLimitError, ParseError
from cliffalg.expr import (MAX_COEFF_BITS, MAX_PRODUCT_PAIRS, _lex, _Parser,
                           parse)
from cliffalg.render import render
from cliffalg.scalars import Domain

CTX = Context.make()

ATOMS = st.sampled_from(["e1", "e23", "3", "1/2", "rev(e3 + 1/2)",
                         "(e1 - 2)^2", "-e4", "(\te2*e5\n)"])
SEPS = st.sampled_from(["", " ", "  ", "\n", "\t", " \n\t ", "\n\n", "\x1c"])
BAD = st.sampled_from(list("$#@.,;=?!~%&[]{}|`'\""))


def oracle(text: str, offset: int) -> tuple[int, int]:
    """(line, column) of `offset`: lines are split at '\\n' only."""
    lines = text[:offset].split("\n")
    return len(lines), len(lines[-1])


@st.composite
def layouts(draw) -> list[str]:
    """A valid expression as its pieces: atoms, separators and operators,
    starting and ending with an atom."""
    atoms = draw(st.lists(ATOMS, min_size=1, max_size=6))
    parts = [atoms[0]]
    for atom in atoms[1:]:
        parts += [draw(SEPS), draw(st.sampled_from("+-*")), draw(SEPS), atom]
    return parts


def parse_error(text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse(text, CTX)
    return info.value


class TestErrorPositions:
    @given(layouts(), st.data(), SEPS, BAD)
    def test_bad_character_after_spaces(self, parts, data, spaces, bad):
        # the error points at the start of the whitespace before the character
        cut = data.draw(st.sampled_from(
            [k for k in range(len(parts) + 1) if k == 0 or parts[k - 1].strip()]))
        head = "".join(parts[:cut])
        text = head + spaces + bad + "".join(parts[cut:])
        err = parse_error(text)
        assert str(err).startswith(f"unexpected character {bad!r} (")
        assert (err.line, err.column) == oracle(text, len(head))

    @given(layouts(), st.data(), SEPS)
    def test_input_cut_after_an_operator(self, parts, data, trailing):
        text = "".join(parts)
        cut = data.draw(st.sampled_from(
            [k + 1 for k, ch in enumerate(text) if ch in "+-*^/("] or [None]))
        if cut is None:
            return
        err = parse_error(text[:cut] + trailing)
        assert str(err).startswith("unexpected end of input (")
        assert (err.line, err.column) == oracle(text, cut)

    @given(layouts(), st.sampled_from(["\n", " \n", "\n\t\n  ", "\x1c\n"]),
           st.sampled_from(["e1", "7", ")", "(e2)", "rev(e1)", "i"]))
    def test_trailing_input_on_a_later_line(self, parts, newline, extra):
        head = "".join(parts) + newline
        err = parse_error(head + extra)
        first = _lex(extra)[0][0]
        assert str(err).startswith(f"trailing input {first!r} (")
        assert (err.line, err.column) == oracle(head, len(head))
        assert err.line > 1


def chain(n: int) -> str:
    return "*".join(f"(1+e{k})" for k in range(1, n + 1))


HALF = MAX_COEFF_BITS // 2 - 2

# Every ParseError the parser raises, with its exact position.
ERROR_SITES = [
    ("(e1 + 2", "unexpected end of input (line 1, column 7)"),
    ("(e1\n+ 2\n", "unexpected end of input (line 2, column 3)"),
    ("e1^", "unexpected end of input (line 1, column 3)"),
    ("3/", "unexpected end of input (line 1, column 2)"),
    ("e1 +\n\n\t\n  ", "unexpected end of input (line 1, column 4)"),
    ("rev(\n \n", "unexpected end of input (line 1, column 4)"),
    ("-\n", "unexpected end of input (line 1, column 1)"),
    ("rev e1", "expected '(', found 'e1' (line 1, column 4)"),
    ("(e1\n  e2)", "expected ')', found 'e2' (line 2, column 2)"),
    ("rev(e1 3)", "expected ')', found '3' (line 1, column 7)"),
    ("e1 )", "trailing input ')' (line 1, column 3)"),
    ("e1\n  e2", "trailing input 'e2' (line 2, column 2)"),
    ("e1^-1", "power must be a nonnegative integer (line 1, column 3)"),
    ("e1^\n(2)", "power must be a nonnegative integer (line 2, column 0)"),
    ("e1^1000001", "exponent exceeds the limit 1000000 (line 1, column 3)"),
    ("e1 *\n e2^0001000001",
     "exponent exceeds the limit 1000000 (line 2, column 4)"),
    ("3/0", "denominator must be a positive integer (line 1, column 2)"),
    ("3/e1", "denominator must be a positive integer (line 1, column 2)"),
    ("3/\n 00", "denominator must be a positive integer (line 2, column 1)"),
    ("1" * 5000, "integer literal of 5000 digits is too long (line 1, column 0)"),
    ("e1 +\n 3/" + "7" * 5000,
     "integer literal of 5000 digits is too long (line 2, column 3)"),
    ("e1 + foo", "unknown atom 'foo' (line 1, column 5)"),
    ("e1 *\n  rev2", "unknown atom 'rev2' (line 2, column 2)"),
    ("E1", "unknown atom 'E1' (line 1, column 0)"),
    (")", "unexpected token ')' (line 1, column 0)"),
    ("e1 + * e2", "unexpected token '*' (line 1, column 5)"),
    ("e1\n  + ^2", "unexpected token '^' (line 2, column 4)"),
    ("e0", "generator indices start at 1 (line 1, column 0)"),
    ("e1\n*e00", "generator indices start at 1 (line 2, column 1)"),
    ("e1 + e10001", "generator index exceeds the limit 10000 (line 1, column 5)"),
    ("e1*e2*\n e000010001",
     "generator index exceeds the limit 10000 (line 2, column 1)"),
    (chain(18), f"expression needs more than {MAX_PRODUCT_PAIRS} blade "
                f"products (line 1, column {chain(18).rindex('*')})"),
    (f"e1 +\n 2^{HALF} *\n 2^{HALF + 1}",
     f"expression needs coefficients of more than {MAX_COEFF_BITS} bits "
     f"(line 2, column {len(str(HALF)) + 4})"),
    ("e1 $ e2", "unexpected character '$' (line 1, column 2)"),
    ("e1\n  #", "unexpected character '#' (line 1, column 2)"),
    ("", "empty expression (line 1, column 0)"),
    ("  \n\t", "empty expression (line 1, column 0)"),
]


class TestErrorSites:
    @pytest.mark.parametrize("text, message", ERROR_SITES,
                             ids=[m.split(" (")[0] for _, m in ERROR_SITES])
    def test_message_and_position(self, text, message):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            assert str(parse_error(text)) == message
        finally:
            sys.set_int_max_str_digits(limit)

    # the grammar's digits are ASCII: a Unicode digit is no index or literal
    @pytest.mark.parametrize("text, message", [
        ("e١", "unknown atom 'e١' (line 1, column 0)"),
        ("e٠٠٠٠٠٢",
         "unknown atom 'e٠٠٠٠٠٢' (line 1, column 0)"),
        ("٣*e1", "unexpected character '٣' (line 1, column 0)"),
        ("e1 + 2/٣", "unexpected character '٣' (line 1, column 7)"),
        ("e1^٢", "unexpected character '٢' (line 1, column 3)")],
        ids=["index", "zero-padded-index", "literal", "denominator", "exponent"])
    def test_unicode_digits_are_refused(self, text, message):
        assert str(parse_error(text)) == message

    def test_leading_zeros_read_as_the_index(self):
        assert render(parse("e00002*e1", CTX)) == "-e1*e2"


class TestLinearTime:
    # At the parent of this change, lexing 200,000 tokens took about 40 s and
    # the 20,000-blade sum about 14 s: lexing recounted newlines from the
    # start of the text per token, and each '+' copied the running sum.
    def test_lexing_200000_tokens(self):
        text = " + ".join(["e1"] * 100_000)
        start = time.perf_counter()
        tokens, offsets = _lex(text)
        assert time.perf_counter() - start < 5
        assert len(tokens) == len(offsets) == 199_999 + 1  # and the sentinel
        assert offsets[-2] == len(text) - 2
        assert (tokens[-1], offsets[-1]) == ("", len(text))

    @pytest.mark.parametrize("text, outcome", [
        ("e1" + " " * 200_000, "e1"),
        (" " * 200_000, "empty expression (line 1, column 0)"),
        ("e1 +\n" + "\t\n " * 70_000,
         "unexpected end of input (line 1, column 4)")],
        ids=["after-a-token", "only", "after-an-operator"])
    def test_trailing_whitespace(self, text, outcome):
        # no token matches in a trailing run of whitespace; scanning it from
        # every offset would be quadratic in its length
        start = time.perf_counter()
        try:
            value = render(parse(text, CTX))
        except ParseError as err:
            value = str(err)
        assert time.perf_counter() - start < 5
        assert value == outcome

    def test_sum_of_20000_distinct_blades(self):
        pairs = [(i, j) for j in range(2, 202) for i in range(1, j)][:20_000]
        text = " + ".join(f"e{i}*e{j}" for i, j in pairs)
        start = time.perf_counter()
        value = parse(text, CTX)
        assert time.perf_counter() - start < 5
        assert len(value.terms) == 20_000
        assert all(value.terms[Blade.from_indices(p)] == 1 for p in pairs)


class TestProductBudget:
    # (1+e1)*...*(1+en) forms 2^(k+1) blade pairs at its k-th '*', so the
    # chain of n factors needs 2^(n+1) - 4 in all
    def test_product_at_the_budget_evaluates(self):
        assert 2 ** 18 - 4 <= MAX_PRODUCT_PAIRS
        assert len(parse(chain(17), CTX).terms) == 2 ** 17

    def test_error_points_at_the_operator(self):
        text = chain(18)
        err = parse_error(text)
        assert str(err).startswith(
            f"expression needs more than {MAX_PRODUCT_PAIRS} blade products (")
        assert (err.line, err.column) == (1, text.rindex("*"))
        text = f"({chain(12)})^2"
        err = parse_error(text)
        assert (err.line, err.column) == (1, text.rindex("^"))

    # chain-40 forms the 16 allowed products (2^18 - 4 pairs) before it
    # fails, about 1.1 s on an idle machine; the square and the cube fail at
    # their first product, about 0.02 s.  The last text would multiply
    # 131,072 pairs of about 15,000-bit coefficients (about 6 s); as each
    # pair counts once per interpreter digit of its coefficient sizes, it
    # fails at its first product with a 15,000-bit scalar
    @pytest.mark.parametrize("text, seconds",
                             [(chain(40), 10), (f"({chain(12)})^2", 2),
                              (f"({chain(9)})^3", 2),
                              (f"({chain(9)}*(3/7)^3500)*({chain(8)}*(5/11)^3000)",
                               1)],
                             ids=["chain-40", "square", "cube",
                                  "large-coefficients"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_hostile_products_exit_two_quickly(self, text, seconds, as_json,
                                               capsys):
        start = time.perf_counter()
        assert run(["--json"] * as_json + ["eval", text]) == 2
        assert time.perf_counter() - start < seconds
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: expression needs more than "
                              f"{MAX_PRODUCT_PAIRS} blade products (line 1, ")


class TestCoefficientBudget:
    # 2^k is k + 1 numerator bits over a 1-bit denominator
    def test_product_at_the_budget_evaluates(self):
        half = MAX_COEFF_BITS // 2 - 2
        value = parse(f"2^{half} * 2^{half}", CTX)
        assert value.terms == {Blade(0): 2 ** (2 * half)}
        err = parse_error(f"2^{half} * 2^{half + 1}")
        assert str(err) == (f"expression needs coefficients of more than "
                            f"{MAX_COEFF_BITS} bits (line 1, column "
                            f"{len(str(half)) + 3})")
        # each operand counts its largest coefficient, wherever it stands
        text = f"(1 + 2^{half}*e1) * (2^{half + 1}*e2 + 1)"
        err = parse_error(text)
        assert str(err).startswith("expression needs coefficients of more than")
        assert (err.line, err.column) == (1, text.index(") * (") + 2)

    def test_gaussian_sizes_count_both_parts(self):
        gauss = Context.make(Domain.GAUSSIAN)
        # (2^h + 2^h i) has 2 * (h + 2) bits, so its square is over by 2
        h = MAX_COEFF_BITS // 4 - 1
        text = f"(2^{h} + 2^{h}*i)^2"
        with pytest.raises(ParseError, match="coefficients of more than"):
            parse(text, gauss)
        assert parse(f"(2^{h - 1} + 2^{h - 1}*i)^2", gauss).terms == \
            {Blade(0): parse(f"2^{2 * h - 1}*i", gauss).terms[Blade(0)]}

    def test_float_domains_skip_the_budget(self):
        for domain in (Domain.F64, Domain.C64):
            value = parse("(3/2*e1+2/3)^1000000", Context.make(domain))
            assert set(value.terms) <= {Blade(0), Blade(1)}

    # each took about a minute (the first) and more than two (the second)
    # while the coefficients grew to millions of bits
    @pytest.mark.parametrize("argv", [
        ["eval", "(3/2*e1+2/3)^1000000"],
        ["--signature", '{"default":"123456789/987654321"}',
         "eval", "e1^1000000"]], ids=["sum-power", "signature-power"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_hostile_powers_exit_two_quickly(self, argv, as_json, capsys):
        column = argv[-1].index("^")
        start = time.perf_counter()
        assert run(["--json"] * as_json + argv) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: expression needs coefficients of more than "
                       f"{MAX_COEFF_BITS} bits (line 1, column {column})\n")


def _primes(n: int) -> list[int]:
    out, k = [], 2
    while len(out) < n:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return out


class TestSumBudget:
    # A sum holds every numerator over the terms' common denominator: at each
    # '+' or '-' it is charged its terms so far times the whole interpreter
    # digits of that denominator
    DIGIT = sys.int_info.bits_per_digit

    def test_a_sum_is_charged_per_digit_of_its_denominator(self):
        primes = _primes(10)  # the first nine multiply to under 2^29
        for k, charged in ((9, 0), (10, 10)):
            assert math.prod(primes[:k]).bit_length() // self.DIGIT == (k > 9)
            parser = _Parser(" + ".join(f"1/{p}" for p in primes[:k]), CTX)
            assert parser.parse() == parse(f"{sum(Fraction(1, p) for p in primes[:k])}", CTX)
            assert parser.pairs == charged

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.GAUSSIAN])
    def test_a_sum_over_distinct_primes_is_refused_at_its_operator(self, domain):
        primes = _primes(1000)
        text = " + ".join(f"1/{p}*e{k}" for k, p in enumerate(primes, start=1))
        # the oracle: the first '+' at which the sum so far is over the budget
        den, pairs = 1, 0
        for k, p in enumerate(primes, start=1):
            den *= p
            pairs += 1  # the folded e_k of `1/p*e_k`, charged as its product
            if k > 1 and pairs + k * (den.bit_length() // self.DIGIT) > MAX_PRODUCT_PAIRS:
                break
        start = time.perf_counter()
        with pytest.raises(ParseError) as info:
            parse(text, Context.make(domain))
        assert time.perf_counter() - start < 2
        assert str(info.value).startswith(f"expression needs more than {MAX_PRODUCT_PAIRS} "
                                          f"blade products and sum digits (")
        assert info.value.column == [m for m, c in enumerate(text) if c == "+"][k - 2]

    def test_float_sums_are_free(self):
        text = " + ".join(f"1/{p}" for p in _primes(1000))
        parser = _Parser(text, Context.make(Domain.F64))
        parser.parse()
        assert parser.pairs == 0

    # 3,000 such terms took 2 s and 19 MiB, quadratic in the text, before the
    # charge; a 1 MiB text would have needed minutes and gigabytes
    @pytest.mark.parametrize("text", [
        " + ".join(f"1/{p}*e{k}" for k, p in enumerate(_primes(3000), start=1)),
        "1/" + "7" * 4000 + "*e1 + " + " + ".join(f"e{k}*e{k + 1}" for k in range(2, 9000))],
        ids=["distinct-primes", "one-wide-denominator"])
    def test_hostile_sums_exit_two_quickly(self, text, capsys):
        start = time.perf_counter()
        assert run(["eval", text]) == 2
        assert time.perf_counter() - start < 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: expression needs more than {MAX_PRODUCT_PAIRS} "
                              f"blade products and sum digits (line 1, column ")


class _Unfolded(_Parser):
    """The parser with one left-to-right mv_product per '*', as before runs
    of generators were folded: the reference for the fold."""

    def term(self):
        value = self.factor()
        while self.tok == "*":
            star = self.take()
            value = self.product(value, self.factor(), star)
        return value


def outcome(parser, text: str, ctx: Context):
    """The terms in order, the repr and the sign of every float part of the
    value, or the error's message with its position."""
    try:
        value = parser(text, ctx).parse()
    except CliffordError as err:  # a ParseError, or `i` in a real domain
        return str(err)
    try:
        text = repr(value)
    except DigitLimitError:  # too long to print; the terms still compare
        text = None
    exact = ctx.domain.is_exact
    parts = [] if exact else [p for c in value.terms.values()
                              for p in (c.real, c.imag)]
    return ([(b, c if exact else repr(c)) for b, c in value.terms.items()],
            text, [math.copysign(1, p) for p in parts])


FOLD_FORMS = [(1, {}), (1, {2: -1, 4: 3}), (-1, {}), (2, {1: 1})]
FOLD_CONTEXTS = [Context.make(domain, default, over)
                 for domain in Domain for default, over in FOLD_FORMS]
FOLD_IDS = [f"{domain.value}-q{default}-{over}"
            for domain in Domain for default, over in FOLD_FORMS]

# In f64, (10^200)^2 is inf and the sum below a NaN whose sign a relabelling
# must keep; in the exact domains both are large integers.
INF = "(10^200)^2"
NAN = f"({INF} - {INF})"

FOLD_TEXTS = [
    "e1*e1*e1*e1", "e1*e1*e1", "e3*e1*e2*e1*e3*e2", "(3/4)*e2*e4*e5",
    "e1*e4*e2*e4*e3*e4",  # q_4 = 3 is masked: its contractions end the run
    "e2*e1*e2*e3*e2", "e1*e3*e2^3*e4*e5", "e4*e2^2*e4*e1",
    "(1 + 2*e3 - e1*e2)*e2*e1*e5*e3", "(e1 + e2)*(e2 - e4)*e4*e1*e4",
    "rev(e1*e2*e3 + e4)*e1*e2", "-e2*-e1*e3*e1", "0*e1*e2",
    f"{INF}*e2*e1", f"{NAN}*e2*e1", f"-{NAN}*e3*e1*e2",
    f"({NAN}*e1 + {INF}*e2 - 1)*e3*e2*e1", "i*e2*e1*e2",
    "e1*(e2*e3*e1)*e3", "e5*e5*e0", "e2*e1*e10001", "e1*e2*", "e1*e2*e3^",
]


def random_text(rng: random.Random, depth: int = 0) -> str:
    """A sum of terms whose factors are mostly bare generators, with powers,
    rev, unary minus, nesting, repeated indices, and inf and NaN in f64."""
    def atom():
        roll = rng.random()
        if roll < 0.6:
            return f"e{rng.randint(1, 5)}"
        if roll < 0.75 or depth > 2:
            return rng.choice(["2", "1/3", "-3/2", "i", "7", INF, NAN])
        if roll < 0.85:
            return f"rev({random_text(rng, depth + 1)})"
        if roll < 0.92:
            return f"-{atom()}"
        return f"({random_text(rng, depth + 1)})"

    def factor():
        text = atom()
        return f"{text}^{rng.randint(0, 3)}" if rng.random() < 0.1 else text

    return " + ".join("*".join(factor() for _ in range(rng.randint(1, 7)))
                      for _ in range(rng.randint(1, 3)))


class TestGeneratorRuns:
    """A run of generators is one signed relabelling: values, term order,
    float signs, budget charges and error positions are those of one
    mv_product per '*', left to right."""

    @pytest.mark.parametrize("seed, ctx", enumerate(FOLD_CONTEXTS), ids=FOLD_IDS)
    def test_texts_match_the_unfolded_products(self, seed, ctx):
        rng = random.Random(seed)
        texts = FOLD_TEXTS + [random_text(rng) for _ in range(200)]
        for text in texts:
            assert outcome(_Parser, text, ctx) == outcome(_Unfolded, text, ctx), text

    def test_a_repeated_generator_contracts_each_time(self):
        # a set of the contracted generators would read e1 four times as e1
        assert render(parse("e1*e1*e1*e1", CTX)) == "1"
        assert render(parse("e2*e1*e1*e1*e2", CTX)) == "-e1"
        ctx = Context.make(overrides={4: 3})
        assert render(parse("e4*e1*e4*e4*e1", ctx)) == "3*e4"

    @pytest.mark.parametrize("domain", list(Domain))
    @pytest.mark.parametrize("head, fails", [
        ("e1*e2*e3*e4*e5", False), ("e1*e2*e3*e4*e5*e6", True)],
        ids=["at-the-budget", "one-over"])
    def test_product_budget_at_the_end_of_a_run(self, domain, head, fails):
        # the head charges one pair per '*', the chain 2^11 - 4, and each of
        # the run's 254 '*' the chain's 1024 terms: 2^18 with 4 in the head
        text = f"{head} + ({chain(10)})" + "*e11*e13*e12*e11" * 63 + "*e12*e14"
        ctx = Context.make(domain)
        got = outcome(_Parser, text, ctx)
        assert got == outcome(_Unfolded, text, ctx)
        if fails:
            assert got == (f"expression needs more than {MAX_PRODUCT_PAIRS} "
                           f"blade products (line 1, column {text.rindex('*')})")
        else:
            assert len(got[0]) == 1 + 1024

    @pytest.mark.parametrize("domain, k", [(Domain.RATIONAL, 32764),
                                           (Domain.GAUSSIAN, 32762)])
    @pytest.mark.parametrize("fails", [False, True],
                             ids=["at-the-budget", "one-over"])
    def test_coefficient_budget_in_a_run(self, domain, k, fails):
        # 2^k plus the generator's unit is MAX_COEFF_BITS; the unbudgeted sum
        # 2^k + 2^k has one bit more
        value = f"(2^{k} + 2^{k})" if fails else f"2^{k}"
        text = f"e3*e4 + {value}*e2*e1*e2*e3"
        ctx = Context.make(domain)
        got = outcome(_Parser, text, ctx)
        assert got == outcome(_Unfolded, text, ctx)
        if fails:
            assert got == (f"expression needs coefficients of more than "
                           f"{MAX_COEFF_BITS} bits (line 1, column "
                           f"{len(text) - 12})")
        else:
            assert [blade for blade, _ in got[0]] == [Blade(0b1100), Blade(0b101)]


def family_json(parity: str, domain: str) -> str:
    """A family with dyadic coefficients, exact in every domain."""
    blades = {"even": [[1, 2], [2, 3], [1, 2, 3, 4]],
              "odd": [[1], [2], [1, 3, 4]]}[parity]
    coeffs = ["1/2", "-3", "5/4"]
    if domain == "gaussian":
        coeffs[1] = "-3+1/2 i"
    elif domain == "f64":
        coeffs = [0.5, -3.0, 1.25]
    return json.dumps({"parity": parity, "terms": [
        {"blade": b, "coeff": c} for b, c in zip(blades, coeffs)]})


def cli(argv, capsys) -> str:
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


class TestExtractOutput:
    def test_f64_coefficients_are_json_numbers(self, capsys):
        argv = ["--domain", "f64", "deriv", "extract", "--parity", "even",
                "--bound", "2", "--table", '{"actions":{"1":"-e2","2":"e1"}}']
        doc = json.loads(cli(argv, capsys))
        assert doc == {"parity": "even",
                       "terms": [{"blade": [1, 2], "coeff": 0.5}]}

    @pytest.mark.parametrize("domain", ["rational", "gaussian", "f64"])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_extracted_family_applies_back_to_the_table(self, domain, parity,
                                                        capsys):
        # the table is written in the rational domain (f64 renders decimals,
        # which the grammar does not read) or, for gaussian, in its own
        table_domain = "gaussian" if domain == "gaussian" else "rational"
        family = family_json(parity, table_domain)
        probes = range(1, 6)
        table = {str(k): cli(["--domain", table_domain, "deriv", "apply",
                              "--family", family, f"e{k}"], capsys).strip()
                 for k in probes}
        flags = ["--domain", domain]
        extracted = cli(flags + ["deriv", "extract", "--parity", parity,
                                 "--bound", "4", "--table",
                                 json.dumps({"actions": table})], capsys)
        assert json.loads(extracted) == json.loads(family_json(parity, domain))
        for k in probes:
            assert cli(flags + ["deriv", "apply", "--family", extracted,
                                f"e{k}"], capsys) == \
                cli(flags + ["eval", table[str(k)]], capsys)
