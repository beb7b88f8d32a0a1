import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliffalg.scalars import (Domain, GaussianRational, coerce, format_scalar,
                              one, parse_scalar, reduced, zero)

fractions = st.fractions(max_denominator=10 ** 6)
# exponents, +-inf and subnormals; nan is not == to itself
floats = st.floats(allow_nan=False, allow_subnormal=True)

VALUES = {
    Domain.RATIONAL: fractions,
    Domain.GAUSSIAN: st.builds(GaussianRational, fractions, fractions),
    Domain.F64: floats,
    Domain.C64: st.builds(complex, floats, floats),
}


def test_domain_flags():
    assert {d: (d.is_exact, d.has_i, d.is_real) for d in Domain} == {
        Domain.RATIONAL: (True, False, True),
        Domain.GAUSSIAN: (True, True, False),
        Domain.F64: (False, False, True),
        Domain.C64: (False, True, False),
    }


@pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
@given(data=st.data())
def test_format_parse_round_trip(domain, data):
    value = data.draw(VALUES[domain])
    assert parse_scalar(domain, format_scalar(domain, value)) == value


def _same_float(a: float, b: float) -> bool:
    """a == b with the sign of a zero, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


FLOAT_SPECIALS = [-0.0, math.inf, -math.inf, 5e-324, math.nan]


@pytest.mark.parametrize("x", FLOAT_SPECIALS, ids=repr)
def test_float_specials_round_trip(x):
    assert _same_float(parse_scalar(Domain.F64, format_scalar(Domain.F64, x)), x)
    # format_scalar writes a zero c64 part unsigned, so -0.0 reads back as 0.0
    for value in (complex(x, 0.5), complex(0.5, x)):
        back = parse_scalar(Domain.C64, format_scalar(Domain.C64, value))
        assert _same_float(back.real, value.real or 0.0)
        assert _same_float(back.imag, value.imag or 0.0)


_G = GaussianRational.of
BAD = None  # refused, with the message REFUSED[domain] + repr(text)
REFUSED = {
    Domain.RATIONAL: "bad rational literal: ",
    Domain.GAUSSIAN: "bad gaussian literal: ",
    Domain.F64: "bad f64 literal: ",
    Domain.C64: "bad c64 literal: ",
}
# text: its value or BAD in (rational, gaussian, f64, c64)
LITERALS = {
    "-3/7": (Fraction(-3, 7), _G(Fraction(-3, 7)), -3 / 7, complex(-3 / 7)),
    "1/2+3/4 i": (BAD, _G(Fraction(1, 2), Fraction(3, 4)), BAD,
                  complex(0.5, 0.75)),
    "i": (BAD, _G(0, 1), BAD, 1j),
    "-3/4 i": (BAD, _G(0, Fraction(-3, 4)), BAD, complex(0, -0.75)),
    "1/2 - i": (BAD, _G(Fraction(1, 2), -1), BAD, complex(0.5, -1)),
    "1.5": (Fraction(3, 2), _G(Fraction(3, 2)), 1.5, complex(1.5)),
    " 7 ": (Fraction(7), _G(7), 7.0, complex(7)),
    "+3": (Fraction(3), _G(3), 3.0, complex(3)),
    "-nan": (BAD, BAD, math.nan, complex(math.nan)),
    "1e-20+2.0 i": (BAD, BAD, BAD, complex(1e-20, 2.0)),
    "1 2 i": (BAD, BAD, BAD, BAD),  # an im part follows a sign
    "٣": (BAD, BAD, BAD, BAD),
    "\u00a07": (BAD, BAD, BAD, BAD),  # a no-break space
    "1_000": (BAD, BAD, BAD, BAD),
    "1/3": (Fraction(1, 3), _G(Fraction(1, 3)), 1 / 3, complex(1 / 3)),
    "Infinity": (BAD, BAD, math.inf, complex(math.inf)),
    "-INF": (BAD, BAD, -math.inf, complex(-math.inf)),
    "1_0/3": (BAD, BAD, BAD, BAD),
    "٣/٤": (BAD, BAD, BAD, BAD),
}


@pytest.mark.parametrize("domain, text, value", [
    pytest.param(domain, text, value, id=f"{domain.value}-{text!r}")
    for text, row in LITERALS.items() for domain, value in zip(Domain, row)
])
def test_literal_table(domain, text, value):
    if value is BAD:
        with pytest.raises(ValueError) as info:
            parse_scalar(domain, text)
        assert str(info.value) == REFUSED[domain] + repr(text)
    else:
        assert repr(parse_scalar(domain, text)) == repr(value)


@pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
def test_a_long_bad_literal_is_refused_in_linear_time(domain):
    # with two numbers allowed side by side, "1" * 3000 + "/" + "1" * 3000 + "x"
    # took 1 s to refuse in gaussian and c64, and the time grew quadratically
    digits = "1" * 100_000
    start = time.perf_counter()
    for text in (digits + "x", f"{digits}/{digits}x", f"{digits}i1"):
        with pytest.raises(ValueError, match="^bad .* literal: '1111"):
            parse_scalar(domain, text)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("text, value", [
    ("1e-20+2.0 i", complex(1e-20, 2.0)),
    ("-2e-05+0.5 i", complex(-2e-05, 0.5)),
    ("1e+30-2.0 i", complex(1e+30, -2.0)),
    ("inf+0.0 i", complex(math.inf, 0.0)),
    ("-inf-inf i", complex(-math.inf, -math.inf)),
    ("5e-324+0.0 i", complex(5e-324, 0.0)),
])
def test_c64_reads_float_reprs(text, value):
    assert parse_scalar(Domain.C64, text) == value


@pytest.mark.parametrize("domain, text, value", [
    (Domain.GAUSSIAN, "i", GaussianRational.of(0, 1)),
    (Domain.GAUSSIAN, "-3/4 i", GaussianRational.of(0, Fraction(-3, 4))),
    (Domain.GAUSSIAN, "1/2 - i", GaussianRational.of(Fraction(1, 2), -1)),
    (Domain.GAUSSIAN, "2", GaussianRational.of(2)),
    (Domain.C64, "1/3+1/2 i", complex(1 / 3, 1 / 2)),
    (Domain.C64, "1.5-i", complex(1.5, -1.0)),
    (Domain.C64, "1.5 + -2 i", complex(1.5, -2.0)),
])
def test_complex_literal_forms(domain, text, value):
    assert parse_scalar(domain, text) == value


@pytest.mark.parametrize("domain, text", [
    (Domain.GAUSSIAN, ""),
    (Domain.GAUSSIAN, "1+2"),
    (Domain.GAUSSIAN, "inf"),
    # an exact exponent would build a 10**9-digit integer
    (Domain.GAUSSIAN, "1e999999999 i"),
    (Domain.C64, "1e"),
    (Domain.C64, "e1"),
    pytest.param(Domain.C64, f"{10 ** 400}/3+1 i",
                 id="Domain.C64-beyond-the-float-range"),
    # Fraction("1e1000000") takes a third of a second; exact literals
    # have no exponents
    (Domain.RATIONAL, "1e1000000"),
])
def test_bad_complex_literals(domain, text):
    with pytest.raises(ValueError,
                       match="^bad (rational|gaussian|c64) literal"):
        parse_scalar(domain, text)


@pytest.mark.parametrize("domain, text, message", [
    (Domain.RATIONAL, "1/0", "bad rational literal: '1/0'"),
    (Domain.GAUSSIAN, "1+1/0 i", "bad gaussian literal: '1+1/0 i'"),
    (Domain.F64, "1/0", "bad f64 literal: '1/0'"),
    (Domain.C64, "1/0+1 i", "bad c64 literal: '1/0+1 i'"),
], ids=["rational", "gaussian", "f64", "c64"])
def test_zero_denominator_is_a_bad_literal(domain, text, message):
    with pytest.raises(ValueError) as info:
        parse_scalar(domain, text)
    assert str(info.value) == message


@pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
def test_json_numbers(domain):
    """A JSON int is read in every domain and a JSON float in f64 and c64; a
    boolean, or a float in an exact domain, is a bad literal."""
    assert parse_scalar(domain, -2) == -2
    for value in (True, False):
        with pytest.raises(ValueError, match=f"^bad {domain.value} literal: {value}$"):
            parse_scalar(domain, value)
    if domain.is_exact:
        with pytest.raises(ValueError, match=rf"^bad {domain.value} literal: 1\.5$"):
            parse_scalar(domain, 1.5)
    else:
        assert parse_scalar(domain, 1.5) == 1.5
        with pytest.raises(ValueError, match=f"^bad {domain.value} literal: 1000"):
            parse_scalar(domain, 10 ** 400)


# reduced(re, den[, im]) builds values past their constructors, so these rows
# pin it to Fraction's layout on every interpreter the package supports
DENOMINATORS = {"1": 1, "840": 840, "prime": 2 ** 61 - 1, "10^25": 10 ** 25}


def _numerators(d: int) -> list:
    """(id, n) rows for the denominator d."""
    big = 2 ** 70 + 3
    return [("0", 0), ("1", 1), ("-1", -1), ("d", d), ("-d", -d),
            ("2^70+3", big), ("-(2^70+3)", -big),
            ("random", random.Random(d).randrange(-10 ** 40, 10 ** 40))]


def _same_fraction(got, want: Fraction) -> bool:
    return (type(got) is Fraction and got.numerator == want.numerator
            and got.denominator == want.denominator
            and hash(got) == hash(want) and repr(got) == repr(want))


@pytest.mark.parametrize("n, d", [
    pytest.param(n, d, id=f"{nid}-over-{did}")
    for did, d in DENOMINATORS.items() for nid, n in _numerators(d)
])
def test_reduced_is_fraction(n, d):
    assert _same_fraction(reduced(n, d), Fraction(n, d))


@pytest.mark.parametrize("re, im, d", [
    pytest.param(re, im, d, id=f"{rid}-{iid}-over-{did}")
    for did, d in DENOMINATORS.items()
    for (rid, re), (iid, im) in zip(_numerators(d),
                                    _numerators(d)[1:] + [("0", 0)])
] + [pytest.param(840, 0, 840, id="d-0-over-840")])
def test_reduced_gaussian(re, im, d):
    got = reduced(re, d, im)
    want = GaussianRational(Fraction(re, d), Fraction(im, d))
    assert type(got) is GaussianRational
    assert _same_fraction(got.re, want.re) and _same_fraction(got.im, want.im)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    if im == 0:
        assert got == Fraction(re, d) and hash(got) == hash(Fraction(re, d))
    for name in ("re", "im"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, name, Fraction(1))
    assert (got.re, got.im) == (want.re, want.im)


@pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
def test_zero_and_one_are_one_constant_per_domain(domain):
    for constant, n in ((zero, 0), (one, 1)):
        got, want = constant(domain), coerce(domain, n)
        assert type(got) is type(want) and got == want and repr(got) == repr(want)
        assert constant(domain) is got


@pytest.mark.parametrize("n", [True, False, 0, 1, -7, 10 ** 399 + 7, -(10 ** 399) - 3],
                         ids=["True", "False", "0", "1", "-7", "400-digit", "-400-digit"])
def test_coerce_reads_an_int_as_fraction_does(n):
    got = coerce(Domain.RATIONAL, n)
    assert _same_fraction(got, Fraction(n)) and type(got.numerator) is int
    got = coerce(Domain.GAUSSIAN, n)
    want = GaussianRational(Fraction(n), Fraction(0))
    assert type(got) is GaussianRational
    assert _same_fraction(got.re, want.re) and _same_fraction(got.im, want.im)
    assert hash(got) == hash(want) and repr(got) == repr(want)
