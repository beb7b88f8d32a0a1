"""Scalar domains: exact rationals, Gaussian rationals, and float variants.

A computation context fixes one of four domains; values from different
domains never mix silently.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import DigitLimitError, DomainMismatchError, UnsupportedDomainError


class Domain(Enum):
    RATIONAL = "rational"
    GAUSSIAN = "gaussian"
    F64 = "f64"
    C64 = "c64"

    def __init__(self, value: str):
        # plain attributes, set once per member: hot paths read them, and a
        # property costs a class lookup per read
        self.is_exact = value in ("rational", "gaussian")
        self.has_i = value in ("gaussian", "c64")
        self.is_real = not self.has_i

    def require_real(self, what: str) -> None:
        if not self.is_real:
            raise UnsupportedDomainError(
                f"{what} is defined over real domains, not {self.value}")

    def require_exact(self, what: str) -> None:
        if not self.is_exact:
            raise UnsupportedDomainError(
                f"{what} are exact; use rational or gaussian domains")


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """Exact a + b*i with rational a, b and i**2 == -1."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(other.re / d, -other.im / d)

    def __rtruediv__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        im = f"{self.im} i" if self.im > 0 else f"-{-self.im} i"
        if self.re == 0:
            return im
        sep = "+" if self.im > 0 else "-"
        return f"{self.re}{sep}{abs(self.im)} i"


def _as_gaussian(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(Fraction(x), Fraction(0))
    return NotImplemented


I_GAUSSIAN = GaussianRational(Fraction(0), Fraction(1))

_new = object.__new__
_set_re, _set_im = GaussianRational.re.__set__, GaussianRational.im.__set__


def reduced(re: int, den: int, im: int | None = None):
    """Fraction(re, den), or GaussianRational(Fraction(re, den), Fraction(im,
    den)) when im is given, for ints and den > 0: built in lowest terms by one
    gcd per part, with no second normalization and no __init__."""
    g = gcd(re, den)
    x = _new(Fraction)
    x._numerator, x._denominator = re // g, den // g
    if im is None:
        return x
    z = _new(GaussianRational)
    _set_re(z, x)
    _set_im(z, reduced(im, den))
    return z


# A literal is "re", "re +- im i", "+- im i" or "im i", in ASCII digits and
# spaces only (re.ASCII; Fraction and float read any Unicode digit, and float
# and Python 3.11's Fraction read "_"). A part is p, p/q or a decimal, read by
# the domain's part reader, so the number pattern is loose: the exact readers
# refuse exponents and "inf", "infinity" and "nan", which the float readers
# take in any case. An im part follows a sign, so no two numbers are adjacent
# and a failed match backtracks in linear time.
_NUMBER = r"(?:[\d./]+(?:[eE][+-]?\d+)?|(?i:inf(?:inity)?|nan))"
_LITERAL = re.compile(
    rf"(?P<re>[+-]?{_NUMBER})?\s*"
    rf"(?:(?:(?P<sign>[+-])\s*(?P<im>[+-]?{_NUMBER})?\s*)?(?P<i>i))?", re.ASCII)
_SPACES = " \t\n\r\f\v"  # what \s matches under re.ASCII


def coerce(domain: Domain, value):
    """Bring an int/Fraction/domain value into canonical form for `domain`."""
    if domain is Domain.RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return reduced(value, 1)
        if isinstance(value, GaussianRational) and value.im == 0:
            return value.re
        raise DomainMismatchError(f"not a rational value: {value!r}")
    if domain is Domain.GAUSSIAN:
        if isinstance(value, int):
            return reduced(value, 1, 0)
        g = _as_gaussian(value)
        if g is NotImplemented:
            raise DomainMismatchError(f"not a Gaussian rational value: {value!r}")
        return g
    if domain is Domain.F64:
        if isinstance(value, float):
            return value
        if isinstance(value, (int, Fraction)):
            return _float(domain, value)
        raise DomainMismatchError(f"not a real float value: {value!r}")
    if domain is Domain.C64:
        if isinstance(value, complex):
            return value
        if isinstance(value, (int, float, Fraction)):
            return complex(_float(domain, value))
        if isinstance(value, GaussianRational):
            return complex(_float(domain, value.re), _float(domain, value.im))
        raise DomainMismatchError(f"not a complex float value: {value!r}")
    raise UnsupportedDomainError(str(domain))


def _float(domain: Domain, value) -> float:
    """float(value), refusing an int or Fraction beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"bad {domain.value} literal: {value}") from None


# one immutable 0 and 1 per domain, built once: callers only read them
_ZERO, _ONE = ({domain: coerce(domain, n) for domain in Domain} for n in (0, 1))


def zero(domain: Domain):
    return _ZERO[domain]


def one(domain: Domain):
    return _ONE[domain]


def imaginary_unit(domain: Domain):
    if domain is Domain.GAUSSIAN:
        return I_GAUSSIAN
    if domain is Domain.C64:
        return 1j
    raise UnsupportedDomainError(
        f"domain {domain.value} has no imaginary unit; use gaussian or c64")


@contextmanager
def digit_limit():
    """Raise Python's ValueError for printing an integer past the interpreter's
    string-conversion digit limit as DigitLimitError."""
    try:
        yield
    except ValueError:
        raise DigitLimitError(
            f"cannot print a value of more than {sys.get_int_max_str_digits()} "
            f"decimal digits (the interpreter's integer conversion limit)") from None


def format_scalar(domain: Domain, value) -> str:
    """Serialize for JSON / CLI output; inverse of parse_scalar."""
    if domain.is_exact:
        with digit_limit():
            return str(value)
    if domain is Domain.F64:
        return repr(value)
    if domain is Domain.C64:  # an unsigned 0.0 for a zero part, as in "+0.0 i"
        return f"{value.real or 0.0!r}{'+' if value.imag >= 0 else '-'}{abs(value.imag)!r} i"
    raise UnsupportedDomainError(str(domain))


def parse_scalar(domain: Domain, text: str):
    """Parse the string serialization (`"p/q"`, `"p/q+r/s i"`, float reprs).

    A JSON int is read in every domain and a JSON float in f64 and c64; a
    boolean, or a float in an exact domain, is refused."""
    if isinstance(text, (int, float)):
        if isinstance(text, bool) or domain.is_exact and isinstance(text, float):
            raise ValueError(f"bad {domain.value} literal: {text!r}")
        return coerce(domain, text)
    text = text.strip(_SPACES)
    m = _LITERAL.fullmatch(text)
    try:
        if not text or not m or m["i"] and domain.is_real:
            raise ValueError
        if m["i"] is None:
            real, imag = m["re"], "0"
        elif m["sign"] is None:
            # bare "<number> i": group re captured the magnitude
            real, imag = "0", m["re"] or "1"
        else:
            real, imag = m["re"] or "0", m["im"] or "1"
        part = _fraction_part if domain.is_exact else _float_part
        real = part(real)
        if domain.is_real:
            return real
        imag = -part(imag) if m["sign"] == "-" else part(imag)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"bad {domain.value} literal: {text!r}") from None
    return GaussianRational(real, imag) if domain.is_exact else complex(real, imag)


def _fraction_part(text: str) -> Fraction:
    # Fraction reads "1e999999999" exactly, as a billion-digit integer.
    if "e" in text or "E" in text:
        raise ValueError(text)
    return Fraction(text)


def _float_part(text: str) -> float:
    return float(Fraction(text)) if "/" in text else float(text)
