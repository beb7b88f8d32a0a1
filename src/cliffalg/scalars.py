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

from .errors import DigitLimitError, DomainMismatchError, UnsupportedDomainError


class Domain(Enum):
    RATIONAL = "rational"
    GAUSSIAN = "gaussian"
    F64 = "f64"
    C64 = "c64"

    @property
    def is_exact(self) -> bool:
        return self in (Domain.RATIONAL, Domain.GAUSSIAN)

    @property
    def has_i(self) -> bool:
        return self in (Domain.GAUSSIAN, Domain.C64)

    @property
    def is_real(self) -> bool:
        return self in (Domain.RATIONAL, Domain.F64)


@dataclass(frozen=True)
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

_GAUSSIAN_RE = re.compile(
    r"^\s*(?P<re>[+-]?\d+(?:/\d+)?)?\s*"
    r"(?:(?P<sign>[+-])?\s*(?P<im>\d+(?:/\d+)?)?\s*i)?\s*$"
)


def coerce(domain: Domain, value):
    """Bring an int/Fraction/domain value into canonical form for `domain`."""
    if domain is Domain.RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, GaussianRational) and value.im == 0:
            return value.re
        raise DomainMismatchError(f"not a rational value: {value!r}")
    if domain is Domain.GAUSSIAN:
        g = _as_gaussian(value)
        if g is NotImplemented:
            raise DomainMismatchError(f"not a Gaussian rational value: {value!r}")
        return g
    if domain is Domain.F64:
        if isinstance(value, float):
            return value
        if isinstance(value, (int, Fraction)):
            return float(value)
        raise DomainMismatchError(f"not a real float value: {value!r}")
    if domain is Domain.C64:
        if isinstance(value, complex):
            return value
        if isinstance(value, (int, float, Fraction)):
            return complex(value)
        if isinstance(value, GaussianRational):
            return complex(float(value.re), float(value.im))
        raise DomainMismatchError(f"not a complex float value: {value!r}")
    raise UnsupportedDomainError(str(domain))


def zero(domain: Domain):
    return coerce(domain, 0)


def one(domain: Domain):
    return coerce(domain, 1)


def imaginary_unit(domain: Domain):
    if domain is Domain.GAUSSIAN:
        return I_GAUSSIAN
    if domain is Domain.C64:
        return 1j
    raise UnsupportedDomainError(f"domain {domain.value} has no imaginary unit")


def conjugate(domain: Domain, value):
    if domain is Domain.GAUSSIAN:
        return value.conjugate()
    if domain is Domain.C64:
        return value.conjugate()
    return value


def is_zero(value) -> bool:
    return not value


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
    if domain is Domain.C64:
        return f"{value.real!r}{'+' if value.imag >= 0 else '-'}{abs(value.imag)!r} i"
    raise UnsupportedDomainError(str(domain))


def parse_scalar(domain: Domain, text: str):
    """Parse the string serialization (`"p/q"`, `"p/q+r/s i"`, float reprs)."""
    if isinstance(text, (int, float)):
        return coerce(domain, text)
    text = text.strip()
    if domain is Domain.RATIONAL:
        return Fraction(text)
    if domain is Domain.GAUSSIAN:
        return _parse_gaussian(text)
    if domain is Domain.F64:
        return float(text)
    if domain is Domain.C64:
        g = _parse_gaussian_float(text)
        return g
    raise UnsupportedDomainError(str(domain))


def _parse_gaussian(text: str) -> GaussianRational:
    m = _GAUSSIAN_RE.match(text)
    if not m or (m.group("re") is None and "i" not in text):
        raise ValueError(f"bad Gaussian rational literal: {text!r}")
    if "i" not in text:
        return GaussianRational(Fraction(m.group("re")), Fraction(0))
    re_part = Fraction(0)
    if m.group("im") is not None or m.group("sign") is not None:
        re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
        im_mag = Fraction(m.group("im")) if m.group("im") else Fraction(1)
        im_part = -im_mag if m.group("sign") == "-" else im_mag
    else:
        # bare "<frac> i": group re captured the magnitude
        im_part = Fraction(m.group("re")) if m.group("re") else Fraction(1)
    return GaussianRational(re_part, im_part)


def _parse_gaussian_float(text: str) -> complex:
    g = _parse_gaussian(text.replace("e", "E")) if "/" in text else None
    if g is not None:
        return complex(float(g.re), float(g.im))
    m = re.match(r"^\s*([+-]?[\d.eE+-]+?)\s*(?:([+-])\s*([\d.eE+-]*?)\s*i)?\s*$", text)
    if not m:
        raise ValueError(f"bad complex literal: {text!r}")
    re_part = float(m.group(1))
    im_part = 0.0
    if m.group(2):
        mag = float(m.group(3)) if m.group(3) else 1.0
        im_part = -mag if m.group(2) == "-" else mag
    return complex(re_part, im_part)
