"""Canonical text rendering of multivectors.

Rational and Gaussian output parses back to the same value under the CLI
grammar.  f64/c64 coefficients are written as float reprs (`0.5`, `1e-20`,
`inf`), which the grammar, having no decimal literals, does not read.
"""

from __future__ import annotations

from . import scalars
from .core import Multivector, UNIT_BLADE, _ratios


def _real(text: str, value) -> tuple[str, bool]:
    """A real coefficient's text; second slot marks a leading '-'."""
    return (text[1:], True) if value < 0 else (text, False)


def _fraction(n: int, d: int) -> str:
    """n / d, in lowest terms, as str(Fraction) writes it."""
    return str(n) if d == 1 else f"{n}/{d}"


def _scalar_expr(value) -> tuple[str, bool]:
    """Render a coefficient as expression text: a float or complex value, or
    an exact one's lowest-terms parts as core._ratios gives them, (n, d) or
    (rn, rd, in, id); second slot marks a leading '-'."""
    if type(value) is float:  # the str of a float is its repr
        return _real(str(value), value)
    if type(value) is tuple and len(value) == 2:
        n, d = value
        return _real(str(n) if d == 1 else f"{n}/{d}", n)
    if type(value) is tuple:
        re, rd, im, id_ = value
        if im == 0:
            return _real(_fraction(re, rd), re)
        imag = "i" if abs(im) == id_ == 1 else f"{_fraction(abs(im), id_)}*i"
        if re == 0:
            return (imag, im < 0)
        return (f"({_fraction(re, rd)}{'-' if im < 0 else '+'}{imag})", False)
    # c64: parenthesized unless the imaginary part is zero; zero parts unsigned
    re, im = value.real or 0.0, value.imag
    if im == 0:
        return _real(repr(re), re)
    return (f"({re!r}{'-' if im < 0 else '+'}{abs(im)!r}*i)", False)


def render(mv: Multivector) -> str:
    """Canonical form: terms sorted by (grade, indices), e.g. `1 + 2*e1*e2`."""
    if mv.is_zero:
        return "0"
    parts = []
    with scalars.digit_limit():
        for blade, coeff in sorted(_ratios(mv), key=lambda kv: kv[0].sort_key()):
            txt, negative = _scalar_expr(coeff)
            if blade == UNIT_BLADE:
                body = txt
            elif txt in ("1", "1.0"):
                body = str(blade)
            else:
                body = f"{txt}*{blade}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)
