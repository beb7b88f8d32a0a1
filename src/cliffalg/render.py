"""Canonical text rendering of multivectors.

Rational and Gaussian output parses back to the same value under the CLI
grammar.  f64/c64 coefficients are written as float reprs (`0.5`, `1e-20`,
`inf`), which the grammar, having no decimal literals, does not read.
"""

from __future__ import annotations

from . import scalars
from .core import Multivector, UNIT_BLADE
from .scalars import Domain


def _real(text: str, value) -> tuple[str, bool]:
    """A real coefficient's text; second slot marks a leading '-'."""
    return (text[1:], True) if value < 0 else (text, False)


def _scalar_expr(domain: Domain, value) -> tuple[str, bool]:
    """Render a coefficient as expression text; second slot marks a leading '-'."""
    if domain.is_real:  # the str of a float is its repr
        return _real(str(value), value)
    if domain is Domain.GAUSSIAN:
        re, im = value.re, value.im
        if im == 0:
            return _real(str(re), re)
        imag = "i" if abs(im) == 1 else f"{abs(im)}*i"
        if re == 0:
            return (imag, im < 0)
        return (f"({re}{'-' if im < 0 else '+'}{imag})", False)
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
        for blade, coeff in mv.sorted_terms():
            txt, negative = _scalar_expr(mv.context.domain, coeff)
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
