"""Canonical text rendering of multivectors.

Rational and Gaussian output parses back to the same value under the CLI
grammar.  f64/c64 coefficients are written as float reprs (`0.5`, `1e-20`,
`inf`), which the grammar, having no decimal literals, does not read.
"""

from __future__ import annotations

from . import scalars
from .core import Multivector, UNIT_BLADE
from .scalars import Domain, GaussianRational


def _scalar_expr(domain: Domain, value) -> tuple[str, bool]:
    """Render a coefficient as expression text; second slot marks a leading '-'."""
    if domain is Domain.RATIONAL:
        return (str(-value), True) if value < 0 else (str(value), False)
    if domain is Domain.GAUSSIAN:
        return _gaussian_expr(value)
    if domain is Domain.F64:
        return (repr(-value), True) if value < 0 else (repr(value), False)
    # c64: always parenthesized composite
    re_txt, im = repr(value.real), value.imag
    if im == 0:
        return (re_txt.lstrip("-"), value.real < 0) if value.real < 0 else (re_txt, False)
    sign = "-" if im < 0 else "+"
    return (f"({re_txt}{sign}{abs(im)!r}*i)", False)


def _gaussian_expr(value: GaussianRational) -> tuple[str, bool]:
    re, im = value.re, value.im
    if im == 0:
        return (str(-re), True) if re < 0 else (str(re), False)
    if re == 0:
        mag = "i" if abs(im) == 1 else f"{abs(im)}*i"
        return (mag, True) if im < 0 else (mag, False)
    sign = "-" if im < 0 else "+"
    imag = "i" if abs(im) == 1 else f"{abs(im)}*i"
    return (f"({re}{sign}{imag})", False)


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
            elif _is_one(txt):
                body = str(blade)
            else:
                body = f"{txt}*{blade}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)


def _is_one(txt: str) -> bool:
    return txt in ("1", "1.0")
