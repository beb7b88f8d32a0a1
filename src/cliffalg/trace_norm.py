"""The unique normalized trace on the Clifford algebra, and tr(a*a^rev).

The trace of a multivector is the coefficient of the empty blade; its
coincidence with the normalized matrix trace under explicit representations
is verified in matrix_rep and the test suite.
"""

from __future__ import annotations

from . import scalars
from .core import Multivector, UNIT_BLADE, blade_product, reverse


def trace(a: Multivector):
    """Normalized trace: linear, tracial, tr(1) = 1."""
    return a.coeff(UNIT_BLADE)


def norm(a: Multivector):
    """tr(a * reverse(a)).  For q == 1 this is the sum of squared coefficients.

    Defined over the real-valued domains only.  Note this quantity is not
    submultiplicative: with a = 1 + v1, tr((a*a)(a*a)^rev) = 8 > 4.

    Only the pairs v_S * v_S reach the empty blade, so this sums
    c_S * rev(c_S) * (v_S v_S) over a's terms: the same values, added in the
    same order, as the trace of the full product.
    """
    a.context.domain.require_real("norm")
    sig = a.context.signature
    total = None
    for (blade, coeff), rev in zip(a.terms.items(), reverse(a).terms.values()):
        square, _ = blade_product(blade, blade, sig)
        term = coeff * rev * square
        total = term if total is None else total + term
        if not total:
            total = None
    return scalars.zero(a.context.domain) if total is None else total
