"""The unique normalized trace on the Clifford algebra, and tr(a*a^rev).

The trace of a multivector is the coefficient of the empty blade; its
coincidence with the normalized matrix trace under explicit representations
is verified in matrix_rep and the test suite.
"""

from __future__ import annotations

from .core import Multivector, UNIT_BLADE, _rev_pairing


def trace(a: Multivector):
    """Normalized trace: linear, tracial, tr(1) = 1."""
    return a.coeff(UNIT_BLADE)


def norm(a: Multivector):
    """tr(a * reverse(a)).  For q == 1 this is the sum of squared coefficients.

    Defined over the real-valued domains only.  Note this quantity is not
    submultiplicative: with a = 1 + v1, tr((a*a)(a*a)^rev) = 8 > 4.

    Only the pairs v_S * v_S reach the empty blade, and v_S * rev(v_S) = q_S:
    reversal and reordering both give the sign (-1)**(r(r-1)/2).  Negation
    being exact, c_S * c_S * q_S are the full product's trace terms, in order.
    """
    a.context.domain.require_real("norm")
    return _rev_pairing(a, a)
