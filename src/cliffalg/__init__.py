"""Exact symbolic computation in Clifford algebras of diagonal forms.

Blade/multivector arithmetic, the normalized trace and its matrix-oracle
representations, derivation classification and extraction, Bogolyubov
derivations and automorphisms, tensor factor chains, and the non-continuous
limit automorphism on infinite tensor products of matrix algebras.
"""

from .core import (Blade, Context, Multivector, blade_product, linear_combine,
                   mv_product, parity_project, reverse)
from .scalars import Domain, GaussianRational
from .trace_norm import norm, trace

__all__ = [
    "Blade",
    "Context",
    "Domain",
    "GaussianRational",
    "Multivector",
    "blade_product",
    "linear_combine",
    "mv_product",
    "norm",
    "parity_project",
    "reverse",
    "trace",
]

__version__ = "0.1.0"
