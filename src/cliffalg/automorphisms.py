"""Bogolyubov automorphisms from orthogonal maps, and inner conjugations.

A form-preserving map on V extends multiplicatively to the whole algebra;
conjugation is u_inv * a * u with the inverse supplied (and checked) by the
caller, the orientation that scales the upper-triangular nilpotent by the
conjugating diagonal's lower entry.
"""

from __future__ import annotations

from .core import Multivector, _linear_image, mv_product
from .derivations import OrthogonalMap
from .errors import NotInverseError, NotOrthogonalError


def bogolyubov_apply(phi: OrthogonalMap, a: Multivector) -> Multivector:
    """Extend phi over blades: v_{i1}...v_{ir} maps to phi(v_{i1})...phi(v_{ir}),
    multiplied left to right from the unit.  Each phi(v_k) is built once, and
    serves the Gram check too.  Images are kept by blade, and each prefix's
    is its own prefix's times phi(v_k), so a shared prefix is multiplied once;
    a's coefficients weigh them as stored (_linear_image)."""
    gens = {k: phi.image(k) for k in {*phi.active, *a.support()}}
    if not phi.gram_preserving(gens):
        raise NotOrthogonalError("map does not preserve the quadratic form")
    images = {0: Multivector.unit(a.context)}
    blade_images = []
    for blade in a.terms:
        img, bits = images[0], 0
        for k in blade.indices:  # img becomes the image of the prefix up to v_k
            bits |= 1 << k - 1
            if (nxt := images.get(bits)) is None:
                nxt = images[bits] = mv_product(img, gens[k])
            img = nxt
        blade_images.append(img)
    return _linear_image(a, blade_images)


def conjugation_apply(u: Multivector, u_inv: Multivector,
                      a: Multivector) -> Multivector:
    """Inner automorphism a -> u_inv * a * u; u_inv is a checked certificate."""
    if mv_product(u, u_inv) != Multivector.unit(u.context):
        raise NotInverseError("u * u_inv != 1")
    return mv_product(mv_product(u_inv, a), u)
