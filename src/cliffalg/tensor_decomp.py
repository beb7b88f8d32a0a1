"""Factor chains: commuting subalgebras A_i and the block isomorphisms.

Given even cuts 0 = n_0 < n_1 < ... the volume elements c_i = v_1...v_{n_i}
(rescaled by i when n_i is divisible by 4, so that c_i**2 == -1 always)
twist the odd part of each block subalgebra into A_i; the A_i commute
pairwise and jointly generate the truncated algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

from . import scalars
from .core import (Blade, Context, Multivector, mv_product, parity_project)
from .errors import (InvalidChainError, MembershipError, SupportRangeError,
                     UnsupportedDomainError)


@dataclass(frozen=True)
class FactorChain:
    """Even cut sequence with cached effective volume elements."""

    context: Context
    cuts: tuple[int, ...]
    c: tuple[Multivector, ...]
    adjusted: tuple[bool, ...]

    def block(self, i: int) -> range:
        """Generator indices of block i (1-based): (n_{i-1}, n_i]."""
        self._check_index(i)
        lo = self.cuts[i - 2] if i >= 2 else 0
        return range(lo + 1, self.cuts[i - 1] + 1)

    def _check_index(self, i: int):
        if not 1 <= i <= len(self.cuts):
            raise SupportRangeError(f"factor index {i} outside 1..{len(self.cuts)}")


def chain_build(cuts, context: Context) -> FactorChain:
    cuts = tuple(int(n) for n in cuts)
    if not cuts or any(n % 2 for n in cuts) or any(
            b <= a for a, b in zip(cuts, cuts[1:])) or cuts[0] < 2:
        raise InvalidChainError(
            f"cuts must be even, positive, strictly increasing: {cuts}")
    context.signature.require_unit(range(1, cuts[-1] + 1), "a factor chain")
    cs, adjusted = [], []
    minus_one = Multivector.scalar(context, -1)
    for n in cuts:
        blade = Blade((1 << n) - 1)
        needs_i = n % 4 == 0
        if needs_i and not context.domain.has_i:
            raise UnsupportedDomainError(
                f"cut {n} needs the imaginary unit; use a domain containing i")
        coeff = scalars.imaginary_unit(context.domain) if needs_i \
            else scalars.one(context.domain)
        c = Multivector.blade(context, blade, coeff)
        if mv_product(c, c) != minus_one:
            raise InvalidChainError(f"volume element for cut {n} does not square to -1")
        cs.append(c)
        adjusted.append(needs_i)
    return FactorChain(context, cuts, tuple(cs), tuple(adjusted))


def _check_block_support(chain: FactorChain, i: int, u: Multivector):
    block = set(chain.block(i))
    if not set(u.support()) <= block:
        raise SupportRangeError(
            f"support {sorted(u.support())} not inside block {i} = {sorted(block)}")


def phi_apply(chain: FactorChain, i: int, u: Multivector) -> Multivector:
    """Block isomorphism onto A_i: even part fixed, odd part times c_i."""
    _check_block_support(chain, i, u)
    even = parity_project(u, "even")
    odd = parity_project(u, "odd")
    return even + mv_product(chain.c[i - 1], odd)


def phi_inverse(chain: FactorChain, i: int, a: Multivector) -> Multivector:
    """Inverse of phi_apply; raises MembershipError off A_i."""
    chain._check_index(i)
    block = set(chain.block(i))
    even_terms, rest_terms = {}, {}
    for blade, coeff in a.terms.items():
        if blade.parity == 0 and set(blade.indices) <= block:
            even_terms[blade] = coeff
        else:
            rest_terms[blade] = coeff
    even = Multivector(chain.context, even_terms, _canonical=True)
    rest = Multivector(chain.context, rest_terms, _canonical=True)
    # c_i**2 == -1, so the c_i-component is recovered by -c_i * rest
    odd = mv_product(-chain.c[i - 1], rest)
    if not set(odd.support()) <= block or parity_project(odd, "even") != \
            Multivector.zero(chain.context):
        raise MembershipError(f"element is not in A_{i}")
    return even + odd


def factor_generators(chain: FactorChain, i: int) -> list[Multivector]:
    """Images phi_i(v_p) for p in block i."""
    return [phi_apply(chain, i, Multivector.generator(chain.context, p))
            for p in chain.block(i)]


def factor_basis(chain: FactorChain, i: int) -> list[Multivector]:
    """Images of all basis blades of block i under phi_i."""
    block = chain.block(i)
    return [phi_apply(chain, i, Multivector.blade(
                chain.context, Blade(mask << (block[0] - 1))))
            for mask in range(1 << len(block))]


def commutator_check(chain: FactorChain, i: int, j: int) -> bool:
    """[A_i, A_j] == 0, checked on the generator images exhaustively."""
    chain._check_index(i)
    chain._check_index(j)
    if i == j:
        raise ValueError("commutator_check needs two distinct factors")
    for a in factor_generators(chain, i):
        for b in factor_generators(chain, j):
            if mv_product(a, b) != mv_product(b, a):
                return False
    return True


def rewrite_generator(chain: FactorChain, k: int) -> list[Multivector]:
    """Factors, one per A_j, whose ordered product is v_k.

    For k in block i >= 2: v_k = (-c_i) * (c_i v_k), and -c_i splits into one
    even block blade per preceding factor (the unit rescaling rides on the
    first factor).
    """
    if not 1 <= k <= chain.cuts[-1]:
        raise SupportRangeError(f"index {k} outside 1..{chain.cuts[-1]}")
    ctx = chain.context
    i = next(idx for idx in range(1, len(chain.cuts) + 1)
             if k in chain.block(idx))
    vk = Multivector.generator(ctx, k)
    if i == 1:
        return [vk]
    factors = []
    for j in range(1, i + 1):
        block_blade = Blade.from_indices(chain.block(j))
        factors.append(Multivector.blade(ctx, block_blade))
    lam = scalars.imaginary_unit(ctx.domain) if chain.adjusted[i - 1] \
        else scalars.one(ctx.domain)
    factors[0] = factors[0].scale(-lam)
    factors.append(phi_apply(chain, i, vk))
    return factors


def ordered_product(factors) -> Multivector:
    """factors[0] * factors[1] * ..., multiplied from the left."""
    return reduce(mv_product, factors)


def spanning_rank(chain: FactorChain) -> int:
    """Exact rank of the products of per-factor basis images.

    Every basis image is a block blade or c_i times one, so every product is
    a single signed blade and the distinct result blades give the rank.  Only
    a hand-built chain can break this; it raises InvalidChainError.  Products
    are multiplied from the left, each shared prefix once.
    """
    bases = [factor_basis(chain, i) for i in range(1, len(chain.cuts) + 1)]
    products = bases[0]
    for basis in bases[1:]:
        products = [mv_product(p, f) for p in products for f in basis]
    if any(len(p.terms) != 1 for p in products):
        raise InvalidChainError(
            "a product of factor basis images is not a single blade")
    return len({next(iter(p.terms)) for p in products})


def chain_verify(chain: FactorChain) -> list[tuple[str, bool]]:
    """The `decomp check` certificate as (name, ok) pairs, in print order.

    phi_i is multiplicative on every pair of block blades and injective, the
    A_i commute pairwise, each v_k is the ordered product of its rewriting,
    and the factor products span all 2^n_t blades.
    """
    ctx, t, n_t = chain.context, len(chain.cuts), chain.cuts[-1]
    checks = []
    for i in range(1, t + 1):
        lo = chain.block(i)[0] - 1
        images = factor_basis(chain, i)  # images[mask] = phi_i(v_(mask << lo))
        blades = [Multivector.blade(ctx, Blade(mask << lo))
                  for mask in range(len(images))]

        def phi(uw: Multivector) -> Multivector:
            # uw is a signed block blade and phi_i is linear
            (blade, coeff), = uw.terms.items()
            return images[blade >> lo].scale(coeff)

        pairs = itertools.product(range(len(images)), repeat=2)
        checks.append((f"phi_{i} multiplicative", all(
            phi(mv_product(blades[a], blades[b])) ==
            mv_product(images[a], images[b]) for a, b in pairs)))
        keys = {next(iter(img.terms)) for img in images if len(img.terms) == 1}
        checks.append((f"phi_{i} injective", len(keys) == len(images)))
    for i, j in itertools.combinations(range(1, t + 1), 2):
        checks.append((f"[A_{i}, A_{j}] = 0", commutator_check(chain, i, j)))
    for k in range(1, n_t + 1):
        checks.append((f"rewrite v_{k}", ordered_product(
            rewrite_generator(chain, k)) == Multivector.generator(ctx, k)))
    checks.append((f"span rank 2^{n_t}", spanning_rank(chain) == 2 ** n_t))
    return checks
