"""Factor chains: commuting subalgebras A_i and the block isomorphisms.

Given even cuts 0 = n_0 < n_1 < ... the volume elements c_i = v_1...v_{n_i}
(rescaled by i when n_i is divisible by 4, so that c_i**2 == -1 always)
twist the odd part of each block subalgebra into A_i; the A_i commute
pairwise and jointly generate the truncated algebra.

With q == 1 up to the last cut, each c_i, image phi_i(v_S) and product of them
is a monomial i^p v_S, which the certificates store as the word (p mod 4, S),
S a blade bitmask (Dorst, Fontijne and Mann, Geometric Algebra for Computer
Science, 2007, ch. 19), multiplied by core's sign rule.  The multivector
functions are the tests' oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

from . import scalars
from .core import (Blade, Context, Multivector, _prefix_parity, _split,
                   _xor_rank, mv_product, parity_project)
from .errors import InvalidChainError, MembershipError, SupportRangeError


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
    cuts = tuple(cuts)
    if any(isinstance(n, bool) or not isinstance(n, int) for n in cuts):
        raise InvalidChainError(f"cuts must be integers, got {cuts!r}")
    if not cuts or any(n % 2 for n in cuts) or any(
            b <= a for a, b in zip(cuts, cuts[1:])) or cuts[0] < 2:
        raise InvalidChainError(
            f"cuts must be even, positive, strictly increasing: {cuts}")
    context.require_unit(range(1, cuts[-1] + 1), "a factor chain")
    cs, adjusted = [], []
    for n in cuts:
        blade = Blade((1 << n) - 1)
        needs_i = n % 4 == 0
        coeff = scalars.imaginary_unit(context.domain) if needs_i \
            else scalars.one(context.domain)
        c = Multivector.blade(context, blade, coeff)
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
    even, odd = _split(u, lambda b: not b.bit_count() & 1)
    return even + mv_product(chain.c[i - 1], odd)


def phi_inverse(chain: FactorChain, i: int, a: Multivector) -> Multivector:
    """Inverse of phi_apply; raises MembershipError off A_i."""
    chain._check_index(i)
    block = set(chain.block(i))
    outside = ~Blade.from_indices(block)
    even, rest = _split(a, lambda b: not b.bit_count() & 1 and not b & outside)
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


def _word_product(a: tuple, b: tuple) -> tuple:
    (pa, A), (pb, B) = a, b
    return (pa + pb + 2 * (A & _prefix_parity(B)).bit_count()) % 4, A ^ B


def _c_words(chain: FactorChain) -> list[tuple]:
    """Each c_i as a word; a hand-built one may not be: InvalidChainError.

    The words multiply by the q == 1 sign rule, so q must be 1 on every
    generator up to the last cut and on every one a c_i reaches.
    """
    domain, phase = chain.context.domain, {}
    for p in range(1 + domain.has_i):
        u = scalars.imaginary_unit(domain) if p else scalars.one(domain)
        phase.update({u: p, -u: p + 2})
    terms = [list(c.terms.items())[0] if len(c.terms) == 1 else (0, None) for c in chain.c]
    for i, (_, coeff) in enumerate(terms, start=1):
        if coeff not in phase:
            raise InvalidChainError(f"c_{i} is not a unit-phase monomial")
    top = max(chain.cuts[-1], *(blade.bit_length() for blade, _ in terms))
    chain.context.require_unit(range(1, top + 1), "a factor chain")
    return [(phase[coeff], blade) for blade, coeff in terms]


def _phi_words(chain: FactorChain, basis: bool) -> list[list[tuple]]:
    """For each i, phi_i of every block blade (by bitmask) or generator."""
    out = []
    for i, c in enumerate(_c_words(chain), start=1):
        lo, width = chain.cuts[i - 2] if i > 1 else 0, len(chain.block(i))
        masks = range(1 << width) if basis else [1 << b for b in range(width)]
        out.append([_word_product(c, (0, m << lo)) if m.bit_count() & 1
                    else (0, m << lo) for m in masks])
    return out


def commutator_check(chain: FactorChain, i: int, j: int) -> bool:
    """[A_i, A_j] == 0, checked on the generator images exhaustively."""
    chain._check_index(i)
    chain._check_index(j)
    if i == j:
        raise ValueError("commutator_check needs two distinct factors")
    gens = _phi_words(chain, basis=False)
    return all(_word_product(a, b) == _word_product(b, a)
               for a in gens[i - 1] for b in gens[j - 1])


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


def _rewrite_words(chain: FactorChain, gens: list, k: int) -> list[tuple]:
    """rewrite_generator(chain, k) as words; gens from _phi_words."""
    i = next(j for j, n in enumerate(chain.cuts, start=1) if k <= n)
    if i == 1:
        return [(0, 1 << (k - 1))]
    blocks = [(1 << n) - (1 << lo) for lo, n in zip((0,) + chain.cuts, chain.cuts[:i])]
    return [(2 + chain.adjusted[i - 1], blocks[0])] + [(0, b) for b in blocks[1:]] \
        + [gens[i - 1][k - chain.block(i)[0]]]  # the first times -1 or -i


def ordered_product(factors) -> Multivector:
    """factors[0] * factors[1] * ..., multiplied from the left."""
    return reduce(mv_product, factors)


def spanning_rank(chain: FactorChain) -> int:
    """Exact rank of the products of per-factor basis images.

    Every basis image is a block blade or c_i times one, so every product is a
    signed blade (a hand-built chain that breaks this raises InvalidChainError)
    and the distinct result blades give the rank.  phi_i's image blades, E and
    C ^ e ^ E (E the even block blades, C c_i's blade, e in block i), are the
    GF(2) span of its generator image blades C ^ e, so the product blades are
    the span of all generator image blades.
    """
    return 1 << _xor_rank(m for gens in _phi_words(chain, False) for _, m in gens)


def chain_verify(chain: FactorChain) -> list[tuple[str, bool]]:
    """The `decomp check` certificate as (name, ok) pairs, in print order.

    phi_i is multiplicative on every pair of block blades and injective, the
    A_i commute pairwise, each v_k is the ordered product of its rewriting,
    and the factor products span all 2^n_t blades, all checked on words.
    """
    t, n_t = len(chain.cuts), chain.cuts[-1]
    checks = []
    for i, images in enumerate(_phi_words(chain, basis=True), start=1):
        # images[a] = phi_i(v_(a << lo)); phi(v_A v_B) == phi(v_A) phi(v_B) on phases
        lo = chain.block(i)[0] - 1
        blade_pp = [_prefix_parity(b << lo) for b in range(len(images))]
        image_pp = [_prefix_parity(mask) for _, mask in images]
        checks.append((f"phi_{i} multiplicative", all(
            images[a ^ b][1] == A ^ B and not (images[a ^ b][0] - pa - pb + 2 * (
                (a << lo & blade_pp[b]).bit_count() + (A & image_pp[b]).bit_count())) % 4
            for a, (pa, A) in enumerate(images) for b, (pb, B) in enumerate(images))))
        checks.append((f"phi_{i} injective",
                       len({mask for _, mask in images}) == len(images)))
    for i, j in itertools.combinations(range(1, t + 1), 2):
        checks.append((f"[A_{i}, A_{j}] = 0", commutator_check(chain, i, j)))
    gens = _phi_words(chain, basis=False)
    for k in range(1, n_t + 1):
        checks.append((f"rewrite v_{k}", reduce(_word_product, _rewrite_words(
            chain, gens, k)) == (0, 1 << (k - 1))))
    checks.append((f"span rank 2^{n_t}", spanning_rank(chain) == 2 ** n_t))
    return checks
