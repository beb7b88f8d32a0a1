"""Shared oracles and random-input helpers for the test suite."""

import math
import random
from fractions import Fraction
from functools import reduce
from operator import add, or_

import pytest

from cliffalg import scalars
from cliffalg.core import Blade, Context, Multivector
from cliffalg.scalars import Domain, GaussianRational


def naive_blade_product(s_indices, t_indices, q):
    """Independent oracle: sort the concatenation by adjacent transpositions
    (each swap flips the sign) and contract equal neighbours via v_k^2 = q_k."""
    seq = list(s_indices) + list(t_indices)
    coeff = Fraction(1)
    i = 0
    while i + 1 <= len(seq) - 1:
        if seq[i] == seq[i + 1]:
            coeff *= q(seq[i])
            del seq[i:i + 2]
            i = max(i - 1, 0)
        elif seq[i] > seq[i + 1]:
            seq[i], seq[i + 1] = seq[i + 1], seq[i]
            coeff = -coeff
            i = max(i - 1, 0)
        else:
            i += 1
    return coeff, tuple(seq)


def naive_reverse_sign(indices, q):
    """Oracle for the involution: fully reverse the factor sequence, then
    sort it back, tracking the sign."""
    coeff, sorted_back = naive_blade_product(tuple(reversed(indices)), (), q)
    assert sorted_back == tuple(indices)
    return coeff


def random_blade(rng, max_index=8, parity=None):
    while True:
        indices = sorted(rng.sample(range(1, max_index + 1),
                                    rng.randint(0, min(4, max_index))))
        if parity is None or len(indices) % 2 == parity:
            return Blade.from_indices(indices)


def random_rational(rng):
    num = rng.randint(-6, 6)
    return Fraction(num if num else 1, rng.randint(1, 5))


def random_multivector(rng, ctx, max_index=8, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[random_blade(rng, max_index)] = random_rational(rng)
    return Multivector(ctx, terms)


def random_scalar(rng, domain):
    """A nonzero value of `domain` built from small fractions."""
    re = random_rational(rng)
    im = random_rational(rng) if rng.random() < 0.7 else Fraction(0)
    if domain is Domain.RATIONAL:
        return re
    if domain is Domain.GAUSSIAN:
        return GaussianRational(re, im)
    if domain is Domain.F64:
        return float(re)
    return complex(float(re), float(im))


def random_dense(rng, ctx, n, count):
    """`count` distinct blades on generators 1..n (at most 2**n of them)."""
    return Multivector(ctx, {Blade(bits): random_scalar(rng, ctx.domain)
                             for bits in rng.sample(range(1 << n), min(count, 1 << n))})


def kernel_contexts(domain, infinite=True):
    """Unit q; negative and fractional overrides; a non-unit fractional
    default; one override on generator 1, with unit generators after it in a
    weight; in the complex domains, q_4 = i, and q_4 = i with
    q_7 = 1/2 - 2/3 i so that one weight multiplies two non-real values; and
    in c64, overrides with signed-zero parts and, unless `infinite` is false,
    an infinite one."""
    over = {2: -1, 3: Fraction(1, 2), 5: Fraction(-3, 2), 9: Fraction(-1, 3)}
    out = [Context.make(domain), Context.make(domain, overrides=over),
           Context.make(domain, Fraction(-2, 3), over),
           Context.make(domain, overrides={1: Fraction(-3, 7)})]
    if domain.has_i:
        out.append(Context.make(domain, overrides={
            **over, 4: scalars.imaginary_unit(domain)}))
        out.append(Context.make(domain, overrides={
            **over, 4: scalars.imaginary_unit(domain),
            7: GaussianRational(Fraction(1, 2), Fraction(-2, 3))}))
    if domain is Domain.C64:
        out.append(Context.make(domain, overrides={2: complex(-0.0, -1.0),
                                                   5: complex(0.5, -0.0)}))
        if infinite:
            out.append(Context.make(domain, overrides={2: math.inf}))
    return out


def value_bits(c):
    """A value's repr with the sign of each float part: repr tells -0.0 from
    0.0 but prints nan for both signs."""
    if isinstance(c, float):
        return repr(c), math.copysign(1, c)
    if isinstance(c, complex):
        return repr(c), math.copysign(1, c.real), math.copysign(1, c.imag)
    return repr(c)


def ordered_sum(pairs) -> dict:
    """Independent oracle for a sum's order: add the (blade, value) pairs in
    order; a sum that reaches zero is dropped, and a later value revives it
    at the end."""
    out = {}
    for blade, value in pairs:
        s = out.get(blade)
        s = value if s is None else s + value
        if s:
            out[blade] = s
        else:
            out.pop(blade, None)
    return out


def kernel_path(ctx, a_blades, b_blades) -> str:
    """The loop the product kernel runs for operands with these blades (a's
    listed once per term): "rows" when a's blades fall into at most 8 weight
    classes A & kb & mask, kb the OR of b's blades, with at least four blades
    per class; else "pairs", a weight lookup per pair."""
    kb = reduce(or_, b_blades, 0) & ctx._mask
    classes = {A & kb for A in a_blades}
    return "rows" if len(classes) <= 8 and len(a_blades) >= 4 * len(classes) else "pairs"


# The dense Kronecker oracle: matrices as tuples of row tuples, and a
# TensorElement written out as one matrix on a given support.

def zeros(n: int, zero):
    return tuple((zero,) * n for _ in range(n))


def identity(n: int, zero, one):
    return tuple(tuple(one if r == c else zero for c in range(n))
                 for r in range(n))


def mat_mul(a, b):
    """Plain dense product: each entry adds all of its products in order, so
    a float 0 * inf is nan."""
    return tuple(tuple(reduce(add, (x * y for x, y in zip(row, col)))
                       for col in zip(*b)) for row in a)


def conj_transpose(a):
    return tuple(tuple(x.conjugate() for x in col) for col in zip(*a))


def dense(shape, factor):
    """A TensorElement factor, its stored ((row, col), entry) pairs, as rows;
    an entry it does not store is zero."""
    rows = [[scalars.zero(shape.domain)] * shape.size for _ in range(shape.size)]
    for (r, c), x in factor:
        rows[r][c] = x
    return tuple(map(tuple, rows))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, s):
    return tuple(tuple(x * s for x in row) for row in a)


def kron(a, b):
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def flatten(element, support):
    """`element` as one matrix on `support` (Kronecker, ascending factors)."""
    shape = element.shape
    zero, one = scalars.zero(shape.domain), scalars.one(shape.domain)
    acc = zeros(shape.size ** len(support), zero)
    for coeff, factors in element.terms:
        fmap = dict(factors)
        m = ((one,),)
        for i in support:
            m = kron(m, dense(shape, fmap[i]) if i in fmap
                     else identity(shape.size, zero, one))
        acc = mat_add(acc, mat_scale(m, coeff))
    return acc


def pairing_oracle(a, b):
    """tr(a * adjoint(b)) in the domain's own arithmetic: per term pair,
    c_s conj(c_t) times <A_si, B_ti> / m over the union of their factors in
    increasing i, with <A, B> = tr(A B*) summed over the entries both store
    and an absent factor the identity."""
    total = zero = scalars.zero(a.shape.domain)
    for cs, fs in a.terms:
        for ct, ft in b.terms:
            fs, ft = dict(fs), dict(ft)
            value = cs * ct.conjugate()
            for i in sorted(fs.keys() | ft.keys()):
                ms = dict(fs.get(i, ()))
                if i not in ft:
                    pairing = sum((x for (r, c), x in ms.items() if r == c), zero)
                elif i not in fs:
                    pairing = sum((y.conjugate() for (r, c), y in ft[i] if r == c), zero)
                else:
                    pairing = sum((ms[k] * y.conjugate() for k, y in ft[i] if k in ms), zero)
                value = value * pairing / a.shape.size
            total = total + value
    return total


def flat_equal(a, b):
    """Both sides expanded on the union of their supports and compared."""
    support = tuple(sorted(set(a.support()) | set(b.support())))
    return flatten(a, support) == flatten(b, support)


@pytest.fixture
def rng():
    return random.Random(20240814)


@pytest.fixture
def ctx():
    return Context.make()
