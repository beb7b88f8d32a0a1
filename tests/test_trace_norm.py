import math
from fractions import Fraction

import pytest

from cliffalg import scalars
from cliffalg.core import (Blade, Context, Multivector, _rev_pairing, _weight,
                           mv_product, reverse)
from cliffalg.derivations import OrthogonalMap
from cliffalg.automorphisms import bogolyubov_apply
from cliffalg.errors import UnsupportedDomainError
from cliffalg.matrix_rep import build_rep, normalized_trace, represent
from cliffalg.scalars import Domain
from cliffalg.trace_norm import norm, trace

from conftest import kernel_contexts, random_dense, random_multivector

CTX = Context.make()
INF, NAN = math.inf, math.nan


def mv(terms):
    return Multivector(CTX, {Blade.from_indices(ix): Fraction(c)
                             for ix, c in terms.items()})


def test_trace_of_unit():
    assert trace(Multivector.unit(CTX)) == 1


def test_trace_of_bivector_is_zero():
    assert trace(mv({(1, 2): 1})) == 0


def test_trace_is_linear():
    assert trace(mv({(): 3, (1,): 5})) == 3


def test_traciality(rng):
    for _ in range(100):
        a = random_multivector(rng, CTX)
        b = random_multivector(rng, CTX)
        assert trace(mv_product(a, b)) == trace(mv_product(b, a))


def test_trace_matches_normalized_matrix_trace():
    gctx = Context.make(Domain.GAUSSIAN)
    rep = build_rep(3)
    for bits in range(2 ** 6):
        a = Multivector.blade(gctx, Blade(bits))
        assert normalized_trace(represent(rep, a)) == trace(a)


class TestNorm:
    def test_closed_form_two_terms(self):
        assert norm(mv({(): 1, (1,): 1})) == 2

    def test_zero(self):
        assert norm(Multivector.zero(CTX)) == 0

    def test_scaled_bivector(self):
        assert norm(mv({(1, 2): Fraction(1, 2)})) == Fraction(1, 4)

    def test_equals_sum_of_squared_coefficients(self, rng):
        for _ in range(100):
            a = random_multivector(rng, CTX)
            assert norm(a) == sum((c * c for c in a.terms.values()), Fraction(0))

    def test_positive_on_nonzero(self, rng):
        for _ in range(50):
            a = random_multivector(rng, CTX)
            if not a.is_zero:
                assert norm(a) > 0

    def test_general_signature_closed_form(self):
        ctx = Context.make(Domain.RATIONAL, overrides={1: Fraction(3)})
        a = Multivector.blade(ctx, Blade.of(1), Fraction(2))
        assert norm(a) == 12  # alpha^2 * q_1

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.F64],
                             ids=lambda d: d.value)
    def test_equals_trace_of_full_product(self, domain, rng):
        # the same values, added in the same order, so equal bit for bit in
        # f64 too: repr tells -0.0 from 0.0
        for ctx in kernel_contexts(domain):
            for count in (0, 1, 2, 9, 60):
                a = random_dense(rng, ctx, 8, count)
                assert repr(norm(a)) == repr(trace(mv_product(a, reverse(a))))

    @pytest.mark.parametrize("domain", [Domain.F64, Domain.C64], ids=lambda d: d.value)
    def test_float_self_pairing_is_the_one_operand_sum(self, domain, rng):
        # c * c * q_S added in term order, a sum that reaches zero dropped:
        # the loop norm ran before the pairing served it, bit for bit and
        # NaN sign for NaN sign
        def one_operand(a):
            total = {}
            for blade, c in a.terms.items():
                v = c * c * _weight(a.context, blade, 0)
                s = total.get(0)
                s = v if s is None else s + v
                if s:
                    total[0] = s
                else:
                    total.pop(0, None)
            return total.get(0, scalars.zero(domain))

        def bits(x):
            parts = (x.real, x.imag) if type(x) is complex else (x,)
            return [(p.hex(), math.copysign(1, p)) for p in parts]

        # The sign of nan + -nan in f64 changes once the interpreter
        # specializes the add (CPython 3.11 swaps its operands), so the NaNs
        # one operand can make share a sign: planted ones of one sign, or
        # those inf - inf makes.
        finite = [1e308, -1e-320, 2.5, -0.5]
        pools = [[NAN], [-NAN], [INF, -INF]]
        if domain is Domain.C64:
            finite += [complex(0.0, -1.0), complex(-0.0, 2.0), complex(3.0, -0.0)]
            pools = [[NAN, complex(NAN, -0.0)], [-NAN, complex(1.0, -NAN)],
                     [INF, -INF, complex(INF, 1.0)]]
        for ctx in kernel_contexts(domain):  # non-unit, signed-zero and inf q
            for count in (0, 1, 2, 9, 40):
                a = random_dense(rng, ctx, 8, count)
                odd = finite + rng.choice(pools)
                terms = {b: rng.choice(odd) if rng.random() < 0.3 else c
                         for b, c in a.terms.items()}
                for a in (a, Multivector(ctx, terms), a - a, a + reverse(a)):
                    assert bits(_rev_pairing(a, a)) == bits(one_operand(a))
        if domain is Domain.C64:  # 4 - 4 is dropped, so -4-0j keeps its -0.0
            a = Multivector(Context.make(domain), {Blade(1): 2.0, Blade(2): 2j,
                                                   Blade(4): complex(-0.0, 2.0)})
            assert bits(_rev_pairing(a, a)) == bits(one_operand(a)) == bits(complex(-4, -0.0))

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.GAUSSIAN],
                             ids=lambda d: d.value)
    def test_exact_pairing_is_the_trace_of_the_product(self, domain, rng):
        for ctx in kernel_contexts(domain):
            for count in (0, 1, 5, 30):
                a, b = (random_dense(rng, ctx, 6, count) for _ in range(2))
                for x, y in ((a, b), (b, a), (a, a), (a, a + b)):
                    got = _rev_pairing(x, y)
                    assert got == trace(mv_product(x, reverse(y)))
                    assert type(got) is type(scalars.zero(domain))

    def test_refuses_complex_domains(self):
        gctx = Context.make(Domain.GAUSSIAN)
        with pytest.raises(UnsupportedDomainError):
            norm(Multivector.unit(gctx))

    def test_not_submultiplicative(self):
        # documented discrepancy: with a = 1 + v1, ||a*a|| = 8 > ||a||^2 = 4
        a = mv({(): 1, (1,): 1})
        assert norm(mv_product(a, a)) == 8
        assert norm(a) * norm(a) == 4

    def test_invariant_under_signed_permutations(self, rng):
        # a Bogolyubov change of orthonormal basis v_i -> +/- v_sigma(i)
        indices = list(range(1, 7))
        for _ in range(25):
            perm = indices[:]
            rng.shuffle(perm)
            matrix = [[Fraction(0)] * 6 for _ in range(6)]
            for col, target in enumerate(perm):
                matrix[target - 1][col] = Fraction(rng.choice((1, -1)))
            phi = OrthogonalMap.build(CTX, tuple(indices), matrix)
            a = random_multivector(rng, CTX, max_index=6)
            assert norm(bogolyubov_apply(phi, a)) == norm(a)
