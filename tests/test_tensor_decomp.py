import itertools
from fractions import Fraction

import pytest

from cliffalg.core import Blade, Context, Multivector, mv_product
from cliffalg.errors import (InvalidChainError, MembershipError,
                             SupportRangeError, UnsupportedDomainError)
from cliffalg.scalars import Domain, GaussianRational
from cliffalg.tensor_decomp import (FactorChain, chain_build, chain_verify,
                                    commutator_check, factor_basis,
                                    ordered_product, phi_apply, phi_inverse,
                                    rewrite_generator, spanning_rank)

CTX = Context.make()
GCTX = Context.make(Domain.GAUSSIAN)


def blade_mv(ctx, *indices):
    return Multivector.blade(ctx, Blade.of(*indices))


class TestChainBuild:
    def test_rational_chain(self):
        chain = chain_build((2, 6), CTX)
        assert chain.c[0] == blade_mv(CTX, 1, 2)
        assert chain.c[1] == blade_mv(CTX, 1, 2, 3, 4, 5, 6)
        minus_one = Multivector.scalar(CTX, -1)
        for c in chain.c:
            assert mv_product(c, c) == minus_one

    def test_gaussian_adjustment(self):
        chain = chain_build((2, 4), GCTX)
        assert chain.adjusted == (False, True)
        raw = blade_mv(GCTX, 1, 2, 3, 4)
        assert mv_product(raw, raw) == Multivector.unit(GCTX)
        assert chain.c[1] == raw.scale(GaussianRational.of(0, 1))
        assert mv_product(chain.c[1], chain.c[1]) == Multivector.scalar(GCTX, -1)

    def test_odd_cut_rejected(self):
        with pytest.raises(InvalidChainError):
            chain_build((3, 6), CTX)

    def test_multiple_of_four_needs_i(self):
        with pytest.raises(UnsupportedDomainError):
            chain_build((2, 4), CTX)

    def test_nonunit_signature_rejected(self):
        skew = Context.make(Domain.RATIONAL, overrides={2: 3})
        with pytest.raises(UnsupportedDomainError):
            chain_build((2, 6), skew)

    def test_blocks(self):
        chain = chain_build((2, 6, 10), CTX)
        assert list(chain.block(1)) == [1, 2]
        assert list(chain.block(2)) == [3, 4, 5, 6]
        assert list(chain.block(3)) == [7, 8, 9, 10]


class TestPhi:
    def test_even_part_fixed(self):
        chain = chain_build((2, 6), CTX)
        u = blade_mv(CTX, 3, 4)
        assert phi_apply(chain, 2, u) == u

    def test_odd_part_twisted(self):
        chain = chain_build((2, 6), CTX)
        got = phi_apply(chain, 2, blade_mv(CTX, 3))
        assert got == blade_mv(CTX, 1, 2, 4, 5, 6).scale(-1)

    def test_multiplicative_on_generators(self):
        chain = chain_build((2, 6), CTX)
        v3 = blade_mv(CTX, 3)
        v4 = blade_mv(CTX, 4)
        assert mv_product(phi_apply(chain, 2, v3), phi_apply(chain, 2, v4)) == \
            phi_apply(chain, 2, mv_product(v3, v4)) == blade_mv(CTX, 3, 4)

    @pytest.mark.parametrize("cuts,ctx", [((2, 6), CTX), ((2, 4), GCTX),
                                          ((2, 6, 10), CTX)])
    def test_homomorphism_exhaustive(self, cuts, ctx):
        chain = chain_build(cuts, ctx)
        for i in range(1, len(cuts) + 1):
            block = list(chain.block(i))
            blades = [Blade.from_indices(p for b, p in enumerate(block)
                                         if mask >> b & 1)
                      for mask in range(1 << len(block))]
            for bu, bw in itertools.product(blades, repeat=2):
                u = Multivector.blade(ctx, bu)
                w = Multivector.blade(ctx, bw)
                assert phi_apply(chain, i, mv_product(u, w)) == \
                    mv_product(phi_apply(chain, i, u), phi_apply(chain, i, w))

    def test_injective_images(self):
        chain = chain_build((2, 6), CTX)
        for i in (1, 2):
            images = factor_basis(chain, i)
            assert all(len(img.terms) == 1 for img in images)
            blades = {next(iter(img.terms)) for img in images}
            assert len(blades) == len(images)

    def test_inverse_round_trip(self):
        chain = chain_build((2, 6), CTX)
        block = list(chain.block(2))
        for mask in range(1 << len(block)):
            u = Multivector.blade(CTX, Blade.from_indices(
                p for b, p in enumerate(block) if mask >> b & 1))
            assert phi_inverse(chain, 2, phi_apply(chain, 2, u)) == u

    def test_inverse_membership_error(self):
        chain = chain_build((2, 6), CTX)
        with pytest.raises(MembershipError):
            phi_inverse(chain, 2, blade_mv(CTX, 1))

    def test_support_outside_block(self):
        chain = chain_build((2, 6), CTX)
        with pytest.raises(SupportRangeError):
            phi_apply(chain, 2, blade_mv(CTX, 1))


class TestCommutation:
    @pytest.mark.parametrize("cuts,ctx", [((2, 6), CTX), ((2, 6, 10), CTX),
                                          ((2, 4), GCTX)])
    def test_all_pairs_commute(self, cuts, ctx):
        chain = chain_build(cuts, ctx)
        t = len(cuts)
        for i in range(1, t + 1):
            for j in range(1, t + 1):
                if i != j:
                    assert commutator_check(chain, i, j)

    def test_same_factor_rejected(self):
        chain = chain_build((2, 6), CTX)
        with pytest.raises(ValueError):
            commutator_check(chain, 1, 1)


class TestRewrite:
    def test_block_one_is_trivial(self):
        chain = chain_build((2, 6), CTX)
        assert rewrite_generator(chain, 1) == [Multivector.generator(CTX, 1)]

    @pytest.mark.parametrize("cuts,ctx", [((2, 6), CTX), ((2, 6, 10), CTX),
                                          ((2, 4), GCTX), ((2, 4, 8), GCTX)])
    def test_products_recover_generators(self, cuts, ctx):
        chain = chain_build(cuts, ctx)
        for k in range(1, cuts[-1] + 1):
            factors = rewrite_generator(chain, k)
            prod = factors[0]
            for f in factors[1:]:
                prod = mv_product(prod, f)
            assert prod == Multivector.generator(ctx, k)

    def test_factors_live_in_single_subalgebras(self):
        chain = chain_build((2, 6), CTX)
        factors = rewrite_generator(chain, 5)
        # each factor must survive phi_inverse at some factor index
        for f in factors:
            assert any(_in_factor(chain, j, f)
                       for j in range(1, len(chain.cuts) + 1))

    def test_out_of_range(self):
        chain = chain_build((2, 6), CTX)
        with pytest.raises(SupportRangeError):
            rewrite_generator(chain, 7)


def _in_factor(chain, j, a):
    try:
        phi_inverse(chain, j, a)
        return True
    except MembershipError:
        return False


class TestSpan:
    @pytest.mark.parametrize("cuts,ctx", [((2, 6), CTX), ((2, 6, 10), CTX),
                                          ((2, 4), GCTX), ((2, 4, 8), GCTX)])
    def test_factor_products_span_the_truncation(self, cuts, ctx):
        chain = chain_build(cuts, ctx)
        assert spanning_rank(chain) == 2 ** cuts[-1]


def _check_names(cuts):
    t, n_t = len(cuts), cuts[-1]
    names = [name for i in range(1, t + 1)
             for name in (f"phi_{i} multiplicative", f"phi_{i} injective")]
    names += [f"[A_{i}, A_{j}] = 0"
              for i, j in itertools.combinations(range(1, t + 1), 2)]
    names += [f"rewrite v_{k}" for k in range(1, n_t + 1)]
    return names + [f"span rank 2^{n_t}"]


class TestChainVerify:
    @pytest.mark.parametrize("cuts,ctx", [((2, 6), CTX), ((2, 6, 10), CTX),
                                          ((4, 8), GCTX)])
    def test_names_in_print_order_all_ok(self, cuts, ctx):
        checks = chain_verify(chain_build(cuts, ctx))
        assert [name for name, _ in checks] == _check_names(cuts)
        assert all(ok is True for _, ok in checks)

    def test_wrong_volume_element_fails(self):
        # c_2 = v1 v2 squares to -1 but commutes with block 2, so
        # phi_2(u) phi_2(w) = -u w on odd u, w
        good = chain_build((2, 6), CTX)
        bad = FactorChain(CTX, good.cuts, (good.c[0], good.c[0]),
                          good.adjusted)
        assert dict(chain_verify(bad))["phi_2 multiplicative"] is False

    def test_non_monomial_chain_has_no_blade_rank(self):
        good = chain_build((2, 6), CTX)
        c2 = good.c[1] + Multivector.unit(CTX)
        bad = FactorChain(CTX, good.cuts, (good.c[0], c2), good.adjusted)
        with pytest.raises(InvalidChainError):
            spanning_rank(bad)

    def test_ordered_product_multiplies_from_the_left(self):
        a, b, c = (blade_mv(CTX, 1), blade_mv(CTX, 2) + blade_mv(CTX, 3),
                   blade_mv(CTX, 1, 3))
        assert ordered_product([a, b, c]) == mv_product(mv_product(a, b), c)
        assert ordered_product([b]) == b
