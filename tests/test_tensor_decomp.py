import itertools
from fractions import Fraction

import pytest

from cliffalg.core import Blade, Context, Multivector, mv_product
from cliffalg.errors import (InvalidChainError, MembershipError,
                             SupportRangeError, UnsupportedDomainError)
from cliffalg.scalars import Domain, GaussianRational
from cliffalg import scalars, tensor_decomp
from cliffalg.tensor_decomp import (FactorChain, chain_build, chain_verify,
                                    commutator_check, factor_basis,
                                    factor_generators, ordered_product,
                                    phi_apply, phi_inverse, rewrite_generator,
                                    spanning_rank)

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


# ---------------------------------------------------------------------------
# the word certificates against the multivector oracle
# ---------------------------------------------------------------------------

def _oracle_commute(chain, i, j):
    return all(mv_product(a, b) == mv_product(b, a)
               for a in factor_generators(chain, i)
               for b in factor_generators(chain, j))


def _oracle_rank(chain):
    """Distinct blades of the multivector products of per-factor images."""
    products = factor_basis(chain, 1)
    for i in range(2, len(chain.cuts) + 1):
        products = [mv_product(p, f) for p in products
                    for f in factor_basis(chain, i)]
    if any(len(p.terms) != 1 for p in products):
        raise InvalidChainError("a product of images is not a single blade")
    return len({next(iter(p.terms)) for p in products})


def _oracle_verify(chain):
    """chain_verify through phi_apply and mv_product alone."""
    ctx, t, n_t = chain.context, len(chain.cuts), chain.cuts[-1]
    checks = []
    for i in range(1, t + 1):
        lo = chain.block(i)[0] - 1
        images = factor_basis(chain, i)
        blades = [Multivector.blade(ctx, Blade(m << lo))
                  for m in range(len(images))]

        def phi(uw):
            # uw is a signed block blade and phi_i is linear
            (blade, coeff), = uw.terms.items()
            return images[blade >> lo].scale(coeff)

        checks.append((f"phi_{i} multiplicative", all(
            phi(mv_product(blades[a], blades[b])) ==
            mv_product(images[a], images[b])
            for a, b in itertools.product(range(len(images)), repeat=2))))
        keys = {next(iter(img.terms)) for img in images if len(img.terms) == 1}
        checks.append((f"phi_{i} injective", len(keys) == len(images)))
    for i, j in itertools.combinations(range(1, t + 1), 2):
        checks.append((f"[A_{i}, A_{j}] = 0", _oracle_commute(chain, i, j)))
    for k in range(1, n_t + 1):
        checks.append((f"rewrite v_{k}", ordered_product(
            rewrite_generator(chain, k)) == Multivector.generator(ctx, k)))
    checks.append((f"span rank 2^{n_t}", _oracle_rank(chain) == 2 ** n_t))
    return checks


def _word_mv(ctx, word):
    """The multivector i^p v_S of the word (p, S)."""
    p, mask = word
    unit = scalars.imaginary_unit(ctx.domain) if p % 2 else scalars.one(ctx.domain)
    return Multivector.blade(ctx, Blade(mask), -unit if p >= 2 else unit)


def _chains_up_to_eight():
    """Every chain with last cut <= 8, in each domain it builds in."""
    for r in range(1, 5):
        for cuts in itertools.combinations((2, 4, 6, 8), r):
            for domain in Domain:
                if domain.has_i or all(n % 4 for n in cuts):
                    yield cuts, domain


CHAINS = list(_chains_up_to_eight())


class TestWordsAgainstTheOracle:
    @pytest.mark.parametrize("cuts,domain", CHAINS,
                             ids=[f"{','.join(map(str, c))}-{d.value}"
                                  for c, d in CHAINS])
    def test_certificates_match(self, cuts, domain):
        ctx = Context.make(domain)
        chain = chain_build(cuts, ctx)
        images = tensor_decomp._phi_words(chain, basis=True)
        gens = tensor_decomp._phi_words(chain, basis=False)
        for i in range(1, len(cuts) + 1):
            assert [_word_mv(ctx, w) for w in images[i - 1]] == \
                factor_basis(chain, i)
            assert [_word_mv(ctx, w) for w in gens[i - 1]] == \
                factor_generators(chain, i)
        for k in range(1, cuts[-1] + 1):
            assert [_word_mv(ctx, w) for w in
                    tensor_decomp._rewrite_words(chain, gens, k)] == \
                rewrite_generator(chain, k)
        for i, j in itertools.permutations(range(1, len(cuts) + 1), 2):
            assert commutator_check(chain, i, j) == _oracle_commute(chain, i, j)
        assert spanning_rank(chain) == _oracle_rank(chain)
        assert chain_verify(chain) == _oracle_verify(chain)

    def test_wrong_volume_element_fails_the_same_checks(self):
        good = chain_build((2, 6), CTX)
        bad = FactorChain(CTX, good.cuts, (good.c[0], good.c[0]),
                          good.adjusted)
        got = chain_verify(bad)
        assert got == _oracle_verify(bad)
        assert [name for name, ok in got if not ok] == \
            ["phi_2 multiplicative",
             "rewrite v_3", "rewrite v_4", "rewrite v_5", "rewrite v_6"]
        assert spanning_rank(bad) == _oracle_rank(bad)
        assert commutator_check(bad, 1, 2) == _oracle_commute(bad, 1, 2)

    @pytest.mark.parametrize("cuts", [(2, 6), (2, 4, 6), (4, 6)])
    def test_hand_built_monomial_chains(self, cuts, rng):
        # any unit-phase monomials as volume elements: the blades of each
        # factor's images still form a subspace, of full rank or not
        n_t = cuts[-1]
        phases = [scalars.one(Domain.GAUSSIAN), GaussianRational.of(0, 1)]
        ranks = set()
        for _ in range(40):
            # blades reach past the last cut too
            c = tuple(Multivector.blade(
                GCTX, Blade(rng.randrange(1 << (n_t + 2))),
                rng.choice(phases) * rng.choice((1, -1))) for _ in cuts)
            chain = FactorChain(GCTX, cuts, c, tuple(n % 4 == 0 for n in cuts))
            ranks.add(spanning_rank(chain))
            assert spanning_rank(chain) == _oracle_rank(chain)
            assert chain_verify(chain) == _oracle_verify(chain)
        assert len(ranks) > 1

    def test_certificates_build_no_multivector(self, monkeypatch):
        chain = chain_build((2, 6, 10), CTX)

        def refuse(*args, **kwargs):
            raise AssertionError("multivector built")
        monkeypatch.setattr(Multivector, "__init__", refuse)
        assert all(ok for _, ok in chain_verify(chain))
        assert spanning_rank(chain) == 2 ** 10
        assert commutator_check(chain, 1, 3)

    def test_non_monomial_volume_element_raises_in_both(self):
        good = chain_build((2, 6), CTX)
        c2 = good.c[1] + Multivector.unit(CTX)
        bad = FactorChain(CTX, good.cuts, (good.c[0], c2), good.adjusted)
        for certificate in (chain_verify, spanning_rank, _oracle_rank):
            with pytest.raises(InvalidChainError):
                certificate(bad)

    @pytest.mark.parametrize("c2", [
        blade_mv(CTX, 1, 2, 3, 4, 5, 6).scale(2),
        Multivector.zero(CTX),
    ], ids=["scaled", "zero"])
    def test_volume_element_must_be_a_unit_word(self, c2):
        good = chain_build((2, 6), CTX)
        bad = FactorChain(CTX, good.cuts, (good.c[0], c2), good.adjusted)
        for certificate in (chain_verify, spanning_rank,
                            lambda chain: commutator_check(chain, 1, 2)):
            with pytest.raises(InvalidChainError, match="^c_2 is not a unit-phase monomial$"):
                certificate(bad)

    def test_non_unit_signature_is_refused(self):
        # the words multiply by the q == 1 sign rule; with q_1 = -1 the oracle
        # finds phi_1(v1 v1) = -1 but phi_1(v1)**2 = (v1 v1 v2)**2 = +1
        ctx = Context.make(Domain.RATIONAL, overrides={1: -1})
        c = (blade_mv(ctx, 1, 2), blade_mv(ctx, 1, 2, 3, 4, 5, 6))
        chain = FactorChain(ctx, (2, 6), c, (False, False))
        assert ("phi_1 multiplicative", False) in _oracle_verify(chain)
        for certificate in (chain_verify, spanning_rank,
                            lambda chain: commutator_check(chain, 1, 2)):
            with pytest.raises(UnsupportedDomainError,
                               match=r"^a factor chain requires q == 1 on the "
                                     r"support \(q_1 != 1\)$"):
                certificate(chain)
