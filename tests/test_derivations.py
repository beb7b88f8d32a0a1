import math
from fractions import Fraction

import pytest

from cliffalg.core import (Blade, Context, Multivector, blade_product,
                           mv_product, parity_project)
from cliffalg.derivations import (AdFamily, AdStream, OrthogonalMap, SkewMap,
                                  ad_apply, bogolyubov_derivation,
                                  derivation_restricts_to_V, extract_even,
                                  extract_odd, family_apply, inner_witness)
from cliffalg.errors import (ContractViolationError, NotAdSumError,
                             NotBogolyubovError, NotSkewError, ParityError)
from cliffalg.scalars import Domain

from conftest import (kernel_contexts, kernel_path, ordered_sum, random_blade,
                      random_dense, random_multivector, random_rational,
                      random_scalar, value_bits)

CTX = Context.make()


def gen(k):
    return Multivector.generator(CTX, k)


def blade_mv(*indices):
    return Multivector.blade(CTX, Blade.of(*indices))


def ad_blade(blade, coeff, x):
    """The terms of ad(coeff * v_S)(x), one per term of x, pair by pair: the
    per-pair reference for family_apply.

    v_T v_S = (-1)**(|S||T| - |S & T|) v_S v_T, so the commutator with x_T v_T
    is 2 coeff x_T v_S v_T when that exponent is odd and zero otherwise.
    """
    r = blade.grade
    for bt, xt in x.terms.items():
        if (r * bt.grade - (blade & bt).bit_count()) & 1:
            w, out = blade_product(blade, bt, x.context)
            t = coeff * xt * w
            t = t + t
            if t:
                yield out, t


def random_family(rng, parity, max_index=10, max_terms=3):
    want = 0 if parity == "even" else 1
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        blade = random_blade(rng, max_index, parity=want)
        if blade:
            terms[blade] = random_rational(rng)
    return AdFamily.finite(CTX, parity, terms.items())


class TestAdApply:
    def test_bivector_on_member_generator(self):
        assert ad_apply(blade_mv(1, 2), gen(2)) == gen(1).scale(2)
        assert ad_apply(blade_mv(1, 2), gen(1)) == gen(2).scale(-2)

    def test_disjoint_even_blade_commutes(self):
        assert ad_apply(blade_mv(1, 2), gen(3)).is_zero

    def test_leibniz(self, rng):
        for _ in range(40):
            g = random_multivector(rng, CTX, max_index=8, max_terms=3)
            x = random_multivector(rng, CTX, max_index=8, max_terms=3)
            y = random_multivector(rng, CTX, max_index=8, max_terms=3)
            lhs = ad_apply(g, mv_product(x, y))
            rhs = mv_product(ad_apply(g, x), y) + mv_product(x, ad_apply(g, y))
            assert lhs == rhs


class TestFamilyApply:
    def test_single_even_term(self):
        family = AdFamily.finite(CTX, "even", [(Blade.of(1, 2), 1)])
        assert family_apply(family, gen(2)) == gen(1).scale(2)

    def test_odd_blade_containing_generator_commutes(self):
        family = AdFamily.finite(CTX, "odd", [(Blade.of(1), 1)])
        assert family_apply(family, gen(1)).is_zero

    def test_even_stream(self):
        # alpha_n = 1 on blades {2n-1, 2n}; only the n = 2 term meets v_3
        stream = AdStream(
            CTX, "even",
            ((Blade.of(2 * n - 1, 2 * n), 1) for n in range(1, 10 ** 6)),
            cutoff=lambda m: (m + 1) // 2)
        assert family_apply(stream, gen(3)) == gen(4).scale(-2)

    def test_stream_contract_violation_detected(self):
        stream = AdStream(
            CTX, "even",
            iter([(Blade.of(1, 2), 1), (Blade.of(3, 4), 1)]),
            cutoff=lambda m: 2 if m >= 4 else 1)
        family_apply(stream, gen(4))  # materializes both terms
        with pytest.raises(ContractViolationError):
            family_apply(stream, gen(3))  # term 2 is past cutoff(3) but acts

    def test_parity_enforced(self):
        with pytest.raises(ParityError):
            AdFamily.finite(CTX, "even", [(Blade.of(1), 1)])
        with pytest.raises(ParityError):
            AdFamily.finite(CTX, "odd", [(Blade.of(1, 2), 1)])

    def test_unit_blade_refused_in_an_even_family(self):
        with pytest.raises(ParityError, match="generates the zero derivation"):
            AdFamily.finite(CTX, "even", [(Blade(0), 1)])
        assert AdFamily.finite(CTX, "even", [(Blade(0), 0)]).terms == ()

    def test_leibniz_for_families(self, rng):
        for parity in ("even", "odd"):
            for _ in range(20):
                family = random_family(rng, parity)
                x = random_multivector(rng, CTX, max_terms=3)
                y = random_multivector(rng, CTX, max_terms=3)
                lhs = family_apply(family, mv_product(x, y))
                rhs = mv_product(family_apply(family, x), y) + \
                    mv_product(x, family_apply(family, y))
                assert lhs == rhs

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    def test_equals_sum_of_ad_terms(self, domain, rng):
        # with q_k = inf the commutator a*x - x*a is inf - inf = nan where the
        # parity rule gives an exact 0
        for ctx in kernel_contexts(domain, infinite=False):
            for parity in ("even", "odd"):
                want_parity = 0 if parity == "even" else 1
                blades = {random_blade(rng, 10, parity=want_parity) for _ in range(6)}
                blades.discard(Blade(0))
                family = AdFamily.finite(
                    ctx, parity, [(blade, random_scalar(rng, domain)) for blade in blades])
                for count in (0, 1, 12):
                    x = random_dense(rng, ctx, 10, count)
                    want = Multivector.zero(ctx)
                    for blade, coeff in family.terms:
                        want = want + ad_apply(Multivector.blade(ctx, blade, coeff), x)
                    assert family_apply(family, x) == want

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    def test_matches_the_ad_blade_sum_in_value_and_order(self, domain, rng):
        # family_apply doubles each float sum once, which must equal these
        # sums of doubled pairs bit for bit
        paths = set()

        def check(source, x):
            pairs = source.terms if isinstance(source, AdFamily) else source.prefix(10)
            want = ordered_sum(term for blade, coeff in pairs
                               for term in ad_blade(blade, coeff, x))
            acting = (source.terms if isinstance(source, AdFamily)
                      else source.prefix(source.cutoff(x.max_index())))
            if any(c for _, c in acting):
                paths.add(kernel_path(ctx, [S for S, c in acting if c], x.terms))
            got = family_apply(source, x).terms
            assert [(repr(b), value_bits(c)) for b, c in got.items()] == \
                [(repr(b), value_bits(c)) for b, c in want.items()]
            assert list(map(type, got.values())) == list(map(type, want.values()))

        for ctx in kernel_contexts(domain, infinite=False):
            # e1 cancels after e3 enters, then comes back after it
            e12, e34 = Blade.of(1, 2), Blade.of(3, 4)
            revived = [(e12, 1), (e34, 1), (e12, -1), (e12, 1)]
            check(AdStream(ctx, "even", iter(revived), cutoff=lambda m: 4),
                  Multivector(ctx, {Blade.of(2): 1, Blade.of(4): 1}))
            for parity in ("even", "odd"):
                # a stream repeats blades and keeps zero coefficients
                want_parity = 0 if parity == "even" else 1
                pool = sorted({random_blade(rng, 6, parity=want_parity)
                               for _ in range(4)} - {Blade(0)})
                terms = [(rng.choice(pool), rng.choice((-1, 0, 1, 2)) * random_scalar(rng, domain))
                         for _ in range(8)]
                stream = AdStream(ctx, parity, iter(terms), cutoff=lambda m: len(terms))
                family = AdFamily.finite(ctx, parity, dict(terms).items())
                for count in (0, 1, 5, 12):
                    x = random_dense(rng, ctx, 6, count)
                    check(stream, x)
                    check(family, x)
        assert paths == {"rows", "pairs"}

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    def test_memoized_tail_past_the_cutoff_still_raises(self, domain):
        ctx = kernel_contexts(domain)[2]
        stream = AdStream(ctx, "even", iter([(Blade.of(1, 2), 1), (Blade.of(3, 4), 1)]),
                          cutoff=lambda m: 2 if m >= 4 else 1)
        family_apply(stream, Multivector.generator(ctx, 4))
        with pytest.raises(ContractViolationError):
            family_apply(stream, Multivector.generator(ctx, 3))

    @pytest.mark.parametrize("domain", [Domain.F64, Domain.C64], ids=lambda d: d.value)
    def test_a_zero_coefficient_acts_as_zero_under_infinite_q(self, domain):
        # 0 * inf is nan, but a zero coefficient is left out before any
        # product, in the prefix and in the memoized tail alike
        ctx = Context.make(domain, overrides={2: math.inf})
        e12, e34 = Blade.of(1, 2), Blade.of(3, 4)
        v2, v4 = (Multivector.generator(ctx, k) for k in (2, 4))
        prefix = AdStream(ctx, "even", iter([(e12, 0)]), cutoff=lambda m: 1)
        assert family_apply(prefix, v2).is_zero
        stream = AdStream(ctx, "even", iter([(e34, 1), (e12, 0)]),
                          cutoff=lambda m: 2 if m >= 4 else 1)
        assert family_apply(stream, v4) == Multivector.generator(ctx, 3).scale(2)
        assert stream.memoized_tail(1) == [(e12, 0)]
        assert family_apply(stream, v2).is_zero

    @pytest.mark.parametrize("domain", [Domain.F64, Domain.C64], ids=lambda d: d.value)
    def test_a_tail_term_that_anticommutes_raises_when_its_products_underflow(self, domain):
        # the cutoff contract is structural: 1e-300 * 1e-300 underflows to 0,
        # yet v1v2 past the cutoff still anticommutes with v2
        ctx = Context.make(domain)
        stream = AdStream(ctx, "even", iter([(Blade.of(3, 4), 1), (Blade.of(1, 2), 1e-300)]),
                          cutoff=lambda m: 2 if m >= 4 else 1)
        family_apply(stream, Multivector.generator(ctx, 4))
        tiny = Multivector.blade(ctx, Blade.of(2), 1e-300)
        assert family_apply(AdFamily.finite(ctx, "even", [(Blade.of(1, 2), 1e-300)]),
                            tiny).is_zero
        with pytest.raises(ContractViolationError):
            family_apply(stream, tiny)

    @pytest.mark.parametrize("domain", [Domain.F64, Domain.C64], ids=lambda d: d.value)
    def test_ad_apply_differs_from_the_parity_rule_under_infinite_q(self, domain):
        # v1v2 commutes with itself; both of ad_apply's products are -inf, so
        # their difference is nan, where family_apply's parity rule gives 0
        ctx = Context.make(domain, overrides={2: math.inf})
        g = Multivector.blade(ctx, Blade.of(1, 2))
        (blade, value), = ad_apply(g, g).terms.items()
        assert blade == 0 and math.isnan(value.real)
        assert domain is Domain.F64 or math.isnan(value.imag)
        assert family_apply(AdFamily.finite(ctx, "even", [(Blade.of(1, 2), 1)]), g).is_zero

    def test_parity_action(self, rng):
        # even families preserve the grading; odd families swap it
        for parity, flip in (("even", False), ("odd", True)):
            for _ in range(20):
                family = random_family(rng, parity)
                x = random_multivector(rng, CTX, max_terms=3)
                for part in ("even", "odd"):
                    image = family_apply(family, parity_project(x, part))
                    want = part if not flip else ("odd" if part == "even" else "even")
                    assert parity_project(image, want) == image


class TestExtraction:
    def test_single_bivector(self):
        table = {1: gen(2).scale(-2), 2: gen(1).scale(2)}
        assert extract_even(table, 2, CTX) == [(Blade.of(1, 2), Fraction(1))]

    def test_zero_action_extracts_empty(self):
        table = {k: Multivector.zero(CTX) for k in range(1, 6)}
        assert extract_even(table, 4, CTX) == []
        assert extract_odd(table, 4, CTX) == []

    def test_two_term_even_sum(self):
        family = AdFamily.finite(CTX, "even",
                                 [(Blade.of(1, 2), 1), (Blade.of(3, 4), 3)])
        table = {k: family_apply(family, gen(k)) for k in range(1, 5)}
        assert extract_even(table, 4, CTX) == list(family.terms)

    def test_odd_single_generator(self):
        family = AdFamily.finite(CTX, "odd", [(Blade.of(1), 1)])
        table = {k: family_apply(family, gen(k)) for k in range(1, 5)}
        assert table[2] == blade_mv(1, 2).scale(2)
        assert extract_odd(table, 3, CTX) == [(Blade.of(1), Fraction(1))]

    def test_odd_three_blade(self):
        family = AdFamily.finite(CTX, "odd", [(Blade.of(1, 2, 3), 1)])
        table = {k: family_apply(family, gen(k)) for k in range(1, 6)}
        assert extract_odd(table, 4, CTX) == [(Blade.of(1, 2, 3), Fraction(1))]

    def test_round_trip_random(self, rng):
        for parity, extractor, extra in (("even", extract_even, 0),
                                         ("odd", extract_odd, 1)):
            for _ in range(40):
                family = random_family(rng, parity)
                table = {k: family_apply(family, gen(k))
                         for k in range(1, 12 + extra)}
                assert extractor(table, 11, CTX) == list(family.terms)

    def test_inconsistent_table_rejected(self):
        # D(v_1) of ad(v_1 v_2) but D(v_2) scaled wrongly
        table = {1: gen(2).scale(-2), 2: gen(1).scale(4)}
        with pytest.raises(NotAdSumError):
            extract_even(table, 2, CTX)

    def test_non_derivation_table_rejected(self):
        table = {1: blade_mv(1, 2, 3), 2: Multivector.zero(CTX)}
        with pytest.raises(NotAdSumError):
            extract_even(table, 2, CTX)

    def test_a_family_that_does_not_reproduce_the_table_is_rejected(self):
        # the probe at v_1 reads ad(v1 v2), which moves v_2; the table fixes it
        ad12 = AdFamily.finite(CTX, "even", [(Blade.of(1, 2), 1)])
        table = {1: family_apply(ad12, gen(1)), 2: Multivector.zero(CTX)}
        with pytest.raises(NotAdSumError, match=r"\(mismatch at v_2\)$"):
            extract_even(table, 2, CTX)

    def test_a_missing_generator_is_named(self):
        table = {1: Multivector.zero(CTX), 3: Multivector.zero(CTX)}
        with pytest.raises(NotAdSumError, match="table is missing k = 2$"):
            extract_even(table, 3, CTX)


class TestBogolyubov:
    def test_halved_coefficients(self):
        psi = SkewMap.from_pairs(CTX, {(1, 2): Fraction(-2)})
        family = bogolyubov_derivation(psi)
        assert list(family.terms) == [(Blade.of(1, 2), Fraction(-1))]
        assert family_apply(family, gen(1)) == gen(2).scale(2)

    def test_zero_map(self):
        psi = SkewMap.from_pairs(CTX, {})
        assert bogolyubov_derivation(psi).terms == ()

    def test_coefficient_relation(self):
        psi = SkewMap.from_pairs(CTX, {(1, 3): Fraction(1)})
        family = bogolyubov_derivation(psi)
        assert list(family.terms) == [(Blade.of(1, 3), Fraction(1, 2))]

    def test_restriction_equals_psi(self, rng):
        for _ in range(30):
            pairs = {}
            for _ in range(rng.randint(0, 4)):
                i, j = sorted(rng.sample(range(1, 11), 2))
                pairs[(i, j)] = random_rational(rng)
            psi = SkewMap.from_pairs(CTX, pairs)
            family = bogolyubov_derivation(psi)
            for k in range(1, 11):
                assert family_apply(family, gen(k)) == psi.apply(k)

    def test_brute_force_two_by_two(self):
        # alpha_12 = psi_12 / 2 over all small skew maps on two indices
        for num in range(-4, 5):
            psi = SkewMap.from_pairs(CTX, {(1, 2): Fraction(num)})
            family = bogolyubov_derivation(psi)
            for k in (1, 2):
                assert family_apply(family, gen(k)) == psi.apply(k)

    def test_skew_validation(self):
        with pytest.raises(NotSkewError):
            SkewMap.from_pairs(CTX, {(1, 1): Fraction(1)})
        with pytest.raises(NotSkewError):
            SkewMap.from_pairs(CTX, {(1, 2): Fraction(1), (2, 1): Fraction(1)})


class TestRestrictsToV:
    def test_round_trip(self):
        family = AdFamily.finite(CTX, "even", [(Blade.of(1, 2), -1)])
        psi = derivation_restricts_to_V(family)
        assert psi.value(1, 2) == -2
        assert bogolyubov_derivation(psi).terms == family.terms

    def test_four_blade_rejected(self):
        # ad(v1 v2 v3 v4)(v1) lands in grade 3, outside V
        image = ad_apply(blade_mv(1, 2, 3, 4), gen(1))
        assert {b.grade for b in image.terms} == {3}
        family = AdFamily.finite(CTX, "even", [(Blade.of(1, 2, 3, 4), 1)])
        with pytest.raises(NotBogolyubovError):
            derivation_restricts_to_V(family)

    def test_empty_family(self):
        family = AdFamily.finite(CTX, "even", [])
        assert derivation_restricts_to_V(family).is_zero


class TestInnerWitness:
    def test_single_pair(self):
        psi = SkewMap.from_pairs(CTX, {(1, 2): Fraction(-2)})
        u = inner_witness(psi)
        assert u == blade_mv(1, 2).scale(-1)
        assert ad_apply(u, gen(1)) == gen(2).scale(2)

    def test_zero(self):
        assert inner_witness(SkewMap.from_pairs(CTX, {})).is_zero

    def test_two_pairs(self):
        psi = SkewMap.from_pairs(CTX, {(1, 2): Fraction(2), (3, 4): Fraction(6)})
        u = inner_witness(psi)
        assert u == blade_mv(1, 2) + blade_mv(3, 4).scale(3)
        family = bogolyubov_derivation(psi)
        for k in range(1, 5):
            assert ad_apply(u, gen(k)) == family_apply(family, gen(k))

    def test_matches_family_on_products(self, rng):
        psi = SkewMap.from_pairs(CTX, {(1, 3): Fraction(1, 2), (2, 5): Fraction(-3)})
        u = inner_witness(psi)
        family = bogolyubov_derivation(psi)
        for _ in range(20):
            x = random_multivector(rng, CTX, max_index=6)
            assert ad_apply(u, x) == family_apply(family, x)
