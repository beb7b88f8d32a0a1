import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffalg import scalars
from cliffalg.core import (Blade, Context, Multivector, _linear_image, _prefix_parity,
                           _rows, _size, _weight, blade_product, linear_combine,
                           mv_product, parity_project, reverse)
from cliffalg.automorphisms import bogolyubov_apply
from cliffalg.derivations import AdFamily, OrthogonalMap, family_apply
from cliffalg.errors import DegenerateFormError, DomainMismatchError, ParseError
from cliffalg.expr import MAX_COEFF_BITS, parse
from cliffalg.render import render
from cliffalg.scalars import Domain, GaussianRational

from conftest import (kernel_contexts, kernel_path, naive_blade_product,
                      naive_reverse_sign, ordered_sum, random_dense,
                      random_multivector, random_scalar, value_bits)

CTX = Context.make()


def scaled_terms(m, value):
    """m times `value`, one product per term (the old `scale` body): the
    reference for `scale`, independent of `linear_combine`."""
    value = scalars.coerce(m.context.domain, value)
    if not value:
        return Multivector.zero(m.context)
    return Multivector(m.context, {b: c * value for b, c in m.terms.items()})


def term_reprs(m):
    """m's terms in order, with repr telling -0.0 from 0.0 and matching nan."""
    return [(b, repr(c)) for b, c in m.terms.items()]


def mv(terms):
    return Multivector(CTX, {Blade.from_indices(ix): Fraction(c)
                             for ix, c in terms.items()})


blades = st.builds(
    Blade.from_indices,
    st.lists(st.integers(min_value=1, max_value=8), unique=True, max_size=5))

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)

multivectors = st.dictionaries(blades, coeffs, max_size=4).map(
    lambda terms: Multivector(CTX, terms))


class TestBladeProduct:
    def test_square_is_signature_value(self):
        assert blade_product(Blade.of(1), Blade.of(1), CTX) == \
            (Fraction(1), Blade(0))

    def test_anticommutation(self):
        assert blade_product(Blade.of(2), Blade.of(1), CTX) == \
            (Fraction(-1), Blade.of(1, 2))

    def test_contraction_with_sign(self):
        # v1 v3 v2 v3 rewrites to -v1 v2
        assert blade_product(Blade.of(1, 3), Blade.of(2, 3), CTX) == \
            (Fraction(-1), Blade.of(1, 2))

    def test_nonunit_signature(self):
        ctx = Context.make(Domain.RATIONAL, overrides={3: Fraction(2)})
        coeff, out = blade_product(Blade.of(1, 3), Blade.of(2, 3), ctx)
        assert (coeff, out) == (Fraction(-2), Blade.of(1, 2))

    def test_degenerate_signature_rejected(self):
        with pytest.raises(DegenerateFormError):
            Context.make(Domain.RATIONAL, overrides={1: 0})

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    def test_zero_default_rejected(self, domain):
        with pytest.raises(DegenerateFormError, match="default signature value"):
            Context.make(domain, default=0)

    @pytest.mark.parametrize("key", [1.5, True, 0, -1, "1", 2.0],
                             ids=["float", "bool", "zero", "negative", "str", "integral-float"])
    def test_override_keys_must_be_generator_indices(self, key):
        want = rf"generator indices >= 1, got {re.escape(repr(key))}$"
        with pytest.raises(ValueError, match=want):
            Context.make(Domain.RATIONAL, overrides={key: 2})
        with pytest.raises(ValueError, match=want):
            Context.make(Domain.RATIONAL, overrides={3: 2, key: 2})

    def test_overrides_are_sorted_by_key_and_the_first_one_wins(self):
        ctx = Context(Domain.RATIONAL, 1, ((3, 5), (1, 2), (3, 7)))
        assert ctx.overrides == ((1, 2), (3, 5), (3, 7)) and ctx.q(3) == 5
        assert Context(Domain.RATIONAL, 1, ((3, 5), (1, 2))) == \
            Context.make(Domain.RATIONAL, 1, {1: 2, 3: 5})

    @given(blades, blades)
    def test_matches_rewriting_oracle(self, a, b):
        coeff, out = blade_product(a, b, CTX)
        oc, oi = naive_blade_product(a.indices, b.indices, CTX.q)
        assert (coeff, out.indices) == (oc, oi)


class TestLinearCombine:
    def test_additive_inverse(self):
        v1 = mv({(1,): 1})
        zero = linear_combine([(1, v1), (-1, v1)])
        assert zero.is_zero and zero == Multivector.zero(CTX)
        # a multivector equals only multivectors, so == agrees with hash
        assert zero != 0 and 0 not in {zero}
        assert zero != Multivector.zero(Context.make(Domain.F64))

    def test_disjoint_supports(self):
        got = linear_combine([(2, mv({(): 1})), (3, mv({(1, 2): 1}))])
        assert got == mv({(): 2, (1, 2): 3})

    def test_cancellation(self):
        got = linear_combine([(1, mv({(): 1, (1,): 1})),
                              (1, mv({(): 1, (1,): -1}))])
        assert got == mv({(): 2})

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    def test_equals_ordered_sum_of_scaled_operands(self, domain):
        rng = random.Random(f"combine-{domain.value}")
        for ctx in kernel_contexts(domain):
            mvs = [random_dense(rng, ctx, 5, rng.choice((0, 1, 9, 20)))
                   for _ in range(6)]
            values = [random_scalar(rng, domain) for _ in mvs]
            # cancel the first operand, then revive some of its blades
            pairs = list(zip(values, mvs)) + [(-values[0], mvs[0]), (0, mvs[1]),
                                              (values[2], mvs[0])]
            if not domain.is_exact:  # a float zero multiplies too: 0 * inf is nan
                pairs.append((0, Multivector(ctx, {Blade.of(1): math.inf})))
            want = ordered_sum((b, c * scalars.coerce(domain, value))
                               for value, m in pairs for b, c in m.terms.items())
            got = linear_combine(pairs)
            assert [(x, value_bits(v)) for x, v in got.terms.items()] == \
                [(x, value_bits(v)) for x, v in want.items()]
            if domain.is_exact:  # and in lowest terms
                assert got == Multivector(ctx, want)

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    def test_linear_image_equals_linear_combine(self, domain):
        # bogolyubov_apply's sum: a's j-th coefficient weighs images[j]; the
        # terms come in order, with the ordered sum's float bits and NaN signs
        # (each blade's NaNs have one sign: nan + -nan has no fixed sign)
        rng = random.Random(f"linear-image-{domain.value}")
        for ctx in kernel_contexts(domain):
            c = random_scalar(rng, domain)
            cancelling = Multivector(ctx, {Blade.of(1): c, Blade.of(2): -c})
            for a in [cancelling] + [random_dense(rng, ctx, 5, n) for n in (0, 1, 9, 20)]:
                images = [random_dense(rng, ctx, 5, rng.choice((0, 1, 9)))
                          for _ in range(len(a.terms))]
                if a is cancelling:  # c * m - c * m, every sum reaches zero
                    images[1] = images[0]
                elif images and not domain.is_exact:
                    images[0] = Multivector(ctx, {Blade.of(1): math.inf,
                                                  Blade.of(2): -math.nan})
                    images[-1] = Multivector(ctx, {Blade.of(1): -math.inf, Blade(0): 2.5})
                got = _linear_image(a, images)
                want = ordered_sum((x, v * c) for c, img in zip(a.terms.values(), images)
                                   for x, v in img.terms.items())
                combined = linear_combine(zip(a.terms.values(), images), ctx)
                assert [(x, value_bits(v)) for x, v in got.terms.items()] == \
                    [(x, value_bits(v)) for x, v in want.items()] == \
                    [(x, value_bits(v)) for x, v in combined.terms.items()]
                if domain.is_exact:
                    assert (got._den, got._num) == (combined._den, combined._num)
                    assert got.is_zero or a is not cancelling

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    def test_scale_equals_per_term_products(self, domain):
        rng = random.Random(f"scale-{domain.value}")
        values = [0, 1, -1] + [random_scalar(rng, domain) for _ in range(4)]
        if domain is Domain.C64:
            values += [complex(math.inf, -0.0), complex(-0.0, 2.5),
                       complex(-1.5, -0.0), complex(0.0, -0.0)]
        for ctx in kernel_contexts(domain):
            for count in (0, 1, 9, 20):
                m = random_dense(rng, ctx, 5, count)
                for value in values:
                    assert term_reprs(m.scale(value)) == \
                        term_reprs(scaled_terms(m, value))

    @pytest.mark.parametrize("domain", [Domain.F64, Domain.C64], ids=lambda d: d.value)
    def test_scale_by_zero_of_infinite_coefficient_is_zero(self, domain):
        ctx = Context.make(domain)
        m = Multivector(ctx, {Blade.of(1): math.inf, Blade.of(2): 1})
        for zero in (0, 0.0, -0.0):
            assert m.scale(zero).is_zero

    def test_mixed_contexts_rejected(self):
        other = Multivector(Context.make(Domain.GAUSSIAN),
                            {Blade(0): GaussianRational.of(1)})
        with pytest.raises(DomainMismatchError):
            linear_combine([(1, mv({(): 1})), (1, other)])


class TestProduct:
    def test_unit_plus_generator_squared(self):
        a = mv({(): 1, (1,): 1})
        assert mv_product(a, a) == mv({(): 2, (1,): 2})

    def test_bivector_squares_to_minus_one(self):
        b = mv({(1, 2): 1})
        assert mv_product(b, b) == mv({(): -1})

    def test_disjoint_ascending_blades(self):
        assert mv_product(mv({(1, 2): 1}), mv({(3, 4): 1})) == mv({(1, 2, 3, 4): 1})

    def test_clifford_relations(self):
        for i in range(1, 9):
            for j in range(1, 9):
                vi, vj = mv({(i,): 1}), mv({(j,): 1})
                anti = mv_product(vi, vj) + mv_product(vj, vi)
                expected = mv({(): 2 * CTX.q(i)}) if i == j else Multivector.zero(CTX)
                assert anti == expected

    @settings(max_examples=60)
    @given(multivectors, multivectors, multivectors)
    def test_associativity(self, a, b, c):
        assert mv_product(mv_product(a, b), c) == mv_product(a, mv_product(b, c))

    @given(multivectors, multivectors)
    def test_grading(self, a, b):
        for pa in ("even", "odd"):
            for pb in ("even", "odd"):
                prod = mv_product(parity_project(a, pa), parity_project(b, pb))
                want = "even" if pa == pb else "odd"
                assert parity_project(prod, want) == prod


def full_weight(sig, common: int, odd: int):
    """(-1)**odd times q_k over every k in `common`, by definition: multiplied
    left to right from +-1 in increasing k."""
    w = scalars.one(sig.domain)
    if odd:
        w = -w
    for k in Blade(common).indices:
        w = w * sig.q(k)
    return w


def pairwise_product(a, b) -> dict:
    """The product by definition: full-weight blade products of a.terms x
    b.terms, summed in that order, a sum that reaches zero dropped."""
    terms = {}
    for ba, ca in a.terms.items():
        for bb, cb in b.terms.items():
            odd = sum(i > j for i in ba.indices for j in bb.indices) & 1
            c = ca * cb * full_weight(a.context, ba & bb, odd)
            blade = Blade(ba ^ bb)
            s = terms.get(blade)
            s = c if s is None else s + c
            if s == 0:
                terms.pop(blade, None)
            else:
                terms[blade] = s
    return terms


@pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
def test_product_is_ordered_pairwise_blade_sum(domain):
    rng = random.Random(f"kernel-{domain.value}")
    sizes = ((0, 0), (0, 5), (1, 1), (1, 7), (7, 1), (2, 3), (30, 40))
    paths = set()
    for ctx in kernel_contexts(domain):
        for n in (3, 8, 12):
            for size_a, size_b in sizes:
                a = random_dense(rng, ctx, n, size_a)
                b = random_dense(rng, ctx, n, size_b)
                paths.add(kernel_path(ctx, list(a.terms), b.terms))
                got = mv_product(a, b)
                assert [(x, value_bits(c)) for x, c in got.terms.items()] == \
                    [(x, value_bits(c)) for x, c in pairwise_product(a, b).items()]
                assert all(type(x) is Blade for x in got.terms)
    assert paths == {"rows", "pairs"}


def test_rows_stay_within_eight_copies_of_b_and_a_unit_form_copies_none():
    tb = [(Blade(B), _prefix_parity(B), 1) for B in range(1, 40)]
    a = [(Blade(A), 1) for A in range(64)]  # every blade on e1..e6
    assert _rows(Context.make(), a, tb, 0, 0)[0] is tb
    three = Context.make(overrides={1: -1, 2: 2, 3: -1})
    rows = _rows(three, a, tb, 0b111, 3)
    assert sorted(rows) == list(range(8))
    assert all(len(row) == len(tb) for row in rows.values())
    # 16 classes, or 8 with fewer than four terms each, take the pair loop
    assert _rows(Context.make(overrides={k: -1 for k in range(1, 5)}),
                 a, tb, 0b1111, 4) is None
    assert _rows(three, a[:31], tb, 0b111, 3) is None


_Q_VALUES = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 7), Fraction(3))
_C64_VALUES = (complex(1.0, -0.0), complex(-0.0, -1.0), complex(0.5, -0.0),
               complex(-1.0, 0.0), complex(math.inf, 0.0), 1e-300, 1e300)


@st.composite
def signatures(draw):
    """Contexts over generators 1..12 in every domain; in c64 also with
    signed-zero parts, inf and values whose products underflow or overflow."""
    domain = draw(st.sampled_from(list(Domain)))
    extra = (scalars.imaginary_unit(domain),) if domain.has_i else ()
    if domain is Domain.C64:
        extra += _C64_VALUES
    values = st.sampled_from(_Q_VALUES + extra)
    default = draw(st.one_of(st.just(Fraction(1)), values))
    overrides = draw(st.dictionaries(st.integers(1, 12), values, max_size=4))
    return Context.make(domain, default, overrides)


class TestWeightMask:
    @given(signatures())
    def test_every_non_unit_q_is_in_the_mask(self, sig):
        for k in range(1, 15):
            if sig.q(k) != 1:
                assert sig._mask >> (k - 1) & 1, k

    @given(signatures(), st.integers(0, (1 << 13) - 1), st.integers(0, 1))
    # a c64 product by 1+0j turns inf+0j into inf+nanj and -1-0j times
    # 1-0j is -1+0j, so neither factor may be skipped
    @example(Context.make(Domain.C64, 1, {1: math.inf}), 0b111, 0)
    @example(Context.make(Domain.C64, complex(1.0, -0.0)), 0b1, 1)
    def test_weight_is_the_full_product_bit_for_bit(self, sig, common, odd):
        assert repr(_weight(sig, common, odd)) == repr(full_weight(sig, common, odd))


class TestReverse:
    def test_vectors_fixed(self):
        assert reverse(mv({(1,): 1})) == mv({(1,): 1})

    def test_bivector_flips(self):
        assert reverse(mv({(1, 2): 1})) == mv({(1, 2): -1})

    def test_grade_four_fixed(self):
        assert reverse(mv({(1, 2, 3, 4): 1})) == mv({(1, 2, 3, 4): 1})

    def test_sign_matches_full_reversal_oracle(self):
        for bits in range(2 ** 6):
            blade = Blade(bits)
            got = reverse(Multivector.blade(CTX, blade)).coeff(blade)
            assert got == naive_reverse_sign(blade.indices, CTX.q)

    @given(multivectors, multivectors)
    def test_anti_automorphism(self, a, b):
        assert reverse(mv_product(a, b)) == mv_product(reverse(b), reverse(a))

    @given(multivectors)
    def test_involutive(self, a):
        assert reverse(reverse(a)) == a


class TestParityProject:
    def test_even_part(self):
        a = mv({(): 1, (1,): 1, (1, 2): 1})
        assert parity_project(a, "even") == mv({(): 1, (1, 2): 1})

    def test_vector_has_no_even_part(self):
        assert parity_project(mv({(1,): 1}), "even").is_zero

    def test_trivector_is_odd(self):
        a = mv({(1, 2, 3): 1})
        assert parity_project(a, "odd") == a

    @given(multivectors)
    def test_parts_sum_to_whole(self, a):
        assert parity_project(a, "even") + parity_project(a, "odd") == a


def test_no_zero_coefficients_stored(rng):
    for _ in range(50):
        a = random_multivector(rng, CTX)
        b = random_multivector(rng, CTX)
        for result in (a + b, a - b, mv_product(a, b)):
            assert all(c != 0 for c in result.terms.values())


EXACT = (Domain.RATIONAL, Domain.GAUSSIAN)


def stored_parts(m) -> list:
    """Every int part of m's stored numerators."""
    return [p for n in m._num.values() for p in (n if isinstance(n, tuple) else (n,))]


def value_sizes(m) -> int:
    """The parser's coefficient size read off m's values: numerator plus
    denominator bits, over both parts of a Gaussian value."""
    def bits(c):
        if isinstance(c, GaussianRational):
            return bits(c.re) + bits(c.im)
        return c.numerator.bit_length() + c.denominator.bit_length()
    return max(map(bits, m.terms.values()), default=0)


class TestCanonicalForm:
    """An exact multivector is stored as numerators over one denominator, in
    lowest terms, whatever built it."""

    def results(self, rng, ctx):
        a, b = (random_dense(rng, ctx, 6, rng.choice((1, 3, 12, 40))) for _ in range(2))
        u, v = (random_scalar(rng, ctx.domain) for _ in range(2))
        return a, b, [mv_product(a, b), a + b, a - b, -a, (a + b) - b, reverse(a),
                      parity_project(a, "even"), parity_project(b, "odd"),
                      linear_combine([(u, a), (v, b), (-u, a)]), a.scale(v)]

    @pytest.mark.parametrize("domain", EXACT, ids=lambda d: d.value)
    def test_kernel_results_equal_value_built_ones(self, domain):
        rng = random.Random(f"canonical-{domain.value}")
        for ctx in kernel_contexts(domain):  # unit and non-unit q
            for _ in range(5):
                a, b, results = self.results(rng, ctx)
                assert mv_product(a, b) == Multivector(ctx, pairwise_product(a, b))
                assert results[4] == a and hash(results[4]) == hash(a)
                for got in results:
                    built = Multivector(ctx, dict(got.terms))
                    assert got == built and hash(got) == hash(built)
                    assert (got._den, got._num) == (built._den, built._num)
                    for other in results:  # equal forms iff equal values
                        assert (got == other) == (dict(got.terms) == dict(other.terms))

    @pytest.mark.parametrize("domain", EXACT, ids=lambda d: d.value)
    def test_the_form_is_in_lowest_terms(self, domain):
        rng = random.Random(f"lowest-{domain.value}")
        for ctx in kernel_contexts(domain):
            for _ in range(5):
                for got in self.results(rng, ctx)[2]:
                    assert got._den > 0
                    assert math.gcd(got._den, *stored_parts(got)) == 1
                    assert all(any(n) if isinstance(n, tuple) else n
                               for n in got._num.values())
            a = random_dense(rng, ctx, 5, 9)
            for zero in (Multivector.zero(ctx), a - a, linear_combine([], ctx),
                         mv_product(a, Multivector.zero(ctx)), a.scale(0),
                         parity_project(Multivector.generator(ctx, 1), "even")):
                assert (zero._den, zero._num) == (1, {})

    @pytest.mark.parametrize("domain", [Domain.F64, Domain.C64], ids=lambda d: d.value)
    def test_float_results_keep_the_float_form(self, domain):
        # an empty sum's lcm is 1, which must not mark a float result exact
        rng = random.Random(f"float-form-{domain.value}")
        for ctx in kernel_contexts(domain):
            a, c, zero = random_dense(rng, ctx, 5, 9), random_scalar(rng, domain), \
                Multivector.zero(ctx)
            identity = OrthogonalMap.identity(ctx)
            for got in (linear_combine([], ctx), zero + zero, a - a,
                        linear_combine([(c, a), (-c, a)]), bogolyubov_apply(identity, a),
                        bogolyubov_apply(identity, zero), a.scale(0)):
                assert got._den == 0
                assert got == Multivector(ctx, dict(got.terms))

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    def test_every_path_gives_blade_keys(self, domain):
        rng = random.Random(f"keys-{domain.value}")
        for ctx in kernel_contexts(domain):
            a, b = (random_dense(rng, ctx, 6, 12) for _ in range(2))
            family = AdFamily.finite(ctx, "even", [(Blade.of(1, 2), 1), (Blade.of(2, 5), 3)])
            for got in (mv_product(a, b), a + b, a - b, -a, reverse(a),
                        parity_project(a, "odd"), linear_combine([(2, a), (3, b)]),
                        parse("(1 + 2*e1*e3 + e2)*e4*e6", ctx), family_apply(family, a)):
                assert all(type(x) is Blade for x in got.terms)
                assert all(type(x) is Blade for x, _ in got.terms.items())
                assert render(got) == render(Multivector(ctx, dict(got.terms)))

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    def test_terms_round_trip_and_coeff_reads_them(self, domain):
        # a product, an action and a parser fold (_relabel; c64 multiplies)
        # store int keys; the view hands out Blades in every domain
        rng = random.Random(f"terms-{domain.value}")
        kind = {Domain.RATIONAL: Fraction, Domain.GAUSSIAN: GaussianRational,
                Domain.F64: float, Domain.C64: complex}[domain]
        for ctx in kernel_contexts(domain, infinite=False):  # no nan to compare
            a, b = (random_dense(rng, ctx, 5, 12) for _ in range(2))
            family = AdFamily.finite(ctx, "even", [(Blade.of(1, 2), 1), (Blade.of(2, 5), 3)])
            for m in (a, mv_product(a, b), family_apply(family, a),
                      parse("(1 + 2*e1*e3 + e2)*e6*e8", ctx)):
                terms = m.terms
                assert Multivector(ctx, dict(terms)) == m
                assert list(terms) == list(m._num) and len(terms) == len(m._num)
                assert all(type(x) is Blade for x in terms)
                assert all(type(x) is Blade and type(c) is kind for x, c in terms.items())
                for x in range(1 << 5):
                    assert m.coeff(Blade(x)) == terms.get(Blade(x), scalars.zero(domain))

    @pytest.mark.parametrize("domain, base, sizes, last, column", [
        (Domain.RATIONAL, "(1/3 + 2/5*e1 - 7/9*e2*e3 + 5/12*e1*e2)",
         [7, 30, 32, 62, 120], 2166, 39),
        (Domain.GAUSSIAN, "(1/3 + 2/5*i*e1 - 7/9*e2 + (3/4-5/6*i)*e1*e2)",
         [11, 36, 62, 126, 212], 1056, 45)], ids=["rational", "gaussian"])
    def test_parser_sizes_keep_their_charges(self, domain, base, sizes, last, column):
        # sizes, the last power within MAX_COEFF_BITS and the refusal's
        # column, as read off each value's Fraction parts
        ctx = Context.make(domain)
        values = [parse(f"{base}^{k}", ctx) for k in (1, 2, 3, 5, 8)]
        assert [_size(v) for v in values] == sizes
        assert [value_sizes(v) for v in values] == sizes
        parse(f"{base}^{last}", ctx)
        with pytest.raises(ParseError) as err:
            parse(f"{base}^{last + 1}", ctx)
        assert str(err.value) == (f"expression needs coefficients of more than "
                                  f"{MAX_COEFF_BITS} bits (line 1, column {column})")
        assert column == len(base)


def test_context_coerces_into_its_domain():
    ctx = Context(Domain.F64)
    assert ctx == Context.make(Domain.F64)
    assert hash(ctx) == hash(Context.make(Domain.F64))
    assert type(ctx.default) is float and ctx.default == 1.0
    with pytest.raises(DomainMismatchError, match="not a rational value"):
        Context(Domain.RATIONAL, 1, ((1, GaussianRational.of(0, 1)),))


def test_blade_requires_increasing_indices():
    with pytest.raises(ValueError):
        Blade.from_indices([2, 2])
    with pytest.raises(ValueError):
        Blade.from_indices([0])


@pytest.mark.parametrize("domain", list(Domain))
def test_generator_is_the_blade_of_one_index(domain):
    ctx = Context.make(domain)
    gen = Multivector.generator(ctx, 3)
    assert gen.terms == {Blade.of(3): scalars.one(domain)}
    assert type(next(iter(gen.terms))) is Blade
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"generator index must be >= 1, "
                                             f"got {k}$"):
            Multivector.generator(ctx, k)


@given(st.lists(st.integers(min_value=1, max_value=300), unique=True, max_size=12))
def test_blade_indices_are_the_sorted_index_list(indices):
    assert Blade.from_indices(indices).indices == tuple(sorted(indices))


@given(st.integers(min_value=0, max_value=2 ** 40),
       st.integers(min_value=0, max_value=2 ** 40))
def test_blade_is_its_bitmask(x, y):
    a, b = Blade(x), Blade(y)
    assert Blade.from_indices(a.indices) == a == x
    assert a.grade == len(a.indices) == x.bit_count()
    assert (a < b, a == b, hash(a)) == (x < y, x == y, hash(x))
    assert sorted([b, a]) == sorted([x, y])
    assert type(eval(repr(a))) is Blade and eval(repr(a)) == a
    assert str(Blade(0)) == "1" and not Blade(0)


def test_blade_indices_of_a_far_generator():
    # one step per set bit, not one shift of the whole mask per bit position
    start = time.perf_counter()
    assert Blade.of(3, 10 ** 6).indices == (3, 10 ** 6)
    assert Multivector.blade(CTX, Blade.of(10 ** 6, 3)).support() == \
        frozenset({3, 10 ** 6})
    assert time.perf_counter() - start < 1
