import re
import time
from fractions import Fraction

import pytest

from cliffalg import scalars
from cliffalg.core import Blade, Context, Multivector
from cliffalg.errors import (DomainMismatchError, InvalidAutomorphismError,
                             ShapeMismatchError, UnsupportedDomainError)
from cliffalg.locmat import (FactorShape, LocalAutomorphism, TensorElement,
                             _canonical, _mul, _pairing, block_nilpotent,
                             limit_automorphism_apply, tp_norm, tp_product,
                             tp_trace, witness_discontinuous, witness_sequence)
from cliffalg.matrix_rep import build_rep, represent
from cliffalg.scalars import Domain, GaussianRational
from cliffalg.trace_norm import trace

from conftest import (conj_transpose, dense, flat_equal, flatten, identity,
                      kron, mat_add, mat_mul, mat_scale, pairing_oracle)

SHAPE = FactorShape()
EXACT = [Domain.RATIONAL, Domain.GAUSSIAN]

A1 = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
E11 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
I2 = identity(2, Fraction(0), Fraction(1))


def elem(coeff, factors):
    return TensorElement.single(SHAPE, coeff, factors)


def random_element(rng, max_factor=3, max_terms=2):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        factors = {}
        for i in rng.sample(range(1, max_factor + 1), rng.randint(0, 2)):
            factors[i] = tuple(tuple(Fraction(rng.randint(-3, 3))
                                     for _ in range(2)) for _ in range(2))
        terms.append((Fraction(rng.randint(-3, 3), rng.randint(1, 3)), factors))
    return TensorElement.build(SHAPE, terms)


def matrix(*entries):
    return tuple(tuple(Fraction(x) for x in entries[r:r + 2]) for r in (0, 2))


def dense_terms(a):
    """`a.terms` with every factor read as dense rows."""
    return tuple((c, tuple((i, dense(a.shape, f)) for i, f in fs))
                 for c, fs in a.terms)


def same_value(rng, a):
    """`a` rebuilt with the same value and another structure: each term is
    split in two, a factor is rescaled against the coefficient, and an
    identity factor and a zero-coefficient term are added."""
    one, zero = scalars.one(a.shape.domain), scalars.zero(a.shape.domain)
    terms = []
    for coeff, factors in dense_terms(a):
        factors = dict(factors)
        if factors:
            i = rng.choice(sorted(factors))
            factors[i] = mat_scale(factors[i], Fraction(2))
            coeff = coeff / 2
        factors.setdefault(7, identity(a.shape.size, zero, one))
        part = Fraction(rng.randint(-3, 3), 4)
        terms += [(coeff * part, factors), (coeff * (1 - part), factors)]
    terms.append((0, {2: A1}))
    rng.shuffle(terms)
    return TensorElement.build(a.shape, terms)


def small_element(rng, shape, indices=range(1, 4)):
    """Small integer (Gaussian integer) entries and quarter-integer
    coefficients on at most two of the factor `indices`."""
    def value(den=1):
        re = Fraction(rng.randint(-3, 3), den)
        if not shape.domain.has_i:
            return re
        return GaussianRational(re, Fraction(rng.randint(-3, 3), den))
    m = shape.size
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = {i: tuple(tuple(value() for _ in range(m)) for _ in range(m))
                   for i in rng.sample(indices, rng.randint(0, 2))}
        terms.append((value(4), factors))
    return TensorElement.build(shape, terms)


@pytest.mark.parametrize("domain", [Domain.F64, Domain.C64], ids=lambda d: d.value)
def test_factor_shape_refuses_the_float_domains(domain):
    with pytest.raises(UnsupportedDomainError, match="tensor elements are exact"):
        FactorShape(domain)


@pytest.mark.parametrize("size", [3, 0, -2, 1, 4.0, True, "4", Fraction(4)],
                         ids=repr)
def test_factor_shape_refuses_odd_and_small_sizes(size):
    # no size that is not an int: 4.0 and Fraction(4) were accepted and then
    # failed inside block_nilpotent
    with pytest.raises(ValueError,
                       match=rf"even and >= 2, got {re.escape(repr(size))}$"):
        FactorShape(Domain.RATIONAL, size)


@pytest.mark.parametrize("index", [0, -3, 2.5, True, "2", Fraction(2)], ids=repr)
def test_factor_indices_are_integers_from_one(index):
    # no truncation (2.5 was factor 2), no bool (True was factor 1) and no
    # index below 1 (block_nilpotent took 0 and -3)
    message = rf"factor indices must be integers >= 1, got {re.escape(repr(index))}$"
    for build in (lambda: TensorElement.build(SHAPE, [(1, {index: A1})]),
                  lambda: TensorElement.single(SHAPE, 1, {index: A1}),
                  lambda: block_nilpotent(SHAPE, index),
                  lambda: block_nilpotent(SHAPE, index, 0)):
        with pytest.raises(ValueError, match=message):
            build()


class TestCanonicalEquality:
    def test_zero_coefficient_term(self):
        a = elem(3, {1: A1})
        b = TensorElement.build(SHAPE, [(3, {1: A1}), (0, {2: E11})])
        assert b.terms == a.terms
        assert a == b and hash(a) == hash(b)

    def test_identity_factor(self):
        a = elem(Fraction(2, 3), {1: E11})
        b = elem(Fraction(2, 3), {1: E11, 4: I2})
        assert b.support() == (1,)
        assert a == b and hash(a) == hash(b)

    def test_zero_factor_and_merged_terms(self):
        zero2 = ((Fraction(0),) * 2,) * 2
        a = TensorElement.build(SHAPE, [(1, {1: A1}), (2, {1: zero2}),
                                        (Fraction(1, 2), {1: A1})])
        assert dense_terms(a) == ((Fraction(3, 2), ((1, A1),)),)
        assert TensorElement.build(SHAPE, [(1, {1: A1}), (-1, {1: A1})]) == \
            TensorElement.zero(SHAPE)
        # equal factors held by distinct Fractions merge, keeping the first
        # seen factor and order; a sum that reaches zero drops
        f, g, h, k = (matrix(0, Fraction(2, 3), 0, 0) for _ in range(4))
        assert f is not g and f[0][1] is not g[0][1] and f == g
        got = TensorElement.build(SHAPE, [(1, {2: h}), (Fraction(1, 2), {1: f}),
                                          (3, {3: E11}), (-1, {2: k}),
                                          (Fraction(1, 3), {1: g}), (-3, {3: E11})])
        assert dense_terms(got) == ((Fraction(5, 6), ((1, f),)),)
        (_, ((_, stored),)), = got.terms
        assert stored[0][1] is f[0][1]

        def at(i, key, x):  # one factor storing one entry
            return ((i, ((key, x),)),)

        first, other = at(1, (0, 0), Fraction(1, 2)), at(2, (1, 0), Fraction(1, 3))
        got = _canonical(SHAPE, [(2, at(4, (0, 1), Fraction(1, 2))), (1, first),
                                 (7, other), (-2, at(4, (0, 1), Fraction(2, 4))),
                                 (5, at(1, (0, 0), Fraction(3, 6)))])
        assert got == ((6, first), (7, other))
        assert got[0][1][0][1] is first[0][1]
        # an equal numerator over another denominator is another factor
        fifths = matrix(0, Fraction(2, 5), 0, 0)
        assert len(TensorElement.build(SHAPE, [(1, {1: f}), (1, {1: fifths})]).terms) == 2
        assert elem(1, {1: f}) != elem(1, {1: fifths})

    def test_distributed_factor_uses_the_expansion(self):
        b, c = matrix(1, 2, 0, 3), matrix(-1, 0, 5, 1)
        left = elem(1, {1: A1, 2: b}) + elem(1, {1: A1, 2: c})
        right = elem(1, {1: A1, 2: mat_add(b, c)})
        assert {f for _, f in left.terms} != {f for _, f in right.terms}
        assert left == right and hash(left) == hash(right)
        assert left != elem(1, {1: A1, 2: b})
        # equal values with different supports
        split = elem(1, {1: A1, 2: E11}) + elem(1, {1: A1, 2: matrix(0, 0, 0, 1)})
        assert split.support() == (1, 2)
        assert split == elem(1, {1: A1}) and hash(split) == hash(elem(1, {1: A1}))

    def test_matches_the_flatten_oracle(self, rng):
        seen = set()
        for _ in range(200):
            a = random_element(rng)
            b = same_value(rng, a) if rng.random() < 0.5 else random_element(rng)
            assert (a == b) == flat_equal(a, b)
            if a == b:
                assert hash(a) == hash(b)
            seen.add((a == b, a.terms == b.terms))
        assert seen == {(True, True), (True, False), (False, False)}

    @pytest.mark.parametrize("domain", EXACT, ids=lambda d: d.value)
    def test_matches_the_kronecker_oracle_in_every_domain(self, domain, rng):
        shape = FactorShape(domain)
        seen = set()
        for _ in range(300):
            a = small_element(rng, shape)
            pick = rng.random()
            if pick < 0.2:
                b = TensorElement(shape, a.terms[::-1])
            elif pick < 0.6:
                b = same_value(rng, a)
            elif pick < 0.8:
                b = same_value(rng, a) + small_element(rng, shape)
            else:
                b = small_element(rng, shape)
            same_terms = {f: c for c, f in a.terms} == {f: c for c, f in b.terms}
            assert (a == b) == flat_equal(a, b)
            seen.add((a == b, same_terms))
        assert seen == {(True, True), (True, False), (False, False)}

    def test_gaussian_pairing_conjugates(self):
        gshape = FactorShape(Domain.GAUSSIAN)
        i, one, zero = (GaussianRational.of(0, 1), GaussianRational.of(1),
                        GaussianRational.of(0))
        # tr(A A^T) = 1 + i^2 = 0 but tr(A A*) = 2
        a = TensorElement.single(gshape, 1, {1: ((one, i), (zero, zero))})
        assert a != TensorElement.zero(gshape)
        # sum c_s c_t over E11 + i E22 is 1 + i^2 = 0
        e11, e22 = ((one, zero), (zero, zero)), ((zero, zero), (zero, one))
        b = TensorElement.build(gshape, [(1, {1: e11}), (i, {1: e22})])
        assert b != TensorElement.zero(gshape)
        # <I, iI> = conj(tr(iI)): I == (-i)(iI) has an absent factor on one side
        ii = ((i, zero), (zero, i))
        assert TensorElement.identity(gshape) == \
            TensorElement.single(gshape, -i, {1: ii})
        assert TensorElement.identity(gshape) != \
            TensorElement.single(gshape, i, {1: ii})

    def test_distributed_factor_on_twelve_factors_is_fast(self):
        b, c = matrix(1, 2, 0, 3), matrix(-1, 0, 5, 1)
        head = {i: matrix(1, i, 0, 2) for i in range(1, 12)}
        start = time.perf_counter()
        left = elem(1, {**head, 12: b}) + elem(1, {**head, 12: c})
        assert left == elem(1, {**head, 12: mat_add(b, c)})
        assert left != elem(1, {**head, 12: b})
        assert time.perf_counter() - start < 1

    def test_elements_over_different_shapes_are_unequal(self):
        unit = TensorElement.identity(SHAPE)
        for shape in (FactorShape(Domain.RATIONAL, 4), FactorShape(Domain.GAUSSIAN)):
            other = TensorElement.identity(shape)
            assert unit != other and other != unit
            assert tp_trace(unit) == tp_trace(other) == 1


class TestStoredEntries:
    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.GAUSSIAN],
                             ids=lambda d: d.value)
    def test_exact_cancellation_stores_no_zero(self, domain):
        shape = FactorShape(domain)
        one = scalars.one(domain)
        a = TensorElement.single(shape, 1, {1: ((one, one), (0 * one, one))})
        b = TensorElement.single(shape, 1, {1: ((one, 0 * one), (-one, one))})
        # [[1, 1], [0, 1]] [[1, 0], [-1, 1]] = [[0, 1], [-1, 1]]
        (_, ((_, got),)), = tp_product(a, b).terms
        assert got == (((0, 1), one), ((1, 0), -one), ((1, 1), one))
        assert dense(shape, got) == ((0 * one, one), (-one, one))
        # b's stored zero is dropped when it is built
        assert [k for k, _ in b.terms[0][1][0][1]] == [(0, 0), (1, 0), (1, 1)]

    @pytest.mark.parametrize("m", [2, 4])
    def test_rational_products_match_the_fraction_reference(self, m, rng):
        def factor():  # entries over unequal denominators
            return tuple(((r, c), Fraction(rng.choice((-1, 1)), rng.choice((1, 2, 3))))
                         for r in range(m) for c in range(m) if rng.random() < 0.8)

        def coeff():  # products that reduce, and signs on both sides
            return Fraction(rng.choice((-4, -2, -1, 1, 3, 6)), rng.choice((1, 2, 3, 4, 9)))

        shape, e11, cancelled = FactorShape(size=m), (((0, 0), Fraction(1)),), 0
        for _ in range(300):
            a, b = factor(), factor()
            ca, cb = coeff(), coeff()
            (coeff_ab, _), = tp_product(TensorElement(shape, ((ca, ((1, e11),)),)),
                                        TensorElement(shape, ((cb, ((1, e11),)),))).terms
            assert repr(coeff_ab) == repr(ca * cb)  # lowest terms, positive denominator
            sums = {}
            for (r, j), x in a:
                for (i, c), y in b:
                    if i == j:
                        sums[r, c] = sums.get((r, c), 0) + x * y
            want = tuple(sorted((key, v) for key, v in sums.items() if v))
            got = _mul(a, b, True)
            assert got == want  # Fraction == compares lowest terms
            assert all(type(v) is Fraction for _, v in got)
            cancelled += len(sums) - len(want)
        assert cancelled > 20


class TestProduct:
    def test_nilpotent_squares_to_zero(self):
        a = elem(1, {1: A1})
        assert tp_product(a, a) == TensorElement.zero(SHAPE)

    def test_identity_is_neutral(self, rng):
        b = random_element(rng)
        assert tp_product(TensorElement.identity(SHAPE), b) == b

    def test_disjoint_supports(self):
        got = tp_product(elem(1, {1: A1}), elem(1, {2: A1}))
        assert got == elem(1, {1: A1, 2: A1})
        assert got.support() == (1, 2)

    def test_matches_the_flatten_oracle(self, rng):
        for _ in range(30):
            a, b = random_element(rng), random_element(rng)
            support = tuple(sorted(set(a.support()) | set(b.support())))
            assert flatten(tp_product(a, b), support) == \
                mat_mul(flatten(a, support), flatten(b, support))

    def test_shape_mismatch(self):
        other = TensorElement.identity(FactorShape(Domain.RATIONAL, 4))
        with pytest.raises(ShapeMismatchError):
            tp_product(elem(1, {}), other)


class TestTrace:
    def test_identity(self):
        assert tp_trace(TensorElement.identity(SHAPE)) == 1

    def test_nilpotent(self):
        assert tp_trace(elem(1, {1: A1})) == 0

    def test_product_of_projections(self):
        assert tp_trace(elem(1, {1: E11, 2: E11})) == Fraction(1, 4)

    def test_padding_invariance(self):
        a = elem(Fraction(2, 3), {1: E11})
        padded = elem(Fraction(2, 3), {1: E11, 5: I2})
        assert tp_trace(a) == tp_trace(padded)
        assert a == padded

    def test_traciality(self, rng):
        for _ in range(30):
            a = random_element(rng)
            b = random_element(rng)
            assert tp_trace(tp_product(a, b)) == tp_trace(tp_product(b, a))

    def test_matches_clifford_trace_on_factor_one(self):
        # factor 1 carries the k = 1 representation of the first block
        gshape = FactorShape(Domain.GAUSSIAN)
        gctx = Context.make(Domain.GAUSSIAN)
        rep = build_rep(1)
        for bits in range(4):
            a = Multivector.blade(gctx, Blade(bits))
            t = TensorElement.single(gshape, 1, {1: represent(rep, a)})
            assert tp_trace(t) == trace(a)


class TestNorm:
    def test_equals_the_trace_of_a_times_its_adjoint(self, rng):
        for _ in range(100):
            a = random_element(rng, max_factor=4, max_terms=4)
            assert tp_norm(a) == tp_trace(tp_product(a, a.adjoint()))
        a = same_value(rng, random_element(rng))
        assert tp_norm(a) == tp_trace(tp_product(a, a.adjoint()))

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.GAUSSIAN],
                             ids=lambda d: d.value)
    def test_pairing_is_the_trace_of_a_times_the_adjoint_of_b(self, domain, rng):
        shape = FactorShape(domain)
        for _ in range(50):
            a, b = small_element(rng, shape), small_element(rng, shape)
            assert _pairing(a, b) == tp_trace(tp_product(a, b.adjoint()))

    def test_nilpotent(self):
        assert tp_norm(elem(1, {1: A1})) == Fraction(1, 2)

    def test_identity(self):
        assert tp_norm(TensorElement.identity(SHAPE)) == 1

    def test_scaled_nilpotent_at_factor_three(self):
        a = block_nilpotent(SHAPE, 3).scale(Fraction(1, 3))
        assert tp_norm(a) == Fraction(1, 18)

    def test_refuses_complex_domain(self):
        gshape = FactorShape(Domain.GAUSSIAN)
        with pytest.raises(UnsupportedDomainError):
            tp_norm(TensorElement.identity(gshape))


def raw_element(rng, shape, max_terms=3):
    """Terms as drawn, with no canonical pass: zero coefficients, explicit
    identity factors, mixed denominators and terms with no factor."""
    one = scalars.one(shape.domain)

    def value():
        x = Fraction(rng.randint(-4, 4) or 1, rng.choice((1, 2, 3, 4, 6)))
        return x * (one if rng.random() < 0.5 else GaussianRational.of(1, 1)) \
            if shape.domain.has_i else x

    m, terms = shape.size, []
    for _ in range(rng.randint(1, max_terms)):
        factors = []
        for i in sorted(rng.sample(range(1, 5), rng.randint(0, 3))):
            if rng.random() < 0.2:
                f = tuple(((r, r), one) for r in range(m))
            else:
                f = tuple(((r, c), value()) for r in range(m) for c in range(m)
                          if rng.random() < 0.5) or (((0, 0), value()),)
            factors.append((i, f))
        coeff = 0 * one if rng.random() < 0.15 else value()
        terms.append((coeff, tuple(factors)))
    return TensorElement._of_canonical(shape, tuple(terms))


class TestIntegerPairing:
    """The exact pairings against the Fraction formula: one term-pair loop,
    rational on integer numerators, Gaussian on its values over denominator 1."""

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.GAUSSIAN],
                             ids=lambda d: d.value)
    def test_matches_the_fraction_oracle(self, domain, m, rng):
        shape = FactorShape(domain, m)
        zero_type = type(scalars.zero(domain))
        for _ in range(150):
            a, b = raw_element(rng, shape), raw_element(rng, shape)
            copy = TensorElement._of_canonical(shape, a.terms)
            for left, right in ((a, b), (b, a), (a, a), (a, copy)):
                got = _pairing(left, right)
                assert got == pairing_oracle(left, right)
                assert type(got) is zero_type

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.GAUSSIAN],
                             ids=lambda d: d.value)
    def test_empty_elements_give_the_domain_zero(self, domain, rng):
        shape = FactorShape(domain)
        zero, a = TensorElement.zero(shape), raw_element(rng, shape)
        for left, right in ((zero, zero), (zero, a), (a, zero)):
            got = _pairing(left, right)
            assert got == 0 and type(got) is type(scalars.zero(domain))

    def test_witness_norms_match_the_oracle(self):
        for m in (2, 4, 6, 8):
            shape = FactorShape(size=m)
            phi = LocalAutomorphism.index_scaling(shape)
            for n in (1, 2, 7):
                b = block_nilpotent(shape, n).scale(Fraction(1, n))
                for x in (b, limit_automorphism_apply(phi, b)):
                    assert tp_norm(x) == pairing_oracle(x, x)
            # the sequence's own pairs: b_n = (1/n) N at factor n, and phi
            # scales N's entries by n, built here from dense rows
            k, pairs = m // 2, witness_sequence(12, shape)
            rows = [[int(c == r + k) for c in range(m)] for r in range(m)]
            for n, (before, after) in enumerate(pairs, 1):
                b = TensorElement.build(shape, [(Fraction(1, n), {n: rows})])
                image = TensorElement.build(shape, [(1, {n: rows})])
                assert (before, after) == (pairing_oracle(b, b),
                                           pairing_oracle(image, image))
            assert len(pairs) == 12


class TestLimitAutomorphism:
    def test_index_scaling_on_nilpotent(self):
        phi = LocalAutomorphism.index_scaling(SHAPE)
        a2 = block_nilpotent(SHAPE, 2)
        assert limit_automorphism_apply(phi, a2) == a2.scale(2)

    def test_identity_rule(self, rng):
        phi = LocalAutomorphism.identity(SHAPE)
        a = random_element(rng)
        assert limit_automorphism_apply(phi, a) == a

    def test_diagonal_fixed(self):
        phi = LocalAutomorphism.index_scaling(SHAPE)
        diag = elem(1, {4: ((Fraction(5), Fraction(0)),
                            (Fraction(0), Fraction(7)))})
        assert limit_automorphism_apply(phi, diag) == diag

    def test_multiplicative_and_unital(self, rng):
        phi = LocalAutomorphism.index_scaling(SHAPE)
        assert limit_automorphism_apply(phi, TensorElement.identity(SHAPE)) == \
            TensorElement.identity(SHAPE)
        for _ in range(30):
            a = random_element(rng)
            b = random_element(rng)
            assert limit_automorphism_apply(phi, tp_product(a, b)) == \
                tp_product(limit_automorphism_apply(phi, a),
                           limit_automorphism_apply(phi, b))

    def test_inverse_rule_round_trip(self, rng):
        phi = LocalAutomorphism.index_scaling(SHAPE)
        inv = phi.inverted()
        for _ in range(10):
            a = random_element(rng)
            assert limit_automorphism_apply(
                inv, limit_automorphism_apply(phi, a)) == a

    @staticmethod
    def rejects(diagonal, error):
        """The rule's diagonal at factor 1 raises `error` when applied, on
        rational's integer-ratio read, and through diagonal(), with the same
        message."""
        phi = LocalAutomorphism.from_factors(SHAPE, {1: diagonal})
        with pytest.raises(error) as applied:
            limit_automorphism_apply(phi, elem(1, {1: A1}))
        with pytest.raises(error) as read:
            phi.diagonal(1)
        assert str(applied.value) == str(read.value)

    # a zero entry, or a value outside the domain: a float has an integer
    # ratio too, and is refused all the same
    @pytest.mark.parametrize("diagonal, error", [
        ((Fraction(1), Fraction(0)), InvalidAutomorphismError),
        ((0, 2), InvalidAutomorphismError),
        ((1, GaussianRational.of(0)), InvalidAutomorphismError),
        ((1, 0.5), DomainMismatchError),
        (("2", 1), DomainMismatchError),
        ((1, GaussianRational.of(1, 1)), DomainMismatchError),
        ((0.5, 0), DomainMismatchError)],
        ids=["zero-fraction", "zero-int", "zero-gaussian", "float", "str",
             "gaussian", "float-before-zero"])
    def test_singular_rule_rejected(self, diagonal, error):
        self.rejects(diagonal, error)

    @pytest.mark.parametrize("diagonal, error", [
        ((1, 2, 3), ShapeMismatchError), ((Fraction(1, 2),), ShapeMismatchError),
        ((), ShapeMismatchError), ((0, 0, 0), ShapeMismatchError),
        ((1, 0.5, 3), DomainMismatchError)],
        ids=["long", "short", "empty", "long-zeros", "long-float"])
    def test_wrong_length_diagonal_rejected(self, diagonal, error):
        self.rejects(diagonal, error)

    def test_rule_is_read_once_per_factor(self):
        calls = {}

        def rule(i):
            calls[i] = calls.get(i, 0) + 1
            return (1, i + 1)

        phi = LocalAutomorphism(SHAPE, rule)
        terms = [(1, {1: A1, 2: E11}), (2, {2: A1, 3: A1}), (-3, {1: E11, 3: A1})]
        a = TensorElement.build(SHAPE, terms)
        got = limit_automorphism_apply(phi, a)
        assert calls == {1: 1, 2: 1, 3: 1}
        one_by_one = [limit_automorphism_apply(phi, TensorElement.build(SHAPE, [t]))
                      for t in terms]
        assert got.terms == tuple(t for b in one_by_one for t in b.terms)


def random_diagonal(rng, domain, m):
    """Nonzero diagonal entries: negative and fractional, and multiples of i
    in the Gaussian domain."""
    if domain is Domain.RATIONAL:
        return tuple(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))
                     for _ in range(m))
    return tuple(GaussianRational.of(rng.choice((-2, 0, 1, Fraction(1, 3))),
                                     rng.choice((-1, 1, Fraction(3, 2))))
                 for _ in range(m))


class TestDiagonalConjugation:
    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("domain", EXACT, ids=lambda d: d.value)
    def test_matches_the_dense_conjugation(self, domain, m, rng):
        shape = FactorShape(domain, m)
        one, zero = scalars.one(domain), scalars.zero(domain)
        for _ in range(30):
            diagonals = {i: random_diagonal(rng, domain, m) for i in range(1, 5)}
            phi = LocalAutomorphism.from_factors(shape, diagonals)

            def conjugate(i, mat):
                d = [scalars.coerce(domain, x) for x in diagonals[i]]
                x = tuple(tuple(d[r] if r == c else zero for c in range(m))
                          for r in range(m))
                x_inv = tuple(tuple(one / d[r] if r == c else zero
                                    for c in range(m)) for r in range(m))
                return mat_mul(mat_mul(x_inv, mat), x)

            a = small_element(rng, shape)
            want = tuple((c, tuple((i, conjugate(i, mat)) for i, mat in f))
                         for c, f in dense_terms(a))
            assert dense_terms(limit_automorphism_apply(phi, a)) == want

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("domain", EXACT, ids=lambda d: d.value)
    def test_inverted_round_trip(self, domain, m, rng):
        shape = FactorShape(domain, m)
        for _ in range(30):
            phi = LocalAutomorphism.from_factors(
                shape, {i: random_diagonal(rng, domain, m) for i in range(1, 5)})
            a = small_element(rng, shape)
            there = limit_automorphism_apply(phi, a)
            assert limit_automorphism_apply(phi.inverted(), there).terms == a.terms
            assert limit_automorphism_apply(phi, limit_automorphism_apply(
                phi.inverted(), a)).terms == a.terms

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("domain", EXACT, ids=lambda d: d.value)
    def test_matches_the_value_formula(self, domain, m, rng):
        # a moved entry is x * (d[c] / d[r]) in type, parts and repr, for
        # fractional entries and negative and non-integer diagonals
        shape = FactorShape(domain, m)
        for _ in range(40):
            phi = LocalAutomorphism.from_factors(
                shape, {i: random_diagonal(rng, domain, m) for i in range(1, 5)})
            a = raw_element(rng, shape)
            want = tuple((coeff, tuple(
                (i, tuple(((r, c), x if d[r] == d[c] else x * (d[c] / d[r]))
                          for (r, c), x in f))
                for i, f in fs for d in [phi.diagonal(i)])) for coeff, fs in a.terms)
            got = limit_automorphism_apply(phi, a).terms
            assert got == want and repr(got) == repr(want)
            assert hash(got) == hash(want)

    def test_inverted_singular_rule_rejected(self):
        phi = LocalAutomorphism.from_factors(SHAPE, {1: (Fraction(0), Fraction(1))})
        with pytest.raises(InvalidAutomorphismError):
            limit_automorphism_apply(phi.inverted(), elem(1, {1: A1}))


class TestWitness:
    def test_exact_pairs_m2(self):
        got = witness_sequence(3, SHAPE)
        assert got == [(Fraction(1, 2), Fraction(1, 2)),
                       (Fraction(1, 8), Fraction(1, 2)),
                       (Fraction(1, 18), Fraction(1, 2))]

    def test_base_case(self):
        assert witness_sequence(1, SHAPE) == [(Fraction(1, 2), Fraction(1, 2))]

    def test_m4(self):
        shape = FactorShape(Domain.RATIONAL, 4)
        assert witness_sequence(1, shape) == [(Fraction(1, 2), Fraction(1, 2))]

    def test_monotone_to_zero_with_constant_image(self):
        pairs = witness_sequence(10, SHAPE)
        firsts = [a for a, _ in pairs]
        assert firsts == [Fraction(1, 2 * n * n) for n in range(1, 11)]
        assert all(a > b for a, b in zip(firsts, firsts[1:]))
        assert {b for _, b in pairs} == {Fraction(1, 2)}

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    @pytest.mark.parametrize("domain", EXACT, ids=lambda d: d.value)
    def test_exact_pairs_for_every_size(self, domain, m):
        # tp_norm, and so the witness, is rational only; in gaussian the
        # same pairs are the pairings tr(x x*) of the same elements
        shape = FactorShape(domain, m)
        value = lambda x: scalars.coerce(domain, x)
        want = [(value(Fraction(1, 2 * n * n)), value(Fraction(1, 2)))
                for n in range(1, 41)]
        if domain is Domain.RATIONAL:
            got = witness_sequence(40, shape)
        else:
            with pytest.raises(UnsupportedDomainError):
                witness_sequence(40, shape)
            phi = LocalAutomorphism.index_scaling(shape)
            bs = [block_nilpotent(shape, n, Fraction(1, n)) for n in range(1, 41)]
            got = [(_pairing(b, b), _pairing(pb, pb))
                   for b, pb in ((b, limit_automorphism_apply(phi, b)) for b in bs)]
        assert repr(got) == repr(want)

    def test_verdict(self):
        half = Fraction(1, 2)
        assert witness_discontinuous(witness_sequence(10, SHAPE))
        # the first components shrink overall but not strictly at every step
        assert not witness_discontinuous(
            [(half, half), (Fraction(1, 8), half), (Fraction(1, 8), half),
             (Fraction(1, 18), half)])
        assert not witness_discontinuous([(half, half), (Fraction(1, 8), half),
                                          (Fraction(1, 18), Fraction(1, 4))])
        assert not witness_discontinuous([])
        # one value shows no trend
        assert not witness_discontinuous(witness_sequence(1, SHAPE))
        assert witness_discontinuous(witness_sequence(2, SHAPE))


def dense_trace(a, zero):
    return sum((a[r][r] for r in range(len(a))), zero)


def diagonal_matrix(d, zero):
    return tuple(tuple(x if r == c else zero for c, _ in enumerate(d))
                 for r, x in enumerate(d))


def assert_stored_form(a):
    """Row-major keys in range; no stored zero; canonical terms, which a
    second pass leaves as they are."""
    m = a.shape.size
    assert _canonical(a.shape, a.terms) == a.terms
    for _, factors in a.terms:
        for _, f in factors:
            keys = [k for k, _ in f]
            assert keys == sorted(set(keys))
            assert all(0 <= r < m and 0 <= c < m for r, c in keys)
            assert all(x for _, x in f)


class TestDenseDifferential:
    """Each operation on stored entries against the dense Kronecker oracle."""

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("domain", EXACT, ids=lambda d: d.value)
    def test_operations_match_the_kronecker_oracle(self, domain, m, rng):
        shape = FactorShape(domain, m)
        zero, one = scalars.zero(domain), scalars.one(domain)
        # at m = 4 two factors already expand to 16 x 16
        indices, rounds = (range(1, 4), 25) if m == 2 else (range(1, 3), 10)
        for _ in range(rounds):
            a, b = (small_element(rng, shape, indices) for _ in range(2))
            diagonals = {i: tuple(scalars.coerce(domain, x)
                                  for x in random_diagonal(rng, domain, m))
                         for i in indices}
            phi = LocalAutomorphism.from_factors(shape, diagonals)
            support = tuple(sorted(set(a.support()) | set(b.support())))
            dim = m ** len(support)
            big_a, big_b = flatten(a, support), flatten(b, support)
            x, x_inv = ((one,),), ((one,),)
            for i in support:
                x = kron(x, diagonal_matrix(diagonals[i], zero))
                x_inv = kron(x_inv, diagonal_matrix(
                    [one / v for v in diagonals[i]], zero))
            product = tp_product(a, b)
            image = limit_automorphism_apply(phi, a)
            assert flatten(product, support) == mat_mul(big_a, big_b)
            assert flatten(a.adjoint(), support) == conj_transpose(big_a)
            assert tp_trace(a) == dense_trace(big_a, zero) / dim
            assert _pairing(a, b) == dense_trace(
                mat_mul(big_a, conj_transpose(big_b)), zero) / dim
            assert flatten(image, support) == \
                mat_mul(mat_mul(x_inv, big_a), x)
            for t in (a, b, product, a.adjoint(), image, a.scale(-one)):
                assert_stored_form(t)

    def test_witness_element_at_m44(self):
        shape = FactorShape(Domain.RATIONAL, 44)
        zero, one, n = Fraction(0), Fraction(1), 3
        b = block_nilpotent(shape, n).scale(Fraction(1, n))
        image = limit_automorphism_apply(LocalAutomorphism.index_scaling(shape), b)
        (_, ((_, f),)), = b.terms
        assert len(f) == 22
        assert_stored_form(b)
        assert_stored_form(image)
        big_b, big_image = flatten(b, (n,)), flatten(image, (n,))
        d = (one,) * 22 + (Fraction(n),) * 22
        assert big_image == mat_mul(mat_mul(
            diagonal_matrix([1 / v for v in d], zero), big_b),
            diagonal_matrix(d, zero))
        assert flatten(b.adjoint(), (n,)) == conj_transpose(big_b)
        assert tp_product(b, image) == TensorElement.zero(shape)
        assert mat_mul(big_b, big_image) == flatten(TensorElement.zero(shape), (n,))
        assert tp_trace(b) == dense_trace(big_b, zero) / 44 == 0
        assert tp_norm(b) == dense_trace(
            mat_mul(big_b, conj_transpose(big_b)), zero) / 44 == Fraction(1, 18)
        assert tp_norm(image) == dense_trace(
            mat_mul(big_image, conj_transpose(big_image)), zero) / 44 \
            == Fraction(1, 2)


class TestCanonicalByConstruction:
    """The operations that skip the canonical pass: scale, exact conjugation
    and block_nilpotent."""

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.GAUSSIAN],
                             ids=lambda d: d.value)
    def test_exact_scale_by_zero_is_the_zero_element(self, domain, rng):
        shape = FactorShape(domain, 2)
        for a in (block_nilpotent(shape, 2), small_element(rng, shape)):
            assert a.scale(0).terms == ()
            assert a.scale(0) == TensorElement.zero(shape)

    @pytest.mark.parametrize("m", [2, 4, 6])
    @pytest.mark.parametrize("domain", EXACT, ids=lambda d: d.value)
    def test_block_nilpotent_matches_the_dense_build(self, domain, m):
        shape = FactorShape(domain, m)
        one, zero = scalars.one(domain), scalars.zero(domain)
        rows = tuple(tuple(one if c == r + m // 2 else zero for c in range(m))
                     for r in range(m))
        b = block_nilpotent(shape, 5)
        assert repr(b.terms) == \
            repr(TensorElement.single(shape, 1, {5: rows}).terms)
        assert_stored_form(b)

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("domain", EXACT, ids=lambda d: d.value)
    def test_scaled_block_nilpotent_matches_scale(self, domain, m):
        shape = FactorShape(domain, m)
        coeffs = [0, 1, -2, Fraction(1, 7), Fraction(-3, 4)]
        if domain is Domain.GAUSSIAN:
            coeffs += [GaussianRational.of(0), GaussianRational.of(Fraction(1, 3), -2)]
        for c in coeffs:
            b = block_nilpotent(shape, 3, c)
            assert repr(b.terms) == repr(block_nilpotent(shape, 3).scale(c).terms)
            assert_stored_form(b)
        assert block_nilpotent(shape, 3, 0) == TensorElement.zero(shape)
