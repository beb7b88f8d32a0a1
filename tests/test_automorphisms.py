import cmath
import math
from fractions import Fraction

import pytest

from cliffalg import scalars
from cliffalg.automorphisms import bogolyubov_apply, conjugation_apply
from cliffalg.core import (Blade, Context, Multivector, _rev_pairing,
                           linear_combine, mv_product)
from cliffalg.derivations import GRAM_TOLERANCE, OrthogonalMap
from cliffalg.errors import NotInverseError, NotOrthogonalError
from cliffalg.scalars import Domain, GaussianRational
from cliffalg.trace_norm import norm

from conftest import random_dense, random_multivector

CTX = Context.make()

ROTATION_POINTS = [(Fraction(3, 5), Fraction(4, 5)),
                   (Fraction(5, 13), Fraction(12, 13)),
                   (Fraction(8, 17), Fraction(15, 17)),
                   (Fraction(20, 29), Fraction(21, 29))]


def gen(k):
    return Multivector.generator(CTX, k)


def rotation(i, j, cos, sin):
    """phi(v_i) = cos v_i + sin v_j, phi(v_j) = -sin v_i + cos v_j."""
    return OrthogonalMap.build(CTX, (i, j), ((cos, -sin), (sin, cos)))


def random_orthogonal(rng, max_index=6):
    indices = list(range(1, max_index + 1))
    perm = indices[:]
    rng.shuffle(perm)
    matrix = [[Fraction(0)] * max_index for _ in range(max_index)]
    for col, target in enumerate(perm):
        matrix[target - 1][col] = Fraction(rng.choice((1, -1)))
    signed_perm = OrthogonalMap.build(CTX, tuple(indices), matrix)
    i, j = sorted(rng.sample(indices, 2))
    cos, sin = rng.choice(ROTATION_POINTS)
    return signed_perm.compose(rotation(i, j, cos, sin))


def assert_per_blade(phi, a):
    """bogolyubov_apply(phi, a) against each blade's image multiplied left to
    right from the unit, alone: repr-identical in f64/c64, equal in value and
    type in the exact domains."""
    ctx = a.context
    want = []
    for blade, coeff in a.terms.items():
        img = Multivector.unit(ctx)
        for k in blade.indices:
            img = mv_product(img, phi.image(k))
        want.append((coeff, img))
    want = linear_combine(want, context=ctx).terms
    got = bogolyubov_apply(phi, a).terms
    if ctx.domain.is_exact:
        assert got == want
        assert list(map(type, got.values())) == list(map(type, want.values()))
    else:
        assert repr(list(got.items())) == repr(list(want.items()))


class TestBogolyubovApply:
    def test_quarter_turn_fixes_its_bivector(self):
        phi = rotation(1, 2, Fraction(0), Fraction(1))  # v1 -> v2, v2 -> -v1
        b = Multivector.blade(CTX, Blade.of(1, 2))
        assert bogolyubov_apply(phi, b) == b

    def test_identity_map(self, rng):
        phi = OrthogonalMap.identity(CTX)
        a = random_multivector(rng, CTX)
        assert bogolyubov_apply(phi, a) == a

    def test_sign_flip(self):
        phi = OrthogonalMap.build(CTX, (1,), ((Fraction(-1),),))
        assert bogolyubov_apply(phi, gen(1)) == -gen(1)

    @pytest.mark.parametrize("active", [(1, 1), (0, 2), (-1, 2)])
    def test_build_refuses_a_bad_active_set(self, active):
        with pytest.raises(ValueError, match="distinct positive indices"):
            OrthogonalMap.build(CTX, active, ((1, 0), (0, 1)))

    @pytest.mark.parametrize("matrix", [((1,),), ((1, 0), (0,)), ((1, 0),) * 3])
    def test_build_refuses_a_matrix_of_the_wrong_shape(self, matrix):
        with pytest.raises(ValueError, match="shape must match the active set"):
            OrthogonalMap.build(CTX, (1, 2), matrix)

    def test_rejects_non_orthogonal(self):
        stretch = OrthogonalMap.build(CTX, (1,), ((Fraction(2),),))
        with pytest.raises(NotOrthogonalError):
            bogolyubov_apply(stretch, gen(1))

    @pytest.mark.parametrize("domain, q, shear, ok", [
        (Domain.F64, 1, 0.9 * GRAM_TOLERANCE, True),
        (Domain.F64, 1, 1.1 * GRAM_TOLERANCE, False),
        (Domain.F64, 1000, 0.9 * GRAM_TOLERANCE / 1000, True),
        (Domain.F64, 1000, 1.1 * GRAM_TOLERANCE / 1000, False),
        (Domain.RATIONAL, 1, Fraction(1, 10 ** 12), False),
    ])
    def test_gram_tolerance_is_absolute_and_float_only(self, domain, q, shear, ok):
        # the off-diagonal entries of M^T Q M - Q are q * shear
        phi = OrthogonalMap.build(Context.make(domain, default=q), (1, 2),
                                  ((1, 0), (shear, 1)))
        assert phi.gram_preserving() is ok

    @pytest.mark.parametrize("domain, nan", [(Domain.F64, float("nan")),
                                             (Domain.C64, complex("nan"))])
    def test_a_nan_entry_fails_the_gram_check(self, domain, nan):
        ctx = Context.make(domain)
        for matrix in (((nan, 0), (0, 1)), ((1, nan), (0, 1))):
            phi = OrthogonalMap.build(ctx, (1, 2), matrix)
            assert phi.gram_preserving() is False
            with pytest.raises(NotOrthogonalError):
                bogolyubov_apply(phi, Multivector.generator(ctx, 1))

    def test_each_generator_image_is_built_once_per_call(self, rng, monkeypatch):
        image, calls = OrthogonalMap.image, []
        for phi in [random_orthogonal(rng) for _ in range(5)]:
            a = random_dense(rng, CTX, 8, 60)  # active on 1..6; 7 and 8 fixed
            monkeypatch.setattr(OrthogonalMap, "image",
                                lambda phi, k: calls.append(k) or image(phi, k))
            calls.clear()
            got = bogolyubov_apply(phi, a)
            monkeypatch.undo()
            assert sorted(calls) == sorted(set(calls))
            assert set(calls) == set(phi.active) | a.support()
            assert_per_blade(phi, a)
            assert got == bogolyubov_apply(phi, a)

    def test_multiplicative(self, rng):
        for _ in range(25):
            phi = random_orthogonal(rng)
            a = random_multivector(rng, CTX, max_index=6, max_terms=3)
            b = random_multivector(rng, CTX, max_index=6, max_terms=3)
            assert bogolyubov_apply(phi, mv_product(a, b)) == \
                mv_product(bogolyubov_apply(phi, a), bogolyubov_apply(phi, b))

    def test_composition(self, rng):
        for _ in range(15):
            phi = random_orthogonal(rng)
            rho = random_orthogonal(rng)
            a = random_multivector(rng, CTX, max_index=6, max_terms=3)
            assert bogolyubov_apply(phi.compose(rho), a) == \
                bogolyubov_apply(phi, bogolyubov_apply(rho, a))

    def test_norm_preservation(self, rng):
        for _ in range(25):
            phi = random_orthogonal(rng)
            a = random_multivector(rng, CTX, max_index=6)
            assert norm(bogolyubov_apply(phi, a)) == norm(a)

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    def test_matches_the_per_blade_products(self, domain, rng):
        # each blade's image multiplied left to right from the unit, alone
        for ctx in (Context.make(domain), Context.make(domain, overrides={7: Fraction(-1, 2)})):
            for _ in range(6):
                rational = random_orthogonal(rng)
                phi = OrthogonalMap.build(ctx, rational.active, rational.matrix)
                assert_per_blade(phi, random_dense(rng, ctx, 8, rng.choice((0, 1, 12, 40))))

    @pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
    def test_a_blade_of_grade_1200(self, domain):
        # one loop step per generator, so no depth limit applies
        ctx = Context.make(domain)
        phi = OrthogonalMap.build(ctx, (1, 2), [[0, -1], [1, 0]])
        top = Blade.of(*range(1, 1201))
        assert_per_blade(phi, Multivector(ctx, {top: 3, Blade(top ^ 1): -1,
                                                Blade(top ^ 1 << 1199): 2}))

    def test_parity_preserved(self, rng):
        from cliffalg.core import parity_project
        phi = random_orthogonal(rng)
        a = random_multivector(rng, CTX, max_index=6)
        for part in ("even", "odd"):
            image = bogolyubov_apply(phi, parity_project(a, part))
            assert parity_project(image, part) == image


def random_map(rng, ctx):
    """A map on 1-4 active generators: a signed permutation, in the Gaussian
    domain maybe times the complex rotation (5/3, -4/3 i; 4/3 i, 5/3), with
    one entry changed in about half the maps."""
    n = rng.randint(1, 4)
    active = tuple(rng.sample(range(1, 8), n))
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for col, row in enumerate(rng.sample(range(n), n)):
        matrix[row][col] = Fraction(rng.choice((1, -1)))
    if ctx.domain is Domain.GAUSSIAN and n > 1 and rng.random() < 0.7:
        c, s = Fraction(5, 3), GaussianRational.of(0, Fraction(4, 3))
        for row in matrix:  # times the rotation on the first two columns
            row[0], row[1] = c * row[0] + s * row[1], c * row[1] - s * row[0]
    if rng.random() < 0.5:
        r, k = rng.randrange(n), rng.randrange(n)
        matrix[r][k] += Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
    return OrthogonalMap.build(ctx, active, matrix)


class TestExactGramCheck:
    """Entry (a, b) of M^T Q M read as tr(phi(v_a) rev(phi(v_b))) on the
    images, against the matrix formula."""

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.GAUSSIAN],
                             ids=lambda d: d.value)
    @pytest.mark.parametrize("default, overrides", [
        (1, {}), (Fraction(-2, 3), {}), (1, {2: -1, 3: Fraction(1, 2), 5: 3})],
        ids=["unit", "scaled", "mixed"])
    def test_matches_the_matrix_formula(self, domain, default, overrides, rng):
        ctx = Context.make(domain, default, overrides)
        verdicts = set()
        for _ in range(60):
            phi = random_map(rng, ctx)
            M, active, zero = phi.matrix, phi.active, 0 * ctx.q(1)
            want = True
            for a, ka in enumerate(active):
                for b, kb in enumerate(active):
                    entry = sum((M[r][a] * ctx.q(k) * M[r][b]
                                 for r, k in enumerate(active)), zero)
                    got = _rev_pairing(phi.image(ka), phi.image(kb))
                    assert got == entry and type(got) is type(entry)
                    want &= entry == (ctx.q(ka) if a == b else 0)
            assert phi.gram_preserving() is want
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_gaussian_maps_are_bilinear_not_hermitian(self):
        # M^T M = I for this complex rotation, while M* M != I
        s = GaussianRational.of(0, Fraction(4, 3))
        phi = OrthogonalMap.build(Context.make(Domain.GAUSSIAN), (1, 2),
                                  ((Fraction(5, 3), -s), (s, Fraction(5, 3))))
        assert phi.gram_preserving() is True


def random_float_map(rng, ctx):
    """A map on 2-4 active generators: a product of plane rotations (in c64
    some by (cosh t, -i sinh t; i sinh t, cosh t), orthogonal and not
    unitary), with one entry moved, set to nan or set to an infinity in
    about half the maps."""
    n, c64 = rng.randint(2, 4), ctx.domain is Domain.C64
    active = tuple(rng.sample(range(1, 8), n))
    matrix = [[float(r == k) for k in range(n)] for r in range(n)]
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        t = rng.uniform(-1.5, 1.5)
        c, s = ((cmath.cosh(t), 1j * cmath.sinh(t)) if c64 and rng.random() < 0.5
                else (math.cos(t), math.sin(t)))
        for row in matrix:
            row[i], row[j] = c * row[i] + s * row[j], c * row[j] - s * row[i]
    if rng.random() < 0.5:
        r, k = rng.randrange(n), rng.randrange(n)
        matrix[r][k] = rng.choice((matrix[r][k] + rng.choice((-1, 1)) * 10 ** rng.uniform(-4, 0),
                                   math.nan, math.inf, -math.inf,
                                   complex(1, math.nan) if c64 else -math.nan))
    return OrthogonalMap.build(ctx, active, matrix)


class TestFloatGramCheck:
    """Float entries read through the pairing give the verdicts of the
    matrix formula sum(M[r][a] * q_r * M[r][b])."""

    @staticmethod
    def matrix_verdict(phi):
        ctx, M, active = phi.context, phi.matrix, phi.active
        zero = scalars.zero(ctx.domain)
        return all(abs(sum((M[r][a] * ctx.q(k) * M[r][b] for r, k in enumerate(active)),
                           zero) - (ctx.q(active[a]) if a == b else zero)) <= GRAM_TOLERANCE
                   for a in range(len(active)) for b in range(a, len(active)))

    @pytest.mark.parametrize("domain", [Domain.F64, Domain.C64], ids=lambda d: d.value)
    @pytest.mark.parametrize("default", [1, -2.5], ids=["unit", "scaled"])
    def test_verdicts_match_the_matrix_formula(self, domain, default, rng):
        ctx = Context.make(domain, default)
        verdicts = set()
        for _ in range(150):
            phi = random_float_map(rng, ctx)
            want = self.matrix_verdict(phi)
            assert phi.gram_preserving() is want
            verdicts.add(want)
        assert verdicts == {True, False}


class TestConjugation:
    def test_by_unit(self, rng):
        a = random_multivector(rng, CTX)
        u = Multivector.unit(CTX)
        assert conjugation_apply(u, u, a) == a

    def test_by_generator(self):
        v1 = gen(1)
        assert conjugation_apply(v1, v1, gen(2)) == -gen(2)

    def test_by_bivector(self):
        u = Multivector.blade(CTX, Blade.of(1, 2))
        u_inv = -u
        assert conjugation_apply(u, u_inv, gen(1)) == -gen(1)

    def test_bad_certificate(self):
        with pytest.raises(NotInverseError):
            conjugation_apply(gen(1), gen(2), gen(3))

    def test_is_multiplicative_and_unital(self, rng):
        u = Multivector.unit(CTX) + Multivector.blade(CTX, Blade.of(1, 2))
        u_inv = (Multivector.unit(CTX) -
                 Multivector.blade(CTX, Blade.of(1, 2))).scale(Fraction(1, 2))
        assert conjugation_apply(u, u_inv, Multivector.unit(CTX)) == \
            Multivector.unit(CTX)
        for _ in range(25):
            a = random_multivector(rng, CTX, max_terms=3)
            b = random_multivector(rng, CTX, max_terms=3)
            assert conjugation_apply(u, u_inv, mv_product(a, b)) == \
                mv_product(conjugation_apply(u, u_inv, a),
                           conjugation_apply(u, u_inv, b))
