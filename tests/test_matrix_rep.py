from fractions import Fraction

import pytest

from cliffalg import matrix_rep
from cliffalg.cli import REP_CHECK_MAX_K
from cliffalg.core import Blade, Context, Multivector, mv_product, reverse
from cliffalg.errors import SupportRangeError, UnsupportedDomainError
from cliffalg.matrix_rep import (_PHASES, _ZERO, PAULI_X, PAULI_Y, PAULI_Z,
                                 MatrixRep, _check_representable,
                                 _trace_phase, _word_trace,
                                 blade_images_independent,
                                 build_rep, normalized_trace,
                                 rep_verify, represent,
                                 verify_trace_coherence, word_product)
from cliffalg.scalars import Domain, GaussianRational
from cliffalg.trace_norm import trace

from conftest import (conj_transpose, identity, kron, mat_add, mat_mul,
                      mat_scale, random_dense, random_multivector, zeros)

GCTX = Context.make(Domain.GAUSSIAN)
I_UNIT = GaussianRational.of(0, 1)


def _gens(rep):
    """The dense generator images."""
    return tuple(represent(rep, Multivector.generator(GCTX, j))
                 for j in range(1, 2 * rep.k + 1))


def _word_matrix(word, k):
    """The dense matrix of one word: the image of e1 in a rep led by it."""
    rep = MatrixRep(k=k, words=(word,), dim=2 ** k)
    return represent(rep, Multivector.generator(GCTX, 1))


def test_k1_generators_are_x_and_y():
    rep = build_rep(1)
    assert _gens(rep) == (PAULI_X, PAULI_Y)
    assert rep.dim == 2
    ident = rep.identity()
    assert mat_mul(PAULI_X, PAULI_X) == ident
    assert mat_mul(PAULI_Y, PAULI_Y) == ident
    assert mat_add(mat_mul(PAULI_X, PAULI_Y),
                   mat_mul(PAULI_Y, PAULI_X)) == \
        zeros(2, GaussianRational.of(0))


def test_k1_product_of_generators_is_i_z():
    rep = build_rep(1)
    got = represent(rep, Multivector.blade(GCTX, Blade.of(1, 2)))
    assert got == mat_scale(PAULI_Z, I_UNIT)
    assert normalized_trace(got) == 0


def test_generator_relations_exhaustive():
    for k in (2, 3):
        rep = build_rep(k)
        ident = rep.identity()
        zero = zeros(rep.dim, GaussianRational.of(0))
        gens = _gens(rep)
        for a in range(2 * k):
            assert mat_mul(gens[a], gens[a]) == ident
            for b in range(a + 1, 2 * k):
                anti = mat_add(mat_mul(gens[a], gens[b]),
                               mat_mul(gens[b], gens[a]))
                assert anti == zero


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_faithfulness(k):
    assert blade_images_independent(build_rep(k))


def _dense_oracle(k):
    """Generators as Kronecker products and blade images as ordered
    generator products, both written out densely."""
    zero, one = GaussianRational.of(0), GaussianRational.of(1)
    gens = []
    for j in range(1, k + 1):
        for pauli in (PAULI_X, PAULI_Y):
            m = identity(1, zero, one)
            for pos in range(1, k + 1):
                factor = PAULI_Z if pos < j else pauli if pos == j else \
                    identity(2, zero, one)
                m = kron(m, factor)
            gens.append(m)
    blades = {}
    for bits in range(1 << (2 * k)):
        m = identity(2 ** k, zero, one)
        for i in reversed(Blade(bits).indices):
            m = mat_mul(gens[i - 1], m)
        blades[bits] = m
    return tuple(gens), blades


def _rank(matrices):
    """Exact rank of the matrices as vectors, by Gaussian elimination."""
    rows = [[x for row in m for x in row] for m in matrices]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / top[col]
            rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


@pytest.mark.parametrize("k", [1, 2, 3])
def test_words_match_the_dense_oracle(k):
    rep = build_rep(k)
    gens, blades = _dense_oracle(k)
    assert _gens(rep) == gens
    for bits, want in blades.items():
        got = represent(rep, Multivector.blade(GCTX, Blade(bits)))
        assert got == want
        assert all(type(x) is GaussianRational for row in got for x in row)
    # sums over unequal denominators in both exact contexts; the only blades
    # with no X part are 1 and, from k = 2, v1 v2 v3 v4 = -Z Z, so that the
    # (0, 0) entry of their equal-weight sum cancels
    zero, dim = GaussianRational.of(0), 2 ** k
    moving = [bits for bits in blades if rep.blade_word(bits)[1]]
    for ctx, c in ((Context.make(Domain.RATIONAL), Fraction(-5, 6)),
                   (GCTX, GaussianRational(Fraction(2, 5), Fraction(-1, 7)))):
        terms = {bits: c * Fraction(1 + bits % 5, 1 + bits % 7) for bits in moving}
        terms.update({0: Fraction(1, 4), 15: Fraction(1, 4)} if k > 1 else {0: 1})
        want = zeros(dim, zero)
        for bits, value in terms.items():
            want = mat_add(want, mat_scale(blades[bits], GaussianRational.of(0) + value))
        got = represent(rep, Multivector(ctx, {Blade(b): x for b, x in terms.items()}))
        assert got == want
        assert all(type(x) is GaussianRational for row in got for x in row)
        assert (got[0][0] == 0) == (k > 1)


def test_word_product_matches_matrix_product(rng):
    # ascending blade products never move a Z past an X of the same factor,
    # so random words are needed to exercise the sign of word_product
    words = [(rng.randrange(4), rng.randrange(4), rng.randrange(4))
             for _ in range(40)]
    dense = [_word_matrix(w, 2) for w in words]
    for a in range(0, 40, 2):
        b = a + 1
        product = _word_matrix(word_product(words[a], words[b]), 2)
        assert product == mat_mul(dense[a], dense[b])


@pytest.mark.parametrize("k", [5, 6, 8])
def test_faithfulness_at_large_k(k):
    assert blade_images_independent(build_rep(k))


@pytest.mark.parametrize("words", [
    ((0, 0b01, 0b10), (0, 0b10, 0b11), (0, 0b11, 0b01), (0, 0b01, 0b00)),
    ((0, 0b00, 0b00), (1, 0b01, 0b00), (0, 0b10, 0b00), (0, 0b00, 0b10)),
    ((0, 0b10, 0b00), (1, 0b10, 0b10), (0, 0b01, 0b10), (2, 0b10, 0b00)),
], ids=["sum-of-two", "identity-word", "repeated-up-to-phase"])
def test_gf2_check_rejects_dependent_words(words):
    rep = MatrixRep(k=2, words=words, dim=4)
    assert not blade_images_independent(rep)
    # the dense images are dependent too
    images = [represent(rep, Multivector.blade(GCTX, Blade(bits)))
              for bits in range(16)]
    assert _rank(images) < 16


def test_gf2_check_on_one_factor():
    # X and i X on one factor: the blade e1*e2 maps to a multiple of 1
    clash = MatrixRep(k=1, words=((0, 1, 0), (1, 1, 0)), dim=2)
    assert not blade_images_independent(clash)
    images = [represent(clash, Multivector.blade(GCTX, Blade(bits)))
              for bits in range(4)]
    assert _rank(images) < 4


@pytest.mark.parametrize("k", [1, 2])
def test_rank_oracle_sees_the_ladder_images_independent(k):
    rep = build_rep(k)
    images = [represent(rep, Multivector.blade(GCTX, Blade(bits)))
              for bits in range(1 << (2 * k))]
    assert _rank(images) == 4 ** k


def test_represent_examples():
    rep = build_rep(1)
    assert represent(rep, Multivector.generator(GCTX, 1)) == PAULI_X
    one_plus_v1 = Multivector.unit(GCTX) + Multivector.generator(GCTX, 1)
    got = represent(rep, one_plus_v1)
    one = GaussianRational.of(1)
    assert got == ((one, one), (one, one))


def test_represent_is_homomorphism(rng):
    rep = build_rep(3)
    for _ in range(20):
        a = random_multivector(rng, GCTX, max_index=6, max_terms=3)
        b = random_multivector(rng, GCTX, max_index=6, max_terms=3)
        assert represent(rep, mv_product(a, b)) == \
            mat_mul(represent(rep, a), represent(rep, b))


def test_represent_range_and_signature_errors():
    rep = build_rep(1)
    with pytest.raises(SupportRangeError):
        represent(rep, Multivector.generator(GCTX, 3))
    skew_ctx = Context.make(Domain.GAUSSIAN, overrides={1: 2})
    with pytest.raises(UnsupportedDomainError):
        represent(rep, Multivector.generator(skew_ctx, 1))


def test_blade_traces():
    rep = build_rep(3)
    for bits in range(1, 2 ** 6):
        image = represent(rep, Multivector.blade(GCTX, Blade(bits)))
        assert normalized_trace(image) == 0
    assert normalized_trace(represent(rep, Multivector.unit(GCTX))) == 1


def test_equality_ignores_the_blade_cache():
    warm, cold = build_rep(2), build_rep(2)
    warm.blade_word(3)
    assert warm == cold


def test_reversal_is_conjugate_transpose(rng):
    rep = build_rep(2)
    for _ in range(20):
        a = random_multivector(rng, GCTX, max_index=4, max_terms=3)
        assert represent(rep, reverse(a)) == \
            conj_transpose(represent(rep, a))


class TestTraceCoherence:
    def test_bivector(self):
        a = Multivector.blade(GCTX, Blade.of(1, 2))
        assert verify_trace_coherence(a, 1, 2)
        assert trace(a) == 0

    def test_unit(self):
        assert verify_trace_coherence(Multivector.unit(GCTX), 1, 3)

    def test_linear_combination(self):
        a = Multivector.unit(GCTX) + Multivector.generator(GCTX, 1)
        assert verify_trace_coherence(a, 1, 2)

    def test_precondition(self):
        with pytest.raises(SupportRangeError):
            verify_trace_coherence(Multivector.generator(GCTX, 5), 1, 2)

    def test_needs_q_one_on_the_support(self):
        skew = Context.make(Domain.GAUSSIAN, overrides={2: -1})
        with pytest.raises(UnsupportedDomainError, match="q == 1"):
            verify_trace_coherence(Multivector.generator(skew, 2), 1, 2)
        # q != 1 off the support is allowed
        assert verify_trace_coherence(Multivector.generator(skew, 1), 1, 2)
        scaled = Context.make(Domain.RATIONAL, default=2, overrides={1: 1})
        assert verify_trace_coherence(Multivector.generator(scaled, 1), 1, 2)
        with pytest.raises(UnsupportedDomainError, match="q == 1"):
            verify_trace_coherence(Multivector.blade(scaled, Blade.of(1, 2)), 1, 2)

    @pytest.mark.parametrize("domain", [Domain.F64, Domain.C64],
                             ids=lambda d: d.value)
    def test_needs_an_exact_domain(self, domain):
        ctx = Context.make(domain)
        for a in (Multivector.unit(ctx), Multivector.generator(ctx, 1)):
            with pytest.raises(UnsupportedDomainError, match="exact"):
                verify_trace_coherence(a, 1, 2)


class TestWordTrace:
    """The certificate's traces, read from words, against the dense oracle."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_blade(self, k):
        # rep_verify reads each blade's trace by bitmask through _trace_phase
        rep = build_rep(k)
        for bits in range(1 << (2 * k)):
            a = Multivector.blade(GCTX, Blade(bits))
            want = normalized_trace(represent(rep, a))
            assert _word_trace(rep, a) == want
            p = _trace_phase(rep.blade_word(bits))
            assert (_ZERO if p is None else _PHASES[p]) == want

    @pytest.mark.parametrize("domain", [Domain.RATIONAL, Domain.GAUSSIAN],
                             ids=lambda d: d.value)
    def test_random_multivectors(self, domain, rng):
        ctx = Context.make(domain)
        for _ in range(200):
            k = rng.randint(1, 3)
            rep = build_rep(k)
            a = random_dense(rng, ctx, 2 * k, rng.randint(0, 10))
            if rng.random() < 0.5:
                a = a + Multivector.unit(ctx)
            got = _word_trace(rep, a)
            assert got == normalized_trace(represent(rep, a))
            assert got == trace(a)

    def test_phases_of_identity_words(self):
        # every blade word of a ladder rep but the unit's is traceless, so
        # only hand-built words reach the phases i, -1 and -i
        one = GaussianRational.of(1)
        for p, want in enumerate((one, I_UNIT, -one, -I_UNIT)):
            rep = MatrixRep(k=1, words=((p, 0, 0),), dim=2)
            a = Multivector.generator(GCTX, 1)
            assert _word_trace(rep, a) == want == \
                normalized_trace(represent(rep, a))

    def test_random_words(self, rng):
        # words i^p X^x Z^z of every kind, identity words among them
        for _ in range(100):
            words = tuple((rng.randrange(4), rng.randrange(4) * (rng.random() < 0.5),
                           rng.randrange(4) * (rng.random() < 0.5))
                          for _ in range(4))
            rep = MatrixRep(k=2, words=words, dim=4)
            a = random_dense(rng, GCTX, 4, rng.randint(1, 6))
            assert _word_trace(rep, a) == normalized_trace(represent(rep, a))

    def test_shares_the_guards_of_represent(self):
        # the word reading is unguarded: verify_trace_coherence checks its
        # argument once, with the guard represent uses
        rep = build_rep(1)
        with pytest.raises(SupportRangeError):
            represent(rep, Multivector.generator(GCTX, 3))
        with pytest.raises(SupportRangeError):
            verify_trace_coherence(Multivector.generator(GCTX, 3), 1, 1)
        skew = Context.make(Domain.GAUSSIAN, overrides={1: 2})
        f64 = Context.make(Domain.F64)
        for a in (Multivector.generator(skew, 1), Multivector.unit(f64)):
            for check in (lambda: _check_representable(a),
                          lambda: represent(rep, a),
                          lambda: verify_trace_coherence(a, 1, 1)):
                with pytest.raises(UnsupportedDomainError):
                    check()


@pytest.mark.parametrize("max_k", [1, 2, 3])
def test_rep_verify_names_and_verdicts(max_k):
    checks = rep_verify(max_k)
    assert [name for name, _ in checks] == \
        [f"trace coherence k={k} vs k={max_k}" for k in range(1, max_k)] + \
        [f"faithfulness k={k}" for k in range(1, max_k + 1)]
    assert all(ok is True for _, ok in checks)


def test_rep_verify_at_the_cli_limit():
    checks = rep_verify(REP_CHECK_MAX_K)
    assert len(checks) == 2 * REP_CHECK_MAX_K - 1
    assert all(ok is True for _, ok in checks)


def test_rep_verify_writes_no_dense_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense matrix written")
    monkeypatch.setattr(matrix_rep, "_dense", refuse)
    with pytest.raises(AssertionError):
        represent(build_rep(1), Multivector.unit(GCTX))
    assert all(ok for _, ok in rep_verify(4))


def test_certificates_check_their_argument_once(monkeypatch):
    calls = []
    check = matrix_rep._check_representable
    monkeypatch.setattr(matrix_rep, "_check_representable",
                        lambda a: calls.append(a) or check(a))
    a = Multivector.unit(GCTX) + Multivector.generator(GCTX, 1)
    assert verify_trace_coherence(a, 1, 3)
    assert calls == [a]

    # rep_verify reads words by bitmask: no multivector, no guard
    def refuse(*args, **kwargs):
        raise AssertionError("multivector built or checked")
    monkeypatch.setattr(Multivector, "__init__", refuse)
    monkeypatch.setattr(Context, "require_unit", refuse)
    assert all(ok for _, ok in rep_verify(4))
    assert calls == [a]


def _coherent_by_bitmask(small, large):
    """rep_verify's verdict read through the cached blade_word, blade by blade."""
    return all(_trace_phase(small.blade_word(bits)) ==
               _trace_phase(large.blade_word(bits)) == (None if bits else 0)
               for bits in range(1 << (2 * small.k)))


def test_depth_first_walk_matches_the_blade_words(rng):
    # ladder reps, and hand-built ones whose words can be traceless or not
    pairs = [(build_rep(k), build_rep(k + d)) for k in (1, 2, 3) for d in (0, 1, 2)]
    for _ in range(60):
        k = rng.randint(1, 3)
        reps = [MatrixRep(k=j, words=tuple(
                    (rng.randrange(4), rng.randrange(1 << j) * (rng.random() < 0.8),
                     rng.randrange(1 << j)) for _ in range(2 * j)), dim=2 ** j)
                for j in (k, k + 1)]
        pairs.append(tuple(reps))
    verdicts = [matrix_rep._coherent(small, large) for small, large in pairs]
    assert verdicts == [_coherent_by_bitmask(small, large) for small, large in pairs]
    assert True in verdicts and False in verdicts


def test_rep_verify_keeps_no_blade_words(monkeypatch):
    def refuse(*args):
        raise AssertionError("blade word cached")
    monkeypatch.setattr(MatrixRep, "blade_word", refuse)
    checks = rep_verify(5)
    assert len(checks) == 9 and all(ok for _, ok in checks)


def test_rep_verify_needs_a_representation():
    with pytest.raises(ValueError):
        rep_verify(0)
