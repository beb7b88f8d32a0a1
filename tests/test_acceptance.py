"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail
line to the real stdout so the verdicts survive pytest's capture.
"""

import io
import itertools
import random
import sys
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from cliffalg.automorphisms import bogolyubov_apply
from cliffalg.cli import run
from cliffalg.core import (Blade, Context, Multivector, blade_product,
                           mv_product)
from cliffalg.derivations import (AdFamily, SkewMap, ad_apply,
                                  bogolyubov_derivation,
                                  derivation_restricts_to_V, extract_even,
                                  extract_odd, family_apply, inner_witness)
from cliffalg.errors import NotBogolyubovError
from cliffalg.expr import parse
from cliffalg.locmat import (FactorShape, LocalAutomorphism,
                             limit_automorphism_apply, tp_product,
                             witness_sequence)
from cliffalg.matrix_rep import build_rep, normalized_trace, represent
from cliffalg.render import render
from cliffalg.scalars import Domain
from cliffalg.tensor_decomp import (chain_build, commutator_check,
                                    factor_basis, phi_apply,
                                    rewrite_generator, spanning_rank)
from cliffalg.trace_norm import norm, trace

from conftest import naive_blade_product, random_multivector
from test_cli import GOLDEN_CASES
from test_automorphisms import random_orthogonal
from test_locmat import random_element

GOLDEN = Path(__file__).parent / "golden"

CTX = Context.make()
GCTX = Context.make(Domain.GAUSSIAN)


@contextmanager
def criterion(capsys, label):
    # escape pytest's capture so the verdict line always reaches the terminal
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {label}", flush=True)
        raise
    with capsys.disabled():
        print(f"[PASS] {label}", flush=True)


def test_1_blade_product_oracle_and_clifford_relations(capsys):
    ctx = Context.make(overrides={2: 3, 5: Fraction(-1, 2), 7: -1})
    sig = ctx
    with criterion(capsys, "1 blade product matches rewriting oracle; "
                   "Clifford relations hold (indices <= 8)"):
        blades = [Blade(bits) for bits in range(1 << 8)]
        for a, b in itertools.product(blades, repeat=2):
            coeff, result = blade_product(a, b, sig)
            want_coeff, want_seq = naive_blade_product(
                a.indices, b.indices, sig.q)
            assert coeff == want_coeff
            assert result.indices == want_seq
        zero = Multivector.zero(ctx)
        for i in range(1, 9):
            vi = Multivector.generator(ctx, i)
            for j in range(1, 9):
                vj = Multivector.generator(ctx, j)
                anti = mv_product(vi, vj) + mv_product(vj, vi)
                if i == j:
                    assert anti == Multivector.scalar(ctx, 2 * sig.q(i))
                else:
                    assert anti == zero


def test_2_commuting_factor_decomposition_at_truncations(capsys):
    with criterion(capsys, "2 factor chains: homomorphic injective factors, "
                   "commuting blocks, generator rewriting, full span"):
        for cuts, ctx in [((2, 6), CTX), ((2, 6, 10), CTX),
                          ((2, 4), GCTX), ((2, 4, 8), GCTX)]:
            chain = chain_build(cuts, ctx)
            for i in range(1, len(cuts) + 1):
                block = list(chain.block(i))
                blades = [Blade.from_indices(p for b, p in enumerate(block)
                                             if mask >> b & 1)
                          for mask in range(1 << len(block))]
                images = factor_basis(chain, i)
                # injective on the block: distinct single-blade images
                assert len({next(iter(img.terms)) for img in images}) == \
                    len(blades)
                for bu, bw in itertools.product(blades, repeat=2):
                    u = Multivector.blade(ctx, bu)
                    w = Multivector.blade(ctx, bw)
                    assert phi_apply(chain, i, mv_product(u, w)) == \
                        mv_product(phi_apply(chain, i, u),
                                   phi_apply(chain, i, w))
                for j in range(1, len(cuts) + 1):
                    if i != j:
                        assert commutator_check(chain, i, j)
            for k in range(1, cuts[-1] + 1):
                prod = Multivector.unit(ctx)
                for f in rewrite_generator(chain, k):
                    prod = mv_product(prod, f)
                assert prod == Multivector.generator(ctx, k)
            assert spanning_rank(chain) == 2 ** cuts[-1]


def _random_family(rng, parity, max_index=10, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        size = rng.choice((2, 4) if parity == "even" else (1, 3))
        indices = sorted(rng.sample(range(1, max_index + 1), size))
        num = rng.randint(-6, 6)
        terms[Blade.from_indices(indices)] = Fraction(num if num else 1,
                                                      rng.randint(1, 5))
    return AdFamily.finite(CTX, parity, terms.items())


def test_3_ad_sum_extraction_round_trips(capsys):
    rng = random.Random(3)
    with criterion(capsys, "3 even/odd ad-sum extraction: 200 exact round trips, "
                   "zero case, Leibniz"):
        extractors = {"even": extract_even, "odd": extract_odd}
        for parity in ("even", "odd"):
            for _ in range(100):
                family = _random_family(rng, parity)
                bound = 10
                table = {k: family_apply(
                    family, Multivector.generator(CTX, k))
                    for k in range(1, bound + 2)}
                got = extractors[parity](table, bound, CTX)
                assert got == list(family.terms)
                a = random_multivector(rng, CTX, max_terms=3)
                b = random_multivector(rng, CTX, max_terms=3)
                assert family_apply(family, mv_product(a, b)) == \
                    mv_product(family_apply(family, a), b) + \
                    mv_product(a, family_apply(family, b))
            zero_table = {k: Multivector.zero(CTX) for k in range(1, 12)}
            assert extractors[parity](zero_table, 10, CTX) == []


def _random_skew(rng, max_index=10, max_pairs=4):
    pairs = {}
    for _ in range(rng.randint(1, max_pairs)):
        i, j = sorted(rng.sample(range(1, max_index + 1), 2))
        num = rng.randint(-6, 6)
        pairs[(i, j)] = Fraction(num if num else 1, rng.randint(1, 5))
    return SkewMap.from_pairs(CTX, pairs)


def test_4_bogolyubov_derivations_and_inner_witness(capsys):
    rng = random.Random(4)
    with criterion(capsys, "4 skew maps: derivation restricts to V, inversion, "
                   "inner witness, 4-blade rejection"):
        for _ in range(100):
            psi = _random_skew(rng)
            family = bogolyubov_derivation(psi)
            u = inner_witness(psi)
            for k in range(1, 11):
                vk = Multivector.generator(CTX, k)
                assert family_apply(family, vk) == psi.apply(k)
                assert ad_apply(u, vk) == psi.apply(k)
            assert derivation_restricts_to_V(family) == psi
        quad = AdFamily.finite(CTX, "even", [(Blade.of(1, 2, 3, 4), 1)])
        with pytest.raises(NotBogolyubovError):
            derivation_restricts_to_V(quad)


def test_5_matrix_trace_coherence(capsys):
    rng = random.Random(5)
    with criterion(capsys, "5 normalized matrix traces agree across sizes and "
                   "equal the algebra trace; trace is tracial; tr(1) = 1"):
        reps = {k: build_rep(k) for k in (1, 2, 3, 4)}
        for bits in range(1 << 6):
            blade = Blade(bits)
            a = Multivector.blade(GCTX, blade)
            values = [normalized_trace(represent(reps[k], a))
                      for k in (1, 2, 3, 4) if 2 * k >= blade.max_index]
            assert all(v == values[0] for v in values)
            assert values[0] == trace(a)
        for _ in range(100):
            a = random_multivector(rng, CTX)
            b = random_multivector(rng, CTX)
            assert trace(mv_product(a, b)) == trace(mv_product(b, a))
        assert trace(Multivector.unit(CTX)) == 1
        assert normalized_trace(reps[2].identity()) == 1


def test_6_norm_closed_form_and_known_discrepancy(capsys):
    rng = random.Random(6)
    with criterion(capsys, "6 norm equals sum of squared coefficients; "
                   "||(1+v1)^2|| = 8 > 4 = ||1+v1||^2"):
        for _ in range(100):
            a = random_multivector(rng, CTX)
            assert norm(a) == sum(c * c for c in a.terms.values())
        one_plus = Multivector.unit(CTX) + Multivector.generator(CTX, 1)
        assert norm(mv_product(one_plus, one_plus)) == 8
        assert norm(one_plus) ** 2 == 4
        assert norm(mv_product(one_plus, one_plus)) > norm(one_plus) ** 2


def test_7_discontinuity_witness_and_limit_automorphism(capsys):
    rng = random.Random(7)
    with criterion(capsys, "7 witness pairs are exactly (1/(2n^2), 1/2); "
                   "limit automorphism is multiplicative"):
        shape = FactorShape()
        pairs = witness_sequence(10, shape)
        assert pairs == [(Fraction(1, 2 * n * n), Fraction(1, 2))
                         for n in range(1, 11)]
        assert all(a > b for (a, _), (b, _) in zip(pairs, pairs[1:]))
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert run(["witness", "--n", "10", "--m", "2"]) == 0
        lines = buf.getvalue().splitlines()
        for n in range(1, 11):
            assert lines[n - 1] == f"n={n}: (1/{2 * n * n}, 1/2)"
        assert lines[10] == "NON-CONTINUOUS: ||b_n|| -> 0, ||phi(b_n)|| = 1/2"
        phi = LocalAutomorphism.index_scaling(shape)
        for _ in range(50):
            a = random_element(rng)
            b = random_element(rng)
            assert limit_automorphism_apply(phi, tp_product(a, b)) == \
                tp_product(limit_automorphism_apply(phi, a),
                           limit_automorphism_apply(phi, b))


def test_8_bogolyubov_automorphisms(capsys):
    rng = random.Random(8)
    with criterion(capsys, "8 orthogonal maps induce automorphisms: multiplicative, "
                   "compositional, norm preserving"):
        for _ in range(100):
            phi = random_orthogonal(rng)
            rho = random_orthogonal(rng)
            a = random_multivector(rng, CTX, max_index=6, max_terms=3)
            b = random_multivector(rng, CTX, max_index=6, max_terms=3)
            assert bogolyubov_apply(phi, mv_product(a, b)) == \
                mv_product(bogolyubov_apply(phi, a), bogolyubov_apply(phi, b))
            assert bogolyubov_apply(phi.compose(rho), a) == \
                bogolyubov_apply(phi, bogolyubov_apply(rho, a))
            assert norm(bogolyubov_apply(phi, a)) == norm(a)


def test_9_cli_conformance(capsys):
    rng = random.Random(9)
    with criterion(capsys, "9 CLI: golden outputs, parse round trips, exit codes"):
        for name, argv in GOLDEN_CASES.items():
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert run(argv) == 0
            assert buf.getvalue() == (GOLDEN / name).read_text()
        for _ in range(50):
            canonical = render(random_multivector(rng, CTX))
            assert render(parse(canonical, CTX)) == canonical
        err = io.StringIO()
        sys_stderr, sys.stderr = sys.stderr, err
        try:
            assert run(["eval", "e1*"]) == 2
            assert run(["eval", "@nope"]) == 2
            assert run(["auto", "conjugate", "--u", "e1", "--u-inv", "e2",
                        "e3"]) == 1
        finally:
            sys.stderr = sys_stderr
        assert err.getvalue().count("error:") == 3
