"""Seeded workload generators.

`generate(workload, seed)` returns the pool of operations one run cycles
through.  Inputs come only from `random.Random(f"{workload}:{seed}")`, so the
same seed gives the same pool; the library sees only the generated inputs.
The schedule (which kind of operation runs at which position, on which
domain and size) is fixed, and the seed draws the operands, so two seeds do
the same kind and amount of work on different data.

Each Op has `run(L)`, which calls the library through the namespace `L`,
and `check(result)`, which compares a result with an answer the benchmark
knows independently: the rewriting oracle, a closed form, or the verdict
the certificate is built to give.  cli_mix ops also have `replay(L)`, which
repeats the request's steps through the public functions.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from time import perf_counter_ns
from typing import Callable

from cliffalg.core import Blade, Context, Multivector
from cliffalg.derivations import AdStream, OrthogonalMap, SkewMap
from cliffalg.errors import NotAdSumError, NotInverseError, NotOrthogonalError
from cliffalg.locmat import FactorShape, TensorElement
from cliffalg.matrix_rep import build_rep
from cliffalg.scalars import Domain, GaussianRational
from cliffalg.tensor_decomp import chain_build

import oracle

WORKLOADS = ("dense_kernel", "certify", "cli_mix")


# Time generate() spends in library constructors (contexts, chains, reps,
# multivectors, maps, tensor elements): run.py's setup_s counts it, and not
# the time of the benchmark's own input drawing and oracle tables.
build_ns = 0


def _build(make, *args):
    """make(*args), with its time added to build_ns."""
    global build_ns
    t0 = perf_counter_ns()
    out = make(*args)
    build_ns += perf_counter_ns() - t0
    return out


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable
    replay: Callable | None = None


def generate(workload: str, seed: int) -> list[Op]:
    rng = Random(f"{workload}:{seed}")
    return {"dense_kernel": dense_kernel, "certify": certify,
            "cli_mix": cli_mix}[workload](rng)


def probe(seed: int) -> list[Op]:
    """The first operation of every kind of every workload.

    Each schedule puts the smallest instance of a kind first, so this is a
    short pass that reaches every layer; runs end with it so that every
    layer is checked, and traced, on every workload.
    """
    ops = []
    for workload in WORKLOADS:
        seen = set()
        for op in generate(workload, seed):
            if op.kind not in seen:
                seen.add(op.kind)
                ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# shared input helpers
# ---------------------------------------------------------------------------

def _rational(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 8))


def _scalar(rng, domain: Domain):
    r = _rational(rng)
    if domain is Domain.RATIONAL:
        return r
    if domain is Domain.GAUSSIAN:
        im = _rational(rng) if rng.random() < 0.75 else Fraction(0)
        return GaussianRational(r, im)
    if domain is Domain.F64:
        return float(r)
    return complex(float(r), float(_rational(rng)))


def _indices(bits: int) -> tuple:
    return tuple(k + 1 for k in range(bits.bit_length()) if bits >> k & 1)


def _raw(rng, domain, n, terms, parity=None) -> dict:
    """{indices: coeff} with `terms` distinct blades on generators 1..n."""
    pool = [b for b in range(1 << n)
            if parity is None or bin(b).count("1") % 2 == parity]
    return {_indices(b): _scalar(rng, domain) for b in rng.sample(pool, terms)}


def _mv(ctx: Context, raw: dict) -> Multivector:
    return _build(lambda: Multivector(ctx, {Blade.from_indices(s): c
                                            for s, c in raw.items()}))


def _plain(raw: dict) -> dict:
    return {s: oracle.plain(c) for s, c in raw.items()}


def _qfun(overrides: dict, domain: Domain):
    conv = float if not domain.is_exact else (lambda v: v)
    q = {k: conv(v) for k, v in overrides.items()}
    return lambda k: q.get(k, 1)


def _grade_sign(indices) -> int:
    r = len(indices)
    return -1 if (r * (r - 1) // 2) & 1 else 1


# ---------------------------------------------------------------------------
# dense_kernel: core + scalars
# ---------------------------------------------------------------------------

DENSE_DOMAINS = (Domain.RATIONAL, Domain.F64, Domain.C64, Domain.GAUSSIAN)
DENSE_NS = (6, 8, 10)
Q_CHOICES = (Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(3),
             Fraction(-1, 3))
COMBINE_OPERANDS = 16
ORACLE_SAMPLE = 0.25


def dense_kernel(rng) -> list[Op]:
    overrides = {k: rng.choice(Q_CHOICES) for k in rng.sample(range(1, 7), 3)}
    ops = []
    slot = itertools.count()
    for n, signed, domain in itertools.product(DENSE_NS, (False, True), DENSE_DOMAINS):
        over = overrides if signed else {}
        ctx = _build(Context.make, domain, 1,
                     {k: _in_domain(v, domain) for k, v in over.items()})
        q = _qfun(over, domain)
        exact = domain.is_exact

        def operand():
            raw = _raw(rng, domain, n, (30, 40, 50, 60)[next(slot) % 4])
            return raw, _mv(ctx, raw)

        (a_raw, a), (b_raw, b) = operand(), operand()
        ops.append(_product_op(a_raw, a, b_raw, b, q, exact,
                               rng.random() < ORACLE_SAMPLE))
        c_raw, c = operand()
        ops.append(_rev_trace_op(a_raw, a, c_raw, c, q, exact))
        pairs_raw = [(_scalar(rng, domain), operand()) for _ in range(COMBINE_OPERANDS)]
        ops.append(_combine_op(pairs_raw, exact))
        if domain.is_real:
            ops.append(_norm_op(b_raw, b, q, exact))
        if n == DENSE_NS[0]:
            chain = [operand() for _ in range(4)]
            ops.append(_chain_op(chain, q, exact))
    return ops


def _in_domain(value: Fraction, domain: Domain):
    return value if domain.is_exact else float(value)


def _product_op(a_raw, a, b_raw, b, q, exact, sampled) -> Op:
    def run(L):
        return L.core.mv_product(a, b)

    def check(result):
        got = oracle.as_map(result)
        # every product: its scalar part, sum_S a_S b_S v_S v_S
        want_trace = sum((c * oracle.plain(b_raw[s]) * _grade_sign(s)
                          * oracle.metric_weight(s, q)
                          for s, c in _plain(a_raw).items() if s in b_raw), 0)
        if not oracle.scalar_equal(got.get((), 0), want_trace, exact,
                                   _magnitude(a_raw) * _magnitude(b_raw)):
            return False
        if not sampled:
            return True
        return oracle.map_equal(got, oracle.product(_plain(a_raw), _plain(b_raw), q),
                                exact)

    return Op("dense.product", run, check)


def _magnitude(raw) -> float:
    """Sum of |coeff|, the scale of float round-off (unused for exact domains)."""
    return sum(abs(c) for c in raw.values() if isinstance(c, (float, complex)))


def _rev_trace_op(a_raw, a, b_raw, b, q, exact) -> Op:
    def run(L):
        return L.trace_norm.trace(L.core.mv_product(a, L.core.reverse(b)))

    def check(result):
        want = oracle.pairing(_plain(a_raw), _plain(b_raw), q)
        return oracle.scalar_equal(result, want, exact,
                                   _magnitude(a_raw) * _magnitude(b_raw))

    return Op("dense.rev_trace", run, check)


def _combine_op(pairs_raw, exact) -> Op:
    pairs = [(value, mv) for value, (_, mv) in pairs_raw]

    def run(L):
        return L.core.linear_combine(pairs)

    def check(result):
        want = oracle.combine([(oracle.plain(value), _plain(raw))
                               for value, (raw, _) in pairs_raw])
        return oracle.map_equal(oracle.as_map(result), want, exact)

    return Op("dense.combine", run, check)


def _norm_op(a_raw, a, q, exact) -> Op:
    def run(L):
        return L.trace_norm.norm(a)

    def check(result):
        # norm(a) = sum_S c_S^2 * prod_{k in S} q_k
        want = sum((c * c * oracle.metric_weight(s, q) for s, c in a_raw.items()), 0)
        return oracle.scalar_equal(result, want, exact, _magnitude(a_raw) ** 2)

    return Op("dense.norm", run, check)


def _chain_op(chain, q, exact) -> Op:
    mvs = [mv for _, mv in chain]

    def run(L):
        p = mvs[0]
        for f in mvs[1:]:
            p = L.core.mv_product(p, f)
        return p

    def check(result):
        want = _plain(chain[0][0])
        for raw, _ in chain[1:]:
            want = oracle.product(want, _plain(raw), q)
        return oracle.map_equal(oracle.as_map(result), want, exact)

    return Op("dense.chain4", run, check)


# ---------------------------------------------------------------------------
# certify: one structural certificate per operation
# ---------------------------------------------------------------------------

CUTS = ((2, 6), (4, 8), (2, 6, 10))
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))
EXTRACT_BOUND = 8
WITNESS_N = 200
CERTIFY_ROUNDS = 8


def certify(rng) -> list[Op]:
    rat = _build(Context.make, Domain.RATIONAL)
    gauss = _build(Context.make, Domain.GAUSSIAN)
    chain_ctx = {cuts: gauss if any(n % 4 == 0 for n in cuts) else rat for cuts in CUTS}
    chains = {cuts: _build(chain_build, cuts, chain_ctx[cuts]) for cuts in CUTS}
    warm = {k: _build(build_rep, k) for k in (1, 2, 3)}
    makers = [
        lambda r: _phi_op(rng, chains[CUTS[r % 3]], 1 + r // 3 % len(CUTS[r % 3])),
        lambda r: _commute_op(CUTS[r % 3], chain_ctx[CUTS[r % 3]]),
        lambda r: _rewrite_op(rng, chains[CUTS[r % 3]]),
        lambda r: _span_op(chains[CUTS[r % 3]]),
        lambda r: _rep_trace_op(rng, gauss, warm, 1 + r % 3, warm=r % 2 == 0),
        lambda r: _coherence_op(rng, gauss, ((1, 2), (1, 3))[r % 2]),
        lambda r: _faithful_op(warm, 3 if r % 4 == 3 else 2, warm=r % 8 != 7),
        lambda r: _extract_op(rng, rat, ("even", "odd")[r % 2], failing=r % 4 == 3),
        lambda r: _stream_op(rng, rat),
        lambda r: _inner_op(rng, rat),
        lambda r: _bogolyubov_op(rng, rat, failing=r % 4 == 3),
        lambda r: _conjugate_op(rng, rat, failing=r % 4 == 3),
        lambda r: _tensor_op(rng),
        lambda r: _witness_op(WITNESS_N if r else 20),
    ]
    return [make(r) for r in range(CERTIFY_ROUNDS) for make in makers]


def _block_mv(rng, ctx, block, terms) -> tuple[dict, Multivector]:
    raw = {}
    for bits in rng.sample(range(1, 1 << len(block)), min(terms, (1 << len(block)) - 1)):
        raw[tuple(p for b, p in enumerate(block) if bits >> b & 1)] = _scalar(rng, ctx.domain)
    return raw, _mv(ctx, raw)


def _phi_op(rng, chain, i) -> Op:
    block = list(chain.block(i))
    (_, u), (_, w) = _block_mv(rng, chain.context, block, 16), _block_mv(rng, chain.context, block, 16)

    def run(L):
        td = L.tensor_decomp
        pu, pw = td.phi_apply(chain, i, u), td.phi_apply(chain, i, w)
        round_trip = td.phi_inverse(chain, i, pu) == u
        uw = L.core.mv_product(u, w)
        multiplicative = td.phi_apply(chain, i, uw) == L.core.mv_product(pu, pw)
        return round_trip, multiplicative

    return Op("certify.phi", run, lambda result: result == (True, True))


def _commute_op(cuts, ctx) -> Op:
    t = len(cuts)

    def run(L):
        chain = L.tensor_decomp.chain_build(cuts, ctx)
        return all(L.tensor_decomp.commutator_check(chain, i, j)
                   for i in range(1, t + 1) for j in range(i + 1, t + 1))

    return Op("certify.commute", run, lambda result: result is True)


def _rewrite_op(rng, chain) -> Op:
    k = rng.randint(1, chain.cuts[-1])
    want = {(k,): 1}

    def run(L):
        factors = L.tensor_decomp.rewrite_generator(chain, k)
        prod = factors[0]
        for f in factors[1:]:
            prod = L.core.mv_product(prod, f)
        return prod

    return Op("certify.rewrite", run, lambda result: oracle.as_map(result) == want)


def _span_op(chain) -> Op:
    def run(L):
        return L.tensor_decomp.spanning_rank(chain)

    return Op("certify.span", run, lambda result: result == 2 ** chain.cuts[-1])


def _rep_trace_op(rng, ctx, reps, k, warm) -> Op:
    raw = _raw(rng, Domain.GAUSSIAN, 2 * k, min(8, 4 ** k - 1))
    a = _mv(ctx, raw)
    want = oracle.plain(raw.get((), GaussianRational.of(0)))

    def run(L):
        rep = reps[k] if warm else L.matrix_rep.build_rep(k)
        return L.matrix_rep.normalized_trace(L.matrix_rep.represent(rep, a))

    return Op("certify.rep_trace", run, lambda result: oracle.plain(result) == want)


def _coherence_op(rng, ctx, sizes) -> Op:
    k_small, k_large = sizes
    a = _mv(ctx, _raw(rng, Domain.GAUSSIAN, 2 * k_small, min(6, 4 ** k_small - 1)))

    def run(L):
        return L.matrix_rep.verify_trace_coherence(a, k_small, k_large)

    return Op("certify.rep_coherence", run, lambda result: result is True)


def _faithful_op(reps, k, warm) -> Op:
    def run(L):
        rep = reps[k] if warm else L.matrix_rep.build_rep(k)
        return L.matrix_rep.blade_images_independent(rep)

    return Op("certify.rep_faithful", run, lambda result: result is True)


def _ad_action(family: dict, x: dict, q) -> dict:
    """sum_S alpha_S * (v_S x - x v_S) by the rewriting oracle."""
    out = {}
    for s, alpha in family.items():
        left = oracle.product({s: alpha}, x, q)
        right = oracle.product(x, {s: alpha}, q)
        for blade, c in left.items():
            out[blade] = out.get(blade, 0) + c
        for blade, c in right.items():
            out[blade] = out.get(blade, 0) - c
    return {blade: c for blade, c in out.items() if c}


def _extract_op(rng, ctx, parity, failing) -> Op:
    want_parity = 0 if parity == "even" else 1
    family = _raw(rng, Domain.RATIONAL, EXTRACT_BOUND, 24, parity=want_parity)
    family.pop((), None)
    probes = EXTRACT_BOUND + (0 if parity == "even" else 1)
    q = _qfun({}, Domain.RATIONAL)
    table = {k: _mv(ctx, _ad_action(family, {(k,): Fraction(1)}, q))
             for k in range(1, probes + 1)}
    if failing:
        # a scalar in D(v_1) is the action of no ad-sum
        table[1] = _mv(ctx, {**oracle.as_map(table[1]), (): Fraction(1)})
    want = "NotAdSumError" if failing else sorted(family.items())

    def run(L):
        extract = L.derivations.extract_even if parity == "even" \
            else L.derivations.extract_odd
        try:
            terms = extract(table, EXTRACT_BOUND, ctx)
        except NotAdSumError:
            return "NotAdSumError"
        return sorted((blade.indices, c) for blade, c in terms)

    return Op("certify.extract", run, lambda result: result == want)


def _stream_op(rng, ctx) -> Op:
    alphas = [_rational(rng) for _ in range(EXTRACT_BOUND)]
    x_raw = _raw(rng, Domain.RATIONAL, EXTRACT_BOUND, 60)
    x = _mv(ctx, x_raw)
    cutoff = lambda m: (m + 1) // 2  # blade {2j-1, 2j} has min index 2j-1
    top = max(max(s) for s in x_raw if s)
    used = {(2 * j + 1, 2 * j + 2): alphas[j] for j in range(cutoff(top))}
    want = _ad_action(used, x_raw, _qfun({}, Domain.RATIONAL))

    def run(L):
        stream = AdStream(ctx, "even",
                          ((Blade.of(2 * j + 1, 2 * j + 2), a) for j, a in enumerate(alphas)),
                          cutoff)
        return L.derivations.family_apply(stream, x)

    return Op("certify.stream_apply", run, lambda result: oracle.as_map(result) == want)


def _random_skew(rng, ctx, n, entries) -> SkewMap:
    pairs = {}
    for i, j in rng.sample(list(itertools.combinations(range(1, n + 1), 2)), entries):
        pairs[(i, j)] = _rational(rng)
    return _build(SkewMap.from_pairs, ctx, pairs)


def _inner_op(rng, ctx) -> Op:
    psi = _random_skew(rng, ctx, n=8, entries=6)
    x = _mv(ctx, _raw(rng, Domain.RATIONAL, 8, 40))

    def run(L):
        d = L.derivations
        family = d.bogolyubov_derivation(psi)
        u = d.inner_witness(psi)
        return d.family_apply(family, x) == d.ad_apply(u, x)

    return Op("certify.inner", run, lambda result: result is True)


def _rotation_map(rng, ctx, scale=1) -> tuple[OrthogonalMap, OrthogonalMap]:
    """Block-diagonal exact rotations by Pythagorean triples, and the inverse."""
    active = rng.sample(range(1, 7), 4)
    blocks = [rng.choice(PYTHAGOREAN) for _ in range(2)]
    fwd = [[Fraction(0)] * 4 for _ in range(4)]
    inv = [[Fraction(0)] * 4 for _ in range(4)]
    for b, (x, y, h) in enumerate(blocks):
        c, s = Fraction(x, h), Fraction(y, h)
        o = 2 * b
        fwd[o][o], fwd[o][o + 1], fwd[o + 1][o], fwd[o + 1][o + 1] = c * scale, -s, s, c
        inv[o][o], inv[o][o + 1], inv[o + 1][o], inv[o + 1][o + 1] = c, s, -s, c
    return (_build(OrthogonalMap.build, ctx, active, fwd),
            _build(OrthogonalMap.build, ctx, active, inv))


def _bogolyubov_op(rng, ctx, failing) -> Op:
    phi, phi_inv = _rotation_map(rng, ctx, scale=2 if failing else 1)
    a = _mv(ctx, _raw(rng, Domain.RATIONAL, 6, 24))

    def run(L):
        try:
            b = L.automorphisms.bogolyubov_apply(phi, a)
        except NotOrthogonalError:
            return "NotOrthogonalError"
        back = L.automorphisms.bogolyubov_apply(phi_inv, b)
        return back == a, L.trace_norm.norm(b) == L.trace_norm.norm(a)

    want = "NotOrthogonalError" if failing else (True, True)
    return Op("certify.bogolyubov", run, lambda result: result == want)


def _conjugate_op(rng, ctx, failing) -> Op:
    i, j = sorted(rng.sample(range(1, 7), 2))
    x, y = _rational(rng), _rational(rng)
    # (x + y B)^-1 = (x - y B) / (x^2 + y^2) for a bivector B with B^2 = -1
    d = x * x + y * y
    u = _mv(ctx, {(): x, (i, j): y})
    u_inv = _mv(ctx, {(): x / d * (2 if failing else 1), (i, j): -y / d})
    a_raw = _raw(rng, Domain.RATIONAL, 8, 40)
    a = _mv(ctx, a_raw)

    def run(L):
        try:
            c = L.automorphisms.conjugation_apply(u, u_inv, a)
        except NotInverseError:
            return "NotInverseError"
        back = L.automorphisms.conjugation_apply(u_inv, u, c)
        return back == a, L.trace_norm.trace(c)

    want = "NotInverseError" if failing else (True, a_raw.get((), 0))
    return Op("certify.conjugate", run, lambda result: result == want)


def _random_matrix(rng):
    return tuple(tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
                       for _ in range(2)) for _ in range(2))


IDENTITY_2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def _tensor(rng, shape, first):
    """Two terms on factors (first, first+1) and (first+1, first+2).

    The element starting at factor 2 carries an explicit identity factor and
    the one starting at 3 a zero-coefficient term: TensorElement keeps both
    as given.  The structure is fixed so that every seed does the same work.
    """
    out = []
    for lo in (first, first + 1):
        coeff = Fraction(0) if (first, lo) == (3, 4) else _rational(rng)
        factors = {i: IDENTITY_2 if (first, i) == (2, 2) else _random_matrix(rng)
                   for i in (lo, lo + 1)}
        out.append((coeff, factors))
    return out, _build(TensorElement.build, shape, out)


def _tensor_op(rng) -> Op:
    # the supports overlap and always cover factors 1..5, so each
    # certificate flattens to the same 32 x 32 size
    shape = _build(FactorShape, Domain.RATIONAL)
    (a_raw, a), (_, b), (_, c) = (_tensor(rng, shape, first) for first in (1, 2, 3))
    want = (True, oracle.tp_norm(a_raw, 2))

    def run(L):
        lm = L.locmat
        left = lm.tp_product(lm.tp_product(a, b), c)
        right = lm.tp_product(a, lm.tp_product(b, c))
        return lm.tp_eq(left, right), lm.tp_norm(a)

    return Op("certify.tensor", run, lambda result: result == want)


def _witness_op(n_max) -> Op:
    # ||b_n|| = 1/(2 n^2) and ||phi(b_n)|| = 1/2 for 2x2 factors
    want = [(Fraction(1, 2 * n * n), Fraction(1, 2)) for n in range(1, n_max + 1)]

    def run(L):
        return L.locmat.witness_sequence(n_max)

    return Op("certify.witness", run, lambda result: result == want)


# ---------------------------------------------------------------------------
# cli_mix: in-process cli.run on a seeded request stream
# ---------------------------------------------------------------------------

CLI_DOMAINS = (Domain.RATIONAL, Domain.GAUSSIAN, Domain.F64)
CLI_ROUNDS = 24


def cli_mix(rng) -> list[Op]:
    makers = [_cli_eval, _cli_trace, _cli_norm, _cli_deriv_apply, _cli_deriv_extract,
              _cli_deriv_bogolyubov, _cli_inner_witness, _cli_auto_bogolyubov,
              _cli_auto_conjugate, _cli_decomp_build, _cli_decomp_check,
              _cli_decomp_rewrite, _cli_rep_check, _cli_witness]
    ops = []
    for r in range(CLI_ROUNDS):
        # round 0 is small and valid (probe() takes it); then about one request
        # in eight carries a failing certificate (exit 1) and one a malformed
        # argument (exit 2), where the subcommand has such a case
        variant = "ok" if r % 8 not in (5, 7) else ("fail" if r % 8 == 5 else "bad")
        for make in makers:
            as_json = r % 2 == 1 if r < 2 else rng.random() < 0.5
            ops.append(make(rng, variant, as_json, r))
    return ops


@dataclass
class _Request:
    argv: list
    expect: int
    replay: Callable | None = None  # replay(L) -> stdout text without the last newline
    known: str | None = None        # stdout fixed by the certificate's known verdict


def _cli_op(kind, req: _Request) -> Op:
    def run(L):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = L.cli.run(req.argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        if code != req.expect:
            return False
        if req.expect:
            return out == "" and "error:" in err
        want = req.known if req.known is not None else req.replay(_plain_lib())
        return out == want + "\n" and err == ""

    return Op(kind, run, check, req.replay)


_PLAIN = []


def _plain_lib():
    if not _PLAIN:
        from spans import plain_lib
        _PLAIN.append(plain_lib())
    return _PLAIN[0]


def _flags(domain, as_json) -> list:
    return ["--domain", domain.value] + (["--json"] if as_json else [])


def _coeff_text(domain, value) -> str:
    if isinstance(value, GaussianRational):
        if value.im == 0:
            return f"({value.re})"
        return f"({value.re} + ({value.im})*i)"
    return f"({value})"


def _expr_text(raw: dict, domain) -> str:
    terms = []
    for s, c in raw.items():
        blade = "*".join(f"e{k}" for k in s)
        terms.append(_coeff_text(domain, c) + (f"*{blade}" if blade else ""))
    return " + ".join(terms) if terms else "0"


def _cli_scalar(rng, domain):
    """Coefficients the expression grammar accepts in every CLI domain."""
    if domain is Domain.GAUSSIAN:
        return GaussianRational(_rational(rng), _rational(rng) if rng.random() < 0.5 else Fraction(0))
    return _rational(rng)


def _random_expr(rng, domain, r) -> str:
    """Round 0 is a two-term sum; later rounds cycle through three shapes."""
    def part(terms):
        raw = {_indices(b): _cli_scalar(rng, domain)
               for b in rng.sample(range(1 << 5), terms)}
        return _expr_text(raw, domain)

    if r == 0:
        return part(2)
    shape = r % 3
    if shape == 0:
        return part(3 + r % 4)
    if shape == 1:
        return f"({part(3)})*({part(3)})"
    return f"rev({part(3)}) + ({part(2)})^2"


def _cli_domain(rng, r):
    return CLI_DOMAINS[r % len(CLI_DOMAINS)]


def _emit_mv(L, mv, as_json) -> str:
    if as_json:
        return json.dumps(L.serialize.multivector_to_json(mv))
    return L.render.render(mv)


def _emit_scalar(L, domain, value, as_json) -> str:
    text = L.scalars.format_scalar(domain, value)
    return json.dumps({"value": text}) if as_json else text


def _json_value(domain, value):
    return float(value) if domain is Domain.F64 else str(value)


def _cli_eval(rng, variant, as_json, r):
    domain = _cli_domain(rng, r)
    text = _random_expr(rng, domain, r)
    if variant == "bad":
        return _cli_op("cli.eval", _Request(_flags(domain, as_json) + ["eval", text + " *"], 2))
    if variant == "fail" and domain is not Domain.GAUSSIAN:
        # 'i' outside a complex domain is a domain error, exit 1
        return _cli_op("cli.eval", _Request(_flags(domain, as_json) + ["eval", f"{text} + i"], 1))
    ctx = Context.make(domain)
    return _cli_op("cli.eval", _Request(
        _flags(domain, as_json) + ["eval", text], 0,
        lambda L: _emit_mv(L, L.expr.parse(text, ctx), as_json)))


def _cli_trace(rng, variant, as_json, r):
    domain = _cli_domain(rng, r)
    text = _random_expr(rng, domain, r)
    if variant == "bad":
        return _cli_op("cli.trace", _Request(_flags(domain, as_json) + ["trace", "foo + " + text], 2))
    ctx = Context.make(domain)
    return _cli_op("cli.trace", _Request(
        _flags(domain, as_json) + ["trace", text], 0,
        lambda L: _emit_scalar(L, domain, L.trace_norm.trace(L.expr.parse(text, ctx)), as_json)))


def _cli_norm(rng, variant, as_json, r):
    domain = Domain.GAUSSIAN if variant == "fail" else \
        (Domain.RATIONAL, Domain.F64)[r % 2]
    text = _random_expr(rng, domain, r)
    ctx = Context.make(domain)
    replay = lambda L: _emit_scalar(L, domain, L.trace_norm.norm(L.expr.parse(text, ctx)), as_json)
    if variant == "fail":
        # the norm is defined over real domains only, exit 1
        return _cli_op("cli.norm", _Request(_flags(domain, as_json) + ["norm", text], 1, replay))
    return _cli_op("cli.norm", _Request(_flags(domain, as_json) + ["norm", text], 0, replay))


def _family_json(rng, domain, parity, n, terms):
    want = 0 if parity == "even" else 1
    blades = [b for b in range(1, 1 << n) if bin(b).count("1") % 2 == want]
    return {"parity": parity,
            "terms": [{"blade": list(_indices(b)),
                       "coeff": _json_value(domain, _rational(rng))}
                      for b in rng.sample(blades, terms)]}


def _cli_deriv_apply(rng, variant, as_json, r):
    domain = _cli_domain(rng, r)
    family = _family_json(rng, domain, ("even", "odd")[r // 3 % 2], 5, 1 if r == 0 else 3)
    text = _random_expr(rng, domain, r)
    if variant == "bad":
        fam = json.dumps(family)[:-1]
        return _cli_op("cli.deriv-apply", _Request(
            _flags(domain, as_json) + ["deriv", "apply", "--family", fam, text], 2))
    ctx = Context.make(domain)

    def replay(L):
        fam = L.serialize.family_from_json(family, ctx)
        return _emit_mv(L, L.derivations.family_apply(fam, L.expr.parse(text, ctx)), as_json)

    return _cli_op("cli.deriv-apply", _Request(
        _flags(domain, as_json) + ["deriv", "apply", "--family", json.dumps(family), text],
        0, replay))


def _cli_deriv_extract(rng, variant, as_json, r):
    domain = (Domain.RATIONAL, Domain.GAUSSIAN)[r // 2 % 2]
    parity = ("even", "odd")[r % 2]
    bound = 2 if r == 0 else 3 + r // 2 % 2
    want = 0 if parity == "even" else 1
    blades = [b for b in range(1, 1 << bound) if bin(b).count("1") % 2 == want]
    family = {_indices(b): _rational(rng) for b in rng.sample(blades, min(2, len(blades)))}
    probes = bound + (0 if parity == "even" else 1)
    q = _qfun({}, Domain.RATIONAL)
    actions = {k: _ad_action(family, {(k,): Fraction(1)}, q) for k in range(1, probes + 1)}
    if variant == "fail":
        actions[1] = {**actions[1], (): Fraction(1)}
    table = {"actions": {str(k): _expr_text(a, domain) for k, a in actions.items()}}
    argv = _flags(domain, as_json) + ["deriv", "extract", "--parity", parity,
                                      "--bound", str(bound), "--table", json.dumps(table)]
    ctx = Context.make(domain)

    def replay(L):
        parsed = {int(k): L.expr.parse(v, ctx) for k, v in table["actions"].items()}
        extract = L.derivations.extract_even if parity == "even" else L.derivations.extract_odd
        terms = extract(parsed, bound, ctx)
        return json.dumps({"parity": parity,
                           "terms": [{"blade": list(b.indices),
                                      "coeff": L.scalars.format_scalar(domain, c)}
                                     for b, c in terms]})

    return _cli_op("cli.deriv-extract", _Request(argv, 1 if variant == "fail" else 0, replay))


def _skew_json(rng, domain, entries):
    pairs = rng.sample(list(itertools.combinations(range(1, 7), 2)), entries)
    return {"entries": [{"i": i, "j": j, "value": _json_value(domain, _rational(rng))}
                        for i, j in pairs]}


def _cli_deriv_bogolyubov(rng, variant, as_json, r):
    domain = _cli_domain(rng, r)
    skew = _skew_json(rng, domain, 1 if r == 0 else 3)
    if variant == "bad":
        return _cli_op("cli.deriv-bogolyubov", _Request(
            _flags(domain, as_json) + ["deriv", "bogolyubov", "--skew", "{oops"], 2))
    ctx = Context.make(domain)

    def replay(L):
        psi = L.serialize.skew_from_json(skew, ctx)
        return json.dumps(L.serialize.family_to_json(L.derivations.bogolyubov_derivation(psi)))

    return _cli_op("cli.deriv-bogolyubov", _Request(
        _flags(domain, as_json) + ["deriv", "bogolyubov", "--skew", json.dumps(skew)], 0, replay))


def _cli_inner_witness(rng, variant, as_json, r):
    domain = _cli_domain(rng, r)
    skew = _skew_json(rng, domain, 1 if r == 0 else 3)
    ctx = Context.make(domain)

    def replay(L):
        return _emit_mv(L, L.derivations.inner_witness(L.serialize.skew_from_json(skew, ctx)),
                        as_json)

    return _cli_op("cli.deriv-inner-witness", _Request(
        _flags(domain, as_json) + ["deriv", "inner-witness", "--skew", json.dumps(skew)],
        0, replay))


def _cli_auto_bogolyubov(rng, variant, as_json, r):
    domain = _cli_domain(rng, r)
    x, y, h = rng.choice(PYTHAGOREAN)
    scale = 2 if variant == "fail" else 1
    c, s = Fraction(x, h), Fraction(y, h)
    matrix = [[c * scale, -s], [s, c]]
    omap = {"active": sorted(rng.sample(range(1, 6), 2)),
            "matrix": [[_json_value(domain, v) for v in row] for row in matrix]}
    text = _random_expr(rng, domain, r)
    ctx = Context.make(domain)

    def replay(L):
        phi = L.serialize.orthogonal_from_json(omap, ctx)
        return _emit_mv(L, L.automorphisms.bogolyubov_apply(phi, L.expr.parse(text, ctx)),
                        as_json)

    return _cli_op("cli.auto-bogolyubov", _Request(
        _flags(domain, as_json) + ["auto", "bogolyubov", "--map", json.dumps(omap), text],
        1 if variant == "fail" else 0, replay))


def _cli_auto_conjugate(rng, variant, as_json, r):
    domain = _cli_domain(rng, r)
    i, j = sorted(rng.sample(range(1, 6), 2))
    if r == 0:
        u, u_inv = f"e{i}", f"e{i}"
    else:
        if domain is Domain.F64:
            # powers of two keep u * u_inv == 1 exact in floating point
            y = Fraction(2) ** rng.randint(-2, 2)
            x = rng.choice((-1, 1)) * y
        else:
            x, y = _rational(rng), _rational(rng)
        d = x * x + y * y
        wrong = 2 if variant == "fail" else 1
        u = f"({x}) + ({y})*e{i}*e{j}"
        u_inv = f"({x / d * wrong}) - ({y / d})*e{i}*e{j}"
    text = _random_expr(rng, domain, r)
    ctx = Context.make(domain)

    def replay(L):
        p = L.expr.parse
        return _emit_mv(L, L.automorphisms.conjugation_apply(p(u, ctx), p(u_inv, ctx),
                                                             p(text, ctx)), as_json)

    return _cli_op("cli.auto-conjugate", _Request(
        _flags(domain, as_json) + ["auto", "conjugate", "--u", u, "--u-inv", u_inv, text],
        1 if variant == "fail" and r else 0, replay))


def _cut_choice(r):
    """Small factor chains: (2, 6) over rational or f64, (2, 4) needs i."""
    if r % 3 != 2:
        return (2, 6), (Domain.RATIONAL, Domain.F64)[r % 2]
    return (2, 4), Domain.GAUSSIAN


def _cli_decomp_build(rng, variant, as_json, r):
    cuts, domain = _cut_choice(r)
    if variant == "fail":
        cuts = (3, 6)
    cut_text = ",".join(map(str, cuts))
    ctx = Context.make(domain)

    def replay(L):
        chain = L.tensor_decomp.chain_build(cuts, ctx)
        if as_json:
            return json.dumps(L.serialize.chain_to_json(chain))
        lines = [f"cuts: {cut_text}"]
        for i, (c, adj) in enumerate(zip(chain.c, chain.adjusted), start=1):
            lines.append(f"c_{i} = {L.render.render(c)}" + (" (rescaled by i)" if adj else ""))
        return "\n".join(lines)

    return _cli_op("cli.decomp-build", _Request(
        _flags(domain, as_json) + ["decomp", "build", "--cuts", cut_text],
        1 if variant == "fail" else 0, replay))


def _cli_decomp_check(rng, variant, as_json, r):
    cuts, domain = _cut_choice(r)
    t, n_t = len(cuts), cuts[-1]
    ctx = Context.make(domain)
    known = [line for i in range(1, t + 1)
             for line in (f"phi_{i} multiplicative: OK", f"phi_{i} injective: OK")]
    known += [f"[A_{i}, A_{j}] = 0: OK" for i in range(1, t + 1) for j in range(i + 1, t + 1)]
    known += [f"rewrite v_{k}: OK" for k in range(1, n_t + 1)]
    known.append(f"span rank 2^{n_t}: OK")

    def replay(L):
        td = L.tensor_decomp
        chain = td.chain_build(cuts, ctx)
        for i in range(1, t + 1):
            td.factor_basis(chain, i)
        for i in range(1, t + 1):
            for j in range(i + 1, t + 1):
                td.commutator_check(chain, i, j)
        for k in range(1, n_t + 1):
            factors = td.rewrite_generator(chain, k)
            prod = factors[0]
            for f in factors[1:]:
                prod = L.core.mv_product(prod, f)
        td.spanning_rank(chain)
        return "\n".join(known)

    return _cli_op("cli.decomp-check", _Request(
        _flags(domain, as_json) + ["decomp", "check", "--cuts", ",".join(map(str, cuts))],
        0, replay, "\n".join(known)))


def _cli_decomp_rewrite(rng, variant, as_json, r):
    cuts, domain = _cut_choice(r)
    k = rng.randint(1, cuts[-1])
    argv = _flags(domain, as_json) + ["decomp", "rewrite", "--cuts", ",".join(map(str, cuts))]
    if variant == "bad":
        return _cli_op("cli.decomp-rewrite", _Request(argv, 2))
    ctx = Context.make(domain)

    def replay(L):
        factors = L.tensor_decomp.rewrite_generator(L.tensor_decomp.chain_build(cuts, ctx), k)
        prod = factors[0]
        for f in factors[1:]:
            prod = L.core.mv_product(prod, f)
        lines = [f"factor {pos}: {L.render.render(f)}" for pos, f in enumerate(factors, start=1)]
        lines.append(f"product = {L.render.render(prod)}: OK")
        return "\n".join(lines)

    return _cli_op("cli.decomp-rewrite", _Request(argv + ["--k", str(k)], 0, replay))


def _cli_rep_check(rng, variant, as_json, r):
    max_k = 1 + r % 2
    gauss = Context.make(Domain.GAUSSIAN)
    known = [f"trace coherence k={k} vs k={max_k}: OK" for k in range(1, max_k)]
    known += [f"faithfulness k={k}: OK" for k in range(1, max_k + 1)]

    def replay(L):
        mr = L.matrix_rep
        for k_small in range(1, max_k):
            for bits in range(1 << (2 * k_small)):
                mr.verify_trace_coherence(Multivector.blade(gauss, Blade(bits)), k_small, max_k)
        for k in range(1, max_k + 1):
            mr.blade_images_independent(mr.build_rep(k))
        return "\n".join(known)

    return _cli_op("cli.rep-check", _Request(
        (["--json"] if as_json else []) + ["rep", "check", "--max-k", str(max_k)],
        0, replay, "\n".join(known)))


def _cli_witness(rng, variant, as_json, r):
    n = 3 + r * 7 % 18
    m = (2, 4)[r // 2 % 2]
    # ||b_n|| = 1/(2 n^2) and ||phi(b_n)|| = 1/2 for any even factor size
    known = [f"n={i}: ({Fraction(1, 2 * i * i)}, 1/2)" for i in range(1, n + 1)]
    known.append("NON-CONTINUOUS: ||b_n|| -> 0, ||phi(b_n)|| = 1/2")

    def replay(L):
        L.locmat.witness_sequence(n, FactorShape(Domain.RATIONAL, m))
        return "\n".join(known)

    return _cli_op("cli.witness", _Request(
        (["--json"] if as_json else []) + ["witness", "--n", str(n), "--m", str(m)],
        0, replay, "\n".join(known)))
