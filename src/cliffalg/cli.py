"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage, syntax or size-limit
error, 141 (128 + SIGPIPE) when stdout is closed early, as by `| head`.
All failures go to stderr with an `error:` prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import matrix_rep, scalars, serialize
from .automorphisms import bogolyubov_apply, conjugation_apply
from .core import Blade, Context, Multivector
from .derivations import (bogolyubov_derivation, derivation_restricts_to_V,
                          family_apply, extract_even, extract_odd,
                          inner_witness)
from .errors import CliffordError, DigitLimitError, ParseError
from .expr import parse
from .locmat import FactorShape, witness_sequence
from .render import render
from .scalars import Domain
from .tensor_decomp import (chain_build, commutator_check, factor_basis,
                            phi_apply, rewrite_generator, spanning_rank)
from .trace_norm import norm, trace

VERIFICATION_FAILURE = 1
USAGE_ERROR = 2
BROKEN_PIPE = 141

# Size limits for the checks whose work grows fast with their argument: each
# takes about 2 s at its limit on a 2-vCPU VM.  `rep check --max-k k` builds
# 2**k x 2**k matrices for every blade on up to 2k - 2 generators, and
# `witness --n n` computes n pairs of exact norms.
REP_CHECK_MAX_K = 6
WITNESS_MAX_N = 5000


def _in_range(flag: str, value: int, low: int, high: int) -> int:
    if not low <= value <= high:
        raise ValueError(f"{flag} must be between {low} and {high}, got {value}")
    return value


def _load_json(value: str):
    """Accept a literal JSON string or @path-to-file."""
    if value.startswith("@"):
        with open(value[1:], encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(value)


def _context(args) -> Context:
    domain = None
    default = 1
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        domain = Domain(cfg["domain"]) if "domain" in cfg else None
        sig = cfg.get("signature", {})
        default = sig.get("default", 1)
        overrides = sig.get("overrides", {})
    if args.domain:
        domain = Domain(args.domain)
    if args.signature:
        sig = _load_json(args.signature)
        default = sig.get("default", default)
        overrides = sig.get("overrides", overrides)
    domain = domain or Domain.RATIONAL
    default = scalars.parse_scalar(domain, default) \
        if isinstance(default, str) else default
    overrides = {int(k): scalars.parse_scalar(domain, v) if isinstance(v, str) else v
                 for k, v in overrides.items()}
    return Context.make(domain, default, overrides)


def _emit_mv(args, mv: Multivector):
    if args.json:
        print(json.dumps(serialize.multivector_to_json(mv)))
    else:
        print(render(mv))


def _emit_scalar(args, ctx: Context, value):
    text = scalars.format_scalar(ctx.domain, value)
    if args.json:
        print(json.dumps({"value": text}))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    ctx = _context(args)
    _emit_mv(args, parse(args.expr, ctx))
    return 0


def cmd_trace(args) -> int:
    ctx = _context(args)
    _emit_scalar(args, ctx, trace(parse(args.expr, ctx)))
    return 0


def cmd_norm(args) -> int:
    ctx = _context(args)
    _emit_scalar(args, ctx, norm(parse(args.expr, ctx)))
    return 0


def cmd_deriv_apply(args) -> int:
    ctx = _context(args)
    family = serialize.family_from_json(_load_json(args.family), ctx)
    _emit_mv(args, family_apply(family, parse(args.expr, ctx)))
    return 0


def cmd_deriv_extract(args) -> int:
    ctx = _context(args)
    table_json = _load_json(args.table)
    table = {int(k): parse(v, ctx) for k, v in table_json["actions"].items()}
    extractor = extract_even if args.parity == "even" else extract_odd
    terms = extractor(table, args.bound, ctx)
    print(json.dumps({
        "parity": args.parity,
        "terms": [{"blade": list(b.indices),
                   "coeff": scalars.format_scalar(ctx.domain, c)}
                  for b, c in terms]}))
    return 0


def cmd_deriv_bogolyubov(args) -> int:
    ctx = _context(args)
    psi = serialize.skew_from_json(_load_json(args.skew), ctx)
    family = bogolyubov_derivation(psi)
    print(json.dumps(serialize.family_to_json(family)))
    return 0


def cmd_deriv_inner_witness(args) -> int:
    ctx = _context(args)
    psi = serialize.skew_from_json(_load_json(args.skew), ctx)
    _emit_mv(args, inner_witness(psi))
    return 0


def cmd_auto_bogolyubov(args) -> int:
    ctx = _context(args)
    omap = serialize.orthogonal_from_json(_load_json(args.map), ctx)
    _emit_mv(args, bogolyubov_apply(omap, parse(args.expr, ctx)))
    return 0


def cmd_auto_conjugate(args) -> int:
    ctx = _context(args)
    u = parse(args.u, ctx)
    u_inv = parse(args.u_inv, ctx)
    _emit_mv(args, conjugation_apply(u, u_inv, parse(args.expr, ctx)))
    return 0


def _cuts(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def cmd_decomp_build(args) -> int:
    ctx = _context(args)
    chain = chain_build(_cuts(args.cuts), ctx)
    if args.json:
        print(json.dumps(serialize.chain_to_json(chain)))
    else:
        print(f"cuts: {','.join(map(str, chain.cuts))}")
        for i, (c, adj) in enumerate(zip(chain.c, chain.adjusted), start=1):
            note = " (rescaled by i)" if adj else ""
            print(f"c_{i} = {render(c)}{note}")
    return 0


def cmd_decomp_check(args) -> int:
    ctx = _context(args)
    chain = chain_build(_cuts(args.cuts), ctx)
    t = len(chain.cuts)
    failures = 0

    def report(name: str, ok: bool):
        nonlocal failures
        print(f"{name}: {'OK' if ok else 'FAIL'}")
        failures += 0 if ok else 1

    from .core import mv_product
    for i in range(1, t + 1):
        basis = factor_basis(chain, i)
        block = list(chain.block(i))
        hom = True
        for u_bits in range(1 << len(block)):
            for w_bits in range(1 << len(block)):
                u = Multivector.blade(ctx, Blade.from_indices(
                    p for b, p in enumerate(block) if u_bits >> b & 1))
                w = Multivector.blade(ctx, Blade.from_indices(
                    p for b, p in enumerate(block) if w_bits >> b & 1))
                if phi_apply(chain, i, mv_product(u, w)) != \
                        mv_product(phi_apply(chain, i, u), phi_apply(chain, i, w)):
                    hom = False
        report(f"phi_{i} multiplicative", hom)
        images = [next(iter(b.terms)) for b in basis if len(b.terms) == 1]
        report(f"phi_{i} injective", len(set(images)) == len(basis))
    for i in range(1, t + 1):
        for j in range(i + 1, t + 1):
            report(f"[A_{i}, A_{j}] = 0", commutator_check(chain, i, j))
    for k in range(1, chain.cuts[-1] + 1):
        factors = rewrite_generator(chain, k)
        prod = factors[0]
        for f in factors[1:]:
            prod = mv_product(prod, f)
        report(f"rewrite v_{k}", prod == Multivector.generator(ctx, k))
    n_t = chain.cuts[-1]
    report(f"span rank 2^{n_t}", spanning_rank(chain) == 2 ** n_t)
    return VERIFICATION_FAILURE if failures else 0


def cmd_decomp_rewrite(args) -> int:
    ctx = _context(args)
    chain = chain_build(_cuts(args.cuts), ctx)
    factors = rewrite_generator(chain, args.k)
    from .core import mv_product
    prod = factors[0]
    for f in factors[1:]:
        prod = mv_product(prod, f)
    for pos, f in enumerate(factors, start=1):
        print(f"factor {pos}: {render(f)}")
    ok = prod == Multivector.generator(ctx, args.k)
    print(f"product = {render(prod)}: {'OK' if ok else 'FAIL'}")
    return 0 if ok else VERIFICATION_FAILURE


def cmd_rep_check(args) -> int:
    max_k = _in_range("--max-k", args.max_k, 1, REP_CHECK_MAX_K)
    ctx = Context.make(Domain.GAUSSIAN)
    failures = 0
    for k_small in range(1, max_k):
        ok = True
        for bits in range(1 << (2 * k_small)):
            mv = Multivector.blade(ctx, Blade(bits))
            if not matrix_rep.verify_trace_coherence(mv, k_small, max_k):
                ok = False
        print(f"trace coherence k={k_small} vs k={max_k}: "
              f"{'OK' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    for k in range(1, max_k + 1):
        ok = matrix_rep.blade_images_independent(matrix_rep.build_rep(k))
        print(f"faithfulness k={k}: {'OK' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    return VERIFICATION_FAILURE if failures else 0


def cmd_witness(args) -> int:
    shape = FactorShape(Domain.RATIONAL, args.m)
    pairs = witness_sequence(_in_range("--n", args.n, 1, WITNESS_MAX_N), shape)
    for n, (before, after) in enumerate(pairs, start=1):
        print(f"n={n}: ({before}, {after})")
    decreasing = all(a > b for (a, _), (b, _) in zip(pairs, pairs[1:]))
    constant = len({after for _, after in pairs}) == 1
    if decreasing and constant:
        print(f"NON-CONTINUOUS: ||b_n|| -> 0, ||phi(b_n)|| = {pairs[0][1]}")
        return 0
    print("verdict: INCONCLUSIVE")
    return VERIFICATION_FAILURE


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffalg",
        description="Exact Clifford algebra calculator and verifier.")
    parser.add_argument("--domain", choices=[d.value for d in Domain])
    parser.add_argument("--signature", help="JSON signature or @file")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output where applicable")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="print the canonical form of EXPR")
    p.add_argument("expr")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trace", help="normalized trace of EXPR")
    p.add_argument("expr")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("norm", help="tr(a * rev(a)) of EXPR")
    p.add_argument("expr")
    p.set_defaults(func=cmd_norm)

    deriv = sub.add_parser("deriv", help="derivation operations")
    dsub = deriv.add_subparsers(dest="deriv_command", required=True)
    p = dsub.add_parser("apply")
    p.add_argument("--family", required=True, help="family JSON or @file")
    p.add_argument("expr")
    p.set_defaults(func=cmd_deriv_apply)
    p = dsub.add_parser("extract")
    p.add_argument("--parity", choices=["even", "odd"], required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--table", required=True,
                   help='JSON {"actions": {"k": "expr", ...}} or @file')
    p.set_defaults(func=cmd_deriv_extract)
    p = dsub.add_parser("bogolyubov")
    p.add_argument("--skew", required=True, help="skew-map JSON or @file")
    p.set_defaults(func=cmd_deriv_bogolyubov)
    p = dsub.add_parser("inner-witness")
    p.add_argument("--skew", required=True, help="skew-map JSON or @file")
    p.set_defaults(func=cmd_deriv_inner_witness)

    auto = sub.add_parser("auto", help="automorphism operations")
    asub = auto.add_subparsers(dest="auto_command", required=True)
    p = asub.add_parser("bogolyubov")
    p.add_argument("--map", required=True, help="orthogonal-map JSON or @file")
    p.add_argument("expr")
    p.set_defaults(func=cmd_auto_bogolyubov)
    p = asub.add_parser("conjugate")
    p.add_argument("--u", required=True)
    p.add_argument("--u-inv", required=True, dest="u_inv")
    p.add_argument("expr")
    p.set_defaults(func=cmd_auto_conjugate)

    decomp = sub.add_parser("decomp", help="tensor factor chains")
    csub = decomp.add_subparsers(dest="decomp_command", required=True)
    p = csub.add_parser("build")
    p.add_argument("--cuts", required=True)
    p.set_defaults(func=cmd_decomp_build)
    p = csub.add_parser("check")
    p.add_argument("--cuts", required=True)
    p.set_defaults(func=cmd_decomp_check)
    p = csub.add_parser("rewrite")
    p.add_argument("--cuts", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_decomp_rewrite)

    rep = sub.add_parser("rep", help="matrix representation checks")
    rsub = rep.add_subparsers(dest="rep_command", required=True)
    p = rsub.add_parser("check")
    p.add_argument("--max-k", type=int, default=3, dest="max_k",
                   help=f"largest k checked, 1..{REP_CHECK_MAX_K}")
    p.set_defaults(func=cmd_rep_check)

    p = sub.add_parser("witness", help="non-continuity witness table")
    p.add_argument("--n", type=int, default=10,
                   help=f"table length, 1..{WITNESS_MAX_N}")
    p.add_argument("--m", type=int, default=2)
    p.set_defaults(func=cmd_witness)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except (ParseError, DigitLimitError, ValueError, json.JSONDecodeError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CliffordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFICATION_FAILURE


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away; say nothing, and point stdout at devnull so
        # the interpreter's last flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
