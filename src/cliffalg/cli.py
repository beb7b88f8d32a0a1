"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage, syntax or size-limit
error, 141 (128 + SIGPIPE) when stdout is closed early, as by `| head`.
All failures go to stderr with an `error:` prefix.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import scalars, serialize
from .automorphisms import bogolyubov_apply, conjugation_apply
from .core import Context, Multivector
from .derivations import (AdFamily, bogolyubov_derivation, family_apply,
                          extract_even, extract_odd, inner_witness)
from .errors import CliffordError, DigitLimitError, ParseError
from .expr import MAX_GENERATOR, parse
from .locmat import FactorShape, witness_discontinuous, witness_sequence
from .matrix_rep import rep_verify
from .render import render
from .scalars import Domain
from .tensor_decomp import (chain_build, chain_verify, ordered_product,
                            rewrite_generator)
from .trace_norm import norm, trace

VERIFICATION_FAILURE = 1
USAGE_ERROR = 2
BROKEN_PIPE = 141

# Size limits for the checks whose work grows fast with their argument: each
# holds its check under about 2 s on a 2-vCPU VM (README's "Size limits" has
# the measured times).  `rep check --max-k k` reads the trace of each of the
# 4**(k-1) blades on up to 2k - 2 generators from its Pauli words in two
# representations.  `witness --n n --m m` writes n nilpotents' m/2 entries,
# reads n diagonals of m entries and computes n pairs of exact norms, so its
# work grows with n and with n * m.  `decomp check` multiplies the words of
# 4**w blade pairs for a block of w generators, and the bound holds for every
# `decomp` command.  An @file JSON argument is read up to JSON_MAX_BYTES; the
# slowest reader is a `gaussian` `deriv extract --table` of flat sums such as
# `i*e1+i*e1+...`, and all of a table's actions share one parse budget.
REP_CHECK_MAX_K = 10
WITNESS_MAX_N = 5000
WITNESS_MAX_NM = 80_000
DECOMP_MAX_BLOCK = 10
DECOMP_MAX_CUT = 30
JSON_MAX_BYTES = 1 << 20


def _load_json(value: str) -> dict:
    """A JSON object, given literally or as @path-to-file of at most
    JSON_MAX_BYTES bytes."""
    if value.startswith("@"):
        with open(value[1:], "rb") as fh:
            data = fh.read(JSON_MAX_BYTES + 1)
        if len(data) > JSON_MAX_BYTES:
            raise ValueError(f"{value[1:]} is larger than {JSON_MAX_BYTES} bytes")
        value = data.decode("utf-8")
    try:
        obj = json.loads(value)
    except RecursionError:
        raise ValueError("JSON nests too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() past the interpreter's digit limit
        raise ValueError(f"a JSON integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _context(args) -> Context:
    """The --config file, then --domain, then the keys of --signature; with
    neither file nor signature, the shared context of --domain."""
    if not (args.config or args.signature):
        return _domain_context(args.domain)
    cfg = _load_json("@" + args.config) if args.config else {}
    if args.domain:
        cfg["domain"] = args.domain
    if args.signature:
        cfg["signature"] = {**cfg.get("signature", {}),
                            **_load_json(args.signature)}
    return serialize.context_from_json(cfg)


@functools.cache
def _domain_context(domain: str | None) -> Context:
    """The unit form over `domain`, built once per --domain value: argparse
    admits only the Domain values and None."""
    return serialize.context_from_json({"domain": domain} if domain else {})


def _emit(args, ctx: Context, out) -> int:
    """Print what a handler returned and give the exit code.  An int is the
    code of a handler that printed its own lines."""
    if isinstance(out, int):
        return out
    if isinstance(out, Multivector):
        print(json.dumps(serialize.multivector_to_json(out)) if args.json
              else render(out))
    elif isinstance(out, AdFamily):
        print(json.dumps(serialize.family_to_json(out)))
    elif isinstance(out, list):
        # (name, ok) checks have no JSON form yet: text under --json too
        for name, ok in out:
            print(f"{name}: {'OK' if ok else 'FAIL'}")
        return 0 if all(ok for _, ok in out) else VERIFICATION_FAILURE
    else:
        text = scalars.format_scalar(ctx.domain, out)
        print(json.dumps({"value": text}) if args.json else text)
    return 0


# ---------------------------------------------------------------------------
# subcommands whose flags depend on each other or that print their own lines
# ---------------------------------------------------------------------------

def cmd_deriv_extract(args, ctx):
    # odd extraction also probes k = bound + 1, a table key <= MAX_GENERATOR;
    # the bound is checked before the table, which may take seconds to read
    odd = args.parity == "odd"
    bound = serialize.integer("--bound", args.bound, 0, MAX_GENERATOR - odd)
    table = serialize.table_from_json(_load_json(args.table), ctx)
    extract = extract_odd if odd else extract_even
    return AdFamily(ctx, args.parity, tuple(extract(table, bound, ctx)))


def _cuts(text: str) -> tuple[int, ...]:
    try:  # each cut is a generator index; the limits below are the chain's
        cuts = tuple(serialize.integer("--cuts", x, 1, MAX_GENERATOR)
                     for x in text.split(","))
    except ValueError as exc:  # a piece refused as text, or by its range
        if "must be between" in str(exc):
            raise
        raise ValueError(
            f"--cuts must be integers separated by commas, got {text!r}") from None
    widest = max(b - a for a, b in zip((0,) + cuts, cuts))
    if widest > DECOMP_MAX_BLOCK or cuts[-1] > DECOMP_MAX_CUT:
        raise ValueError(
            f"--cuts allows blocks of at most {DECOMP_MAX_BLOCK} generators "
            f"and a last cut of at most {DECOMP_MAX_CUT}, got {text}")
    return cuts


def _chain(text: str, ctx: Context):
    return chain_build(_cuts(text), ctx)


def cmd_decomp_build(args, ctx):
    chain = _chain(args.cuts, ctx)
    if args.json:
        print(json.dumps(serialize.chain_to_json(chain)))
    else:
        print(f"cuts: {','.join(map(str, chain.cuts))}")
        for i, (c, adj) in enumerate(zip(chain.c, chain.adjusted), start=1):
            note = " (rescaled by i)" if adj else ""
            print(f"c_{i} = {render(c)}{note}")
    return 0


def cmd_decomp_rewrite(args, ctx):
    cuts = _cuts(args.cuts)
    k = serialize.integer("--k", args.k, 1, cuts[-1])
    chain = chain_build(cuts, ctx)
    factors = rewrite_generator(chain, k)
    prod = ordered_product(factors)
    for pos, f in enumerate(factors, start=1):
        print(f"factor {pos}: {render(f)}")
    ok = prod == Multivector.generator(ctx, k)
    return [(f"product = {render(prod)}", ok)]


def cmd_rep_check(args, ctx):
    max_k = serialize.integer("--max-k", args.max_k, 1, REP_CHECK_MAX_K)
    ctx.require_unit(range(1, 2 * max_k + 1), "rep check")
    return rep_verify(max_k)


def cmd_witness(args, ctx):
    n_max = serialize.integer("--n", args.n, 1, WITNESS_MAX_N)
    m = serialize.integer("--m", args.m, 2, WITNESS_MAX_NM // n_max & ~1)
    if m % 2:
        raise ValueError(f"--m must be even, got {m}")
    pairs = witness_sequence(n_max, FactorShape(Domain.RATIONAL, m))
    for n, (before, after) in enumerate(pairs, start=1):
        print(f"n={n}: ({before}, {after})")
    if witness_discontinuous(pairs):
        print(f"NON-CONTINUOUS: ||b_n|| -> 0, ||phi(b_n)|| = {pairs[0][1]}")
        return 0
    print("verdict: INCONCLUSIVE")
    return VERIFICATION_FAILURE


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

def _arg(reader, flag, **options):
    return reader, flag, options


def _json(from_json):
    """The reader of a JSON argument, given literally or as @file."""
    return lambda text, ctx: from_json(_load_json(text), ctx)


def _call(function, reads, args, ctx):
    return function(*[read(getattr(args, dest), ctx) for read, dest in reads])


_GROUPS = {"deriv": "derivation operations", "auto": "automorphism operations",
           "decomp": "tensor factor chains", "rep": "matrix representation checks"}


def _commands() -> tuple:
    """One row per command, built with the parser rather than at import.

    A row is the command's path, its help (None: it has none), a function
    and its arguments, each `_arg(reader, flag, **add_argument options)`, in
    usage order, which is also the order they are read in.  Where every
    argument has a reader (`reader(text, ctx)`), the function is a library
    call on what they read and `_emit` prints its result; where none has
    (None), the function is a handler `(args, ctx)` that reads its own
    flags, because they depend on each other, or prints its own lines."""
    expr = _arg(parse, "expr")
    skew = _arg(_json(serialize.skew_from_json), "--skew", required=True,
                help="skew-map JSON or @file")
    cuts = _arg(None, "--cuts", required=True)
    return (
        ("eval", "print the canonical form of EXPR", lambda mv: mv, expr),
        ("trace", "normalized trace of EXPR", trace, expr),
        ("norm", "tr(a * rev(a)) of EXPR", norm, expr),
        ("deriv apply", None, family_apply,
         _arg(_json(serialize.family_from_json), "--family", required=True,
              help="family JSON or @file"), expr),
        ("deriv extract", None, cmd_deriv_extract,
         _arg(None, "--parity", choices=["even", "odd"], required=True),
         _arg(None, "--bound", required=True,
              help=f"largest generator index of the blades, "
                   f"0..{MAX_GENERATOR} even, 0..{MAX_GENERATOR - 1} odd "
                   f"(odd probes k = 1..bound+1)"),
         _arg(None, "--table", required=True,
              help='JSON {"actions": {"k": "expr", ...}} or @file')),
        ("deriv bogolyubov", None, bogolyubov_derivation, skew),
        ("deriv inner-witness", None, inner_witness, skew),
        ("auto bogolyubov", None, bogolyubov_apply,
         _arg(_json(serialize.orthogonal_from_json), "--map", required=True,
              help="orthogonal-map JSON or @file"), expr),
        ("auto conjugate", None, conjugation_apply,
         _arg(parse, "--u", required=True),
         _arg(parse, "--u-inv", required=True), expr),
        ("decomp build", None, cmd_decomp_build, cuts),
        ("decomp check", None, chain_verify,
         _arg(_chain, "--cuts", required=True)),
        ("decomp rewrite", None, cmd_decomp_rewrite,
         cuts, _arg(None, "--k", required=True)),
        ("rep check", None, cmd_rep_check,
         _arg(None, "--max-k", default="3",
              help=f"largest k checked, 1..{REP_CHECK_MAX_K}")),
        ("witness", "non-continuity witness table", cmd_witness,
         _arg(None, "--n", default="10",
              help=f"table length, 1..{WITNESS_MAX_N}"),
         _arg(None, "--m", default="2",
              help=f"factor size, even, with n * m <= {WITNESS_MAX_NM}")),
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one in the process.  Callers must not mutate it (no `set_defaults`,
    `add_argument` or attribute writes): `run` reuses it for every request.
    Reuse is safe because `parse_args` fills a fresh namespace each call,
    every default is immutable, and help and usage text read `sys.stdout`,
    `sys.stderr` and `COLUMNS` when they are written."""
    parser = argparse.ArgumentParser(
        prog="cliffalg",
        description="Exact Clifford algebra calculator and verifier.")
    parser.add_argument("--domain", choices=[d.value for d in Domain])
    parser.add_argument("--signature", help="JSON signature or @file")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output where applicable")
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for path, text, function, *arguments in _commands():
        group, _, name = path.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(
                group, help=_GROUPS[group]).add_subparsers(
                    dest=f"{group}_command", required=True)
        p = subs[group].add_parser(name, **({"help": text} if text else {}))
        reads = tuple((reader, p.add_argument(flag, **options).dest)
                      for reader, flag, options in arguments)
        p.set_defaults(func=functools.partial(_call, function, reads)
                       if reads[0][0] else function)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        ctx = _context(args)
        return _emit(args, ctx, args.func(args, ctx))
    except BrokenPipeError:
        raise
    except (ParseError, DigitLimitError, ValueError, OSError) as exc:
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
