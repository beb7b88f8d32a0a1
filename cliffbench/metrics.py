"""Metric definitions and their computation from a run's measurements.

BENCHMARK.json lists the same names; selftest.py checks that the two agree
and that a run prints every one of them.
"""

from __future__ import annotations

import bisect
import statistics

from spans import LAYERS, group

# The percentile behind op_tail_ref is fixed per workload: the highest of
# 50/80/90/95/99 that leaves at least ten runs beyond it in a 20-second run
# on the host the baseline was recorded on.
# It is fixed, not recomputed per run, so that a change in the number of
# runs never moves the metric to another percentile.
TAIL_PERCENTILE = {"dense_kernel": 95, "certify": 95, "cli_mix": 99}

# Latency and throughput are in units of `ref`: the time of a fixed
# computation that belongs to the benchmark (oracle.reference), measured
# next to the operations.  Wall-clock times on a shared host drift with its
# load by tens of percent within a minute; the ratio does not.  run.py prints
# the wall-clock figures (ops_per_s, op_p50_ms, op_tail_ms) and ref_ms too.
REF_WINDOW = 5

END_TO_END = (
    ("ops_per_ref", "1/ref", "higher"),
    ("op_p50_ref", "ref", "lower"),
    ("op_tail_ref", "ref", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

CLI_SUBCOMMANDS = ("eval", "trace", "norm", "deriv-apply", "deriv-extract",
                   "deriv-bogolyubov", "deriv-inner-witness", "auto-bogolyubov",
                   "auto-conjugate", "decomp-build", "decomp-check",
                   "decomp-rewrite", "rep-check", "witness")

# (name, unit, better, the end-to-end metric and workload it should move)
_LAYER_GENERIC = (
    ("calls", "count", "lower"),
    ("busy_s", "s", "lower"),
    ("busy_share", "frac", "lower"),
    ("p50_us", "us", "lower"),
)

_NAMED = (
    ("core.mv_product.calls", "count", "lower", "ops_per_ref, op_p50_ref on dense_kernel"),
    ("core.mv_product.busy_s", "s", "lower", "ops_per_ref, op_p50_ref on dense_kernel"),
    ("core.mv_product.p50_us", "us", "lower", "op_p50_ref on dense_kernel"),
    ("core.blade_pairs", "count", "lower", "ops_per_ref on dense_kernel"),
    ("core.ns_per_blade_pair", "ns", "lower", "ops_per_ref, op_p50_ref on dense_kernel; barely cli_mix"),
    ("core.out_terms_per_pair", "frac", "higher", "ops_per_ref on dense_kernel"),
    ("core.linear_combine.busy_s", "s", "lower", "ops_per_ref on dense_kernel"),
    ("scalars.coeff_bits_mean", "bits", "lower", "explains core.ns_per_blade_pair on dense_kernel"),
    ("scalars.coeff_bits_max", "bits", "lower", "explains core.ns_per_blade_pair on dense_kernel"),
    ("trace_norm.norm.busy_s", "s", "lower", "op_p50_ref on dense_kernel"),
    ("trace_norm.norm.p50_us", "us", "lower", "op_p50_ref on dense_kernel"),
    ("derivations.family_apply.busy_s", "s", "lower", "ops_per_ref on certify"),
    ("derivations.ad_pairs", "count", "lower", "ops_per_ref on certify"),
    ("derivations.extract.busy_s", "s", "lower", "ops_per_ref on certify"),
    ("derivations.extract.p50_ms", "ms", "lower", "ops_per_ref on certify"),
    ("automorphisms.bogolyubov_apply.busy_s", "s", "lower", "ops_per_ref on certify"),
    ("automorphisms.conjugation_apply.busy_s", "s", "lower", "ops_per_ref on certify"),
    ("matrix_rep.build_rep.busy_s", "s", "lower", "op_tail_ref, ops_per_ref on certify; not dense_kernel"),
    ("matrix_rep.represent.busy_s", "s", "lower", "op_tail_ref, ops_per_ref on certify; not dense_kernel"),
    ("matrix_rep.blade_images_independent.busy_s", "s", "lower", "op_tail_ref, ops_per_ref on certify; not dense_kernel"),
    ("matrix_rep.represent.p50_ms", "ms", "lower", "op_tail_ref on certify"),
    ("matrix_rep.blade_matrices", "count", "lower", "op_tail_ref, ops_per_ref on certify"),
    ("matrix_rep.warm_share", "frac", "higher", "context for matrix_rep.represent.p50_ms on certify"),
    ("tensor_decomp.chain_build.busy_s", "s", "lower", "ops_per_ref on certify"),
    ("tensor_decomp.phi.busy_s", "s", "lower", "ops_per_ref on certify"),
    ("tensor_decomp.commutator_check.busy_s", "s", "lower", "ops_per_ref on certify"),
    ("tensor_decomp.spanning_rank.busy_s", "s", "lower", "ops_per_ref on certify"),
    ("tensor_decomp.span_products", "count", "lower", "ops_per_ref on certify"),
    ("locmat.tp_product.busy_s", "s", "lower", "op_tail_ref, peak_rss_mb on certify"),
    ("locmat.tp_eq.busy_s", "s", "lower", "op_tail_ref, peak_rss_mb on certify"),
    ("locmat.witness_sequence.busy_s", "s", "lower", "op_tail_ref on certify"),
    ("locmat.tp_product.out_terms", "count", "lower", "op_tail_ref, peak_rss_mb on certify"),
    ("expr.parse.busy_s", "s", "lower", "op_p50_ref on cli_mix"),
    ("expr.parse.p50_us", "us", "lower", "op_p50_ref on cli_mix"),
    ("render.render.busy_s", "s", "lower", "op_p50_ref on cli_mix"),
    ("cli.run.busy_s", "s", "lower", "op_p50_ref, setup_s on cli_mix"),
    ("cli.residual_s", "s", "lower", "op_p50_ref, setup_s on cli_mix"),
) + tuple((f"cli.{sub}.p50_ms", "ms", "lower", "op_p50_ref on cli_mix")
          for sub in CLI_SUBCOMMANDS) + (
    ("trace.ops_per_s_untraced", "1/s", "higher", "reference for the tracing overhead"),
    ("trace.ops_per_s_traced", "1/s", "higher", "reference for the tracing overhead"),
    ("trace.overhead_ops_per_s", "1/s", "lower", "tracing overhead: untraced minus traced ops_per_s"),
)

_LAYER_TARGET = {
    "scalars": "ops_per_ref on dense_kernel", "core": "ops_per_ref on dense_kernel",
    "trace_norm": "op_p50_ref on dense_kernel", "derivations": "ops_per_ref on certify",
    "automorphisms": "ops_per_ref on certify", "matrix_rep": "op_tail_ref on certify",
    "tensor_decomp": "ops_per_ref on certify", "locmat": "op_tail_ref on certify",
    "expr": "op_p50_ref on cli_mix", "render": "op_p50_ref on cli_mix",
    "serialize": "op_p50_ref on cli_mix", "cli": "op_p50_ref on cli_mix",
}

PER_LAYER = tuple((f"{layer}.{stat}", unit, better, _LAYER_TARGET[layer])
                  for layer in LAYERS for stat, unit, better in _LAYER_GENERIC) + _NAMED


def _median(values, scale):
    return statistics.median(values) / scale if values else 0.0


def tail(values: list, percentile: int) -> tuple:
    """(nearest-rank percentile of values, number of values strictly beyond it)."""
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, -(-len(ordered) * percentile // 100) - 1))
    value = ordered[idx]
    return value, sum(1 for x in ordered if x > value)


def normalized(samples, ref_samples) -> dict:
    """Per pool entry, latency / local ref time of each of its runs.

    Each run is divided by the median of the REF_WINDOW reference samples
    taken nearest its end, so that the host's speed at that moment cancels.
    """
    ends = [t for t, _ in ref_samples]
    refs = [ns for _, ns in ref_samples]
    half = REF_WINDOW // 2
    per_op: dict[int, list] = {}
    for j, ns, end in samples:
        k = bisect.bisect_left(ends, end)
        lo = max(0, min(k - half, len(refs) - REF_WINDOW))
        per_op.setdefault(j, []).append(ns / statistics.median(refs[lo:lo + REF_WINDOW]))
    return per_op


def weighted_tail(per_op: dict, percentile: int) -> tuple:
    """(percentile of every run, runs strictly beyond it), each run weighted
    1 / (runs of its pool entry).

    The weights make each pool entry count once whatever the number of
    passes; unweighted, the partial last pass would over-weight the first
    entries of the pool, which are its smallest.
    """
    runs = sorted((x, 1 / len(v)) for v in per_op.values() for x in v)
    need = len(per_op) * percentile / 100 - 1e-9
    acc = 0.0
    for value, weight in runs:
        acc += weight
        if acc >= need:
            break
    return value, sum(1 for x, _ in runs if x > value)


def end_to_end(per_op, setup_s, peak_rss_mb, workload) -> dict:
    """End-to-end values over every run in normalized(), entry-weighted."""
    return {
        "ops_per_ref": len(per_op) / sum(statistics.fmean(v) for v in per_op.values()),
        "op_p50_ref": weighted_tail(per_op, 50)[0],
        "op_tail_ref": weighted_tail(per_op, TAIL_PERCENTILE[workload])[0],
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def raw_lines(samples, ref_samples, per_op, pool_size, workload) -> list:
    """The same figures in wall-clock units, for a reader (not compared)."""
    lat = [ns for _, ns, _ in samples]
    pct = TAIL_PERCENTILE[workload]
    tail_ns, beyond = tail(lat, pct)
    _, run_beyond = weighted_tail(per_op, pct)
    lines = [
        f"{len(samples) / pool_size:.2f} passes over {pool_size} operations; "
        f"{len(ref_samples)} reference samples, median "
        f"ref_ms = {statistics.median(ns for _, ns in ref_samples) / 1e6:.6g} ms",
        f"op_tail_ref is p{pct} of {len(samples)} runs, {run_beyond} beyond it",
        f"ops_per_s = {len(lat) * 1e9 / sum(lat):.6g} 1/s",
        f"op_p50_ms = {statistics.median(lat) / 1e6:.6g} ms",
        f"op_tail_ms = {tail_ns / 1e6:.6g} ms (p{pct} of {len(lat)} runs, {beyond} beyond it)",
    ]
    if run_beyond < 10:
        lines.append(f"warning: fewer than 10 runs beyond p{pct}")
    return lines


def per_layer(summary: dict, counts: dict, cli_runs: dict,
              untraced_ops_per_s: float, traced_ops_per_s: float) -> dict:
    """Values of every PER_LAYER metric, by name."""
    out = {}
    for layer, stats in summary["layers"].items():
        for stat, _, _ in _LAYER_GENERIC:
            out[f"{layer}.{stat}"] = stats[stat]

    def busy(*names):
        return sum(group(summary, names)) / 1e9

    mv = group(summary, ["core.mv_product"])
    pairs = counts["core.blade_pairs"]
    out.update({
        "core.mv_product.calls": len(mv),
        "core.mv_product.busy_s": sum(mv) / 1e9,
        "core.mv_product.p50_us": _median(mv, 1e3),
        "core.blade_pairs": pairs,
        "core.ns_per_blade_pair": sum(mv) / pairs if pairs else 0.0,
        "core.out_terms_per_pair": counts["core.out_terms"] / pairs if pairs else 0.0,
        "core.linear_combine.busy_s": busy("core.linear_combine"),
        "scalars.coeff_bits_mean": (counts["scalars.coeff_bits_sum"] / counts["scalars.coeffs"]
                                    if counts["scalars.coeffs"] else 0.0),
        "scalars.coeff_bits_max": counts["scalars.coeff_bits_max"],
        "trace_norm.norm.busy_s": busy("trace_norm.norm"),
        "trace_norm.norm.p50_us": _median(group(summary, ["trace_norm.norm"]), 1e3),
        "derivations.family_apply.busy_s": busy("derivations.family_apply"),
        "derivations.ad_pairs": counts["derivations.ad_pairs"],
        "derivations.extract.busy_s": busy("derivations.extract_even", "derivations.extract_odd"),
        "derivations.extract.p50_ms": _median(
            group(summary, ["derivations.extract_even", "derivations.extract_odd"]), 1e6),
        "automorphisms.bogolyubov_apply.busy_s": busy("automorphisms.bogolyubov_apply"),
        "automorphisms.conjugation_apply.busy_s": busy("automorphisms.conjugation_apply"),
        "matrix_rep.build_rep.busy_s": busy("matrix_rep.build_rep"),
        "matrix_rep.represent.busy_s": busy("matrix_rep.represent"),
        "matrix_rep.blade_images_independent.busy_s": busy("matrix_rep.blade_images_independent"),
        "matrix_rep.represent.p50_ms": _median(group(summary, ["matrix_rep.represent"]), 1e6),
        "matrix_rep.blade_matrices": counts["matrix_rep.blade_matrices"],
        "matrix_rep.warm_share": (counts["matrix_rep.represent_warm"]
                                  / counts["matrix_rep.represent_calls"]
                                  if counts["matrix_rep.represent_calls"] else 0.0),
        "tensor_decomp.chain_build.busy_s": busy("tensor_decomp.chain_build"),
        "tensor_decomp.phi.busy_s": busy("tensor_decomp.phi_apply", "tensor_decomp.phi_inverse"),
        "tensor_decomp.commutator_check.busy_s": busy("tensor_decomp.commutator_check"),
        "tensor_decomp.spanning_rank.busy_s": busy("tensor_decomp.spanning_rank"),
        "tensor_decomp.span_products": counts["tensor_decomp.span_products"],
        "locmat.tp_product.busy_s": busy("locmat.tp_product"),
        "locmat.tp_eq.busy_s": busy("locmat.tp_eq"),
        "locmat.witness_sequence.busy_s": busy("locmat.witness_sequence"),
        "locmat.tp_product.out_terms": counts["locmat.tp_product.out_terms"],
        "expr.parse.busy_s": busy("expr.parse"),
        "expr.parse.p50_us": _median(group(summary, ["expr.parse"]), 1e3),
        "render.render.busy_s": busy("render.render"),
        "cli.run.busy_s": busy("cli.run"),
        "cli.residual_s": busy("cli.run") - summary["replay_s"],
        "trace.ops_per_s_untraced": untraced_ops_per_s,
        "trace.ops_per_s_traced": traced_ops_per_s,
        "trace.overhead_ops_per_s": untraced_ops_per_s - traced_ops_per_s,
    })
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.p50_ms"] = _median(cli_runs.get(f"cli.{sub}", []), 1e6)
    return out
