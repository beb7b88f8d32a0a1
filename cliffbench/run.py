"""cliffalg benchmark: one seeded, closed-loop workload per run.

    python3 cliffbench/run.py --workload {dense_kernel,certify,cli_mix} \
        --seed N --seconds S --trace {0,1}

One client runs the workload's operations back to back, in-process, against
the library in ./src of the checkout this file sits in.  Every result is
checked (outside the timed region); a failed check, an unexpected exception
or a wrong CLI exit code counts as a failed operation.

--trace 0 makes one untimed warm-up pass over the pool, then cycles through
it for S seconds and reports the end-to-end metrics; latency and throughput
are in units of a reference computation timed alongside (see metrics.py),
and the wall-clock figures are printed too.
--trace 1 makes one pass over the pool, running each operation both untraced
and traced, and reports the per-layer metrics; the spans go to
.cliffbench_out/.  Both end with the probe pass of workloads.probe().  The
last line of stdout is the JSON result; the lines before it repeat the
metrics for a reader.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".cliffbench_out"
SETUP_SAMPLES = 9
SUBPROCESS_TIMEOUT_S = 60


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("dense_kernel", "certify", "cli_mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the library, build the workload's inputs, "
                        "print the seconds the library took for both and exit")
    return p.parse_args(argv)


def _spawn(cmd, env) -> tuple[str, float]:
    """First line `cmd` prints, and seconds from spawning it to that line."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        _, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up command failed ({proc.returncode}): {err.strip()}")
    return line, elapsed


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over SETUP_SAMPLES fresh interpreters.

    For cli_mix it is the CLI's cold start: spawn to its answer to a one-line
    request.  Otherwise the child (--setup-only) reports the time of the
    library's import and of the library constructions the pool reuses
    (contexts, chains, reps, multivectors), not that of the benchmark's own
    code.  One spawn first, untimed, writes the bytecode caches.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if workload == "cli_mix":
        cmd = [sys.executable, "-m", "cliffalg.cli", "eval", "1 + e1*e2"]
    else:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    _spawn(cmd, env)
    times = []
    for _ in range(SETUP_SAMPLES):
        line, elapsed = _spawn(cmd, env)
        times.append(elapsed if workload == "cli_mix" else float(line))
    return statistics.median(times)


class Tally:
    """Attempted and failed operations.

    Each pool entry's first result is checked once, by check(); every later
    run of the entry must return an equal result.
    """

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.first = {}
        self.same = {}
        self.reported = False

    def record(self, j, result, error):
        self.attempted += 1
        if error is not None:
            self._fail(j, error)
        elif j not in self.first:
            self.first[j] = result
            self.same[j] = 1
        elif self.first[j] == result:
            self.same[j] += 1
        else:
            self._fail(j, "result differs from the first run of the same input")

    def check(self):
        for j, result in self.first.items():
            if not self.ops[j].check(result):
                # so is every run that returned the same result
                self.failed += self.same[j]
                self._report(j, "output check failed")

    def _fail(self, j, why):
        self.failed += 1
        self._report(j, why)

    def _report(self, j, why):
        if not self.reported:
            self.reported = True
            print(f"first failure: {self.ops[j].kind} (pool entry {j}): {why}",
                  file=sys.stderr)


def _run_op(op, L):
    try:
        return op.run(L), None
    except Exception:  # a raising operation is a failed one; keep measuring
        return None, traceback.format_exc()


REF_EVERY_NS = 100_000_000


def timed_loop(ops, L, seconds=None, reference=None, tally=None):
    """Run ops back to back, cycling, for `seconds`; or one pass if None.

    At least one whole pass runs, so every pool entry has a sample.
    Returns (samples, ref_samples, tally); results are recorded in `tally`,
    a new one if None.  samples holds (pool index, latency ns, end ns) per
    run.  With `reference`, the loop also times reference() about every
    REF_EVERY_NS, as (end ns, latency ns).
    """
    tally = Tally(ops) if tally is None else tally
    samples, ref_samples = [], []
    deadline = None if seconds is None else perf_counter() + seconds
    next_ref = 0
    i = 0
    while i < len(ops) or (deadline is not None and perf_counter() < deadline):
        j = i % len(ops)
        t0 = perf_counter_ns()
        result, error = _run_op(ops[j], L)
        t1 = perf_counter_ns()
        samples.append((j, t1 - t0, t1))
        tally.record(j, result, error)
        if reference is not None and t1 >= next_ref:
            r0 = perf_counter_ns()
            reference()
            r1 = perf_counter_ns()
            ref_samples.append((r1, r1 - r0))
            next_ref = r1 + REF_EVERY_NS
        i += 1
    return samples, ref_samples, tally


def traced_pass(ops, tracer, plain=None) -> tuple[list, list, Tally]:
    """One pass over `ops`; each op is a root span, library calls its children.

    With `plain`, each op first runs once untraced to warm any cache it
    fills, then untraced again, before the traced run for even positions and
    after it for odd ones, so that both latency lists see the same machine
    state; their difference is the tracing overhead.  cli_mix ops are
    replayed after the traced request through the public functions; the
    replay spans are children of its cli.run span.
    """
    L = tracer.lib()
    tally = Tally(ops)
    untraced, traced = [], []

    def run_untraced(j, op, keep=True):
        t0 = perf_counter_ns()
        result, error = _run_op(op, plain)
        if keep:
            untraced.append(perf_counter_ns() - t0)
        tally.record(j, result, error)

    for j, op in enumerate(ops):
        if plain is not None:
            run_untraced(j, op, keep=False)
        if plain is not None and j % 2 == 0:
            run_untraced(j, op)
        sid = tracer.open(j)
        t0 = perf_counter_ns()
        result, error = _run_op(op, L)
        if op.replay is not None:
            tracer.replay_under_last()
            try:
                op.replay(L)
            except Exception:  # failing requests fail in the replay too
                pass
            tracer.parent = sid
        t1 = perf_counter_ns()
        tracer.close(sid, op.kind, t0, t1)
        traced.append(t1 - t0)
        tally.record(j, result, error)
        if plain is not None and j % 2 == 1:
            run_untraced(j, op)
    tally.check()
    return untraced, traced, tally


def _emit(result: dict, lines: list):
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "cliffalg" / "__init__.py").is_file():
        print(f"error: no cliffalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans  # the benchmark's own; imports no library module itself
    t0 = perf_counter()
    import cliffalg
    for layer in spans.LAYERS:
        importlib.import_module(f"cliffalg.{layer}")
    import_s = perf_counter() - t0
    if Path(cliffalg.__file__).resolve().parent != SRC / "cliffalg":
        print(f"error: imported cliffalg from {cliffalg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import metrics
    import oracle
    import workloads

    if args.setup_only:
        workloads.generate(args.workload, args.seed)
        print(import_s + workloads.build_ns / 1e9, flush=True)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    ops = workloads.generate(args.workload, args.seed)
    plain = spans.plain_lib()
    lines = []
    if not args.trace:
        # an untimed first pass fills the caches later passes reuse (the
        # reused reps' blade matrices), so every timed pass is a warm one
        tally = timed_loop(ops, plain)[2]
        samples, ref_samples, _ = timed_loop(ops, plain, args.seconds, oracle.reference, tally)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tally.check()
        probe_tally = timed_loop(workloads.probe(args.seed), plain)[2]
        probe_tally.check()
        per_op = metrics.normalized(samples, ref_samples)
        values = metrics.end_to_end(per_op, setup_s, rss_mb, args.workload)
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
        lines += metrics.raw_lines(samples, ref_samples, per_op, len(ops), args.workload)
    else:
        tracer = spans.Tracer()
        untraced, latencies, tally = traced_pass(ops, tracer, plain)
        probe_tally = traced_pass(workloads.probe(args.seed), tracer)[2]
        summary = spans.summarize(tracer)
        values = metrics.per_layer(
            summary, tracer.counts, spans.by_root_kind(tracer, "cli.run"),
            len(untraced) * 1e9 / sum(untraced), len(latencies) * 1e9 / sum(latencies))
        units = {name: unit for name, unit, _, _ in metrics.PER_LAYER}
        lines.append(f"tracing overhead: {1 - values['trace.ops_per_s_traced'] / values['trace.ops_per_s_untraced']:.1%} "
                     f"fewer operations per second traced than untraced")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        lines.append(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        lines.append("busy share (self time / traced work) by layer:")
        for layer, stats in summary["layers"].items():
            lines.append(f"  {layer:14s} {stats['busy_share']:7.2%}  "
                         f"{stats['calls']:6d} calls  {stats['busy_s']:.4f} s")
    attempted = tally.attempted + probe_tally.attempted
    failed = tally.failed + probe_tally.failed
    lines.append(f"error_frac = {failed / attempted:.6g} ({failed} of {attempted} "
                 f"operations, probe pass included)")
    for name, value in values.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    _emit({"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {name: {"value": value, "unit": units[name]}
                       for name, value in values.items()}}, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
