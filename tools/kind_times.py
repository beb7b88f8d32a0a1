"""Per-kind in-process timings of one workload in two checkouts.

    python3 tools/kind_times.py --parent DIR --change DIR --workload W \
        [--seed 101] [--passes 5] [--rounds 8]

DIR is a checkout (its own src/ and cliffbench/).  Each round runs both in
fresh interpreters, the parent first in even rounds.  An interpreter builds
W's pool for the seed, makes one warm pass and P timed passes, and reports
for each timed pass the best of REFERENCE_CALLS calls of cliffbench's
oracle.reference, made just before that pass, and the pass's milliseconds
per op kind.  Printed: per kind, its best-of-passes milliseconds and then
its best-of-passes time in reference units (each pass's time over the
reference timed next to it, so that a host running faster or slower for a
while, even during the passes, moves both columns alike), as the median
over the rounds on each side with its quartiles q1 and q3
(statistics.quantiles, n=4, inclusive, as bench_pairs reads them; one round
is its own quartiles), and the change/parent ratio of the medians, to be read
against the parent's spread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

REFERENCE_CALLS = 10


def emit(checkout: Path, workload: str, seed: int, passes: int) -> None:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(checkout / "src"), str(checkout / "cliffbench")]
    import oracle
    import spans
    import workloads

    def reference_ms() -> float:
        times = []
        for _ in range(REFERENCE_CALLS):
            t0 = perf_counter()
            oracle.reference()
            times.append((perf_counter() - t0) * 1e3)
        return min(times)

    lib, pool, out = spans.plain_lib(), workloads.generate(workload, seed), []
    for p in range(passes + 1):  # pass 0 warms up
        reference, times = reference_ms() if p else None, {"pass": 0.0}
        for op in pool:
            t0 = perf_counter()
            try:
                op.run(lib)
            except Exception:  # a raising operation is timed as it is
                pass
            ms = (perf_counter() - t0) * 1e3
            times[op.kind] = times.get(op.kind, 0.0) + ms
            times["pass"] += ms
        if p:
            out.append({"reference_ms": reference, "kinds": times})
    print(json.dumps({"passes": out}))


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] of the values."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for flag, kind, default in (("--parent", Path, None), ("--change", Path, None),
                                ("--workload", str, None), ("--seed", int, 101),
                                ("--passes", int, 5), ("--rounds", int, 8)):
        p.add_argument(flag, type=kind, default=default, required=default is None)
    p.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.emit:
        emit(args.emit, args.workload, args.seed, args.passes)
        return 0
    runs = {"parent": [], "change": []}
    for r in range(args.rounds):
        for side in sorted(runs, reverse=r % 2 == 0):  # "parent" first when even
            checkout = getattr(args, side).resolve()
            out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                  "--emit", str(checkout), *argv],
                                 cwd=checkout, capture_output=True, text=True, check=True)
            runs[side].append(json.loads(out.stdout.splitlines()[-1]))
    units = {"ms": lambda run, kind: min(p["kinds"][kind] for p in run["passes"]),
             "ref": lambda run, kind: min(p["kinds"][kind] / p["reference_ms"]
                                          for p in run["passes"])}
    print(f"{'kind':<24}" + "".join(f" {'parent ' + unit:>10} {'q1':>8} {'q3':>8} "
                                    f"{'change ' + unit:>10} {'q1':>8} {'q3':>8} {'ratio':>7}"
                                    for unit in units))
    for kind in runs["parent"][0]["passes"][0]["kinds"]:
        cells = []
        for read in units.values():
            (p1, before, p3), (c1, after, c3) = (
                quartiles([read(run, kind) for run in runs[side]]) for side in runs)
            cells.append(f" {before:10.3f} {p1:8.3f} {p3:8.3f} "
                         f"{after:10.3f} {c1:8.3f} {c3:8.3f} {after / before:7.3f}")
        print(f"{kind:<24}" + "".join(cells))
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away; say nothing, and point stdout at devnull so
        # the interpreter's last flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as cliffalg.cli exits then
    sys.exit(code)
