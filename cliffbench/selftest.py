"""Self-test of the benchmark itself (not of cliffalg).

    python3 cliffbench/selftest.py

Checks that BENCHMARK.json and METRICS.md agree with metrics.py, then, per
workload:
  1. two traced runs with one seed report identical work counts;
  2. another seed generates other inputs (and one seed the same inputs twice);
  3. a run prints every metric BENCHMARK.json names, with its unit, both in
     the JSON line and in the readable lines before it, and passes its checks.
Exits 1 on the first failed check.  Takes a few minutes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7

WORK_COUNTS = ("core.blade_pairs", "derivations.ad_pairs", "tensor_decomp.span_products",
               "locmat.tp_product.out_terms", "matrix_rep.blade_matrices",
               "scalars.coeff_bits_mean", "scalars.coeff_bits_max")


def run(workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: run exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def fingerprint(ops) -> list:
    """The inputs each operation closes over, as text (callables and object
    addresses left out)."""
    return [re.sub(r" at 0x[0-9a-f]+", "", repr(cell.cell_contents))
            for op in ops for cell in op.run.__closure__ or ()
            if not callable(cell.cell_contents)]


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        raise SystemExit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import metrics
    import workloads

    expect([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
           == list(metrics.END_TO_END), "BENCHMARK.json end_to_end matches metrics.py")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [row[:3] for row in metrics.PER_LAYER], "BENCHMARK.json per_layer matches metrics.py")
    doc = (HERE / "METRICS.md").read_text()
    generic = {f"{layer}.{stat}" for layer in metrics.LAYERS for stat, _, _ in metrics._LAYER_GENERIC}
    expect(all(f"| `{n}` | {u} | {b} | {t} |" in doc
               for n, u, b, t in metrics.PER_LAYER if n not in generic),
           "METRICS.md lists every named per-layer metric with its target")

    for workload in [w["name"] for w in spec["workloads"]]:
        same = fingerprint(workloads.generate(workload, SEED))
        expect(same == fingerprint(workloads.generate(workload, SEED)),
               f"{workload}: one seed generates the same inputs twice")
        expect(same != fingerprint(workloads.generate(workload, SEED + 1)),
               f"{workload}: another seed generates other inputs")

        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run(workload, SEED, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} --trace {trace}: every {key} metric, with its unit")
            printed = {line.split(" = ", 1)[0] for line in lines if " = " in line}
            expect(set(want) <= printed, f"{workload} --trace {trace}: every metric in the readable lines")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} --trace {trace}: all {result['attempted']} operations pass their checks")
            if trace:
                first = result["metrics"]

        second = run(workload, SEED, 1)[0]["metrics"]
        for name in WORK_COUNTS:
            a, b = first[name]["value"], second[name]["value"]
            expect(a == b and a > 0, f"{workload}: {name} repeats exactly ({a} == {b})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
