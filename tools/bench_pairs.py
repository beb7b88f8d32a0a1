"""Alternating parent/change benchmark pairs, written to BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --tag NAME

DIR is a checkout of the repository (its own src/ and cliffbench/).  Both
checkouts are first compiled with `python3 -m compileall -q src cliffbench
tools`, so `setup_s` times warm imports on both sides whatever ran in them
before (compileall writes the caches even under PYTHONDONTWRITEBYTECODE).
The protocol is fixed: for every workload that the change's BENCHMARK.json
names, pair p = 0..9 runs `python3 cliffbench/run.py --workload W --seed S
--seconds 20 --trace 0` in both checkouts, one after the other, with seed
S = 101 + p; the parent runs first in even pairs and the change first in
odd ones.  BENCH_<tag>.json is written
to the current directory.  The file keeps every run's final JSON line and, per side and
end-to-end metric of BENCHMARK.json, the median and quartiles
(statistics.quantiles, n=4, inclusive), the change/parent ratio of the
medians, the parent's spread (q3 - q1) / median and how many pairs the
change won (ties count for neither side).  Each side's code is named by
its git commit or, for a checkout outside git or one whose src/ or
cliffbench/ differs from that commit, by "sha256:" and a digest over the
sorted paths and bytes of its src/ and cliffbench/ files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SECONDS = 20
FIRST_SEED = 101


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--tag", required=True, help="the output is BENCH_<tag>.json")
    return p.parse_args(argv)


def _git(checkout: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def _commit(checkout: Path) -> str:
    head = _git(checkout, "rev-parse", "HEAD")
    if head and not _git(checkout, "status", "--porcelain", "--", "src", "cliffbench"):
        return head
    digest = hashlib.sha256()
    paths = sorted(p.relative_to(checkout).as_posix()
                   for top in ("src", "cliffbench") for p in (checkout / top).rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for path in paths:
        data = (checkout / path).read_bytes()
        digest.update(f"{path}\0{len(data)}\0".encode())
        digest.update(data)
    return "sha256:" + digest.hexdigest()


def _compile(checkout: Path) -> None:
    cmd = [sys.executable, "-m", "compileall", "-q", "src", "cliffbench", "tools"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")


def _run(checkout: Path, workload: str, seed: int) -> dict:
    """The final JSON line of one benchmark run."""
    cmd = [sys.executable, "cliffbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _summary(runs: list[dict], metrics: list[dict]) -> dict:
    side = {m["name"]: {s: _quartiles([r["final"]["metrics"][m["name"]]["value"]
                                       for r in runs if r["side"] == s])
                        for s in ("parent", "change")} for m in metrics}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        values = {(r["pair"], r["side"]): r["final"]["metrics"][name]["value"]
                  for r in runs}
        pairs = sorted({p for p, _ in values})
        wins = sum((values[p, "change"] > values[p, "parent"]) if higher
                   else (values[p, "change"] < values[p, "parent"]) for p in pairs)
        parent = side[name]["parent"]
        side[name]["change_over_parent"] = side[name]["change"]["median"] / parent["median"]
        side[name]["parent_iqr_over_median"] = (parent["q3"] - parent["q1"]) / parent["median"]
        side[name]["change_wins"] = f"{wins}/{len(pairs)}"
        side[name]["bound"] = m["bound"]
    failed = {s: sum(r["final"]["failed"] for r in runs if r["side"] == s)
              for s in ("parent", "change")}
    attempted = {s: sum(r["final"]["attempted"] for r in runs if r["side"] == s)
                 for s in ("parent", "change")}
    return {"metrics": side, "failed": failed, "attempted": attempted}


def main(argv=None) -> int:
    args = _args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    seeds = [FIRST_SEED + p for p in range(PAIRS)]
    result = {
        "parent_commit": _commit(args.parent),
        "change_commit": _commit(args.change),
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()}",
        "command": "python3 cliffbench/run.py --workload W --seed N "
                   f"--seconds {SECONDS} --trace 0",
        "protocol": f"{PAIRS} alternating parent/change pairs per workload, "
                    "parent first in even pairs; seed of pair p = first seed + p",
        "seeds": seeds,
        "workloads": {},
    }
    for checkout in (args.parent, args.change):
        _compile(checkout)
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for pair, seed in enumerate(seeds):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                final = _run(checkout, workload, seed)
                runs.append({"pair": pair, "seed": seed, "side": side, "final": final})
                print(f"{workload} pair {pair} {side}: ops_per_ref "
                      f"{final['metrics']['ops_per_ref']['value']:.4f}", flush=True)
        result["workloads"][workload] = {"summary": _summary(runs, metrics),
                                         "runs": runs}
    path = Path(f"BENCH_{args.tag}.json")
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
