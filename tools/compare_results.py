"""Compare every benchmark operation's result between two checkouts.

    python3 tools/compare_results.py --parent DIR --change DIR --seeds 101-110

DIR is a checkout of the repository (its own src/ and cliffbench/).  For each
checkout a subprocess puts that checkout's src/ and cliffbench/ first on the
path, generates the pool of every workload its cliffbench/workloads.py
names for every seed, runs each operation once and prints one line per
operation:

    WORKLOAD SEED INDEX KIND VERDICT HASH

VERDICT is `ok` or `FAIL` from the operation's own check, or `raised` when
it raised; HASH is a SHA-256 prefix of the result's text (`_text`: its repr,
with each float part written by float.hex and a NaN's sign, which repr
drops), or of the exception's type and message.  Then come the CLI's help
and usage text, as lines `help 80 INDEX PATH ok HASH` and `bare 80 INDEX PATH
ok HASH`: for the top level, each command group and each command of
`cli._commands()`, PATH its words joined by `-` (`cliffalg` for the top
level), `cli.run` with `--help` and with no further arguments at COLUMNS=80,
HASH over the exit code, stdout and stderr.  The change's lines are
printed, and the tool exits 1 at the first operation whose line differs
from the parent's or whose verdict is not `ok`, naming it; it exits 0 when
all lines agree and pass.  SEEDS is a range `A-B` or one seed `A`.  The
parent runs under PYTHONHASHSEED=1 and the change under 2, so
`--parent . --change .` checks that no result depends on string hashing.
It only reads cliffbench/ and writes no bytecode into either checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path


def _seeds(spec: str) -> range:
    first, _, last = spec.partition("-")
    return range(int(first), int(last or first) + 1)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path)
    p.add_argument("--change", type=Path)
    p.add_argument("--seeds", default="101-110")
    p.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.emit is None and (args.parent is None or args.change is None):
        p.error("--parent and --change are required")
    return args


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _text(result) -> str:
    """repr(result), but a float part is written by float.hex, with a "-"
    before a NaN whose sign bit is set; tuples, lists and the terms of a
    float Multivector are walked.  Exact values keep their repr."""
    if isinstance(result, float):
        text = result.hex()
        return "-" + text if result != result and math.copysign(1, result) < 0 else text
    if isinstance(result, complex):
        return f"complex({_text(result.real)}, {_text(result.imag)})"
    if isinstance(result, (tuple, list)):
        return f"{type(result).__name__}({', '.join(map(_text, result))})"
    if type(result).__name__ == "Multivector" and not result.context.domain.is_exact:
        return f"Multivector({_text(result.sorted_terms())})"
    return repr(result)


def emit(checkout: Path, seeds: str) -> int:
    """Print one line per operation of `checkout`'s workloads."""
    sys.dont_write_bytecode = True
    root = checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "cliffbench")]
    import cliffalg
    import spans
    import workloads

    if Path(cliffalg.__file__).resolve().parent != root / "src" / "cliffalg":
        print(f"error: imported cliffalg from {cliffalg.__file__}", file=sys.stderr)
        return 2
    lib = spans.plain_lib()
    for workload in workloads.WORKLOADS:
        for seed in _seeds(seeds):
            for index, op in enumerate(workloads.generate(workload, seed)):
                try:
                    result = op.run(lib)
                except Exception as exc:  # a raising op is reported, not fatal
                    verdict, text = "raised", f"{type(exc).__name__}: {exc}"
                else:
                    verdict = "ok" if op.check(result) else "FAIL"
                    text = _text(result)
                print(workload, seed, index, op.kind, verdict, _digest(text))
    _cli_lines()
    return 0


def _cli_lines() -> None:
    """Print the help and bare-run lines of the imported `cliffalg.cli`."""
    from cliffalg import cli

    os.environ["COLUMNS"] = "80"
    commands = [path for path, *_ in cli._commands()]
    paths = ["", *dict.fromkeys(p.rpartition(" ")[0] for p in commands if " " in p),
             *commands]
    for mode, extra in (("help", ["--help"]), ("bare", [])):
        for index, path in enumerate(paths):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run([*path.split(), *extra])
            print(mode, 80, index, "-".join(path.split()) or "cliffalg", "ok",
                  _digest(f"{code}\n{out.getvalue()}\n{err.getvalue()}"))


def _lines(checkout: Path, seeds: str, hash_seed: int) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--emit", str(checkout),
           "--seeds", seeds]
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env=env)
    if proc.returncode:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    args = _args(argv)
    if args.emit is not None:
        return emit(args.emit, args.seeds)
    parent = _lines(args.parent, args.seeds, 1)
    change = _lines(args.change, args.seeds, 2)
    for before, after in zip(parent, change):
        print(after)
        if before != after:
            print(f"differs: parent {before!r}, change {after!r}")
            return 1
        if after.split()[4] != "ok":
            print(f"not ok: {after!r}")
            return 1
    if len(parent) != len(change):
        print(f"differs: parent has {len(parent)} ops, change {len(change)}")
        return 1
    print(f"identical: {len(change)} ops")
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
