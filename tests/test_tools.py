"""The repository's comparison and benchmark tools (tools/)."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cliffalg.core import Blade, Context, Multivector
from cliffalg.scalars import Domain

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
import compare_results  # noqa: E402

NAN = float("nan")


def _compare(parent: Path, change: Path, seeds: str = "101"):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "compare_results.py"),
                           "--parent", str(parent), "--change", str(change),
                           "--seeds", seeds], capture_output=True, text=True)


class TestCompareResults:
    def test_text_tells_nan_and_zero_signs(self):
        text = compare_results._text
        assert repr(NAN) == repr(-NAN)
        assert text(NAN) != text(-NAN)
        assert text(0.0) != text(-0.0)
        assert text(complex(1, NAN)) != text(complex(1, -NAN))
        assert text((1, [NAN])) != text((1, [-NAN]))
        ctx = Context.make(Domain.F64)
        assert text(Multivector(ctx, {Blade(1): NAN})) != \
            text(Multivector(ctx, {Blade(1): -NAN}))

    def test_text_keeps_the_repr_of_exact_values(self):
        a = Multivector(Context.make(), {Blade(3): 2, Blade(0): -1})
        assert compare_results._text(a) == repr(a)

    def test_a_planted_nan_sign_flip_is_reported(self, tmp_path):
        # two checkouts whose only operation returns a NaN, one of them
        # negated: repr prints "nan" for both
        op = ("\n\ndef generate(workload, seed):\n"
              "    ctx = Context.make(Domain.C64)\n"
              "    value = {sign}float('nan')\n"
              "    return [Op('planted', lambda L: (value, Multivector(\n"
              "        ctx, {{Blade(1): complex(1, value)}})), lambda r: True)]\n")
        sides = []
        for name, sign in (("parent", ""), ("change", "-")):
            side = tmp_path / name
            for top in ("src", "cliffbench"):
                shutil.copytree(ROOT / top, side / top,
                                ignore=shutil.ignore_patterns("__pycache__"))
            workloads = side / "cliffbench" / "workloads.py"
            workloads.write_text(workloads.read_text(encoding="utf-8")
                                 + op.format(sign=sign), encoding="utf-8")
            sides.append(side)
        proc = _compare(*sides)
        assert proc.returncode == 1
        assert "differs: parent" in proc.stdout
        assert _compare(sides[0], sides[0]).returncode == 0

    def test_a_checkout_matches_itself(self):
        proc = _compare(ROOT, ROOT)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
        assert proc.stdout.splitlines()[-1].startswith("identical: ")


class TestBenchPairsCommit:
    def _git(self, repo: Path, *args: str) -> str:
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                               "-c", "user.email=t@example.invalid", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    def _repo(self, tmp_path: Path) -> Path:
        repo = tmp_path / "repo"
        for top in ("src", "cliffbench"):
            (repo / top).mkdir(parents=True)
            (repo / top / "a.py").write_text(f"# {top}\n", encoding="utf-8")
        self._git(repo, "init", "-q")
        self._git(repo, "add", "-A")
        self._git(repo, "commit", "-q", "-m", "seed")
        return repo

    def test_a_clean_checkout_is_named_by_its_commit(self, tmp_path):
        repo = self._repo(tmp_path)
        head = self._git(repo, "rev-parse", "HEAD")
        assert bench_pairs._commit(repo) == head
        (repo / "README.md").write_text("outside src and cliffbench\n", encoding="utf-8")
        assert bench_pairs._commit(repo) == head

    def test_a_dirty_checkout_is_named_by_its_source_digest(self, tmp_path):
        repo = self._repo(tmp_path)
        # an edited tracked file, then an untracked one alone
        for edit in (repo / "src" / "a.py", repo / "cliffbench" / "new.py"):
            self._git(repo, "checkout", "--", ".")
            edit.write_text("# edited\n", encoding="utf-8")
            plain = tmp_path / f"plain-{edit.name}"
            for top in ("src", "cliffbench"):
                shutil.copytree(repo / top, plain / top)
            name = bench_pairs._commit(repo)
            assert name.startswith("sha256:")
            assert name == bench_pairs._commit(plain)


@pytest.mark.parametrize("tool, args", [
    ("kind_times.py", ["--workload", "dense_kernel", "--passes", "1", "--rounds", "1"]),
    ("compare_results.py", ["--seeds", "101"])])
def test_a_tool_stops_quietly_when_its_reader_goes_away(tool, args):
    # the read end is closed before the tool writes, as `| head -1` closes
    # it after one line: no traceback, and 141 (128 + SIGPIPE)
    proc = subprocess.Popen([sys.executable, str(ROOT / "tools" / tool),
                             "--parent", str(ROOT), "--change", str(ROOT), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 141
    assert err == ""


def test_kind_times_lists_every_certify_kind():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "kind_times.py"),
                           "--parent", str(ROOT), "--change", str(ROOT),
                           "--workload", "certify", "--passes", "1", "--rounds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["kind", *(x for unit in ("ms", "ref") for x in (
        "parent", unit, "q1", "q3", "change", unit, "q1", "q3", "ratio"))]
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines}
    source = (ROOT / "cliffbench" / "workloads.py").read_text(encoding="utf-8")
    kinds = set(re.findall(r'Op\("(certify\.\w+)"', source))
    assert len(kinds) == 14 and set(rows) == {"pass"} | kinds
    for row in rows.values():
        assert len(row) == 14
        for parent, p1, p3, change, c1, c3, _ in (row[:7], row[7:]):
            # one round: each side's quartiles are its one reading
            assert p1 == parent == p3 and c1 == change == c3
    # an interpreter times the reference before each timed pass, one sample
    # per pass, and reports each pass's kinds next to it
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "kind_times.py"),
                           "--parent", str(ROOT), "--change", str(ROOT),
                           "--workload", "certify", "--passes", "3", "--emit", str(ROOT)],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    passes = json.loads(proc.stdout.splitlines()[-1])["passes"]
    assert len(passes) == 3
    for run in passes:
        assert run["reference_ms"] > 0 and set(run["kinds"]) == {"pass"} | kinds
