"""``tools/benchpairs.py`` against a fake runner (no benchmark is run)."""

import argparse
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("benchpairs", ROOT / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)

DIRECTIONS = {"throughput_per_s": "higher", "latency_p50_ms": "lower"}


class FakeRunner:
    """Canned runs: the change is 10% faster except on seed 4; seed 6's
    exact statistics differ between the trees."""

    def __init__(self):
        self.calls = []

    def __call__(self, tree, workload, seed, trace, seconds):
        self.calls.append((tree.name, seed))
        change = tree.name == "change"
        throughput = 10.0 + seed * 0.1
        if change and seed != 4:
            throughput *= 1.1
        diagnostics = {
            "exact": {"chain": "other" if change and seed == 6 else f"c{seed}"},
            "host_probe_ms": [100.0 + seed, 102.0],
            "failures": [],
        }
        result = {
            "correct": True,
            "failed": 0,
            "metrics": {
                "throughput_per_s": {"value": throughput, "unit": "1/s"},
                "latency_p50_ms": {"value": 1000.0 / throughput, "unit": "ms"},
            },
        }
        return diagnostics, result


@pytest.fixture
def report():
    runner = FakeRunner()
    trees = {"parent": Path("parent"), "change": Path("change")}
    out = benchpairs.run_pairs(trees, "stream", list(range(1, 11)), 0, 20, DIRECTIONS, runner)
    return out, runner


def test_pairs_alternate_which_tree_runs_first(report):
    out, runner = report
    assert runner.calls[:4] == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    assert [p["first"] for p in out["pairs"]] == ["parent", "change"] * 5


def test_wins_medians_and_quartiles_per_metric(report):
    out, _ = report
    tput = out["metrics"]["throughput_per_s"]
    assert (tput["wins"], tput["pairs"]) == (9, 10)
    parent = sorted(10.0 + s * 0.1 for s in range(1, 11))
    assert tput["parent"]["median"] == pytest.approx((parent[4] + parent[5]) / 2)
    assert tput["parent"]["q1"] == pytest.approx(parent[2] + 0.25 * (parent[3] - parent[2]))
    assert tput["beats_parent_iqr"]
    p50 = out["metrics"]["latency_p50_ms"]
    assert p50["better"] == "lower" and p50["wins"] == 9
    assert p50["median_delta"] < 0


def test_exact_statistics_and_host_probe_per_seed(report):
    out, _ = report
    assert [seed for seed, equal in out["exact_equal"].items() if not equal] == ["6"]
    assert out["all_correct"]
    # 20 probes per tree: 101..110 and ten of 102.
    assert out["host_probe_ms"]["parent"] == 102.0


def test_parse_seeds():
    assert benchpairs.parse_seeds("1-4,7") == [1, 2, 3, 4, 7]


@pytest.mark.parametrize("text", ["5-3", "", "1,,2", "x-2"])
def test_parse_seeds_refuses_an_empty_or_descending_range(text):
    with pytest.raises(argparse.ArgumentTypeError):
        benchpairs.parse_seeds(text)


needs_git = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def make_repo(path, run_py=None):
    """A git repository of two commits, ``HEAD~1`` and ``HEAD``, whose
    ``marker`` file names the tree; ``run_py`` is committed as
    ``perfbench/run.py`` when given."""
    path.mkdir()

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=path, check=True, capture_output=True,
        )

    git("init", "-q")
    (path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "throughput_per_s", "better": "higher"}],
        "per_layer": [{"name": "latency_p50_ms", "better": "lower"}],
    }))
    if run_py is not None:
        (path / "perfbench").mkdir()
        (path / "perfbench" / "run.py").write_text(run_py)
    (path / "marker").write_text("parent")
    git("add", ".")
    git("commit", "-q", "-m", "parent")
    (path / "marker").write_text("change")
    git("commit", "-q", "-am", "change")
    return path


@needs_git
def test_main_exports_both_commits_and_writes_bench_sha(tmp_path, monkeypatch):
    repo = make_repo(tmp_path / "repo")
    seen = []

    def runner(tree, workload, seed, trace, seconds):
        seen.append((tree.name, (tree / "marker").read_text()))
        fake = FakeRunner()
        return fake(tree, workload, seed, trace, seconds)

    monkeypatch.chdir(tmp_path)
    args = ["--parent", "HEAD~1", "--change", "HEAD", "--workload", "stream",
            "--seeds", "1-2", "--work-dir", str(tmp_path / "work"), "--repo", str(repo)]
    assert benchpairs.main(args, runner) == 0
    assert sorted(set(seen)) == [("change", "change"), ("parent", "parent")]
    change = benchpairs.resolve(repo, "HEAD")
    written = json.loads((tmp_path / f"BENCH_{change}.json").read_text())
    assert written["change"] == change
    assert written["runs"]["stream"]["metrics"]["throughput_per_s"]["wins"] == 2
    # A second workload joins the same file; other commits are refused.
    traced = [*args[:-4], "--trace", "1", "--work-dir", str(tmp_path / "w2"), "--repo", str(repo)]
    assert benchpairs.main(traced, runner) == 0
    written = json.loads((tmp_path / f"BENCH_{change}.json").read_text())
    assert sorted(written["runs"]) == ["stream", "stream-traced"]
    other = ["--parent", "HEAD~1", "--change", "HEAD~1", "--workload", "stream", "--seeds", "1",
             "--work-dir", str(tmp_path / "w3"), "--repo", str(repo),
             "--out", str(tmp_path / f"BENCH_{change}.json")]
    assert benchpairs.main(other, runner) == 2


@needs_git
@pytest.mark.parametrize(
    "bad, message",
    [
        ("descending seeds", "argument --seeds: descending range: '5-3'"),
        ("existing work dir", "exists; it must not"),
        ("other commits", "holds other commits"),
        ("unknown revision", "'nosuchrev' is not a commit of"),
    ],
)
def test_bad_input_is_refused_before_anything_is_exported(
    tmp_path, monkeypatch, capsys, bad, message
):
    repo = make_repo(tmp_path / "repo")
    work = tmp_path / "work"
    out = tmp_path / "BENCH.json"
    seeds = "5-3" if bad == "descending seeds" else "1-2"
    if bad == "existing work dir":
        work.mkdir()
    if bad == "other commits":
        out.write_text(json.dumps({"parent": "0" * 40, "change": "1" * 40}))
    parent = "nosuchrev" if bad == "unknown revision" else "HEAD~1"
    args = ["--parent", parent, "--change", "HEAD", "--workload", "stream",
            "--seeds", seeds, "--work-dir", str(work), "--repo", str(repo), "--out", str(out)]
    runner = FakeRunner()
    monkeypatch.chdir(tmp_path)
    try:
        code = benchpairs.main(args, runner)
    except SystemExit as exc:  # argparse refuses at parse time
        code = exc.code
    assert code == 2
    assert runner.calls == []
    assert not (work / "parent").exists() and not (work / "change").exists()
    assert message in capsys.readouterr().err.strip().splitlines()[-1]


@needs_git
def test_a_failed_run_ends_the_tool_with_one_line(tmp_path, monkeypatch, capsys):
    repo = make_repo(tmp_path / "repo", run_py="import sys\nsys.exit(3)\n")
    monkeypatch.chdir(tmp_path)
    args = ["--parent", "HEAD~1", "--change", "HEAD", "--workload", "strem",
            "--seeds", "4", "--work-dir", str(tmp_path / "work"), "--repo", str(repo)]
    assert benchpairs.main(args) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("benchpairs: the parent tree's run of seed 4 exited 3")
    assert not list(tmp_path.glob("BENCH_*.json"))
