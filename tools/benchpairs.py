"""Alternating parent/change pairs of the repository benchmark.

Usage, from the repository root::

    python3 tools/benchpairs.py --parent HEAD~1 --change HEAD \\
        --workload stream --seeds 1-10 --work-dir /tmp/pairs

Both commits are exported with ``git archive`` into ``--work-dir``, and
``perfbench/run.py`` runs in each for every seed: one pair per seed, the
parent first on even pairs and the change first on odd ones, so a host
that drifts slower over time does not favour either tree. Each run's last
two stdout lines (diagnostics and result) are kept.

The pairs land in ``BENCH_<change sha>.json`` (``--out`` to override),
under the key ``<workload>`` (``<workload>-traced`` with ``--trace 1``);
running again with another workload adds its key to the same file. Per
metric, the file holds both trees' medians and quartiles, the change's
wins (pairs where it is better, in the direction ``BENCHMARK.json`` gives
the metric), and whether its median beats the parent's by more than the
parent's interquartile range. A traced run's metrics are the per-layer
self times, so their median deltas name the layer that moved. Per seed,
the file records whether the exact-repeat statistics of the two trees are
equal, and the host-speed probe of every run.

This is not ``repro bench-compare``, which reads pytest-benchmark JSON for
CI's timing gate.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from collections.abc import Callable
from pathlib import Path

TREES = ("parent", "change")

#: ``(tree directory, workload, seed, trace, seconds) -> (diagnostics, result)``
Runner = Callable[[Path, str, int, int, int], tuple[dict, dict]]


class RunFailed(Exception):
    """A ``perfbench/run.py`` run exited non-zero."""


def parse_seeds(text: str) -> list[int]:
    """``"1-4,7"`` -> ``[1, 2, 3, 4, 7]``; an empty part or a descending
    range is refused, so the list is never empty."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        try:
            first = int(lo)
            last = int(hi) if sep else first
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a seed or a range: {part!r}") from None
        if last < first:
            raise argparse.ArgumentTypeError(f"descending range: {part!r}")
        seeds.extend(range(first, last + 1))
    return seeds


def resolve(repo: Path, rev: str) -> str:
    """The full sha of ``rev``; :class:`LookupError` if it names no commit."""
    out = subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise LookupError(f"{rev!r} is not a commit of {repo}")
    return out.stdout.strip()


def export(repo: Path, sha: str, dest: Path) -> Path:
    """The committed files of ``sha``, unpacked into ``dest`` (a fresh
    directory, so nothing from the working tree leaks in)."""
    data = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", sha],
        check=True, capture_output=True,
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_perfbench(tree: Path, workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run; its last two stdout lines, parsed.
    Raises :class:`RunFailed` if it exits non-zero."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    if out.returncode != 0:
        last = (out.stderr.strip().splitlines() or [""])[-1]
        raise RunFailed(
            f"the {tree.name} tree's run of seed {seed} exited {out.returncode}: {last}"
        )
    diagnostics, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(diagnostics), json.loads(result)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method (one value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    """Per metric: both trees' quartiles, the change's wins and whether its
    median beats the parent's by more than the parent's spread."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        values = {t: [p[t]["metrics"][name] for p in pairs] for t in TREES}
        sign = -1.0 if directions.get(name, "lower") == "lower" else 1.0
        (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = (quartiles(values[t]) for t in TREES)
        out[name] = {
            "better": "lower" if sign < 0 else "higher",
            "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
            "median_delta": c_med - p_med,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
            "beats_parent_iqr": sign * (c_med - p_med) > p_q3 - p_q1,
        }
    return out


def run_pairs(
    trees: dict[str, Path],
    workload: str,
    seeds: list[int],
    trace: int,
    seconds: int,
    directions: dict[str, str],
    runner: Runner = run_perfbench,
) -> dict:
    """One pair per seed, alternating which tree runs first."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = TREES if i % 2 == 0 else TREES[::-1]
        pair: dict = {"seed": seed, "first": order[0]}
        for tree in order:
            diagnostics, result = runner(trees[tree], workload, seed, trace, seconds)
            pair[tree] = {
                "metrics": {m: v["value"] for m, v in result["metrics"].items()},
                "correct": result["correct"],
                "failed": result["failed"],
                "exact": diagnostics["exact"],
                "host_probe_ms": diagnostics["host_probe_ms"],
                "failures": diagnostics["failures"],
            }
        pair["exact_equal"] = pair["parent"]["exact"] == pair["change"]["exact"]
        pairs.append(pair)
    return {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "pairs": pairs,
        "metrics": summarize(pairs, directions),
        "exact_equal": {str(p["seed"]): p["exact_equal"] for p in pairs},
        "all_correct": all(p[t]["correct"] and not p[t]["failed"] for p in pairs for t in TREES),
        "host_probe_ms": {
            t: statistics.median(v for p in pairs for v in p[t]["host_probe_ms"]) for t in TREES
        },
    }


def directions_of(benchmark_json: Path) -> dict[str, str]:
    """Metric name -> ``"lower"`` or ``"higher"`` is better."""
    spec = json.loads(benchmark_json.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None, runner: Runner = run_perfbench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help='e.g. "1-10" or "3,5"')
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--work-dir", required=True, type=Path,
                        help="where both trees are exported (must not exist)")
    parser.add_argument("--repo", type=Path, default=Path.cwd())
    parser.add_argument("--out", type=Path, default=None,
                        help="default: BENCH_<change sha>.json in the current directory")
    args = parser.parse_args(argv)

    # Every refusal comes before the trees are exported.
    if args.work_dir.exists():
        print(f"benchpairs: --work-dir {args.work_dir} exists; it must not", file=sys.stderr)
        return 2
    try:
        shas = {"parent": resolve(args.repo, args.parent), "change": resolve(args.repo, args.change)}
    except LookupError as exc:
        print(f"benchpairs: {exc}", file=sys.stderr)
        return 2
    out_path = args.out or Path(f"BENCH_{shas['change']}.json")
    report = json.loads(out_path.read_text()) if out_path.exists() else {}
    if report and {t: report.get(t) for t in TREES} != shas:
        print(f"benchpairs: {out_path} holds other commits", file=sys.stderr)
        return 2
    trees = {t: export(args.repo, shas[t], args.work_dir / t) for t in TREES}
    report.update(shas)
    report["command"] = "python3 perfbench/run.py"
    runs = report.setdefault("runs", {})
    key = args.workload + ("-traced" if args.trace else "")
    try:
        runs[key] = run_pairs(
            trees, args.workload, args.seeds, args.trace, args.seconds,
            directions_of(trees["change"] / "BENCHMARK.json"),
            runner,
        )
    except RunFailed as exc:
        print(f"benchpairs: {exc}", file=sys.stderr)
        return 2
    out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"benchpairs: {key}: {len(args.seeds)} pairs -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
