"""Benchmark regression harness: emit, load, and diff bench JSON files.

The bench suite (``pytest benchmarks/ --benchmark-only``) regenerates every
paper artifact; with ``--bench-json-dir`` its conftest writes one
``BENCH_<sha>.json`` per session recording, per bench test, the wall time and
the headline accuracy metrics filed in ``benchmark.extra_info``. This module
owns that file's schema and the comparison logic behind
``repro bench-compare``: diff a candidate file against a committed baseline
and exit nonzero when a wall-time or metric drift crosses the configured
thresholds.

Schema 2 tracks **per-engine baseline namespaces**: the payload's
``engines`` mapping holds one independent entry set per execution engine
(``reference`` — bit-identical ground truth — and ``fast`` — the
relaxed-semantics engine of :mod:`repro.fast`), so the two engines' wall
times and metrics are gated separately and a fast-engine speedup can never
mask a reference regression (or vice versa). Schema-1 files load as the
``reference`` namespace, so committed baselines keep working.

Wall times are hardware-dependent — CI passes a loose ``--wall-threshold``
when comparing across machines — while metrics are seeded and deterministic,
so tight metric thresholds are meaningful everywhere.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

from .atomicio import atomic_write_text
from .errors import ExperimentError

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_ENGINE",
    "bench_payload",
    "write_bench_json",
    "load_bench",
    "resolve_bench_path",
    "ComparisonRow",
    "BenchComparison",
    "compare_bench",
    "git_sha",
]

BENCH_SCHEMA = 2

#: The namespace schema-1 files (and engine-less writers) land in.
DEFAULT_ENGINE = "reference"


def git_sha(repo_root: str | Path | None = None, default: str = "nosha") -> str:
    """Short git SHA of ``repo_root`` (cwd by default), or ``default``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(repo_root) if repo_root else None,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return default
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else default


def _normalized_entries(entries: dict) -> dict:
    return {
        name: {
            "wall_s": float(rec["wall_s"]),
            "metrics": dict(rec.get("metrics", {})),
        }
        for name, rec in sorted(entries.items())
    }


def bench_payload(
    sha: str, entries: dict | None = None, *, engines: dict | None = None
) -> dict:
    """Assemble the on-disk payload for a bench session.

    Pass either ``entries`` (bench name -> ``{"wall_s": ..., "metrics":
    {...}}``; filed under the ``reference`` namespace) or ``engines``
    (engine name -> entries mapping) — exactly one.
    """
    if (entries is None) == (engines is None):
        raise ExperimentError("bench_payload takes exactly one of entries/engines")
    if engines is None:
        engines = {DEFAULT_ENGINE: entries}
    return {
        "schema": BENCH_SCHEMA,
        "sha": sha,
        "created_unix": time.time(),
        "engines": {
            engine: {"entries": _normalized_entries(engine_entries)}
            for engine, engine_entries in sorted(engines.items())
        },
    }


def write_bench_json(
    directory: str | Path,
    sha: str,
    entries: dict | None = None,
    *,
    engines: dict | None = None,
) -> Path:
    """Write ``BENCH_<sha>.json`` into ``directory`` and return its path."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{sha}.json"
    payload = bench_payload(sha, entries, engines=engines)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))
    return path


def resolve_bench_path(path: str | Path) -> Path:
    """Accept a bench file or a directory holding ``BENCH_*.json`` files.

    Given a directory (the shape of a CI artifact download), picks the most
    recently modified ``BENCH_*.json`` inside it.
    """
    p = Path(path)
    if p.is_dir():
        candidates = sorted(p.glob("BENCH_*.json"), key=lambda f: f.stat().st_mtime)
        if not candidates:
            raise ExperimentError(f"no BENCH_*.json files in directory {p}")
        return candidates[-1]
    return p


def load_bench(path: str | Path) -> dict:
    """Load and validate one bench JSON file (schema 1 or 2).

    Schema-1 files — a flat ``entries`` mapping — normalize to schema 2
    with their entries under the ``reference`` engine namespace.
    """
    resolved = resolve_bench_path(path)
    try:
        payload = json.loads(resolved.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ExperimentError(f"bench file not found: {resolved}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ExperimentError(f"bench file {resolved} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("schema") not in (1, BENCH_SCHEMA):
        raise ExperimentError(
            f"bench file {resolved} has unsupported schema "
            f"{payload.get('schema') if isinstance(payload, dict) else payload!r} "
            f"(expected 1 or {BENCH_SCHEMA})"
        )
    if payload["schema"] == 1:
        if not isinstance(payload.get("entries"), dict):
            raise ExperimentError(f"bench file {resolved} has no 'entries' mapping")
        return {
            "schema": BENCH_SCHEMA,
            "sha": payload.get("sha", "nosha"),
            "created_unix": payload.get("created_unix", 0.0),
            "engines": {DEFAULT_ENGINE: {"entries": payload["entries"]}},
        }
    engines = payload.get("engines")
    if not isinstance(engines, dict) or not all(
        isinstance(ns, dict) and isinstance(ns.get("entries"), dict)
        for ns in engines.values()
    ):
        raise ExperimentError(
            f"bench file {resolved} has no 'engines' namespace mapping "
            "(engine name -> {'entries': {...}})"
        )
    return payload


@dataclass(frozen=True)
class ComparisonRow:
    """One compared quantity: a bench's wall time or one of its metrics.

    ``bench`` carries the engine namespace as an ``engine::`` prefix for
    every namespace except ``reference`` (whose names stay bare, matching
    schema-1 output).
    """

    bench: str
    quantity: str  # "wall_s" or "metric:<name>"
    baseline: float
    candidate: float
    rel_change: float
    regressed: bool


@dataclass
class BenchComparison:
    """Result of diffing a candidate bench file against a baseline."""

    rows: list[ComparisonRow] = field(default_factory=list)
    missing_in_candidate: list[str] = field(default_factory=list)
    missing_in_baseline: list[str] = field(default_factory=list)
    wall_threshold: float = 0.0
    metric_threshold: float = 0.0

    @property
    def regressions(self) -> list[ComparisonRow]:
        return [r for r in self.rows if r.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"bench-compare: {len(self.rows)} quantities, "
            f"wall threshold +{self.wall_threshold:.0%}, "
            f"metric threshold ±{self.metric_threshold:.0%}",
        ]
        for row in self.rows:
            if not row.regressed and abs(row.rel_change) < 1e-12:
                continue
            marker = "REGRESSION" if row.regressed else "ok"
            lines.append(
                f"  [{marker:>10s}] {row.bench} {row.quantity}: "
                f"{row.baseline:.6g} -> {row.candidate:.6g} "
                f"({row.rel_change:+.1%})"
            )
        if self.missing_in_candidate:
            lines.append(
                f"  missing in candidate: {', '.join(self.missing_in_candidate)}"
            )
        if self.missing_in_baseline:
            lines.append(
                f"  new benches (not in baseline): "
                f"{', '.join(self.missing_in_baseline)}"
            )
        n = len(self.regressions)
        lines.append("PASS: no regressions" if not n else f"FAIL: {n} regression(s)")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """The comparison as a GitHub-flavored markdown table.

        ``repro bench-compare --summary-md`` appends this to a file — in
        CI, ``$GITHUB_STEP_SUMMARY``, so the per-engine wall/metric deltas
        show on the workflow run page without downloading artifacts.
        """
        n = len(self.regressions)
        verdict = "**PASS** — no regressions" if not n else f"**FAIL** — {n} regression(s)"
        lines = [
            "### bench-compare",
            "",
            f"{len(self.rows)} quantities, wall threshold "
            f"+{self.wall_threshold:.0%}, metric threshold "
            f"±{self.metric_threshold:.0%}: {verdict}",
            "",
            "| status | bench | quantity | baseline | candidate | change |",
            "| --- | --- | --- | ---: | ---: | ---: |",
        ]
        for row in self.rows:
            marker = "REGRESSION" if row.regressed else "ok"
            lines.append(
                f"| {marker} | {row.bench} | {row.quantity} | "
                f"{row.baseline:.6g} | {row.candidate:.6g} | "
                f"{row.rel_change:+.1%} |"
            )
        if self.missing_in_candidate:
            lines += ["", f"Missing in candidate: {', '.join(self.missing_in_candidate)}"]
        if self.missing_in_baseline:
            lines += [
                "",
                f"New benches (not in baseline): {', '.join(self.missing_in_baseline)}",
            ]
        return "\n".join(lines)


def _rel_change(baseline: float, candidate: float) -> float:
    if baseline == 0.0:
        return 0.0 if candidate == 0.0 else float("inf")
    return (candidate - baseline) / abs(baseline)


def _engines_of(payload: dict) -> dict:
    """Engine -> entries for a loaded payload (schema-1 shapes tolerated)."""
    if "engines" in payload:
        return {
            engine: dict(ns.get("entries", {}))
            for engine, ns in payload["engines"].items()
        }
    return {DEFAULT_ENGINE: dict(payload.get("entries", {}))}


def _qualified(engine: str, name: str) -> str:
    return name if engine == DEFAULT_ENGINE else f"{engine}::{name}"


def _disjoint_message(engines: list[str], base_engines: dict, cand_engines: dict) -> str:
    """Per-engine-namespace key listing for the disjoint-keys refusal."""
    parts = ["bench files share no bench keys — comparing them would check nothing."]
    for engine in engines:
        base_keys = ", ".join(sorted(base_engines.get(engine, {}))) or "(none)"
        cand_keys = ", ".join(sorted(cand_engines.get(engine, {}))) or "(none)"
        parts.append(
            f"[{engine}] baseline-only keys: {base_keys}; "
            f"candidate-only keys: {cand_keys}."
        )
    parts.append(
        "Regenerate the baseline with the current suite (see benchmarks/"
        "README note in README.md)."
    )
    return " ".join(parts)


def compare_bench(
    baseline: dict,
    candidate: dict,
    wall_threshold: float = 0.20,
    metric_threshold: float = 0.05,
    engine: str | None = None,
) -> BenchComparison:
    """Diff two bench payloads, per engine namespace.

    A *wall-time* regression is a candidate slower than
    ``baseline * (1 + wall_threshold)`` — getting faster never fails. A
    *metric* regression is a relative drift beyond ``metric_threshold`` in
    either direction: the benches record accuracy-style headline numbers
    whose direction of "better" varies, and any unexplained drift in a
    seeded, deterministic pipeline is a change worth failing on.

    Each engine namespace compares independently — a ``fast``-engine
    speedup can never offset a ``reference`` regression. Pass ``engine`` to
    restrict the comparison to one namespace (CI runs one gate per engine
    with different wall thresholds); the default compares every namespace
    present in either file, reporting namespaces absent from one side
    through the missing lists.
    """
    if wall_threshold < 0 or metric_threshold < 0:
        raise ExperimentError("thresholds must be >= 0")
    cmp = BenchComparison(
        wall_threshold=wall_threshold, metric_threshold=metric_threshold
    )
    base_engines = _engines_of(baseline)
    cand_engines = _engines_of(candidate)
    if engine is not None:
        for role, engines in (("baseline", base_engines), ("candidate", cand_engines)):
            if engine not in engines:
                raise ExperimentError(
                    f"engine namespace {engine!r} missing from the {role} "
                    f"bench file; it has: {sorted(engines) or '(none)'}"
                )
        compared = [engine]
    else:
        compared = sorted(set(base_engines) | set(cand_engines))

    pairs: list[tuple[str, str, dict, dict]] = []
    any_entries = False
    any_common = False
    for eng in compared:
        base_entries = base_engines.get(eng, {})
        cand_entries = cand_engines.get(eng, {})
        any_entries = any_entries or bool(base_entries) or bool(cand_entries)
        common = set(base_entries) & set(cand_entries)
        any_common = any_common or bool(common)
        cmp.missing_in_candidate.extend(
            _qualified(eng, n) for n in sorted(set(base_entries) - common)
        )
        cmp.missing_in_baseline.extend(
            _qualified(eng, n) for n in sorted(set(cand_entries) - common)
        )
        pairs.extend(
            (eng, name, base_entries[name], cand_entries[name])
            for name in sorted(common)
        )
    if any_entries and not any_common:
        # Fully disjoint key sets mean the two files benchmark different
        # things (renamed suite, wrong artifact, stale baseline) — comparing
        # zero quantities would vacuously PASS, so refuse instead, naming
        # the unmatched keys per engine namespace.
        raise ExperimentError(_disjoint_message(compared, base_engines, cand_engines))
    cmp.missing_in_candidate.sort()
    cmp.missing_in_baseline.sort()

    for eng, name, base, cand in pairs:
        label = _qualified(eng, name)
        for role, rec in (("baseline", base), ("candidate", cand)):
            if "wall_s" not in rec:
                raise ExperimentError(
                    f"{role} entry {label!r} has no 'wall_s' field — the file "
                    "was not produced by the bench suite's conftest "
                    "(pytest benchmarks/ --benchmark-only with "
                    "--bench-json-dir)"
                )
        wall_rel = _rel_change(base["wall_s"], cand["wall_s"])
        cmp.rows.append(ComparisonRow(
            bench=label,
            quantity="wall_s",
            baseline=float(base["wall_s"]),
            candidate=float(cand["wall_s"]),
            rel_change=wall_rel,
            regressed=wall_rel > wall_threshold,
        ))
        base_metrics = base.get("metrics", {})
        cand_metrics = cand.get("metrics", {})
        for metric in sorted(set(base_metrics) & set(cand_metrics)):
            b, c = base_metrics[metric], cand_metrics[metric]
            if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
                continue
            rel = _rel_change(float(b), float(c))
            cmp.rows.append(ComparisonRow(
                bench=label,
                quantity=f"metric:{metric}",
                baseline=float(b),
                candidate=float(c),
                rel_change=rel,
                regressed=abs(rel) > metric_threshold,
            ))
    return cmp
