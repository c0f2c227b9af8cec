"""Static analysis for reproducibility: the ``repro lint`` rule engine.

The repository's core guarantees — bit-identical digests across ``--jobs N``
and across the scalar/vectorized engines — are dynamic properties enforced by
tests that happen to exercise the right code paths. This package enforces the
*static* preconditions of those guarantees before any simulation runs:

=========  =============================================================
REP1xx     Determinism: no wall-clock or ambient-entropy reads, no global
           RNG, no iteration over hash-ordered containers in
           digest-relevant modules.
REP2xx     Float semantics: no order-sensitive reductions over unordered
           containers, no float-literal equality.
REP3xx     Units safety: no raw-float mixing of W/mW, MHz/GHz, s/ms and
           no hand-rolled power-of-ten conversions — use
           :mod:`repro.units`.
REP4xx     API conformance: controllers implement the full
           :class:`~repro.control.base.PowerCappingController` contract;
           the experiment registry maps valid ids to imported runners.
REP5xx     Concurrency safety over the whole-program call graph: no
           blocking calls reachable from ``async def``, no unlocked
           writes to module-level state from thread/worker/async
           entrypoints, no thread locks across ``await``, no dropped
           task handles, shared-memory lifecycle, picklable-only
           process-pool submissions.
REP6xx     Architecture layering over the whole-program import graph:
           the ``pyproject.toml`` layer contract (no upward imports),
           module-level import cycles, stdlib-only modules.
=========  =============================================================

Findings can be suppressed per line (``# repro-lint: disable=REP101 --
reason``), per file (``# repro-lint: disable-file=REP105``), or triaged into
a committed baseline file (see :mod:`repro.lint.baseline`). The CLI entry
point is ``repro lint``; see ``docs/static-analysis.md`` for the rule
catalogue and suppression policy.
"""

from __future__ import annotations

from .baseline import Baseline, BaselineEntry, load_baseline, write_baseline
from .engine import LintConfig, LintResult, LintUsageError, run_lint
from .findings import Finding
from .index import ImportGraph, ProjectCallGraph, ProjectIndex
from .layers import (
    Layer,
    LayerContract,
    LayerContractError,
    discover_layer_contract,
    load_layer_contract,
)
from .rules import ALL_RULES, Rule

__all__ = [
    "ALL_RULES",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "ImportGraph",
    "Layer",
    "LayerContract",
    "LayerContractError",
    "LintConfig",
    "LintResult",
    "LintUsageError",
    "ProjectCallGraph",
    "ProjectIndex",
    "Rule",
    "discover_layer_contract",
    "load_baseline",
    "load_layer_contract",
    "run_lint",
    "write_baseline",
]
