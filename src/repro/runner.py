"""Parallel experiment sweep executor.

The paper's evaluation is a large sweep — five controllers x many caps x
multiple workloads — and every job in it is embarrassingly parallel: one
``(experiment, seed, params)`` tuple fully determines one
:class:`~repro.experiments.common.ExperimentResult`. This module fans those
jobs out over a :class:`concurrent.futures.ProcessPoolExecutor` while keeping
the three properties the rest of the repo is built on:

Determinism
    Every job's seed is fixed in the *parent* before anything is submitted
    (replicate seeds derive from the root seed via :func:`repro.rng.spawn`),
    and records are reported in job order, never completion order — so a
    sweep with ``n_jobs=N`` is bit-for-bit identical to ``n_jobs=1``.
    :meth:`SweepReport.checksum` digests exactly the reproducible part of the
    output (renders + canonical data, no timings) to make that checkable.

Graceful degradation
    A job that raises, or whose worker process dies outright, is retried once
    and then *recorded* as ``failed`` — the sweep always completes. The retry
    ladder reuses the :mod:`repro.faults` vocabulary: ``ok`` (fresh result) ->
    ``degraded`` (result recovered on retry, the holdover rung) -> ``failed``
    (recorded blindness, the ``none`` rung). Crash injection for tests uses
    :class:`repro.faults.FaultWindow` over *attempt* indices.

Observability
    Structured per-job events (``job-start`` / ``job-done`` / ``job-retry`` /
    ``job-failed``) with wall times flow through an ``on_event`` callback, and
    in-process experiment loops can use :func:`map_cases` to get the same
    per-case timing without ad-hoc ``for`` loops.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomicio import atomic_write_text
from .errors import ExperimentError
from .faults import FaultWindow
from .rng import spawn

__all__ = [
    "SweepJob",
    "JobEvent",
    "JobRecord",
    "SweepReport",
    "build_jobs",
    "derive_replicate_seed",
    "run_sweep",
    "map_cases",
    "canonical_json",
    "JOB_OK",
    "JOB_DEGRADED",
    "JOB_FAILED",
    "JOB_STATUSES",
]

#: Per-job outcome ladder, mirroring the engine's graceful-degradation rungs
#: (fresh observation -> holdover -> none): a clean first-attempt result, a
#: result recovered on retry, and a recorded failure.
JOB_OK = "ok"
JOB_DEGRADED = "degraded"
JOB_FAILED = "failed"
JOB_STATUSES = (JOB_OK, JOB_DEGRADED, JOB_FAILED)

#: Attempts per job: the first run plus retry-once-on-crash.
MAX_ATTEMPTS = 2


# -- jobs ------------------------------------------------------------------


@dataclass(frozen=True)
class SweepJob:
    """One unit of sweep work: an experiment id, a seed, and extra kwargs.

    ``params`` is a sorted tuple of ``(name, value)`` pairs so the job is
    hashable and its :attr:`key` is stable.
    """

    experiment_id: str
    seed: int = 0
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def make(cls, experiment_id: str, seed: int = 0, **params) -> "SweepJob":
        return cls(experiment_id, int(seed), tuple(sorted(params.items())))

    def kwargs(self) -> dict:
        """Keyword arguments for :func:`repro.experiments.run_experiment`."""
        return {"seed": self.seed, **dict(self.params)}

    @property
    def key(self) -> str:
        """Stable human-readable identity, e.g. ``fig3[seed=0,set_point_w=850.0]``."""
        parts = [f"seed={self.seed}", *(f"{k}={v}" for k, v in self.params)]
        return f"{self.experiment_id}[{','.join(parts)}]"


def derive_replicate_seed(root_seed: int, experiment_id: str, replicate: int) -> int:
    """Deterministic per-replicate seed, derived in the parent process.

    Keyed on ``(root_seed, experiment_id, replicate)`` through
    :func:`repro.rng.spawn`, so the mapping is independent of worker count,
    submission order, and completion order — the anchor of the
    ``--jobs N == --jobs 1`` guarantee.
    """
    stream = spawn(root_seed, f"sweep/{experiment_id}/rep{replicate}")
    return int(stream.integers(0, 2**31 - 1))


def build_jobs(
    experiment_ids: Sequence[str],
    seed: int = 0,
    replicates: int = 1,
    set_points_w: Sequence[float] | None = None,
    extra_params: Mapping[str, object] | None = None,
) -> list[SweepJob]:
    """Expand an ``experiments x replicates x caps`` grid into jobs.

    Replicate 0 uses the root ``seed`` unchanged (so ``repro sweep fig3``
    matches ``capgpu run fig3 --seed S`` exactly); further replicates derive
    their seeds via :func:`derive_replicate_seed`. ``set_points_w`` and
    ``extra_params`` are filtered per experiment against the runner's
    signature — ``table1`` takes no ``set_point_w``, so a cap sweep simply
    runs it once per replicate.
    """
    from .experiments import EXPERIMENTS

    unknown = [e for e in experiment_ids if e not in EXPERIMENTS]
    if unknown:
        raise ExperimentError(
            f"unknown experiment ids {unknown!r}; available: {sorted(EXPERIMENTS)}"
        )
    if replicates < 1:
        raise ExperimentError(f"replicates must be >= 1, got {replicates}")
    jobs: list[SweepJob] = []
    for eid in experiment_ids:
        accepted = _accepted_kwargs(EXPERIMENTS[eid])
        params = {
            k: v for k, v in (extra_params or {}).items() if k in accepted
        }
        caps: list[float | None]
        if set_points_w and "set_point_w" in accepted:
            caps = list(set_points_w)
        else:
            caps = [None]
        for rep in range(replicates):
            rep_seed = seed if rep == 0 else derive_replicate_seed(seed, eid, rep)
            for cap in caps:
                job_params = dict(params)
                if cap is not None:
                    job_params["set_point_w"] = float(cap)
                jobs.append(SweepJob.make(eid, seed=rep_seed, **job_params))
    seen: set[SweepJob] = set()
    deduped = []
    for job in jobs:
        if job not in seen:
            seen.add(job)
            deduped.append(job)
    return deduped


def _accepted_kwargs(fn: Callable) -> frozenset[str]:
    return frozenset(inspect.signature(fn).parameters)


# -- canonical serialization -----------------------------------------------


#: Data keys / trace channels that record *measured wall-clock time* (the
#: engine times each controller invocation into ``ctl_ms``; the fleet engine
#: times each allocation round into ``alloc_ms``). They are real results but
#: inherently non-reproducible, so the canonical projection — and therefore
#: the ``--jobs N == --jobs 1`` digest and the fleet-vs-scalar differential
#: equality — excludes them.
TIMING_KEYS = frozenset({"ctl_ms", "alloc_ms"})


def _canonicalize(obj):
    """Recursively convert experiment data into JSON-stable primitives.

    numpy scalars/arrays become Python numbers/lists, Traces become channel
    dicts, dataclasses (model fits etc.) become tagged dicts; anything else
    falls back to ``repr``. Measured-time quantities (:data:`TIMING_KEYS`)
    are dropped. The mapping is deterministic for a given code version,
    which is all the bit-for-bit sweep guarantee needs.
    """
    from .telemetry.trace import Trace

    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Trace):
        return {
            "__trace__": {
                name: obj[name].tolist()
                for name in obj.channels
                if name not in TIMING_KEYS
            }
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f"__{type(obj).__name__}__": _canonicalize(dataclasses.asdict(obj))
        }
    if isinstance(obj, Mapping):
        return {
            str(k): _canonicalize(v)
            for k, v in obj.items()
            if k not in TIMING_KEYS
        }
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    return repr(obj)


def canonical_json(data) -> str:
    """Canonical JSON text for arbitrary experiment data (sorted keys)."""
    return json.dumps(_canonicalize(data), sort_keys=True, separators=(",", ":"))


# -- worker ----------------------------------------------------------------


def _execute_job(
    job: SweepJob, attempt: int, crash_windows: Mapping[str, FaultWindow] | None
) -> dict:
    """Top-level worker body (must stay module-level for pickling).

    ``crash_windows`` is the fault-injection hook for the worker-crash path:
    if the job's key maps to a :class:`~repro.faults.FaultWindow` containing
    the zero-based attempt index, the worker dies hard (``os._exit``), which
    is indistinguishable from a real crash to the parent.
    """
    if crash_windows:
        window = crash_windows.get(job.key)
        if window is not None and window.contains(attempt - 1):
            os._exit(77)
    from .experiments import run_experiment

    t0 = time.perf_counter()
    result = run_experiment(job.experiment_id, **job.kwargs())
    wall_s = time.perf_counter() - t0
    canonical = canonical_json(result.data)
    return {
        "render": result.render(),
        "canonical": canonical,
        # Digest covers the canonical data only: renders may format measured
        # solve times (e.g. the solver ablation's "Solve ms" column).
        "digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "wall_s": wall_s,
        "timings": dict(getattr(result, "timings", {})),
    }


# -- records / report ------------------------------------------------------


@dataclass(frozen=True)
class JobEvent:
    """Structured progress event emitted by :func:`run_sweep`."""

    kind: str  # job-start | job-done | job-retry | job-failed
    job_key: str
    attempt: int
    wall_s: float | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class JobRecord:
    """Recorded outcome of one sweep job (always present, even on failure)."""

    job: SweepJob
    status: str
    attempts: int
    wall_s: float | None = None
    render: str | None = None
    canonical: str | None = None
    digest: str | None = None
    error: str | None = None
    timings: dict = field(default_factory=dict)

    def to_dict(self, include_timing: bool = True) -> dict:
        """Serializable view.

        ``include_timing=False`` is the *reproducible projection*: it drops
        wall times, per-case timings, and the rendered report (whose tables
        may format measured solve times), leaving exactly the fields that
        are bit-for-bit identical across worker counts.
        """
        out = {
            "key": self.job.key,
            "experiment_id": self.job.experiment_id,
            "seed": self.job.seed,
            "params": dict(self.job.params),
            "status": self.status,
            "attempts": self.attempts,
            "canonical": self.canonical,
            "digest": self.digest,
            "error": self.error,
        }
        if include_timing:
            out["render"] = self.render
            out["wall_s"] = self.wall_s
            out["timings"] = self.timings
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "JobRecord":
        """Rebuild a record from its :meth:`to_dict` form (journal replay)."""
        job = SweepJob.make(
            data["experiment_id"], seed=data["seed"], **dict(data.get("params", {}))
        )
        return cls(
            job=job,
            status=data["status"],
            attempts=int(data.get("attempts", 1)),
            wall_s=data.get("wall_s"),
            render=data.get("render"),
            canonical=data.get("canonical"),
            digest=data.get("digest"),
            error=data.get("error"),
            timings=dict(data.get("timings", {})),
        )


@dataclass
class SweepReport:
    """All job records of one sweep, in job (not completion) order."""

    records: list[JobRecord]
    n_jobs: int
    wall_s: float
    #: True when a shutdown signal stopped the sweep before every job had a
    #: terminal record; the report then covers only the jobs that finished
    #: (resume the journal directory to run the remainder).
    interrupted: bool = False

    @property
    def failed(self) -> list[JobRecord]:
        return [r for r in self.records if r.status == JOB_FAILED]

    @property
    def ok(self) -> bool:
        return not self.failed and not self.interrupted

    def checksum(self) -> str:
        """Digest of the reproducible output (renders + data, no timings)."""
        h = hashlib.sha256()
        for rec in self.records:
            h.update(rec.job.key.encode("utf-8"))
            h.update(b"\x00")
            h.update((rec.digest or f"<{rec.status}>").encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()

    def to_json(self, include_timing: bool = True) -> str:
        payload = {
            "schema": 1,
            "checksum": self.checksum(),
            "interrupted": self.interrupted,
            "records": [r.to_dict(include_timing=include_timing) for r in self.records],
        }
        if include_timing:
            payload["n_jobs"] = self.n_jobs
            payload["wall_s"] = self.wall_s
        return json.dumps(payload, sort_keys=True, indent=2)

    def write_json(self, path, include_timing: bool = True) -> Path:
        return atomic_write_text(path, self.to_json(include_timing=include_timing))

    def render_summary(self) -> str:
        from .analysis import format_table

        rows = []
        for rec in self.records:
            rows.append([
                rec.job.key,
                rec.status,
                rec.attempts,
                f"{rec.wall_s:.2f}" if rec.wall_s is not None else "-",
                (rec.error or "")[:60],
            ])
        return format_table(
            ["Job", "Status", "Attempts", "Wall s", "Error"],
            rows,
            title=f"Sweep: {len(self.records)} jobs, n_jobs={self.n_jobs}, "
                  f"{self.wall_s:.1f} s total, checksum {self.checksum()[:12]}",
        )


# -- execution -------------------------------------------------------------


def _emit(on_event, event: JobEvent) -> None:
    if on_event is not None:
        on_event(event)


def _start(job: SweepJob, attempt: int, on_event, journal) -> None:
    """Announce one attempt — journalled *before* dispatch, so a resume can
    tell a crashed-in-flight job from one that never started."""
    if journal is not None:
        journal.job_started(job.key, attempt)
    _emit(on_event, JobEvent("job-start", job.key, attempt))


def _finish(
    records: dict[SweepJob, JobRecord],
    job: SweepJob,
    attempt: int,
    payload: dict,
    on_event,
    journal,
) -> None:
    status = JOB_OK if attempt == 1 else JOB_DEGRADED
    record = JobRecord(
        job=job,
        status=status,
        attempts=attempt,
        wall_s=payload["wall_s"],
        render=payload["render"],
        canonical=payload["canonical"],
        digest=payload["digest"],
        timings=payload.get("timings", {}),
    )
    records[job] = record
    if journal is not None:
        journal.job_done(record.to_dict(include_timing=True))
    _emit(on_event, JobEvent("job-done", job.key, attempt, wall_s=payload["wall_s"]))


def _fail(
    records: dict[SweepJob, JobRecord],
    job: SweepJob,
    attempt: int,
    error: str,
    on_event,
    journal,
) -> None:
    record = JobRecord(job=job, status=JOB_FAILED, attempts=attempt, error=error)
    records[job] = record
    if journal is not None:
        journal.job_failed(record.to_dict(include_timing=True))
    _emit(on_event, JobEvent("job-failed", job.key, attempt, error=error))


def _retry(job: SweepJob, attempt: int, error: str, on_event) -> None:
    _emit(on_event, JobEvent("job-retry", job.key, attempt, error=error))


def run_sweep(
    jobs: Iterable[SweepJob],
    n_jobs: int = 1,
    on_event: Callable[[JobEvent], None] | None = None,
    crash_windows: Mapping[str, FaultWindow] | None = None,
    journal=None,
    completed: Mapping[str, JobRecord] | None = None,
    stop_flag=None,
) -> SweepReport:
    """Execute ``jobs``, fanning out over ``n_jobs`` worker processes.

    ``n_jobs=1`` runs inline in this process (the sequential reference path);
    ``n_jobs>1`` uses a :class:`ProcessPoolExecutor`. Either way the report's
    records are in job order and its :meth:`~SweepReport.checksum` is
    identical — parallelism never changes results, only wall time.

    Failure handling: a job that raises is retried once; a job whose worker
    process dies (``BrokenProcessPool``) poisons the shared pool, so every
    unfinished job is re-run, each retry in its *own* single-worker pool so a
    persistently crashing job cannot take healthy ones down with it. After
    :data:`MAX_ATTEMPTS` the job is recorded as ``failed`` and the sweep
    carries on — it never aborts.

    Crash safety: ``journal`` (a :class:`repro.checkpoint.SweepJournal`)
    receives a durable ``job_started`` entry before every dispatch and the
    full record on every terminal outcome; ``completed`` (job key ->
    :class:`JobRecord`, from a journal replay) pre-fills records so those
    jobs are skipped; ``stop_flag`` (a truthy-when-set object, e.g.
    :class:`repro.checkpoint.ShutdownFlag`) winds the sweep down at the next
    job boundary — in-flight jobs finish and are recorded, queued ones are
    not started, and the report comes back ``interrupted``.

    ``crash_windows`` (test/fault-injection hook) maps job keys to
    :class:`~repro.faults.FaultWindow` objects over zero-based attempt
    indices; a matching attempt kills the worker process hard.
    """
    job_list = list(jobs)
    if len(set(job_list)) != len(job_list):
        raise ExperimentError("duplicate jobs in sweep")
    if n_jobs < 1:
        raise ExperimentError(f"n_jobs must be >= 1, got {n_jobs}")
    t0 = time.perf_counter()
    records: dict[SweepJob, JobRecord] = {}
    if completed:
        for job in job_list:
            prior = completed.get(job.key)
            if prior is not None:
                records[job] = prior
    todo = [job for job in job_list if job not in records]

    if n_jobs == 1:
        for job in todo:
            if stop_flag:
                break
            _run_inline(records, job, crash_windows, on_event, journal)
    else:
        _run_pooled(records, todo, n_jobs, crash_windows, on_event, journal, stop_flag)

    ordered = [records[job] for job in job_list if job in records]
    return SweepReport(
        records=ordered,
        n_jobs=n_jobs,
        wall_s=time.perf_counter() - t0,
        interrupted=len(ordered) < len(job_list),
    )


def _run_inline(records, job, crash_windows, on_event, journal) -> None:
    """Sequential path: same attempt ladder, no subprocess.

    Hard-crash injection still runs in a throwaway single-worker pool so the
    parent survives it; genuine in-process exceptions are caught directly.
    """
    for attempt in range(1, MAX_ATTEMPTS + 1):
        _start(job, attempt, on_event, journal)
        injected = crash_windows and job.key in crash_windows
        try:
            if injected:
                with ProcessPoolExecutor(max_workers=1) as pool:
                    payload = pool.submit(
                        _execute_job, job, attempt, crash_windows
                    ).result()
            else:
                payload = _execute_job(job, attempt, None)
        except Exception as exc:  # noqa: BLE001 - degrade, never abort
            error = f"{type(exc).__name__}: {exc}"
            if attempt < MAX_ATTEMPTS:
                _retry(job, attempt, error, on_event)
                continue
            _fail(records, job, attempt, error, on_event, journal)
            return
        _finish(records, job, attempt, payload, on_event, journal)
        return


def _run_pooled(records, job_list, n_jobs, crash_windows, on_event, journal, stop_flag) -> None:
    """First attempts share one pool; retries run isolated, one pool each."""
    retry_queue: list[tuple[SweepJob, int, str]] = []
    pending = {job: 1 for job in job_list}
    while pending:
        broken = False
        stopped = False
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = {}
            for job, attempt in pending.items():
                _start(job, attempt, on_event, journal)
                futures[pool.submit(_execute_job, job, attempt, crash_windows)] = (
                    job, attempt,
                )
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for fut in done:
                    if fut.cancelled():
                        continue
                    job, attempt = futures[fut]
                    try:
                        payload = fut.result()
                    except BrokenProcessPool:
                        broken = True
                    except Exception as exc:  # noqa: BLE001
                        error = f"{type(exc).__name__}: {exc}"
                        if attempt < MAX_ATTEMPTS:
                            retry_queue.append((job, attempt + 1, error))
                            _retry(job, attempt, error, on_event)
                        else:
                            _fail(records, job, attempt, error, on_event, journal)
                    else:
                        _finish(records, job, attempt, payload, on_event, journal)
                if broken:
                    break
                if stop_flag and not stopped:
                    # Shutdown signal: queued work is cancelled, in-flight
                    # jobs run to completion and get recorded — the journal
                    # then resumes the remainder.
                    stopped = True
                    for fut in not_done:  # repro-lint: disable=REP105 -- cancellation is order-independent; nothing here reaches a digest
                        fut.cancel()
        if stopped:
            return
        if broken:
            # The pool is poisoned: every unfinished job is collateral. Send
            # them all to isolated retries without charging an extra attempt
            # to jobs that never got to run.
            queued = {j for j, _, _ in retry_queue}
            for job, attempt in pending.items():
                if job in records or job in queued:
                    continue
                error = "worker process crashed (BrokenProcessPool)"
                if attempt < MAX_ATTEMPTS:
                    retry_queue.append((job, attempt + 1, error))
                    _retry(job, attempt, error, on_event)
                else:
                    _fail(records, job, attempt, error, on_event, journal)
        pending = {}
        # Drain retries one at a time, each in a fresh single-worker pool, so
        # a deterministic crasher cannot poison anyone else's attempt.
        for job, attempt, prior_error in retry_queue:
            if stop_flag:
                return
            _start(job, attempt, on_event, journal)
            try:
                with ProcessPoolExecutor(max_workers=1) as solo:
                    payload = solo.submit(
                        _execute_job, job, attempt, crash_windows
                    ).result()
            except Exception as exc:  # noqa: BLE001
                error = f"{type(exc).__name__}: {exc} (after {prior_error})"
                _fail(records, job, attempt, error, on_event, journal)
            else:
                _finish(records, job, attempt, payload, on_event, journal)
        retry_queue = []


# -- in-process case mapping ----------------------------------------------


def map_cases(
    cases: Iterable[tuple[str, object]],
    fn: Callable[[str, object], object],
    on_event: Callable[[JobEvent], None] | None = None,
) -> tuple[dict[str, object], dict[str, float]]:
    """Run labelled in-process cases with structured per-case timing.

    The sequential counterpart of :func:`run_sweep` for loops *inside* an
    experiment (per-strategy, per-set-point runs that close over local
    state and therefore cannot cross a process boundary). Returns
    ``(results, timings)`` keyed by label, preserving case order, and emits
    the same ``job-start`` / ``job-done`` events as the sweep executor.
    """
    results: dict[str, object] = {}
    timings: dict[str, float] = {}
    for label, case in cases:
        if label in results:
            raise ExperimentError(f"duplicate case label {label!r}")
        _emit(on_event, JobEvent("job-start", label, 1))
        t0 = time.perf_counter()
        results[label] = fn(label, case)
        timings[label] = time.perf_counter() - t0
        _emit(on_event, JobEvent("job-done", label, 1, wall_s=timings[label]))
    return results, timings
