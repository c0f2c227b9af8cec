"""Write-ahead journal for sweep resume.

A journalled sweep directory is a :class:`~repro.checkpoint.wal.Journal`.
Its ``manifest.json`` records the exact arguments the job list was built
from (experiment ids, root seed, replicates, set points, extra params) plus
the ordered job keys. ``--resume`` re-derives the job list from these
arguments — per-job seeds come out identical because
:func:`repro.runner.derive_replicate_seed` is a pure function of them — and
cross-checks the keys against the manifest. Its ``journal.jsonl`` holds:

* ``job_started`` — written *before* a job is dispatched, so a resume can
  distinguish never-started jobs from crashed-in-flight ones;
* ``job_done`` / ``job_failed`` — terminal outcomes, carrying the full
  serialized :class:`~repro.runner.JobRecord`;
* ``shutdown`` — a structured signal-shutdown marker.

Replay keeps the *last* terminal entry per job key. Jobs with a terminal
entry are skipped on resume (``failed`` included — a recorded failure is a
result; re-running only the crashed remainder keeps resume cheap and
deterministic); jobs that were started but never finished re-run, as does
the job a torn final line described.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .wal import MANIFEST_NAME, Journal

__all__ = ["SweepJournal", "JournalReplay", "MANIFEST_NAME", "JOURNAL_NAME"]

JOURNAL_NAME = "journal.jsonl"


@dataclass
class JournalReplay:
    """What a journal says already happened.

    ``completed`` maps job key -> the serialized record of its last
    terminal entry; ``in_flight`` holds keys that have a ``job_started``
    entry but no terminal one (crashed mid-job); ``shutdowns`` collects
    structured shutdown events; ``torn_lines`` counts dropped torn final
    lines (0 or 1).
    """

    completed: dict[str, dict] = field(default_factory=dict)
    in_flight: list[str] = field(default_factory=list)
    shutdowns: list[dict] = field(default_factory=list)
    torn_lines: int = 0


class SweepJournal(Journal):
    """One sweep's durable manifest + WAL, rooted at a directory."""

    label = "sweep"
    schema = 2
    log_name = JOURNAL_NAME
    kinds = ("job_started", "job_done", "job_failed", "shutdown")
    fresh_flag = "--journal-dir"

    def __init__(self, directory: str | Path):
        super().__init__(directory)
        self.journal_path = self.log_path

    @classmethod
    def create(
        cls,
        directory: str | Path,
        *,
        experiments: list[str],
        seed: int,
        replicates: int,
        set_points_w: list[float] | None,
        extra_params: dict | None,
        job_keys: list[str],
    ) -> "SweepJournal":
        """Start a fresh journalled sweep (refuses to clobber an old one)."""
        return cls._create(
            directory,
            {
                "experiments": list(experiments),
                "seed": int(seed),
                "replicates": int(replicates),
                "set_points_w": None if set_points_w is None else list(set_points_w),
                "extra_params": dict(extra_params or {}),
                "job_keys": list(job_keys),
            },
        )

    def job_started(self, job_key: str, attempt: int) -> None:
        self._append({"kind": "job_started", "key": job_key, "attempt": int(attempt)})

    def job_done(self, record_dict: dict) -> None:
        self._append({"kind": "job_done", "key": record_dict["key"], "record": record_dict})

    def job_failed(self, record_dict: dict) -> None:
        self._append({"kind": "job_failed", "key": record_dict["key"], "record": record_dict})

    def shutdown(self, event: dict) -> None:
        self._append({"kind": "shutdown", **event})

    def replay(self) -> JournalReplay:
        """Reconstruct completion state from the verified WAL."""
        replay = JournalReplay()
        started: dict[str, int] = {}
        for _, entry in self._entries():
            kind = entry["kind"]
            if kind == "job_started":
                started[entry["key"]] = entry.get("attempt", 1)
            elif kind == "shutdown":
                replay.shutdowns.append(entry)
            else:
                replay.completed[entry["key"]] = entry["record"]
        replay.torn_lines = self.torn_lines
        replay.in_flight = [key for key in started if key not in replay.completed]
        return replay
