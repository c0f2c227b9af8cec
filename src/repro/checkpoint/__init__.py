"""Crash-safe checkpoint/resume for experiments and sweeps.

Long CapGPU evaluation runs must survive the process dying — OOM-killed
workers, preempted nodes, operator Ctrl-C — without losing determinism.
This package provides the three layers that make that possible:

:mod:`~repro.checkpoint.state` / :mod:`~repro.checkpoint.blob` /
:mod:`~repro.checkpoint.engine`
    Object-graph capture into versioned, digest-verified state blobs, and
    in-place restore with **bit-identical** continuation: restore-then-run
    produces the same digests as an uninterrupted run.

:mod:`~repro.checkpoint.wal` / :mod:`~repro.checkpoint.journal`
    The one write-ahead log (atomic manifest, hash-chained fsynced lines,
    a replay that tolerates only a torn final line) and the sweep journal
    on it: per-job terminal records plus ``job_started`` markers, replayed
    by ``repro sweep --resume`` to skip completed jobs and re-run only the
    remainder with their original spawned seeds.

:mod:`~repro.checkpoint.signals`
    Cooperative SIGINT/SIGTERM handling: latch a flag in the handler,
    flush a final checkpoint at the next safe boundary, exit 130/143.
"""

from .blob import build_blob, load_blob, save_blob, validate_blob
from .engine import capture_run_state, restore_run_state
from .journal import JOURNAL_NAME, MANIFEST_NAME, JournalReplay, SweepJournal
from .signals import (
    CheckpointInterrupt,
    ShutdownFlag,
    install_signal_handlers,
    shutdown_event,
)
from .state import capture, restore

__all__ = [
    "build_blob",
    "load_blob",
    "save_blob",
    "validate_blob",
    "capture_run_state",
    "restore_run_state",
    "SweepJournal",
    "JournalReplay",
    "MANIFEST_NAME",
    "JOURNAL_NAME",
    "CheckpointInterrupt",
    "ShutdownFlag",
    "install_signal_handlers",
    "shutdown_event",
    "capture",
    "restore",
]
