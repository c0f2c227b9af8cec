"""Crash durability for the service: manifest + window WAL + twin state.

A journalled service directory is a :class:`~repro.checkpoint.wal.Journal`
whose manifest holds the deployed ``config`` (``--resume`` takes its
configuration from there) and whose ``windows.jsonl`` log holds one
``window_closed`` entry per closed window, appended *before* the window's
results are served. The service core links each entry onto the chain
itself; replay also requires window indices to count up from 0. Beside
them the twins' state at a checkpoint (every 16 committed windows, when
the serve loop idles, and on close) is kept in two files:

* ``history.bin`` — the twins' history rows, append-only: each checkpoint
  adds the rows of the windows since the last one, one fixed-size record
  per window, with one write and one fsync; an append first cuts anything
  past the length the service last recorded, as the WAL cuts a torn tail;
* ``twin.ckpt`` — a checkpoint blob of the twins' fixed-size state, which
  refers to their history tables by name and records the length and
  sha256 of ``history.bin`` it goes with, and each table's row count.

Resume restores the blob when its chain is a WAL entry and the history
prefix it records checks out, then re-simulates the windows the WAL holds
beyond it. Otherwise (both files only save re-simulation, the WAL is
authoritative) it rebuilds the twins by deterministic re-simulation.
Either way it rewrites both files at the head when it re-simulated, and
the twins are cross-checked digest for digest against the WAL.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..atomicio import fsync_dir, fsync_file
from ..checkpoint.wal import GENESIS_CHAIN, MANIFEST_NAME, Journal, chain_digest
from ..errors import CheckpointError

__all__ = [
    "chain_digest",
    "ServiceJournal",
    "MANIFEST_NAME",
    "WINDOWS_WAL_NAME",
    "TWIN_BLOB_NAME",
    "HISTORY_NAME",
    "GENESIS_CHAIN",
]

WINDOWS_WAL_NAME = "windows.jsonl"
TWIN_BLOB_NAME = "twin.ckpt"
HISTORY_NAME = "history.bin"


class ServiceJournal(Journal):
    """One service's durable manifest + window WAL, rooted at a directory."""

    label = "service"
    schema = 1
    log_name = WINDOWS_WAL_NAME
    kinds = ("window_closed",)
    fresh_flag = "--journal"

    def __init__(self, directory: str | Path):
        super().__init__(directory)
        self.wal_path = self.log_path
        self.blob_path = self.directory / TWIN_BLOB_NAME
        self.history_path = self.directory / HISTORY_NAME

    @classmethod
    def create(cls, directory: str | Path, config: dict) -> "ServiceJournal":
        """Start a fresh journalled service (refuses to clobber an old one)."""
        return cls._create(directory, {"config": dict(config)})

    def manifest(self) -> dict:
        """The validated service manifest (returns the config mapping)."""
        config = super().manifest().get("config")
        if not isinstance(config, dict):
            raise CheckpointError(f"{self.manifest_path} has no config mapping")
        return config

    def append_window(self, entry: dict) -> None:
        """Durably append one ``window_closed`` entry the service core chained.

        Chain correctness is enforced on :meth:`replay`.
        """
        if entry.get("kind") != "window_closed" or "chain" not in entry:
            raise CheckpointError("append_window takes a chained window_closed entry")
        self._write(entry)

    def replay(self) -> list[dict]:
        """Verify and return the WAL's ``window_closed`` entries, in order.

        After the WAL's own checks (kind, then chain) on each entry, its
        window index must be the next one.
        """
        entries: list[dict] = []
        for lineno, entry in self._entries():
            index = entry.get("window", {}).get("index")
            if index != len(entries):
                raise CheckpointError(
                    f"{self.wal_path}:{lineno}: window index {index!r} where "
                    f"{len(entries)} was expected — the journal is corrupt, "
                    "refusing to resume"
                )
            entries.append(entry)
        return entries

    def append_history(self, start: int, data: bytes) -> None:
        """Durably append ``data`` to ``history.bin`` at byte ``start``,
        cutting anything past ``start`` first: one write, one fsync."""
        created = not self.history_path.exists()
        with open(self.history_path, "ab") as fh:
            if fh.tell() > start:
                fh.truncate(start)
            fh.write(data)
            fsync_file(fh)
        if created:
            fsync_dir(self.directory)

    def read_history(self, length: int) -> bytes | None:
        """The first ``length`` bytes of ``history.bin``; None when the
        file is missing or shorter."""
        try:
            with open(self.history_path, "rb") as fh:
                data = fh.read(length)
        except FileNotFoundError:
            return None
        return data if len(data) == length else None

    def truncate_history(self, length: int) -> None:
        """Cut ``history.bin`` to ``length`` bytes."""
        os.truncate(self.history_path, length)

    def head_chain(self, entries: list[dict]) -> str:
        """The chain link of the last verified entry (genesis when empty)."""
        return entries[-1]["chain"] if entries else GENESIS_CHAIN
