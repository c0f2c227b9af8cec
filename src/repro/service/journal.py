"""Crash durability for the service: manifest + window WAL + state blob.

A journalled service directory is a :class:`~repro.checkpoint.wal.Journal`
whose manifest holds the deployed ``config`` (``--resume`` takes its
configuration from there) and whose ``windows.jsonl`` log holds one
``window_closed`` entry per closed window, appended *before* the window's
results are served. The service core links each entry onto the chain
itself; replay also requires window indices to count up from 0. Beside
them, ``twin.ckpt`` is a checkpoint blob of the twins' state after the
latest window: resume restores it when it matches the WAL head, and
otherwise (the blob write is best-effort-last, the WAL is authoritative)
rebuilds the twins by deterministic re-simulation, cross-checked digest
for digest against the WAL.
"""

from __future__ import annotations

from pathlib import Path

from ..checkpoint.wal import GENESIS_CHAIN, MANIFEST_NAME, Journal, chain_digest
from ..errors import CheckpointError

__all__ = [
    "chain_digest",
    "ServiceJournal",
    "MANIFEST_NAME",
    "WINDOWS_WAL_NAME",
    "TWIN_BLOB_NAME",
    "GENESIS_CHAIN",
]

WINDOWS_WAL_NAME = "windows.jsonl"
TWIN_BLOB_NAME = "twin.ckpt"


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

    def head_chain(self, entries: list[dict]) -> str:
        """The chain link of the last verified entry (genesis when empty)."""
        return entries[-1]["chain"] if entries else GENESIS_CHAIN
