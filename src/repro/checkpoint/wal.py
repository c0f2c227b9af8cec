"""The one write-ahead log behind the sweep and the service journals.

A :class:`Journal` is a directory: an atomic ``manifest.json`` (``format``,
``schema_version`` and the journal's payload) beside one log of JSON lines,
each appended with one write and one fsync (the append that creates the log
fsyncs its directory too, once). Every entry carries ``chain``, the sha256
of the previous link and its own canonical body (:func:`chain_digest`).

Replay tolerates only a torn *final* line, undecodable or missing its
newline: its write never reached its fsync, so nothing was acknowledged
from it. Replay drops it and the next append cuts it off. Any other damage
(an undecodable interior line, an entry kind the journal does not write, a
chain mismatch) raises :class:`~repro.errors.CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from pathlib import Path
from typing import Any, BinaryIO, ClassVar, TypeVar

from ..atomicio import atomic_write_json, fsync_dir, fsync_file
from ..errors import CheckpointError

__all__ = ["GENESIS_CHAIN", "MANIFEST_NAME", "Journal", "chain_digest", "manifest_field"]

MANIFEST_NAME = "manifest.json"

#: The chain value before the first entry.
GENESIS_CHAIN = "genesis"

_CORRUPT = "the journal is corrupt, refusing to resume"


def chain_digest(prev_chain: str, entry_body: dict) -> str:
    """The WAL hash chain: sha256 over the previous link + this body."""
    body = json.dumps(entry_body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((prev_chain + "\n" + body).encode("utf-8")).hexdigest()


Kind = type | tuple[type, ...]


def _is_a(value: object, kind: Kind) -> bool:
    # A JSON true/false is no number: no manifest field is a bool.
    return isinstance(value, kind) and not isinstance(value, bool)


def manifest_field(
    manifest: dict, name: str, kind: Kind, items: Kind | None = None, *, section: str = ""
) -> Any:
    """``manifest[name]``, refused with :class:`~repro.errors.CheckpointError`
    naming the field (``section`` + ``name``) when it is missing or not a
    ``kind``, or, given ``items``, is a list holding anything else."""
    field = section + name
    if name not in manifest:
        raise CheckpointError(f"journal manifest lacks field {field!r}")
    value = manifest[name]
    listed = value if items is not None and isinstance(value, list) else []
    if not _is_a(value, kind) or not all(_is_a(v, items) for v in listed):
        raise CheckpointError(
            f"journal manifest field {field!r} has the wrong type: {value!r:.60}"
        )
    return value


J = TypeVar("J", bound="Journal")


class Journal:
    """A journal directory: an atomic manifest beside one write-ahead log.

    Subclasses name the ``label`` (in the manifest format and refusals),
    the manifest ``schema``, the log file, the entry ``kinds`` it holds and
    the CLI flag that points a fresh run at a new directory.
    """

    label: ClassVar[str]
    schema: ClassVar[int]
    log_name: ClassVar[str]
    kinds: ClassVar[tuple[str, ...]]
    fresh_flag: ClassVar[str]

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.manifest_path = self.directory / MANIFEST_NAME
        self.log_path = self.directory / self.log_name
        #: The chain link of the last entry replayed or written.
        self.head = GENESIS_CHAIN
        #: Torn final lines the last replay dropped (0 or 1).
        self.torn_lines = 0
        self._end = -1  # log bytes verified or written; -1 before a replay
        self._fh: BinaryIO | None = None

    @classmethod
    def _create(cls: type[J], directory: str | Path, payload: dict) -> J:
        """Start a fresh journal (refuses to clobber an old one)."""
        journal = cls(directory)
        if journal.manifest_path.exists():
            raise CheckpointError(
                f"{journal.manifest_path} already exists — resume it with "
                f"--resume, or point {cls.fresh_flag} at a fresh directory"
            )
        manifest = {"format": f"repro-{cls.label}-journal", "schema_version": cls.schema}
        atomic_write_json(journal.manifest_path, {**manifest, **payload})
        return journal

    @classmethod
    def open(cls: type[J], directory: str | Path) -> J:
        """Attach to an existing journal for resume."""
        journal = cls(directory)
        journal.manifest()  # validates existence + schema
        return journal

    def manifest(self) -> dict:
        """The validated manifest."""
        path, label = self.manifest_path, self.label
        if not path.exists():
            raise CheckpointError(f"no {label} manifest at {path}")
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CheckpointError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("format") != f"repro-{label}-journal":
            raise CheckpointError(f"{path} is not a {label} manifest")
        if manifest.get("schema_version") != self.schema:
            raise CheckpointError(
                f"unsupported {label} manifest schema "
                f"{manifest.get('schema_version')!r} (this build reads {self.schema})"
            )
        return manifest

    def _append(self, body: dict) -> None:
        """Link ``body`` onto the head and durably append it."""
        self._handle()  # an existing log is replayed first, to learn its head
        self._write({**body, "chain": chain_digest(self.head, body)})

    def _write(self, entry: dict) -> None:
        """Durably append an entry already linked onto the head: one write, one fsync."""
        fh = self._handle()
        data = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        fh.write(data)
        fsync_file(fh)
        self.head = entry["chain"]
        self._end += len(data)

    def _handle(self) -> BinaryIO:
        if self._fh is None:
            if self._end < 0:
                for _ in self._entries():
                    pass
            created = not self.log_path.exists()
            self._fh = open(self.log_path, "ab")
            if created:
                fsync_dir(self.directory)
            elif self._fh.tell() > self._end:
                self._fh.truncate(self._end)  # the torn tail replay dropped
        return self._fh

    def _entries(self) -> Iterator[tuple[int, dict]]:
        """Yield ``(lineno, entry)`` for each entry whose kind and link check out.

        A caller's own checks on an entry run before the next line is read.
        Read-only: a dropped torn tail is cut by the next append.
        """
        self.head, self.torn_lines, self._end = GENESIS_CHAIN, 0, 0
        data = self.log_path.read_bytes() if self.log_path.exists() else b""
        lines: list[tuple[int, bytes, int]] = []
        end = 0
        for lineno, line in enumerate(data.splitlines(keepends=True), 1):
            end += len(line)
            if line.strip():
                lines.append((lineno, line, end))
        for pos, (lineno, line, end) in enumerate(lines):
            try:
                if not line.endswith(b"\n"):
                    raise ValueError("the write never reached its fsync")
                entry = json.loads(line)
            except (ValueError, RecursionError):
                if pos < len(lines) - 1:
                    raise CheckpointError(
                        f"{self.log_path}:{lineno}: undecodable interior WAL line — {_CORRUPT}"
                    ) from None
                self.torn_lines = 1  # a crash mid-append tears only the last line
                return
            if not isinstance(entry, dict) or entry.get("kind") not in self.kinds:
                raise CheckpointError(
                    f"{self.log_path}:{lineno}: unexpected WAL entry "
                    f"{entry.get('kind') if isinstance(entry, dict) else entry!r} "
                    f"— {_CORRUPT}"
                )
            body = {k: v for k, v in entry.items() if k != "chain"}
            if entry.get("chain") != chain_digest(self.head, body):
                raise CheckpointError(
                    f"{self.log_path}:{lineno}: hash chain mismatch — the journal "
                    "tail was modified or truncated mid-file, refusing to resume"
                )
            self.head, self._end = entry["chain"], end
            yield lineno, entry

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self: J) -> J:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
