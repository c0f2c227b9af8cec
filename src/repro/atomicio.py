"""Atomic artifact writes: temp file + fsync + rename.

Every durable artifact this package produces (sweep reports, bench JSON,
lint baselines, experiment reports, trace NPZs, checkpoints) goes through
one of these helpers so that a crash — power loss, SIGKILL, a full disk
discovered halfway through — can never leave a torn half-written file
behind. The recipe is the classic one:

1. write the payload to a uniquely-named temporary file *in the same
   directory* as the destination (same filesystem, so the final rename is
   atomic);
2. flush and ``fsync`` the temporary file so the bytes are durable before
   the name is;
3. ``os.replace`` it over the destination (atomic on POSIX and Windows);
4. best-effort ``fsync`` of the containing directory so the rename itself
   survives a crash.

Readers therefore observe either the previous complete file or the new
complete file, never a mixture. Append-only logs are the one legitimate
exception: the write-ahead log (:mod:`repro.checkpoint.wal`) appends one
fsynced line at a time and its replay tolerates only a torn final line,
which the next append cuts off.

``repro lint`` rule REP107 flags artifact writes inside ``src/repro``
that bypass this module.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "atomic_path",
    "fsync_file",
    "fsync_dir",
]


def fsync_file(fh) -> None:
    """Flush a file object's buffers all the way to stable storage."""
    fh.flush()
    os.fsync(fh.fileno())


def fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync (makes a rename or a new name durable on POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - not supported on this fs
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_path(path: str | Path, suffix: str | None = None) -> Iterator[Path]:
    """Context manager for APIs that insist on writing a file themselves.

    Yields a temporary path in the destination's directory; on clean exit
    the temporary file is fsynced and atomically renamed over ``path``, on
    error it is removed. ``suffix`` defaults to the destination's suffix —
    some writers (``np.savez``) key their behaviour on it.
    """
    dest = Path(path)
    dest.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=dest.parent,
        prefix=f".{dest.name}.",
        suffix=dest.suffix if suffix is None else suffix,
    )
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        yield tmp
        with open(tmp, "rb") as fh:
            os.fsync(fh.fileno())
        os.replace(tmp, dest)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_dir(dest.parent)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Atomically write ``data`` to ``path``; returns the destination."""
    dest = Path(path)
    with atomic_path(dest) as tmp:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fsync_file(fh)
    return dest


def atomic_write_text(path: str | Path, text: str, encoding: str = "utf-8") -> Path:
    """Atomically write ``text`` to ``path``; returns the destination."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(
    path: str | Path, payload, indent: int | None = 2, sort_keys: bool = True
) -> Path:
    """Atomically write ``payload`` as JSON (trailing newline included)."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    return atomic_write_text(path, text + "\n")
