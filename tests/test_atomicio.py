"""Atomic write helpers: the final name only ever holds complete content."""

from __future__ import annotations

import json
import os

import pytest

from repro.atomicio import (
    atomic_path,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)


class TestAtomicWrite:
    def test_text_roundtrip(self, tmp_path):
        target = tmp_path / "report.txt"
        assert atomic_write_text(target, "hello\n") == target
        assert target.read_text() == "hello\n"

    def test_bytes_overwrite_replaces_whole_file(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"a much longer first payload")
        atomic_write_bytes(target, b"short")
        assert target.read_bytes() == b"short"

    def test_json_is_sorted_with_trailing_newline(self, tmp_path):
        target = tmp_path / "payload.json"
        atomic_write_json(target, {"b": 1, "a": 2})
        text = target.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 2, "b": 1}

    def test_creates_missing_parent_directories(self, tmp_path):
        target = tmp_path / "nested" / "deep" / "out.json"
        atomic_write_json(target, {"ok": True})
        assert json.loads(target.read_text()) == {"ok": True}

    def test_fsyncs_the_temp_file_once_and_the_directory(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        atomic_write_bytes(tmp_path / "blob.bin", b"payload")
        assert len(calls) == 2


class TestAtomicPath:
    def test_failure_leaves_no_trace(self, tmp_path):
        target = tmp_path / "artifact.json"
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_path(target) as tmp:
                tmp.write_text("partial")
                raise RuntimeError("crash mid-write")
        # Neither the destination nor any temp file survives the crash.
        assert list(tmp_path.iterdir()) == []

    def test_failure_preserves_previous_content(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_text(target, "old complete content")
        with pytest.raises(RuntimeError):
            with atomic_path(target) as tmp:
                tmp.write_text("new partial")
                raise RuntimeError("boom")
        assert target.read_text() == "old complete content"

    def test_temp_file_shares_directory_and_suffix(self, tmp_path):
        target = tmp_path / "trace.npz"
        with atomic_path(target) as tmp:
            assert tmp.parent == target.parent
            assert tmp.suffix == ".npz"
            tmp.write_bytes(b"payload")
        assert target.read_bytes() == b"payload"
