"""Checkpoint blob format: magic, digest verification, schema checks."""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.checkpoint import build_blob, load_blob, save_blob, validate_blob
from repro.checkpoint.blob import MAGIC, SCHEMA_VERSION
from repro.errors import CheckpointError


def small_blob() -> dict:
    return build_blob(
        state={"engine": None, "controller": None, "events": None},
        created={"period_index": 3, "time_s": 9.0},
        summary={"note": "test"},
    )


class TestRoundTrip:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_blob(path, small_blob())
        loaded = load_blob(path)
        assert loaded == small_blob()
        assert loaded["schema_version"] == SCHEMA_VERSION

    def test_file_layout(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_blob(path, small_blob())
        magic, digest, _body = path.read_bytes().split(b"\n", 2)
        assert magic == MAGIC
        assert len(digest) == 64  # sha256 hex


class TestRejection:
    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not a checkpoint")
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_blob(path)

    def test_corruption_detected_before_unpickling(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_blob(path, small_blob())
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one bit in the pickled body
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_blob(path)

    def test_unsupported_schema_version_rejected(self, tmp_path):
        body = small_blob()
        body["schema_version"] = 99
        raw = pickle.dumps(body)
        digest = hashlib.sha256(raw).hexdigest().encode("ascii")
        path = tmp_path / "future.ckpt"
        path.write_bytes(MAGIC + b"\n" + digest + b"\n" + raw)
        with pytest.raises(CheckpointError, match="unsupported checkpoint schema"):
            load_blob(path)

    def test_schema_1_blob_rejected(self, tmp_path):
        # Written by hand: save_blob validates. Schema 1 walked each
        # generator's state dict; this build reads only the one-node form.
        body = small_blob()
        body["schema_version"] = 1
        raw = pickle.dumps(body)
        digest = hashlib.sha256(raw).hexdigest().encode("ascii")
        path = tmp_path / "old.ckpt"
        path.write_bytes(MAGIC + b"\n" + digest + b"\n" + raw)
        with pytest.raises(
            CheckpointError,
            match=r"unsupported checkpoint schema version 1 \(this build reads version 2\)",
        ):
            load_blob(path)

    def test_validate_requires_schema_keys(self):
        with pytest.raises(CheckpointError, match="missing keys"):
            validate_blob({"format": "repro-checkpoint"})
        with pytest.raises(CheckpointError, match="expected dict"):
            validate_blob([1, 2])

    def test_save_refuses_invalid_body_and_writes_nothing(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        with pytest.raises(CheckpointError):
            save_blob(path, {"format": "repro-checkpoint"})
        assert not path.exists()
