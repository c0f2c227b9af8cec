"""Service journal: manifest discipline, WAL chain verification."""

import json

import pytest

from repro.checkpoint import wal
from repro.errors import CheckpointError
from repro.service.journal import (
    GENESIS_CHAIN,
    ServiceJournal,
    chain_digest,
)


def entry_for(index, chain):
    body = {
        "kind": "window_closed",
        "window": {"index": index, "start_s": float(index),
                   "end_s": float(index + 1), "n_events": 1,
                   "n_duplicates": 0, "digest": f"d{index}"},
        "deployed": {"digest": f"dep{index}"},
        "shadows": {},
    }
    return {**body, "chain": chain_digest(chain, body)}


def write_entries(journal, n, start_chain=GENESIS_CHAIN, start=0):
    chain = start_chain
    entries = []
    for i in range(start, start + n):
        entry = entry_for(i, chain)
        journal.append_window(entry)
        chain = entry["chain"]
        entries.append(entry)
    return entries


class TestManifest:
    def test_create_refuses_existing(self, tmp_path):
        ServiceJournal.create(tmp_path / "svc", {"scenario": "tree-static"})
        with pytest.raises(CheckpointError, match="already exists"):
            ServiceJournal.create(tmp_path / "svc", {"scenario": "tree-static"})

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="no service manifest"):
            ServiceJournal.open(tmp_path / "missing")

    def test_manifest_roundtrip(self, tmp_path):
        config = {"scenario": "tree-static", "n_servers": 4}
        ServiceJournal.create(tmp_path / "svc", config)
        assert ServiceJournal.open(tmp_path / "svc").manifest() == config

    def test_rejects_wrong_format_and_schema(self, tmp_path):
        path = tmp_path / "svc"
        journal = ServiceJournal.create(path, {})
        raw = json.loads(journal.manifest_path.read_text())
        raw["schema_version"] = 99
        journal.manifest_path.write_text(json.dumps(raw))
        with pytest.raises(CheckpointError, match="unsupported"):
            journal.manifest()
        journal.manifest_path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(CheckpointError, match="not a service manifest"):
            journal.manifest()


class TestWal:
    def test_replay_empty(self, tmp_path):
        journal = ServiceJournal.create(tmp_path / "svc", {})
        assert journal.replay() == []
        assert journal.head_chain([]) == GENESIS_CHAIN

    def test_append_replay_roundtrip(self, tmp_path):
        journal = ServiceJournal.create(tmp_path / "svc", {})
        entries = write_entries(journal, 3)
        journal.close()
        replayed = ServiceJournal.open(tmp_path / "svc").replay()
        assert replayed == entries
        assert journal.head_chain(replayed) == entries[-1]["chain"]

    def test_append_rejects_unchained_entries(self, tmp_path):
        journal = ServiceJournal.create(tmp_path / "svc", {})
        with pytest.raises(CheckpointError):
            journal.append_window({"kind": "window_closed"})
        with pytest.raises(CheckpointError):
            journal.append_window({"kind": "other", "chain": "x"})

    def test_torn_final_line_is_dropped(self, tmp_path):
        journal = ServiceJournal.create(tmp_path / "svc", {})
        write_entries(journal, 2)
        journal.close()
        with open(journal.wal_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "window_clo')  # crash mid-append
        replayed = ServiceJournal.open(tmp_path / "svc").replay()
        assert len(replayed) == 2

    def test_double_resume_after_torn_tail_replays_every_window(self, tmp_path):
        journal = ServiceJournal.create(tmp_path / "svc", {})
        first = write_entries(journal, 3)
        journal.close()
        with open(journal.wal_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "window_clo')  # crash mid-append
        with ServiceJournal.open(tmp_path / "svc") as resumed:
            assert resumed.replay() == first
            # The first append cuts the torn bytes instead of fusing onto them.
            rest = write_entries(resumed, 3, start_chain=first[-1]["chain"], start=3)
        assert ServiceJournal.open(tmp_path / "svc").replay() == first + rest

    def test_creating_the_log_fsyncs_its_directory_once(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(wal, "fsync_dir", calls.append)
        with ServiceJournal.create(tmp_path / "svc", {}) as journal:
            entries = write_entries(journal, 3)
        assert calls == [tmp_path / "svc"]
        calls.clear()
        with ServiceJournal.open(tmp_path / "svc") as reopened:
            assert reopened.replay() == entries
            write_entries(reopened, 1, start_chain=entries[-1]["chain"], start=3)
        assert calls == []

    def test_undecodable_interior_line_refuses(self, tmp_path):
        journal = ServiceJournal.create(tmp_path / "svc", {})
        write_entries(journal, 3)
        journal.close()
        lines = journal.wal_path.read_text().splitlines()
        lines[1] = "{broken"
        journal.wal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="undecodable interior"):
            ServiceJournal.open(tmp_path / "svc").replay()

    def test_modified_entry_breaks_the_chain(self, tmp_path):
        journal = ServiceJournal.create(tmp_path / "svc", {})
        write_entries(journal, 3)
        journal.close()
        lines = journal.wal_path.read_text().splitlines()
        tampered = json.loads(lines[-1])
        tampered["deployed"]["digest"] = "forged"
        lines[-1] = json.dumps(tampered, sort_keys=True)
        journal.wal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="hash chain mismatch"):
            ServiceJournal.open(tmp_path / "svc").replay()

    def test_dropped_interior_entry_breaks_the_chain(self, tmp_path):
        journal = ServiceJournal.create(tmp_path / "svc", {})
        write_entries(journal, 3)
        journal.close()
        lines = journal.wal_path.read_text().splitlines()
        journal.wal_path.write_text("\n".join([lines[0], lines[2]]) + "\n")
        with pytest.raises(CheckpointError, match="hash chain mismatch"):
            ServiceJournal.open(tmp_path / "svc").replay()

    def test_wrong_kind_refuses(self, tmp_path):
        journal = ServiceJournal.create(tmp_path / "svc", {})
        write_entries(journal, 1)
        journal.close()
        with open(journal.wal_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "note", "chain": "x"}) + "\n")
            fh.write(json.dumps({"kind": "note", "chain": "y"}) + "\n")
        with pytest.raises(CheckpointError, match="unexpected WAL entry"):
            ServiceJournal.open(tmp_path / "svc").replay()


class TestChainDigest:
    def test_depends_on_prev_and_body(self):
        body = {"kind": "window_closed", "window": {"index": 0}}
        assert chain_digest(GENESIS_CHAIN, body) != chain_digest("other", body)
        assert chain_digest(GENESIS_CHAIN, body) != chain_digest(
            GENESIS_CHAIN, {**body, "extra": 1}
        )

    def test_is_key_order_independent(self):
        assert chain_digest("c", {"a": 1, "b": 2}) == chain_digest("c", {"b": 2, "a": 1})
