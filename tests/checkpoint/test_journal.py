"""Sweep WAL: manifest lifecycle, replay semantics, torn-tail tolerance."""

from __future__ import annotations

import json
import signal

import pytest

from repro.checkpoint import MANIFEST_NAME, SweepJournal, shutdown_event
from repro.errors import CheckpointError


def manifest_args(keys):
    return dict(
        experiments=["table1"],
        seed=0,
        replicates=1,
        set_points_w=None,
        extra_params={},
        job_keys=keys,
    )


class TestLifecycle:
    def test_create_writes_manifest(self, tmp_path):
        journal = SweepJournal.create(tmp_path / "j", **manifest_args(["a", "b"]))
        manifest = journal.manifest()
        assert manifest["format"] == "repro-sweep-journal"
        assert manifest["job_keys"] == ["a", "b"]
        assert manifest["seed"] == 0 and manifest["replicates"] == 1

    def test_create_refuses_existing_sweep(self, tmp_path):
        SweepJournal.create(tmp_path / "j", **manifest_args(["a"]))
        with pytest.raises(CheckpointError, match="already exists"):
            SweepJournal.create(tmp_path / "j", **manifest_args(["a"]))

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="no sweep manifest"):
            SweepJournal.open(tmp_path / "missing")

    def test_open_rejects_foreign_manifest(self, tmp_path):
        directory = tmp_path / "j"
        directory.mkdir()
        (directory / MANIFEST_NAME).write_text(json.dumps({"format": "other"}))
        with pytest.raises(CheckpointError, match="not a sweep manifest"):
            SweepJournal.open(directory)

    def test_open_rejects_future_schema(self, tmp_path):
        directory = tmp_path / "j"
        directory.mkdir()
        (directory / MANIFEST_NAME).write_text(
            json.dumps({"format": "repro-sweep-journal", "schema_version": 99})
        )
        with pytest.raises(CheckpointError, match="unsupported sweep manifest schema"):
            SweepJournal.open(directory)

    def test_open_rejects_unchained_schema_1_journal(self, tmp_path):
        directory = tmp_path / "j"
        directory.mkdir()
        (directory / MANIFEST_NAME).write_text(
            json.dumps({"format": "repro-sweep-journal", "schema_version": 1})
        )
        with pytest.raises(CheckpointError, match="schema 1 .this build reads 2"):
            SweepJournal.open(directory)


class TestReplay:
    def test_no_journal_file_replays_empty(self, tmp_path):
        journal = SweepJournal.create(tmp_path / "j", **manifest_args([]))
        replay = journal.replay()
        assert replay.completed == {} and replay.in_flight == []
        assert replay.torn_lines == 0 and replay.shutdowns == []

    def test_started_without_terminal_is_in_flight(self, tmp_path):
        with SweepJournal.create(tmp_path / "j", **manifest_args(["a", "b"])) as journal:
            journal.job_started("a", 1)
            journal.job_done({"key": "a", "status": "ok"})
            journal.job_started("b", 1)
        replay = journal.replay()
        assert set(replay.completed) == {"a"}
        assert replay.in_flight == ["b"]

    def test_failed_is_a_terminal_outcome(self, tmp_path):
        with SweepJournal.create(tmp_path / "j", **manifest_args(["a"])) as journal:
            journal.job_started("a", 1)
            journal.job_failed({"key": "a", "status": "failed", "error": "boom"})
        replay = journal.replay()
        assert replay.completed["a"]["status"] == "failed"
        assert replay.in_flight == []

    def test_last_terminal_entry_wins(self, tmp_path):
        with SweepJournal.create(tmp_path / "j", **manifest_args(["a"])) as journal:
            journal.job_failed({"key": "a", "status": "failed"})
            journal.job_done({"key": "a", "status": "ok"})
        assert journal.replay().completed["a"]["status"] == "ok"

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        with SweepJournal.create(tmp_path / "j", **manifest_args(["a", "b"])) as journal:
            journal.job_started("a", 1)
            journal.job_done({"key": "a", "status": "ok"})
            journal.job_started("b", 1)
        # Simulate a crash mid-append: a truncated, undecodable final line.
        with open(journal.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "job_done", "key": "b", "rec')
        replay = journal.replay()
        assert replay.torn_lines == 1
        assert set(replay.completed) == {"a"}
        assert replay.in_flight == ["b"]  # the torn job simply re-runs

    def test_final_line_without_newline_is_torn(self, tmp_path):
        with SweepJournal.create(tmp_path / "j", **manifest_args(["a"])) as journal:
            journal.job_started("a", 1)
            journal.job_done({"key": "a", "status": "ok"})
        # The write reached the file but not its fsync: nothing was acknowledged.
        journal.journal_path.write_bytes(journal.journal_path.read_bytes()[:-1])
        replay = journal.replay()
        assert replay.torn_lines == 1
        assert replay.completed == {} and replay.in_flight == ["a"]

    def test_double_resume_after_torn_tail_replays_every_entry(self, tmp_path):
        keys = ["a", "b", "c", "d", "e", "f"]
        with SweepJournal.create(tmp_path / "j", **manifest_args(keys)) as journal:
            for key in keys[:3]:
                journal.job_done({"key": key, "status": "ok"})
        with open(journal.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "job_done", "key": "d", "rec')  # crash mid-append
        with SweepJournal.open(tmp_path / "j") as resumed:
            assert resumed.replay().torn_lines == 1
            # The first append cuts the torn bytes instead of fusing onto them.
            for key in keys[3:]:
                resumed.job_done({"key": key, "status": "ok"})
        replay = SweepJournal.open(tmp_path / "j").replay()
        assert list(replay.completed) == keys and replay.torn_lines == 0

    def test_shutdown_events_are_collected(self, tmp_path):
        with SweepJournal.create(tmp_path / "j", **manifest_args([])) as journal:
            journal.shutdown(shutdown_event(signal.SIGTERM, checkpoint="j"))
        replay = journal.replay()
        assert len(replay.shutdowns) == 1
        assert replay.shutdowns[0]["signal"] == "SIGTERM"
        assert replay.shutdowns[0]["exit_code"] == 143

    def test_wal_lines_are_one_json_object_each(self, tmp_path):
        with SweepJournal.create(tmp_path / "j", **manifest_args(["a"])) as journal:
            journal.job_started("a", 1)
            journal.job_done({"key": "a", "status": "ok"})
        lines = journal.journal_path.read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == ["job_started", "job_done"]


class TestCorruptionRefused:
    """Interior damage refuses the resume, exactly like the service WAL."""

    @staticmethod
    def journal_lines(tmp_path):
        with SweepJournal.create(tmp_path / "j", **manifest_args(["a", "b"])) as journal:
            journal.job_started("a", 1)
            journal.job_done({"key": "a", "status": "ok", "digest": "d0"})
            journal.job_started("b", 1)
        return journal, journal.journal_path.read_text().splitlines()

    @staticmethod
    def rewrite(journal, lines):
        journal.journal_path.write_text("\n".join(lines) + "\n")

    def test_undecodable_interior_line_refuses(self, tmp_path):
        journal, lines = self.journal_lines(tmp_path)
        lines[1] = "{broken"
        self.rewrite(journal, lines)
        with pytest.raises(CheckpointError, match="undecodable interior"):
            journal.replay()

    def test_edited_record_breaks_the_chain(self, tmp_path):
        journal, lines = self.journal_lines(tmp_path)
        entry = json.loads(lines[1])
        entry["record"]["digest"] = "forged"  # still valid JSON
        lines[1] = json.dumps(entry, sort_keys=True)
        self.rewrite(journal, lines)
        with pytest.raises(CheckpointError, match="hash chain mismatch"):
            journal.replay()

    def test_dropped_interior_line_breaks_the_chain(self, tmp_path):
        journal, lines = self.journal_lines(tmp_path)
        self.rewrite(journal, [lines[0], lines[2]])
        with pytest.raises(CheckpointError, match="hash chain mismatch"):
            journal.replay()

    def test_unknown_kind_refuses(self, tmp_path):
        journal, lines = self.journal_lines(tmp_path)
        lines.insert(1, json.dumps({"kind": "note", "chain": "x"}))
        self.rewrite(journal, lines)
        with pytest.raises(CheckpointError, match="unexpected WAL entry"):
            journal.replay()
