"""``history.bin`` beside the state blob: what a commit writes, and how
each resume path and a supervised rebuild restore the twins from it."""

import hashlib
import pickle
import shutil
import warnings

import numpy as np
import pytest

from repro.checkpoint.blob import MAGIC, SCHEMA_VERSION, build_blob, load_blob, save_blob
from repro.runner import canonical_json
from repro.service import (
    DigitalTwinService,
    ServiceConfig,
    ServiceJournal,
    parse_shadow_specs,
)
from repro.service.core import CHECKPOINT_EVERY
from repro.service.events import heartbeat, make_event

SCENARIO = "tree-static"
N = 4
RESUMED_AT = 3
LATER = 5
#: Windows fed to the ``stream``-shaped service: two cadence checkpoints
#: (windows 16 and 32), then 8 windows after the last one.
STREAM_WINDOWS = 40


@pytest.fixture(autouse=True)
def _quiet_shortfall():
    # cap=80 shadows push the fleet budget under the sum of server
    # minimums by design; the shortfall warning is the expected behavior.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def config(n_servers=N, shadows="cap=80"):
    return ServiceConfig(
        scenario=SCENARIO, n_servers=n_servers, shadows=parse_shadow_specs(shadows)
    )


def stream_config():
    """The documented deployment, as the ``stream`` benchmark runs it."""
    return config(n_servers=8, shadows="cap=80,cap=120")


def feed_windows(service, n, start=0):
    for k in range(start, start + n):
        service.feed_event(
            make_event({"kind": "telemetry", "t": k + 0.5, "power_w": 100.0 + k})
        )
        service.feed_event(heartbeat(float(k + 1)))


@pytest.fixture(scope="module")
def straight_chains():
    """The chain after each window of an uninterrupted, unjournalled run."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        service = DigitalTwinService(config())
        feed_windows(service, RESUMED_AT + LATER)
        chains = [r["chain"] for r in service.records]
        service.close()
    return chains


@pytest.fixture(scope="module")
def stream_chains():
    """The chain after each window of an uninterrupted, unjournalled run of
    :func:`stream_config`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        service = DigitalTwinService(stream_config())
        feed_windows(service, STREAM_WINDOWS + LATER)
        chains = [r["chain"] for r in service.records]
        service.close()
    return chains


def journalled(directory, n_windows, cfg=None):
    cfg = cfg or config()
    service = DigitalTwinService(cfg, journal=ServiceJournal.create(directory, cfg.to_dict()))
    feed_windows(service, n_windows)
    return service


def blob_windows(directory):
    """The windows the checkpoint in ``directory`` covers."""
    return load_blob(directory / "twin.ckpt")["summary"]["windows_closed"]


def resume(directory):
    journal = ServiceJournal.open(directory)
    return DigitalTwinService(
        ServiceConfig.from_dict(journal.manifest()), journal=journal, resume=True
    )


def continue_to_straight_chain(service, straight_chains):
    """Feed ``LATER`` more windows; the chain must be the uninterrupted one."""
    start = service.windows_closed
    feed_windows(service, LATER, start=start)
    assert service.chain == straight_chains[start + LATER - 1]
    service.close()


def canonical_digest(twin):
    return hashlib.sha256(canonical_json(twin.fleet.trace).encode("utf-8")).hexdigest()


def twins(service):
    return [service.deployed, *service.shadows.values()]


class TestCommit:
    def test_blob_stays_fixed_size_and_history_grows_by_constant_bytes(self, tmp_path):
        """The timing-free form of "bytes written per window stay bounded":
        the documented deployment (8 servers, two cap shadows), 40 windows,
        checkpointed by the cadence at windows 16 and 32 and by ``close()``
        at 40. The blob stays within 1%; ``history.bin`` holds one
        fixed-size record per window."""
        directory = tmp_path / "svc"
        service = journalled(directory, 0, stream_config())
        sizes = {}

        def note_sizes():
            sizes[blob_windows(directory)] = tuple(
                (directory / name).stat().st_size for name in ("twin.ckpt", "history.bin")
            )

        for k in range(STREAM_WINDOWS):
            feed_windows(service, 1, start=k)
            if (directory / "twin.ckpt").exists():
                note_sizes()
        service.close()
        note_sizes()
        assert sorted(sizes) == [CHECKPOINT_EVERY, 2 * CHECKPOINT_EVERY, STREAM_WINDOWS]
        first_blob, first_history = sizes[CHECKPOINT_EVERY]
        record, rest = divmod(first_history, CHECKPOINT_EVERY)
        assert rest == 0
        for windows, (blob, history) in sizes.items():
            assert abs(blob - first_blob) <= 0.01 * first_blob
            assert history == windows * record

    def test_a_dropped_service_resumes_from_the_last_cadence_blob(
        self, tmp_path, stream_chains
    ):
        """Dropped without ``close()`` after 40 windows, the service left
        the blob of window 32 and 32 ``history.bin`` records; resume
        restores it and re-simulates the 8 windows the WAL holds beyond."""
        directory = tmp_path / "svc"
        history = directory / "history.bin"
        service = journalled(directory, STREAM_WINDOWS, stream_config())
        service.journal.close()  # the WAL handle only: close() never runs
        assert blob_windows(directory) == 2 * CHECKPOINT_EVERY
        dropped_size = history.stat().st_size

        resumed = resume(directory)
        assert (resumed.restored_from, resumed.resimulated_windows) == ("blob", 8)
        assert resumed.chain == stream_chains[STREAM_WINDOWS - 1]
        resumed.close()
        # 32 of the 40 fixed-size records the head checkpoint holds.
        head_size = history.stat().st_size
        assert head_size % STREAM_WINDOWS == 0
        assert dropped_size == head_size // STREAM_WINDOWS * 2 * CHECKPOINT_EVERY
        again = resume(directory)
        assert (again.restored_from, again.resimulated_windows) == ("blob", 0)
        continue_to_straight_chain(again, stream_chains)

    def test_blob_records_the_history_it_goes_with(self, tmp_path):
        service = journalled(tmp_path / "svc", 2)
        service.close()
        journal = ServiceJournal.open(tmp_path / "svc")
        history = load_blob(journal.blob_path)["summary"]["history"]
        data = journal.history_path.read_bytes()
        assert history["length"] == len(data)
        assert history["sha256"] == hashlib.sha256(data).hexdigest()
        # Each twin's fleet trace, then the rows of the one SoA both twins
        # step in.
        assert [row[:2] for row in history["tables"]] == [
            ["deployed", "trace"], ["cap=80", "trace"], ["bank0", "soa"],
        ]

    def test_digest_cache_equals_canonical_json(self, tmp_path):
        service = journalled(tmp_path / "svc", 0)
        for k in range(3):
            feed_windows(service, 1, start=k)
            for twin in twins(service):
                assert twin.digest() == canonical_digest(twin)
        service.close()

        resumed = resume(tmp_path / "svc")
        assert resumed.restored_from == "blob"
        for twin in twins(resumed):
            assert twin.digest() == canonical_digest(twin)
        feed_windows(resumed, 1, start=3)
        resumed.rebuild_twins()
        for twin in twins(resumed):
            assert twin.digest() == canonical_digest(twin)
        feed_windows(resumed, 1, start=4)
        for twin in twins(resumed):
            assert twin.digest() == canonical_digest(twin)
        resumed.close()


class TestResume:
    def test_blob_at_the_head(self, tmp_path, straight_chains):
        journalled(tmp_path / "svc", RESUMED_AT).close()
        service = resume(tmp_path / "svc")
        assert (service.restored_from, service.resimulated_windows) == ("blob", 0)
        continue_to_straight_chain(service, straight_chains)

    def test_blob_behind_the_head(self, tmp_path, straight_chains):
        """A blob from an earlier window (a kill between checkpoints, or
        between the WAL fsync and the blob write) is restored and the
        windows after it are re-simulated."""
        directory = tmp_path / "svc"
        service = journalled(directory, 1)
        service.checkpoint()
        for name in ("twin.ckpt", "history.bin"):
            shutil.copy(directory / name, tmp_path / name)
        feed_windows(service, RESUMED_AT - 1, start=1)
        service.close()
        for name in ("twin.ckpt", "history.bin"):
            shutil.copy(tmp_path / name, directory / name)

        resumed = resume(directory)
        assert (resumed.restored_from, resumed.resimulated_windows) == (
            "blob", RESUMED_AT - 1
        )
        # The resume brought both files up to the head.
        assert load_blob(directory / "twin.ckpt")["summary"]["windows_closed"] == RESUMED_AT
        continue_to_straight_chain(resumed, straight_chains)

    def test_no_blob_of_twins_that_ran_ahead(self, tmp_path, straight_chains, monkeypatch):
        """A commit that dies after the twins advanced but before the
        window is recorded leaves the twins a window ahead of the records:
        ``close()`` keeps the last good checkpoint rather than writing one
        of them, and resume reproduces the chain."""
        directory = tmp_path / "svc"
        service = journalled(directory, 1)
        service.checkpoint()
        written = {
            name: (directory / name).read_bytes() for name in ("twin.ckpt", "history.bin")
        }
        feed_windows(service, RESUMED_AT - 1, start=1)
        journal = service.journal

        def append_fails_once(entry):
            monkeypatch.undo()
            raise OSError("injected: no space left on device")

        monkeypatch.setattr(journal, "append_window", append_fails_once)
        with pytest.raises(OSError, match="injected"):
            feed_windows(service, 1, start=RESUMED_AT)
        assert service.windows_closed == RESUMED_AT
        assert service.twins.at(RESUMED_AT + 1)
        service.close()
        for name, data in written.items():
            assert (directory / name).read_bytes() == data

        resumed = resume(directory)
        assert (resumed.restored_from, resumed.resimulated_windows) == (
            "blob", RESUMED_AT - 1
        )
        continue_to_straight_chain(resumed, straight_chains)

    def test_blob_without_a_history_record_resimulates(self, tmp_path, straight_chains):
        """A blob in the layout written before history.bin existed (the
        whole state in the blob, no history record) is never restored."""
        directory = tmp_path / "svc"
        service = journalled(directory, RESUMED_AT)
        service.close()  # writes the head blob the hand-made one replaces
        state = {
            "deployed": service.deployed.fleet.snapshot(),
            "shadows": {n: s.fleet.snapshot() for n, s in service.shadows.items()},
        }
        summary = {"windows_closed": RESUMED_AT, "chain": service.chain}
        save_blob(directory / "twin.ckpt", build_blob(state, dict(summary), summary))

        resumed = resume(directory)
        assert (resumed.restored_from, resumed.resimulated_windows) == ("wal", RESUMED_AT)
        # The fallback rewrote both files in the current layout.
        assert "history" in load_blob(directory / "twin.ckpt")["summary"]
        resumed.close()
        again = resume(directory)
        assert again.restored_from == "blob"
        continue_to_straight_chain(again, straight_chains)

    def test_blob_in_the_per_twin_layout_resimulates(self, tmp_path, straight_chains):
        """``twin.ckpt`` and ``history.bin`` as they were written before the
        twins stepped as banks: each twin's fleet captured on its own, and
        each twin's own SoA rows (``soa``) beside its fleet trace. The
        table list differs from the bank layout, so the blob is never
        restored."""
        directory = tmp_path / "svc"
        service = journalled(directory, RESUMED_AT)
        service.close()  # writes the head files the hand-made ones replace
        [(hist, n_rows)] = [
            (storage, rows)
            for owner, _, storage, rows in service.twins.history_layout()
            if owner == "bank0"
        ]
        tables, columns = [], []
        for k, (name, twin) in enumerate(service.twins.items()):
            soa = np.ascontiguousarray(hist[:n_rows, k * N : (k + 1) * N])
            trace = twin.fleet.trace._data[: len(twin.fleet.trace)]
            for table, rows in (("soa", soa), ("trace", trace)):
                tables.append([name, table, len(rows)])
                columns.append(rows.reshape(RESUMED_AT, -1).view(np.uint8))
        data = np.concatenate(columns, axis=1).tobytes()
        (directory / "history.bin").write_bytes(data)
        state = {
            "deployed": service.deployed.fleet.snapshot(),
            "shadows": {n: s.fleet.snapshot() for n, s in service.shadows.items()},
        }
        history = {
            "length": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "tables": tables,
        }
        summary = {"windows_closed": RESUMED_AT, "chain": service.chain, "history": history}
        save_blob(directory / "twin.ckpt", build_blob(state, {"windows_closed": RESUMED_AT}, summary))

        resumed = resume(directory)
        assert (resumed.restored_from, resumed.resimulated_windows) == ("wal", RESUMED_AT)
        assert [row[0] for row in load_blob(directory / "twin.ckpt")["summary"]["history"]["tables"]] == [
            "deployed", "cap=80", "bank0"
        ]
        continue_to_straight_chain(resumed, straight_chains)

    @pytest.mark.parametrize("damage", ["flipped-byte", "truncated", "missing"])
    def test_damaged_history_resimulates(self, tmp_path, straight_chains, damage):
        directory = tmp_path / "svc"
        journalled(directory, RESUMED_AT).close()
        path = directory / "history.bin"
        data = bytearray(path.read_bytes())
        if damage == "flipped-byte":
            data[len(data) // 2] ^= 0xFF
            path.write_bytes(bytes(data))
        elif damage == "truncated":
            path.write_bytes(bytes(data[: len(data) - 8]))
        else:
            path.unlink()

        service = resume(directory)
        assert (service.restored_from, service.resimulated_windows) == ("wal", RESUMED_AT)
        # The re-simulated twins rewrote history.bin, which the new blob records.
        history = load_blob(directory / "twin.ckpt")["summary"]["history"]
        assert history["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        continue_to_straight_chain(service, straight_chains)

    def test_bytes_past_the_recorded_length_are_cut(self, tmp_path, straight_chains):
        directory = tmp_path / "svc"
        journalled(directory, RESUMED_AT).close()
        path = directory / "history.bin"
        recorded = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"torn tail of an append the blob never recorded")

        service = resume(directory)
        assert (service.restored_from, service.resimulated_windows) == ("blob", 0)
        assert path.stat().st_size == recorded
        continue_to_straight_chain(service, straight_chains)


class TestRebuild:
    """The supervisor's :meth:`DigitalTwinService.rebuild_twins` restores the
    twins the way a resume does."""

    def test_a_rebuild_restores_the_last_checkpoint(self, tmp_path, stream_chains):
        """After 40 windows in lockstep the blob holds window 32: a rebuild
        restores it and re-simulates the 8 windows after it."""
        directory = tmp_path / "svc"
        service = journalled(directory, STREAM_WINDOWS, stream_config())
        service.rebuild_twins()
        assert (service.restored_from, service.resimulated_windows) == ("blob", 8)
        feed_windows(service, 1, start=STREAM_WINDOWS)
        assert service.chain == stream_chains[STREAM_WINDOWS]
        service.close()

        resumed = resume(directory)
        assert (resumed.restored_from, resumed.resimulated_windows) == ("blob", 0)
        assert resumed.chain == stream_chains[STREAM_WINDOWS]
        resumed.close()

    def test_a_rebuild_after_a_failed_blob_write_cuts_history_back(
        self, tmp_path, stream_chains, monkeypatch
    ):
        """``save_blob`` fails at the checkpoint of the 32nd commit, after
        the checkpoint appended its 16 records to ``history.bin``; the blob
        on disk still holds window 16. A rebuild restores that blob, cuts
        ``history.bin`` back to its 16 records and re-simulates the 16
        windows after it."""
        directory = tmp_path / "svc"
        history = directory / "history.bin"
        service = journalled(directory, 2 * CHECKPOINT_EVERY - 1, stream_config())
        record = history.stat().st_size // CHECKPOINT_EVERY

        def save_fails_once(*args):
            monkeypatch.undo()
            raise OSError("injected: no space left on device")

        monkeypatch.setattr("repro.service.core.save_blob", save_fails_once)
        with pytest.raises(OSError, match="injected"):
            feed_windows(service, 1, start=2 * CHECKPOINT_EVERY - 1)
        assert service.windows_closed == 2 * CHECKPOINT_EVERY
        assert history.stat().st_size == 2 * CHECKPOINT_EVERY * record
        assert blob_windows(directory) == CHECKPOINT_EVERY

        service.rebuild_twins()
        assert (service.restored_from, service.resimulated_windows) == ("blob", 16)
        assert history.stat().st_size == CHECKPOINT_EVERY * record
        feed_windows(service, STREAM_WINDOWS + 1 - 2 * CHECKPOINT_EVERY, start=2 * CHECKPOINT_EVERY)
        assert service.chain == stream_chains[STREAM_WINDOWS]
        service.close()

        resumed = resume(directory)
        assert (resumed.restored_from, resumed.resimulated_windows) == ("blob", 0)
        assert resumed.chain == stream_chains[STREAM_WINDOWS]
        resumed.close()

    def test_a_service_with_no_journal_rebuilds_by_resimulating(self, stream_chains):
        service = DigitalTwinService(stream_config())
        feed_windows(service, STREAM_WINDOWS)
        service.rebuild_twins()
        assert (service.restored_from, service.resimulated_windows) == ("wal", STREAM_WINDOWS)
        feed_windows(service, 1, start=STREAM_WINDOWS)
        assert service.chain == stream_chains[STREAM_WINDOWS]


def backend_node(state, twin):
    """The backend object node of ``twin``'s captured fleet: the slice of
    the bank's shared SoA that the twin's rows are."""
    fleet = dict(state["twins"][twin]["__obj__"]["state"])
    return fleet["backend"]["__obj__"]


class TestStaleLayout:
    @pytest.mark.parametrize("twin", ["deployed", "cap=80"])
    def test_blob_lacking_backend_state_resimulates(self, tmp_path, straight_chains, twin):
        """A blob whose backend state lacks what the backend has is
        refused, also after the nodes before it were restored: the shared
        SoA without the round-robin cursors of the fixed-step bank (as a
        blob written before the bank moved into the SoA), captured under
        the deployed twin, or the cap=80 twin's slice without its first
        row. The twins are rebuilt from the WAL and both files are
        rewritten."""
        directory = tmp_path / "svc"
        journalled(directory, RESUMED_AT).close()
        path = directory / "twin.ckpt"
        blob = load_blob(path)
        state = blob["state"]
        if twin == "deployed":
            node, attr = dict(backend_node(state, twin)["state"])["_soa"]["__obj__"], "_fs_rr"
        else:
            node, attr = backend_node(state, twin), "_start"
        node["state"] = [[k, v] for k, v in node["state"] if k != attr]
        save_blob(path, build_blob(state, blob["created"], blob["summary"]))

        service = resume(directory)
        assert (service.restored_from, service.resimulated_windows) == ("wal", RESUMED_AT)
        history = load_blob(path)["summary"]["history"]
        data = (directory / "history.bin").read_bytes()
        assert history["sha256"] == hashlib.sha256(data).hexdigest()
        continue_to_straight_chain(service, straight_chains)

    def test_schema_1_blob_resimulates(self, tmp_path, straight_chains):
        """A blob of schema 1 (generator states walked as dicts) is refused
        before any restore; the twins are rebuilt from the WAL and the blob
        is rewritten at the current schema."""
        directory = tmp_path / "svc"
        journalled(directory, RESUMED_AT).close()
        path = directory / "twin.ckpt"
        blob = load_blob(path)
        blob["schema_version"] = 1  # by hand: save_blob refuses schema 1
        body = pickle.dumps(blob)
        digest = hashlib.sha256(body).hexdigest().encode("ascii")
        path.write_bytes(MAGIC + b"\n" + digest + b"\n" + body)

        service = resume(directory)
        assert (service.restored_from, service.resimulated_windows) == ("wal", RESUMED_AT)
        assert load_blob(path)["schema_version"] == SCHEMA_VERSION
        continue_to_straight_chain(service, straight_chains)
