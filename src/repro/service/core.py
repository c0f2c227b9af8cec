"""The digital-twin service core, plus its offline one-shot counterpart.

:class:`DigitalTwinService` ties the layers together: events feed the
window manager; every window the watermark closes steps the
:class:`~repro.service.shadow.TwinSet` of the deployed twin and every
configured shadow twin one window, takes its answers (with the
shadow-vs-deployed equivalence deltas), journals them to the WAL
(hash-chained) and files the shadows' answers in the what-if cache. The
twins' checkpoint (their new history rows appended to ``history.bin``,
then the fixed-size blob) is written every :data:`CHECKPOINT_EVERY`
windows, by :meth:`DigitalTwinService.checkpoint` whenever the serve
loop's ingest queue is idle, and on :meth:`DigitalTwinService.close`; the
WAL alone is the authority. A resume and the supervisor's
:meth:`DigitalTwinService.rebuild_twins` restore the twins one way: the
last checkpoint, then re-simulating the windows after it. The service
itself never reads the wall clock — all time is event time — so a killed
service replayed from its journal reconstructs byte-identical state.

:func:`offline_whatif` is the same computation with no stream attached:
build the twins, advance them ``n`` windows, return the answers. CI's
``service-smoke`` job uses it (via ``repro twin``) to prove a live
``/whatif`` answer equals the offline one digest for digest.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..checkpoint.blob import build_blob, load_blob, save_blob
from ..checkpoint.wal import manifest_field
from ..errors import CheckpointError, ConfigurationError
from ..faults.network import InjectedTwinCrash, ServiceFaultBank
from ..units import require_positive
from .cache import ResultCache
from .events import Event, parse_event
from .journal import GENESIS_CHAIN, ServiceJournal, chain_digest
from .resilience.health import HealthMonitor
from .shadow import (
    ShadowSpec,
    TwinRunner,
    TwinSet,
    TwinSpec,
    check_shadow_names,
    parse_shadow_spec,
)
from .windows import ClosedWindow, WindowManager

__all__ = ["CHECKPOINT_EVERY", "ServiceConfig", "DigitalTwinService", "offline_whatif"]

#: A commit checkpoints the twins once this many windows have been committed
#: since the last checkpoint, so a resume re-simulates at most
#: ``CHECKPOINT_EVERY - 1`` windows.
CHECKPOINT_EVERY = 16


@dataclass(frozen=True)
class ServiceConfig:
    """The deployed configuration of one digital-twin service."""

    scenario: str = "tree-static"
    n_servers: int = 8
    window_s: float = 1.0
    periods_per_window: int = 1
    seed: int = 0
    shadows: tuple[ShadowSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Every twin's spec is checked here, before any journal is created.
        require_positive(self.window_s, "window_s")
        check_shadow_names(self.shadows)
        self.twin_specs()

    @property
    def twin_spec(self) -> TwinSpec:
        """The deployed twin's spec."""
        return TwinSpec(self.scenario, self.n_servers, self.periods_per_window, self.seed)

    @property
    def topology_hash(self) -> str:
        """The deployed twin's topology hash (seeds the WAL chain space)."""
        return self.twin_spec.topology_hash

    def twin_specs(self) -> dict[str, TwinSpec]:
        """Every twin's spec by name: ``deployed``, then the shadows by
        name (the order of the blob's state and of ``history.bin``)."""
        deployed = self.twin_spec
        shadows = {spec.name: deployed.shadow(spec) for spec in self.shadows}
        return {"deployed": deployed, **dict(sorted(shadows.items()))}

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "n_servers": self.n_servers,
            "window_s": self.window_s,
            "periods_per_window": self.periods_per_window,
            "seed": self.seed,
            "shadows": [s.name for s in self.shadows],
            "topology_hash": self.topology_hash,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceConfig":
        """The configuration a journal manifest's ``config`` mapping records;
        a missing or wrong-typed field is a :class:`CheckpointError`."""

        def read(name: str, kind, items=None):
            return manifest_field(data, name, kind, items, section="config.")

        config = cls(
            scenario=read("scenario", str),
            n_servers=read("n_servers", int),
            window_s=float(read("window_s", (int, float))),
            periods_per_window=read("periods_per_window", int),
            seed=read("seed", int),
            shadows=tuple(parse_shadow_spec(s) for s in read("shadows", list, str)),
        )
        if read("topology_hash", str) != config.topology_hash:
            raise CheckpointError(
                "service manifest topology hash does not match the "
                "configuration this build rebuilds — resume would not be "
                "bit-identical"
            )
        return config


@dataclass
class _PendingWindow:
    """A closed window awaiting commit, with its sticky shed level.

    The level is frozen the moment the window closes so a crash-retry of
    the same window journals a byte-identical body (the WAL may already
    hold the first attempt's entry — the chain must agree).
    """

    window: ClosedWindow
    shed_level: int


@dataclass
class _HistoryEnd:
    """How much of ``history.bin`` holds committed twin history: the
    windows it covers, its length (where the next append starts) and the
    running sha256 of those bytes."""

    windows: int = 0
    length: int = 0
    sha256: "hashlib._Hash" = field(default_factory=hashlib.sha256)


class DigitalTwinService:
    """Streaming service state: window manager, twins, cache, journal.

    Not thread-safe for *feeding* (one ingestion loop owns ``feed_event``);
    the read surface (:meth:`snapshot`, :meth:`windows_payload`,
    :meth:`whatif_payload`, :meth:`metrics_counters`) is safe to call from
    the HTTP thread — reads touch immutable records or take the cache's
    lock.
    """

    def __init__(
        self,
        config: ServiceConfig,
        journal: ServiceJournal | None = None,
        resume: bool = False,
    ):
        self.config = config
        self.journal = journal
        #: Every twin by name, in :meth:`ServiceConfig.twin_specs` order (the
        #: order of the blob's state and of ``history.bin`` records).
        self.twins = TwinSet(config.twin_specs())
        self.cache = ResultCache()
        self.records: list[dict] = []
        self.chain = GENESIS_CHAIN
        self.health = HealthMonitor()
        #: Armed by the resilient serve loop to inject deterministic twin
        #: crashes (supervisor drills); None in normal operation.
        self.fault_bank: ServiceFaultBank | None = None
        #: Windows the watermark closed but the twins have not committed
        #: yet. Survives a twin crash: after :meth:`rebuild_twins`, a
        #: :meth:`drain_pending` re-commits them — the events themselves
        #: are never re-fed.
        self._pending: deque[_PendingWindow] = deque()
        #: Highest window index already appended to the WAL — guards a
        #: crash-retry against journalling the same window twice when the
        #: first attempt died between the WAL fsync and the in-memory
        #: commit.
        self._last_journaled_index = -1
        self.windows_shed_shadows = 0
        self.windows_deployed_only = 0
        self.rebuilds_total = 0
        self._history = _HistoryEnd()
        #: How the last resume or rebuild restored the twins: ``"blob"`` (the
        #: checkpoint, then ``resimulated_windows`` more) or ``"wal"``
        #: (re-simulating every committed window); None when neither ran.
        self.restored_from: str | None = None
        self.resimulated_windows = 0
        restored = 0
        if resume:
            if journal is None:
                raise ConfigurationError("resume requires a journal")
            restored = self._resume(journal)
        self.windows = WindowManager(config.window_s, closed_count=restored)

    # -- resume ------------------------------------------------------------

    def _resume(self, journal: ServiceJournal) -> int:
        """Rebuild state from the WAL, the twins from the blob when it holds
        one of the WAL's windows."""
        entries = journal.replay()
        if not entries:
            return 0
        self.records = list(entries)
        self.chain = journal.head_chain(entries)
        self._last_journaled_index = len(entries) - 1
        self._restore_to_head()
        for entry in entries:
            self._file_in_cache(entry)
        # After re-simulating, bring history.bin and the blob up to the
        # head; after a fallback this rewrites history.bin from its first
        # byte.
        self.checkpoint()
        return len(entries)

    def _restore_to_head(self) -> None:
        """Bring the freshly built twins to the committed head: restore the
        journal's blob when it holds one of the committed windows and
        re-simulate the windows after it, else re-simulate every window.
        Either way the twins must reproduce the digests of the newest
        record exactly."""
        n = len(self.records)
        restored = 0
        if self.journal is not None and n:
            restored = self._restore_from_blob(self.journal)
        if not restored:
            # The next checkpoint rewrites history.bin from its first byte.
            self._history = _HistoryEnd()
        self.twins.advance_to(n)
        if n:
            self.twins.check_digests(self.records[-1])
        self.restored_from = "blob" if restored else "wal"
        self.resimulated_windows = n - restored

    def _restore_from_blob(self, journal: ServiceJournal) -> int:
        """Restore twin state from the checkpoint blob when its chain is one
        of the committed records and the history it records checks out
        (cutting ``history.bin`` back to it); returns the windows it
        covers, 0 when it cannot be used (missing, corrupt, foreign,
        written before ``history.bin`` existed, or holding a state layout
        the twins no longer have): the caller then re-simulates, the WAL is
        authoritative."""
        if not journal.blob_path.exists():
            return 0
        try:
            blob = load_blob(journal.blob_path)
        except CheckpointError:
            return 0
        summary, state = blob["summary"], blob["state"]
        m = summary.get("windows_closed")
        history = summary.get("history")
        if (
            history is None
            or not isinstance(m, int)
            or not 0 < m <= len(self.records)
            or summary.get("chain") != self.records[m - 1]["chain"]
            or list(state.get("twins", {})) != list(self.twins)
        ):
            return 0
        read = self._read_history(journal, history, m)
        if read is None:
            return 0
        tables, self._history = read
        try:
            self.twins.restore(state["twins"], tables)
        except CheckpointError:
            # A stale layout can be refused after some nodes were restored:
            # start over from fresh twins.
            self.twins = TwinSet(self.config.twin_specs())
            return 0
        journal.truncate_history(self._history.length)
        return m

    @property
    def deployed(self) -> TwinRunner:
        return self.twins.deployed

    @property
    def shadows(self) -> dict[str, TwinRunner]:
        """The shadow twins by name."""
        return self.twins.shadows

    def _read_history(
        self, journal: ServiceJournal, history: dict, windows: int
    ) -> tuple[dict[str, np.ndarray], _HistoryEnd] | None:
        """Every history table after ``windows`` windows, keyed
        ``"{owner}/{table}"`` and read back from ``history.bin``, and where
        that history ends, when the file's prefix matches the blob's record
        (length, sha256, owners, table names and row counts); else None.

        The file is one record per window; a record holds every table's
        rows of that window in :meth:`TwinSet.history_layout` order.
        """
        layout = self.twins.history_layout()
        recorded = history.get("tables")
        if not isinstance(recorded, list) or [r[:2] for r in recorded] != [
            [owner, table] for owner, table, _, _ in layout
        ]:
            return None
        widths = []
        for (_, _, storage, _), (_, _, rows) in zip(layout, recorded):
            if rows % windows:
                return None
            widths.append(rows // windows * storage[0].nbytes)
        length = history.get("length")
        if length != windows * sum(widths):
            return None
        data = journal.read_history(length)
        if data is None:
            return None
        sha256 = hashlib.sha256(data)
        if sha256.hexdigest() != history.get("sha256"):
            return None
        records = np.frombuffer(data, dtype=np.uint8).reshape(windows, -1)
        blocks = np.split(records, np.cumsum(widths)[:-1], axis=1)
        tables = {
            f"{owner}/{table}": block.copy()
            .view(storage.dtype)
            .reshape((rows,) + storage.shape[1:])
            for (owner, table, storage, _), (_, _, rows), block in zip(layout, recorded, blocks)
        }
        return tables, _HistoryEnd(windows, length, sha256)

    # -- feeding -----------------------------------------------------------

    def feed_line(self, line: str) -> list[dict]:
        """Parse and feed one LDJSON line; returns new window records."""
        return self.feed_event(parse_event(line))

    def feed_event(self, event: Event) -> list[dict]:
        """Feed one event; process (and return) any windows it closed."""
        return self.feed_event_sheddable(event, 0)

    def feed_event_sheddable(self, event: Event, shed_level: int = 0) -> list[dict]:
        """Feed one event under a shed-ladder level; commit closed windows.

        ``shed_level`` (a :class:`~repro.service.resilience.ShedLevel`
        value as int) is frozen into each window the event closes — a
        crash-retry re-commits the window at the same level, keeping the
        journaled body byte-identical across attempts.
        """
        for window in self.windows.add(event):
            self._pending.append(_PendingWindow(window, int(shed_level)))
        if self._pending:
            return self.drain_pending()
        return []

    def flush(self) -> list[dict]:
        """End-of-stream: close and process every still-open window."""
        for window in self.windows.flush():
            self._pending.append(_PendingWindow(window, 0))
        return self.drain_pending()

    @property
    def has_pending_windows(self) -> bool:
        """True when closed windows await (re-)commit after a crash."""
        return bool(self._pending)

    def drain_pending(self) -> list[dict]:
        """Commit every pending closed window, oldest first.

        A window is popped only *after* its commit completes, so a crash
        mid-commit leaves it (and everything behind it) pending for the
        next drain. Already-committed prefixes are skipped idempotently.
        """
        out: list[dict] = []
        while self._pending:
            pending = self._pending[0]
            if self.fault_bank is not None and self.fault_bank.crash_fires(
                pending.window.index
            ):
                raise InjectedTwinCrash(
                    f"injected twin crash at window {pending.window.index}"
                )
            out.append(self._commit_window(pending.window, pending.shed_level))
            self._pending.popleft()
        return out

    def _commit_window(self, window: ClosedWindow, shed_level: int) -> dict:
        """Advance twins past one closed window and journal the record.

        Safe to retry after a crash at any point: a window already in
        ``records`` returns its committed entry, a window already in the
        WAL is not appended again, and twin advancement targets absolute
        window counts (chunking-invariant) rather than deltas.
        """
        if window.index < len(self.records):
            return self.records[window.index]
        # Every twin advances at every level: a bank steps its members in
        # lockstep, so shedding saves only the shadows' answers.
        self.twins.advance_to(len(self.records) + 1)
        answers = self.twins.answers(shed_level)
        body = {"kind": "window_closed", "window": window.to_dict(), **answers}
        if shed_level >= 3:
            # Deployed-only: the shadows' summaries are shed too.
            self.windows_deployed_only += 1
            body["shed_level"] = 3
        elif shed_level >= 2 and self.shadows:
            # The equivalence deltas are shed.
            self.windows_shed_shadows += 1
            body["shed_level"] = 2
        entry = {**body, "chain": chain_digest(self.chain, body)}
        if self.journal is not None and window.index > self._last_journaled_index:
            # The WAL entry is durable before the record is served.
            self.journal.append_window(entry)
        self._last_journaled_index = max(self._last_journaled_index, window.index)
        self.chain = entry["chain"]
        self.records.append(entry)
        self._file_in_cache(entry)
        if len(self.records) - self._history.windows >= CHECKPOINT_EVERY:
            self.checkpoint()
        return entry

    def checkpoint(self) -> None:
        """Bring ``history.bin`` and ``twin.ckpt`` to the committed head.

        Does nothing without a journal or when both files are current. Nor
        when a bank is not at the head: a commit that died between
        advancing the twins and recording the window leaves them a window
        ahead, and a blob of them would not resume bit-identically, so the
        last good blob stays.
        """
        n = len(self.records)
        journal = self.journal
        end = self._history
        if journal is None or end.windows == n or not self.twins.at(n):
            return
        # The twins' new history rows go to history.bin first, window-major
        # (every table's rows of one window, then the next window's); then
        # the state blob that goes with them.
        layout = self.twins.history_layout()
        data = np.concatenate(
            [
                storage[end.windows * (rows // n) : rows]
                .reshape(n - end.windows, -1)
                .view(np.uint8)
                for _, _, storage, rows in layout
            ],
            axis=1,
        ).tobytes()
        journal.append_history(end.length, data)
        end.sha256.update(data)
        end.length += len(data)
        end.windows = n
        tables = {f"{owner}/{table}": storage for owner, table, storage, _ in layout}
        state = {"twins": self.twins.capture(tables)}
        history = {
            "length": end.length,
            "sha256": end.sha256.hexdigest(),
            "tables": [[owner, table, rows] for owner, table, _, rows in layout],
        }
        blob = build_blob(
            state,
            created={"windows_closed": n},
            summary={"windows_closed": n, "chain": self.chain, "history": history},
        )
        save_blob(journal.blob_path, blob)

    def rebuild_twins(self) -> None:
        """Replace the twins with fresh ones brought to the committed head.

        The supervisor's crash-recovery step: whatever state the crashed
        twins were in, a rebuild restores them the way a journal resume
        does — from the newest checkpoint, then re-simulating the windows
        after it (every committed window without a journal or a usable
        blob) — and cross-checks their digests against the last committed
        record.
        """
        self.twins = TwinSet(self.config.twin_specs())
        self._restore_to_head()
        self.rebuilds_total += 1

    def _file_in_cache(self, entry: dict) -> None:
        """File the shadows' answers of a committed record under their
        topology hashes (a what-if of the deployed configuration is
        answered like any other shadow, with its equivalence deltas)."""
        chain = entry["chain"]
        for answer in entry["shadows"].values():
            self.cache.put(answer["topology_hash"], chain, answer)

    # -- read surface (HTTP-thread safe) -----------------------------------

    @property
    def windows_closed(self) -> int:
        return len(self.records)

    def snapshot(self) -> dict:
        """The /healthz body (cheap, always available)."""
        return {
            "status": self.health.state.value,
            "scenario": self.config.scenario,
            "n_servers": self.config.n_servers,
            "engine": "reference",
            "windows_closed": self.windows_closed,
            "watermark_s": self.windows.watermark_s,
            "chain": self.chain,
            "shadows": sorted(self.shadows),
        }

    def windows_payload(self, limit: int | None = None) -> dict:
        """The /windows body: the verified closed-window ledger."""
        records = list(self.records)
        if limit is None:
            shown = records
        else:
            shown = records[-limit:] if limit > 0 else []
        return {
            "count": len(records),
            "watermark_s": self.windows.watermark_s,
            "chain": self.chain,
            "windows": shown,
        }

    def whatif_payload(self, spec: str | None = None) -> dict:
        """The /whatif body.

        Without ``spec``: the configured shadows' latest cumulative
        answers. With ``spec`` (e.g. ``cap=90``): an on-demand what-if —
        a fresh twin pair advanced to the current window count, computed
        in the caller's thread and cached on (topology hash, chain).
        """
        records = list(self.records)
        if not records:
            return {"windows": 0, "chain": self.chain, "shadows": {}}
        latest = records[-1]
        if spec is None:
            return {
                "windows": len(records),
                "chain": latest["chain"],
                "deployed": latest["deployed"],
                "shadows": latest["shadows"],
            }
        parsed = parse_shadow_spec(spec)
        n_windows = len(records)
        chain = latest["chain"]
        shadow_hash = self.config.twin_spec.shadow(parsed).topology_hash

        def compute() -> dict:
            answers = offline_whatif(
                self.config.scenario,
                self.config.n_servers,
                n_windows,
                periods_per_window=self.config.periods_per_window,
                seed=self.config.seed,
                shadows=(parsed,),
            )
            return answers["shadows"][parsed.name]

        answer = self.cache.get_or_compute(shadow_hash, chain, compute)
        return {
            "windows": n_windows,
            "chain": chain,
            "deployed": latest["deployed"],
            "shadows": {parsed.name: answer},
        }

    def metrics_counters(self) -> dict:
        """Raw counters for the /metrics renderer."""
        counters = dict(self.windows.counters())
        counters["windows_closed"] = self.windows_closed
        counters["watermark_s"] = self.windows.watermark_s
        counters["windows_shed_shadows"] = self.windows_shed_shadows
        counters["windows_deployed_only"] = self.windows_deployed_only
        counters["twin_rebuilds"] = self.rebuilds_total
        counters["health"] = self.health.counters()
        counters.update(
            {f"cache_{k}": v for k, v in self.cache.counters().items()}
        )
        records = self.records
        if records:
            latest = records[-1]
            counters["deployed_power_w"] = latest["deployed"].get("total_power_w")
            counters["deployed_budget_w"] = latest["deployed"].get("budget_w")
            counters["shadow_power_w"] = {
                name: answer.get("total_power_w")
                for name, answer in latest["shadows"].items()
            }
        return counters

    def close(self) -> None:
        """Checkpoint at the committed head, then close the journal."""
        if self.journal is not None:
            try:
                self.checkpoint()
            finally:
                self.journal.close()


def offline_whatif(
    scenario: str,
    n_servers: int,
    n_windows: int,
    periods_per_window: int = 1,
    seed: int = 0,
    shadows: tuple[ShadowSpec, ...] = (),
) -> dict:
    """The offline twin: deployed + shadow answers after ``n_windows``.

    Exactly the computation a journalled service arrives at after closing
    ``n_windows`` windows — same twins, same cumulative stepping, same
    digests — with no stream, journal, or HTTP attached. ``repro twin``
    exposes it; CI uses it to cross-check live ``/whatif`` answers.
    """
    if n_windows < 1:
        raise ConfigurationError("n_windows must be >= 1")
    config = ServiceConfig(
        scenario, n_servers, periods_per_window=periods_per_window, seed=seed, shadows=shadows
    )
    twins = TwinSet(config.twin_specs())
    twins.advance_to(n_windows)
    return {"windows": n_windows, **twins.answers()}
