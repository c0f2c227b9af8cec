"""The digital-twin service core, plus its offline one-shot counterpart.

:class:`DigitalTwinService` ties the layers together: events feed the
window manager; every window the watermark closes advances the banks of
the deployed twin and every configured shadow twin one step, computes the
shadow-vs-deployed equivalence deltas, journals the result to the WAL
(hash-chained), appends the twins' new history rows to ``history.bin``
and refreshes the fixed-size checkpoint blob, and files the answers in
the what-if cache. The service itself never reads the wall clock — all
time is event time — so a killed service replayed from its journal
reconstructs byte-identical state.

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
    TwinSpec,
    bank_twins,
    check_shadow_names,
    parse_shadow_spec,
    restore_twins,
    snapshot_twins,
)
from .windows import ClosedWindow, WindowManager

__all__ = ["ServiceConfig", "DigitalTwinService", "offline_whatif"]


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


def _equiv_dict(report) -> dict:
    """JSON-able form of an :class:`repro.equiv.EquivReport`."""
    return {
        "ok": report.ok,
        "rows": [
            {
                "metric": row.metric,
                "unit": row.unit,
                "mean_abs_diff": row.mean_abs_diff,
                "max_abs_diff": row.max_abs_diff,
                "mean_tol": row.mean_tol,
                "max_tol": row.max_tol,
                "ok": row.ok,
            }
            for row in report.rows
        ],
    }


def _shadow_answer(shadow: TwinRunner, deployed: TwinRunner) -> dict:
    """One shadow's cumulative answer: summary + deltas vs deployed."""
    answer = shadow.summary()
    answer["equiv_vs_deployed"] = _equiv_dict(shadow.equiv_vs(deployed))
    return answer


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
        #: order of the blob's state and of ``history.bin`` records), and
        #: the banks that built them.
        self.twins, self.banks = bank_twins(config.twin_specs())
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
        #: How a resume rebuilt the twins: ``"blob"`` (the checkpoint, then
        #: ``resimulated_windows`` more) or ``"wal"`` (re-simulating every
        #: journaled window); None when nothing was resumed.
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
        """Rebuild state from the WAL, starting from the blob when it holds
        one of the WAL's windows."""
        entries = journal.replay()
        if not entries:
            return 0
        n = len(entries)
        self.records = list(entries)
        self.chain = journal.head_chain(entries)
        self._last_journaled_index = n - 1
        restored = self._restore_from_blob(journal, entries)
        self.restored_from = "blob" if restored else "wal"
        self.resimulated_windows = n - restored
        for bank in self.banks:
            bank.advance(n - restored)
        # Whichever path restored the twins, they must reproduce the
        # journaled digests exactly.
        self._check_twin_digests(entries[-1])
        for entry in entries:
            self._file_in_cache(entry)
        if restored < n:
            # Bring history.bin and the blob up to the head; after a
            # fallback this rewrites history.bin from its first byte.
            self._save_blob(journal)
        return n

    def _restore_from_blob(self, journal: ServiceJournal, entries: list[dict]) -> int:
        """Restore twin state from the checkpoint blob when its chain is one
        of the verified WAL entries and the history it records checks out;
        returns the windows it covers, 0 when it cannot be used (missing,
        corrupt, foreign, written before ``history.bin`` existed, or holding
        a state layout the twins no longer have): the caller then
        re-simulates, the WAL is authoritative."""
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
            or not 0 < m <= len(entries)
            or summary.get("chain") != entries[m - 1]["chain"]
            or list(state.get("twins", {})) != list(self.twins)
        ):
            return 0
        read = self._read_history(journal, history, m)
        if read is None:
            return 0
        tables, self._history = read
        try:
            restore_twins(state["twins"], self.twins, tables)
        except CheckpointError:
            # A stale layout can be refused after some nodes were restored:
            # start over from fresh twins and an empty history.bin.
            self._replace_twins()
            self._history = _HistoryEnd()
            return 0
        journal.truncate_history(self._history.length)
        return m

    @property
    def deployed(self) -> TwinRunner:
        return self.twins["deployed"]

    @property
    def shadows(self) -> dict[str, TwinRunner]:
        """The shadow twins by name."""
        return {name: twin for name, twin in self.twins.items() if name != "deployed"}

    def _history_layout(self) -> list[tuple[str, str, np.ndarray, int]]:
        """``(owner, table, storage, rows)`` for every history table, in the
        order of a ``history.bin`` record: each twin's fleet ``trace``, then
        each bank's backend tables by name (``soa`` on an SoA bank), the
        banks named ``bank0``, ``bank1``, ... in :attr:`banks` order."""
        layout = [
            (name, "trace", *twin.fleet.history_tables()["trace"])
            for name, twin in self.twins.items()
        ]
        for k, bank in enumerate(self.banks):
            for table, (storage, rows) in sorted(bank.fleets.backend.history_tables().items()):
                layout.append((f"bank{k}", table, storage, rows))
        return layout

    def _read_history(
        self, journal: ServiceJournal, history: dict, windows: int
    ) -> tuple[dict[str, np.ndarray], _HistoryEnd] | None:
        """Every history table after ``windows`` windows, keyed
        ``"{owner}/{table}"`` and read back from ``history.bin``, and where
        that history ends, when the file's prefix matches the blob's record
        (length, sha256, owners, table names and row counts); else None.

        The file is one record per window; a record holds every table's
        rows of that window in :meth:`_history_layout` order.
        """
        layout = self._history_layout()
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

    def _check_twin_digests(self, last: dict) -> None:
        """The bit-identity cross-check: every rebuilt twin must reproduce
        the digest ``last`` (the newest committed record) holds for it."""
        twins = [("deployed", self.deployed, last["deployed"])]
        twins += [
            (f"shadow {name!r}", shadow, last["shadows"].get(name))
            for name, shadow in self.shadows.items()
        ]
        for label, twin, recorded in twins:
            if recorded is None:
                continue
            rebuilt, journaled = twin.digest(), recorded["digest"]
            if rebuilt != journaled:
                raise CheckpointError(
                    f"resume is not bit-identical: rebuilt {label} digest "
                    f"{rebuilt[:12]}… does not match the journaled "
                    f"{journaled[:12]}… (code or scenario changed since the "
                    "service started)"
                )

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
        target = len(self.records) + 1
        # Every bank advances at every level: a bank steps its members in
        # lockstep, so shedding saves only the shadows' answers.
        for bank in self.banks:
            bank.advance(target - bank.windows_advanced)
        body = {
            "kind": "window_closed",
            "window": window.to_dict(),
            "deployed": self.deployed.summary(),
        }
        if shed_level >= 3:
            # Deployed-only: the shadows' summaries are shed too.
            self.windows_deployed_only += 1
            body["shed_level"] = 3
            body["shadows"] = {}
        elif shed_level >= 2 and self.shadows:
            # The equivalence deltas are shed.
            self.windows_shed_shadows += 1
            body["shed_level"] = 2
            body["shadows"] = {
                name: shadow.summary() for name, shadow in sorted(self.shadows.items())
            }
        else:
            body["shadows"] = {
                name: _shadow_answer(shadow, self.deployed)
                for name, shadow in sorted(self.shadows.items())
            }
        entry = {**body, "chain": chain_digest(self.chain, body)}
        if self.journal is not None and window.index > self._last_journaled_index:
            # WAL first (durable before served), then the best-effort blob.
            self.journal.append_window(entry)
        self._last_journaled_index = max(self._last_journaled_index, window.index)
        self.chain = entry["chain"]
        self.records.append(entry)
        self._file_in_cache(entry)
        if self.journal is not None:
            self._save_blob(self.journal)
        return entry

    def rebuild_twins(self) -> None:
        """Replace the twins with fresh runners advanced to the committed head.

        The supervisor's crash-recovery step: whatever state the crashed
        twins were in, a rebuild replays the authoritative ledger —
        ``advance(len(records))`` on brand-new runners — and cross-checks
        the rebuilt digests against the last committed record, the same
        bit-identity gate a journal resume applies.
        """
        self._replace_twins()
        n_windows = len(self.records)
        if n_windows:
            for bank in self.banks:
                bank.advance(n_windows)
            self._check_twin_digests(self.records[-1])
        self.rebuilds_total += 1

    def _replace_twins(self) -> None:
        """Close the twins and build fresh ones, at window 0."""
        for bank in self.banks:
            bank.close()
        self.twins, self.banks = bank_twins(self.config.twin_specs())

    def _file_in_cache(self, entry: dict) -> None:
        chain = entry["chain"]
        self.cache.put(entry["deployed"]["topology_hash"], chain, entry["deployed"])
        for answer in entry["shadows"].values():
            self.cache.put(answer["topology_hash"], chain, answer)

    def _save_blob(self, journal: ServiceJournal) -> None:
        """Append the twins' new history rows to ``history.bin``, then
        write the state blob that goes with it."""
        n = len(self.records)
        layout = self._history_layout()
        end = self._history
        if n > end.windows:
            # Window-major records: every table's rows of one window, then
            # the next window's.
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
        state = {"twins": snapshot_twins(self.twins, tables)}
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
        for bank in self.banks:
            bank.close()
        if self.journal is not None:
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
    twins, banks = bank_twins(config.twin_specs())
    deployed = twins.pop("deployed")
    try:
        for bank in banks:
            bank.advance(n_windows)
        return {
            "windows": n_windows,
            "deployed": deployed.summary(),
            "shadows": {
                name: _shadow_answer(twin, deployed)
                for name, twin in twins.items()
            },
        }
    finally:
        for bank in banks:
            bank.close()
