"""The digital-twin service core, plus its offline one-shot counterpart.

:class:`DigitalTwinService` ties the layers together: events feed the
window manager; every window the watermark closes advances the deployed
twin and every configured shadow twin one step, computes the
shadow-vs-deployed equivalence deltas, journals the result to the WAL
(hash-chained), refreshes the checkpoint blob, and files the answers in
the what-if cache. The service itself never reads the wall clock — all
time is event time — so a killed service replayed from its journal
reconstructs byte-identical state.

:func:`offline_whatif` is the same computation with no stream attached:
build the twins, advance them ``n`` windows, return the answers. CI's
``service-smoke`` job uses it (via ``repro twin``) to prove a live
``/whatif`` answer equals the offline one digest for digest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..checkpoint.blob import build_blob, load_blob, save_blob
from ..errors import CheckpointError, ConfigurationError
from ..faults.network import InjectedTwinCrash, ServiceFaultBank
from .cache import ResultCache
from .events import Event, parse_event
from .journal import GENESIS_CHAIN, ServiceJournal, chain_digest
from .resilience.health import HealthMonitor
from .shadow import ShadowSpec, TwinRunner, parse_shadow_spec, topology_hash
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
        if self.n_servers < 1:
            raise ConfigurationError("n_servers must be >= 1")
        if self.window_s <= 0.0:
            raise ConfigurationError("window_s must be > 0")
        if self.periods_per_window < 1:
            raise ConfigurationError("periods_per_window must be >= 1")

    @property
    def topology_hash(self) -> str:
        """The deployed twin's topology hash (seeds the WAL chain space)."""
        return topology_hash(
            self.scenario, self.n_servers, self.periods_per_window, self.seed
        )

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
        config = cls(
            scenario=str(data["scenario"]),
            n_servers=int(data["n_servers"]),
            window_s=float(data["window_s"]),
            periods_per_window=int(data["periods_per_window"]),
            seed=int(data["seed"]),
            shadows=tuple(parse_shadow_spec(s) for s in data.get("shadows", [])),
        )
        recorded = data.get("topology_hash")
        if recorded is not None and recorded != config.topology_hash:
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


def _build_twins(
    scenario: str,
    n_servers: int,
    periods_per_window: int,
    seed: int,
    shadows: tuple[ShadowSpec, ...],
) -> tuple[TwinRunner, dict[str, TwinRunner]]:
    """The deployed twin and one shadow twin per spec, keyed by spec name."""
    deployed = TwinRunner(
        scenario, n_servers, periods_per_window=periods_per_window, seed=seed
    )
    return deployed, {
        spec.name: TwinRunner.for_shadow(
            spec, scenario, n_servers, periods_per_window, seed
        )
        for spec in shadows
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
        self.deployed, self.shadows = _build_twins(
            config.scenario,
            config.n_servers,
            config.periods_per_window,
            config.seed,
            config.shadows,
        )
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
        restored = 0
        if resume:
            if journal is None:
                raise ConfigurationError("resume requires a journal")
            restored = self._resume(journal)
        self.windows = WindowManager(config.window_s, closed_count=restored)

    # -- resume ------------------------------------------------------------

    def _resume(self, journal: ServiceJournal) -> int:
        """Rebuild state from the WAL (+ blob when it matches the head)."""
        entries = journal.replay()
        if not entries:
            return 0
        self.records = list(entries)
        self.chain = journal.head_chain(entries)
        self._last_journaled_index = len(entries) - 1
        if not self._restore_from_blob(journal, len(entries)):
            self.deployed.advance(len(entries))
            for shadow in self.shadows.values():
                shadow.advance(len(entries))
        # Whichever path restored the twins, they must reproduce the
        # journaled digests exactly.
        self._check_twin_digests(entries[-1])
        for entry in entries:
            self._file_in_cache(entry)
        return len(entries)

    def _restore_from_blob(self, journal: ServiceJournal, n_windows: int) -> bool:
        """Restore twin state from the checkpoint blob when it matches the
        verified WAL head; stale/missing/corrupt blobs fall back to
        deterministic re-simulation (the WAL is authoritative)."""
        if not journal.blob_path.exists():
            return False
        try:
            blob = load_blob(journal.blob_path)
        except CheckpointError:
            return False
        summary = blob["summary"]
        if summary.get("windows_closed") != n_windows or summary.get("chain") != self.chain:
            return False
        state = blob["state"]
        if set(state.get("shadows", {})) != set(self.shadows):
            return False
        self.deployed.fleet.restore(state["deployed"])
        self.deployed.windows_advanced = n_windows
        for name, shadow in self.shadows.items():
            shadow.fleet.restore(state["shadows"][name])
            shadow.windows_advanced = n_windows
        return True

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
        self.deployed.advance(target - self.deployed.windows_advanced)
        body = {
            "kind": "window_closed",
            "window": window.to_dict(),
            "deployed": self.deployed.summary(),
        }
        if shed_level >= 3:
            # Deployed-only: shadows stop advancing; the lag is repaid by
            # one chunked (chunking-invariant) advance when pressure drops.
            self.windows_deployed_only += 1
            body["shed_level"] = 3
            body["shadows"] = {}
        else:
            for shadow in self.shadows.values():
                shadow.advance(target - shadow.windows_advanced)
            if shed_level >= 2 and self.shadows:
                # Shadows advance but the equivalence deltas are shed.
                self.windows_shed_shadows += 1
                body["shed_level"] = 2
                body["shadows"] = {
                    name: shadow.summary()
                    for name, shadow in sorted(self.shadows.items())
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
        self.deployed.close()
        for shadow in self.shadows.values():
            shadow.close()
        config = self.config
        self.deployed, self.shadows = _build_twins(
            config.scenario,
            config.n_servers,
            config.periods_per_window,
            config.seed,
            config.shadows,
        )
        n_windows = len(self.records)
        if n_windows:
            self.deployed.advance(n_windows)
            for shadow in self.shadows.values():
                shadow.advance(n_windows)
            self._check_twin_digests(self.records[-1])
        self.rebuilds_total += 1

    def _file_in_cache(self, entry: dict) -> None:
        chain = entry["chain"]
        self.cache.put(entry["deployed"]["topology_hash"], chain, entry["deployed"])
        for answer in entry["shadows"].values():
            self.cache.put(answer["topology_hash"], chain, answer)

    def _save_blob(self, journal: ServiceJournal) -> None:
        if any(
            shadow.windows_advanced != len(self.records)
            for shadow in self.shadows.values()
        ):
            # Deployed-only shedding left the shadows lagging; the blob
            # format assumes every twin sits at the committed head, so
            # skip the refresh — a resume falls back to the WAL, which
            # rebuilds (and fully catches up) deterministically.
            return
        state = {
            "deployed": self.deployed.fleet.snapshot(),
            "shadows": {
                name: shadow.fleet.snapshot()
                for name, shadow in self.shadows.items()
            },
        }
        blob = build_blob(
            state,
            created={"windows_closed": len(self.records)},
            summary={"windows_closed": len(self.records), "chain": self.chain},
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
        shadow_hash = topology_hash(
            parsed.scenario or self.config.scenario,
            self.config.n_servers,
            self.config.periods_per_window,
            self.config.seed,
            budget_frac=parsed.budget_frac,
            engine=parsed.engine,
        )

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

    @property
    def shadow_lag(self) -> int:
        """Windows the furthest-behind shadow owes (deployed-only rung)."""
        if not self.shadows:
            return 0
        return len(self.records) - min(
            shadow.windows_advanced for shadow in self.shadows.values()
        )

    def metrics_counters(self) -> dict:
        """Raw counters for the /metrics renderer."""
        counters = dict(self.windows.counters())
        counters["windows_closed"] = self.windows_closed
        counters["watermark_s"] = self.windows.watermark_s
        counters["windows_shed_shadows"] = self.windows_shed_shadows
        counters["windows_deployed_only"] = self.windows_deployed_only
        counters["shadow_lag"] = self.shadow_lag
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
        self.deployed.close()
        for shadow in self.shadows.values():
            shadow.close()
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
    deployed, twins = _build_twins(
        scenario, n_servers, periods_per_window, seed, shadows
    )
    try:
        deployed.advance(n_windows)
        for twin in twins.values():
            twin.advance(n_windows)
        return {
            "windows": n_windows,
            "deployed": deployed.summary(),
            "shadows": {
                name: _shadow_answer(twin, deployed)
                for name, twin in sorted(twins.items())
            },
        }
    finally:
        deployed.close()
        for twin in twins.values():
            twin.close()
