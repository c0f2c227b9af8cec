"""Bounded ingestion queue with the load-shedding ladder.

Every ingest source (replay, stdin, TCP) submits lines to one
:class:`IngestPipeline`; the supervised twin consumer drains it. The
queue is **bounded** — a producer that outruns the twin blocks on
``await put`` and the pressure propagates all the way to the TCP socket
(the peer's writes stall) instead of growing memory without bound.

As occupancy rises the pipeline walks a monotone shedding ladder:

``OK`` (level 0)
    Everything is processed.
``SHED_LATE`` (level 1)
    Data events that are *certainly late* — their window closed at least
    ``late_horizon_s`` ago, so the window manager would drop them anyway
    — are dropped at the door, before they cost a queue slot and an
    executor hop. Digest-neutral by construction.
``SHED_SHADOWS`` (level 2)
    Windows closed at this level skip the shadow equivalence deltas (the
    expensive cumulative trace comparison) and the HTTP surface refuses
    on-demand what-ifs; shadow twins still advance.
``DEPLOYED_ONLY`` (level 3)
    Windows closed at this level journal only the deployed answer; the
    shadows' summaries are shed too. Shadow twins still advance: a bank
    steps its members in lockstep, so they never fall behind.

Every rung is counted for ``/metrics``, and the current level feeds the
health state machine. The chaos transform (when a fault plan is armed)
also lives at this choke point, so one seeded plan perturbs all sources
identically.
"""

from __future__ import annotations

import asyncio
from enum import IntEnum

from ...errors import ConfigurationError
from ...faults.network import LineChaos
from ..events import Event, parse_event
from .config import ResilienceConfig
from .health import HealthMonitor

__all__ = ["ShedLevel", "IngestPipeline"]


class ShedLevel(IntEnum):
    OK = 0
    SHED_LATE = 1
    SHED_SHADOWS = 2
    DEPLOYED_ONLY = 3


#: Queue sentinel marking end of stream (``get`` translates it to None).
_END = object()


class IngestPipeline:
    """One bounded queue between all ingest sources and the twin consumer.

    Single event loop owns both ends; nothing here blocks. The pipeline
    also owns the armed :class:`~repro.faults.network.LineChaos` (if any)
    so all sources share one deterministic line index space.
    """

    def __init__(
        self,
        config: ResilienceConfig,
        health: HealthMonitor,
        chaos: LineChaos | None = None,
    ):
        self.config = config
        self.health = health
        self.chaos = chaos
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=config.queue_size)
        self._level = ShedLevel.OK
        self._max_level = ShedLevel.OK
        #: Event time at/behind which data events are certainly late: the
        #: close boundary the consumer last reported.
        self._close_boundary_s = 0.0
        self._ended = False
        self.counters: dict[str, int] = {
            "submitted_lines": 0,
            "enqueued_events": 0,
            "dequeued_events": 0,
            "shed_late_events": 0,
            "oversized_lines": 0,
            "protocol_errors": 0,
        }
        self.level_transitions: dict[int, int] = {int(l): 0 for l in ShedLevel}

    # -- ladder state ------------------------------------------------------

    def _compute_level(self) -> ShedLevel:
        occupancy = self._queue.qsize() / self.config.queue_size
        if occupancy >= self.config.deployed_only_frac:
            return ShedLevel.DEPLOYED_ONLY
        if occupancy >= self.config.shed_shadows_frac:
            return ShedLevel.SHED_SHADOWS
        if occupancy >= self.config.shed_late_frac:
            return ShedLevel.SHED_LATE
        return ShedLevel.OK

    def level(self) -> ShedLevel:
        """Current rung; transitions are counted and fed to health."""
        level = self._compute_level()
        if level is not self._level:
            self._level = level
            self.level_transitions[int(level)] += 1
            if level > self._max_level:
                self._max_level = level
            self.health.note_shed_level(int(level))
        return level

    @property
    def max_level(self) -> ShedLevel:
        return self._max_level

    def qsize(self) -> int:
        return self._queue.qsize()

    def note_close_boundary(self, boundary_s: float) -> None:
        """Consumer progress report: the window close boundary moved."""
        if boundary_s > self._close_boundary_s:
            self._close_boundary_s = boundary_s

    def _certainly_late(self, t: float) -> bool:
        return t < self._close_boundary_s - self.config.late_horizon_s

    # -- producer side -----------------------------------------------------

    async def submit_line(self, line: str) -> None:
        """Submit one raw LDJSON line from any source.

        Applies the armed chaos transform (one line in may be zero or
        several lines out), the frame-size guard, parsing, and the
        shed-late rung. Raises :class:`ConfigurationError` for the first
        rejected line so transport handlers can answer the producer —
        *after* every valid sibling line has been enqueued.
        """
        self.counters["submitted_lines"] += 1
        delivered = self.chaos.push(line) if self.chaos is not None else [line]
        first_error: ConfigurationError | None = None
        for out in delivered:
            try:
                await self._submit_one(out)
            except ConfigurationError as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    async def _submit_one(self, line: str) -> None:
        if len(line.encode("utf-8")) > self.config.max_line_bytes:
            self.counters["oversized_lines"] += 1
            raise ConfigurationError(
                f"line of {len(line.encode('utf-8'))} bytes exceeds the "
                f"{self.config.max_line_bytes}-byte frame limit"
            )
        try:
            event = parse_event(line)
        except ConfigurationError:
            self.counters["protocol_errors"] += 1
            raise
        await self.put_event(event)

    async def put_event(self, event: Event) -> bool:
        """Enqueue one parsed event (shed-late rung applies); True if kept."""
        if (
            self.level() >= ShedLevel.SHED_LATE
            and not event.is_heartbeat
            and self._certainly_late(event.t)
        ):
            self.counters["shed_late_events"] += 1
            return False
        await self._queue.put(event)
        self.counters["enqueued_events"] += 1
        return True

    async def end_of_stream(self) -> None:
        """Signal the consumer that no more events will arrive."""
        if not self._ended:
            self._ended = True
            await self._queue.put(_END)

    # -- consumer side -----------------------------------------------------

    async def get(self) -> Event | None:
        """Next event, or None at end of stream."""
        item = await self._queue.get()
        if item is _END:
            # Keep the sentinel visible to any further get() call.
            self._queue.put_nowait(_END)
            return None
        self.counters["dequeued_events"] += 1
        self.level()  # occupancy dropped: let the ladder relax
        return item

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, object]:
        chaos_counters = dict(self.chaos.counters) if self.chaos is not None else {}
        return {
            **self.counters,
            "queue_depth": self._queue.qsize() - (1 if self._ended else 0),
            "queue_size": self.config.queue_size,
            "shed_level": int(self._level),
            "shed_level_max": int(self._max_level),
            "shed_transitions": dict(self.level_transitions),
            "chaos": chaos_counters,
        }
