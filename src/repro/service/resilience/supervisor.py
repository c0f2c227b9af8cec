"""The twin supervisor: crash/stall detection, WAL-backed restart, give-up.

The supervisor owns the **twin consumer** — the single task that drains
the ingest pipeline and feeds the :class:`~repro.service.core.
DigitalTwinService` (via executor hops, so journal fsyncs and fleet
steps never block the event loop). Around it, it runs the same
trip-shaped discipline :class:`~repro.control.watchdog.SafeModeWatchdog`
applies to controllers:

* a consumer that **raises** is a crash: the twins are rebuilt as a
  resume rebuilds them (from the newest checkpoint and the windows after
  it when journalled, by re-simulating every committed window otherwise),
  the rebuild is announced, and the consumer is restarted after a seeded,
  capped exponential backoff;
* a consumer that stops making progress while work is pending — the
  watermark/window position frozen across ``stall_checks`` consecutive
  probes — is **stalled**: it is cancelled and restarted the same way;
* a window close is proof of recovery and resets the consecutive-failure
  count (the watchdog's release rule);
* ``max_restarts`` consecutive failures without a window close mean the
  plane cannot self-heal: the supervisor marks health ``failed`` and
  raises :class:`~repro.errors.ServiceFailedError`, which ``repro
  serve`` maps to exit 2.

Whenever the ingest queue is empty, the consumer checkpoints the twins
(:meth:`~repro.service.core.DigitalTwinService.checkpoint`) before it
waits for the next event: a live service checkpoints after every window
it serves, and only a backlog spreads checkpoints out to the core's
cadence.

Processing is exactly-once with respect to the simulation: an event the
service already absorbed is never re-fed (its closed windows wait in the
service's pending deque and are re-drained after the rebuild), while an
event the consumer held but never fed is re-fed on restart.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections.abc import Callable
from typing import TYPE_CHECKING

from ...errors import ServiceFailedError
from ...faults.network import ServiceFaultBank
from ..events import Event
from .backpressure import IngestPipeline
from .breaker import BackoffPolicy
from .config import ResilienceConfig

if TYPE_CHECKING:  # pragma: no cover - core imports resilience.health at runtime
    from ..core import DigitalTwinService

__all__ = ["TwinSupervisor"]


class _StallDetected(Exception):
    """Internal: the probe loop declared the consumer stalled."""


class TwinSupervisor:
    """Supervises the twin consumer task over one serve run."""

    def __init__(
        self,
        service: DigitalTwinService,
        pipeline: IngestPipeline,
        config: ResilienceConfig,
        announce: Callable[[str], None] = lambda _: None,
        fault_bank: ServiceFaultBank | None = None,
        max_windows: int | None = None,
    ):
        self.service = service
        self.pipeline = pipeline
        self.config = config
        self.announce = announce
        self.fault_bank = fault_bank
        self.max_windows = max_windows
        self.backoff = BackoffPolicy(
            config.backoff_base_s,
            config.backoff_cap_s,
            seed=config.seed,
            name="twin-supervisor",
        )
        self.restarts_total = 0
        self.stalls_detected = 0
        self.crashes_seen = 0
        self.consecutive_failures = 0
        self.gave_up = False
        self._events_fed = 0
        self._event_index = 0
        self._held_event: Event | None = None
        self._in_flight = False
        self._inflight_future: asyncio.Future | None = None

    # -- consumer ----------------------------------------------------------

    async def _off_loop(self, fn: Callable[..., object], *args: object) -> None:
        """Run ``fn(*args)`` in the executor, tracked so :meth:`_recover`
        lets it settle before rebuilding under it."""
        future = asyncio.get_running_loop().run_in_executor(None, fn, *args)
        self._inflight_future = future
        try:
            await future
        finally:
            self._inflight_future = None

    async def _feed(self, event: Event) -> None:
        level = int(self.pipeline.level())
        before = self.service.windows_closed
        await self._off_loop(self.service.feed_event_sheddable, event, level)
        if self.service.windows_closed > before:
            # Progress through a full window close: the plane recovered.
            self.consecutive_failures = 0
            self.service.health.note_window_closed()
            self.pipeline.note_close_boundary(
                self.service.windows.close_boundary_s
            )

    async def _consume(self) -> None:
        if self.service.has_pending_windows:
            # Windows closed before a crash re-drain first (never re-fed).
            await self._off_loop(self.service.drain_pending)
        while True:
            if self._held_event is not None:
                event: Event | None = self._held_event
            else:
                if self.pipeline.qsize() == 0:
                    # Idle: checkpoint the committed windows before waiting,
                    # so a drained service holds a current blob.
                    await self._off_loop(self.service.checkpoint)
                event = await self.pipeline.get()
                self._held_event = event
            if event is None:
                return
            self._in_flight = True
            try:
                index = self._event_index
                if self.fault_bank is not None and self.fault_bank.stall_fires(index):
                    # Injected hang: cancellable, so the probe loop's
                    # stall detection (not a timeout on this await) must
                    # break the deadlock.
                    await asyncio.Event().wait()
                await self._feed(event)
            finally:
                self._in_flight = False
            self._event_index = index + 1
            self._held_event = None
            self._events_fed += 1
            if (
                self.max_windows is not None
                and self.service.windows_closed >= self.max_windows
            ):
                return

    # -- stall probing -----------------------------------------------------

    def _progress(self) -> tuple[int, int]:
        return (self._events_fed, self.service.windows_closed)

    def _work_pending(self) -> bool:
        return self._in_flight or self.pipeline.qsize() > 0

    async def _await_consumer(self, consumer: asyncio.Task) -> None:
        """Wait for the consumer; raise _StallDetected when it freezes."""
        no_progress = 0
        last = self._progress()
        while True:
            try:
                await asyncio.wait_for(
                    asyncio.shield(consumer), timeout=self.config.probe_interval_s
                )
                return
            except TimeoutError:
                snapshot = self._progress()
                if snapshot == last and self._work_pending():
                    no_progress += 1
                    if no_progress >= self.config.stall_checks:
                        raise _StallDetected(
                            f"no progress across {no_progress} probes with "
                            f"{self.pipeline.qsize()} events queued"
                        ) from None
                else:
                    no_progress = 0
                    last = snapshot

    # -- the supervision loop ----------------------------------------------

    async def run(self) -> None:
        """Run the consumer to end of stream, restarting on crash/stall."""
        while True:
            consumer = asyncio.create_task(self._consume(), name="twin-consumer")
            try:
                await self._await_consumer(consumer)
                return
            except asyncio.CancelledError:
                consumer.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await consumer
                raise
            except _StallDetected as exc:
                self.stalls_detected += 1
                consumer.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await consumer
                await self._recover(f"twin task stalled: {exc}")
            except Exception as exc:
                self.crashes_seen += 1
                await self._recover(f"twin task crashed: {exc!r}")

    async def _recover(self, reason: str) -> None:
        loop = asyncio.get_running_loop()
        inflight = self._inflight_future
        if inflight is not None:
            # Let an executor-side feed or checkpoint settle before
            # rebuilding under it; one hung beyond the probe interval is
            # abandoned. The rebuild replaces every twin it could still
            # mutate and restores only what a whole checkpoint wrote: the
            # atomically replaced blob and the history.bin prefix it records
            # (length and sha256); an append first cuts history.bin back to
            # the length the service recorded.
            with contextlib.suppress(Exception):
                await asyncio.wait_for(
                    asyncio.shield(inflight), timeout=self.config.probe_interval_s
                )
            self._inflight_future = None
        self._in_flight = False
        self.consecutive_failures += 1
        if self.consecutive_failures > self.config.max_restarts:
            self.gave_up = True
            self.service.health.note_failed()
            self.announce(
                f"supervisor: {reason} — {self.consecutive_failures - 1} "
                f"consecutive restarts exhausted, giving up"
            )
            raise ServiceFailedError(
                f"twin task failed {self.consecutive_failures} consecutive "
                f"times (max_restarts={self.config.max_restarts}); last: {reason}"
            )
        delay = self.backoff.delay(self.consecutive_failures - 1)
        self.restarts_total += 1
        self.service.health.note_restart()
        self.announce(
            f"supervisor: {reason} — restart "
            f"#{self.restarts_total} in {delay * 1e3:.0f} ms"
        )
        await asyncio.sleep(delay)
        await loop.run_in_executor(None, self.service.rebuild_twins)
        self.announce(
            f"supervisor: twins rebuilt restored_from={self.service.restored_from} "
            f"resimulated_windows={self.service.resimulated_windows}"
        )

    def metrics(self) -> dict[str, object]:
        return {
            "restarts_total": self.restarts_total,
            "stalls_detected_total": self.stalls_detected,
            "crashes_seen_total": self.crashes_seen,
            "consecutive_failures": self.consecutive_failures,
            "gave_up": int(self.gave_up),
        }
