"""The ``repro serve`` loop: sources, pipeline, supervised twin, HTTP.

One asyncio loop owns the whole plane. Ingest sources (replay generator,
stdin reader, TCP listener) are *producers*: they submit raw LDJSON
lines to the bounded :class:`~repro.service.resilience.IngestPipeline`
(where the armed chaos transform, the frame guard, and the load-shedding
ladder live). The single consumer — the twin task — is owned by the
:class:`~repro.service.resilience.TwinSupervisor`, which restarts it
from the hash-chained WAL on a crash or stall and gives up (exit 2)
after ``max_restarts`` consecutive failures. The HTTP read surface runs
on its own daemon thread and serves 503 + Retry-After while the health
state machine reports degraded or worse.

Signals: the first SIGINT/SIGTERM asks for a graceful drain (end of
stream, consumer drains the queue, journal stays consistent); a second
SIGINT raises :class:`~repro.errors.ForcedShutdown`, which the CLI maps
to exit 130. An abrupt SIGKILL loses at most the torn final WAL line —
exactly what the replay path tolerates and CI's kill-resume drill
exercises.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigurationError, ForcedShutdown
from ..faults.network import (
    LineChaos,
    NetworkFaultPlan,
    ServiceFaultBank,
    load_network_fault_plan,
)
from .core import DigitalTwinService, ServiceConfig
from .http import ServiceHTTPServer
from .ingest import replay_events, serve_ingest, stdin_lines
from .journal import ServiceJournal
from .resilience import (
    BackoffPolicy,
    BreakerState,
    CircuitBreaker,
    IngestPipeline,
    ResilienceConfig,
    TwinSupervisor,
)

__all__ = ["ServeOptions", "serve"]


@dataclass(frozen=True)
class ServeOptions:
    """Everything ``repro serve`` resolved from its command line."""

    journal_dir: Path | None = None
    resume: bool = False
    replay: Path | None = None
    use_stdin: bool = False
    ingest_host: str = "127.0.0.1"
    ingest_port: int | None = None
    listen_host: str = "127.0.0.1"
    listen_port: int | None = None
    oneshot: bool = False
    max_windows: int | None = None
    fault_plan: Path | None = None
    fault_seed: int | None = None
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)


def _build_service(config: ServiceConfig | None, options: ServeOptions) -> DigitalTwinService:
    if options.resume:
        if options.journal_dir is None:
            raise ConfigurationError("--resume requires the journal directory")
        journal = ServiceJournal.open(options.journal_dir)
        resumed_config = ServiceConfig.from_dict(journal.manifest())
        return DigitalTwinService(resumed_config, journal=journal, resume=True)
    if config is None:
        raise ConfigurationError("a fresh service needs a configuration")
    journal = None
    if options.journal_dir is not None:
        journal = ServiceJournal.create(options.journal_dir, config.to_dict())
    return DigitalTwinService(config, journal=journal)


def _arm_faults(
    options: ServeOptions, announce: Callable[[str], None]
) -> tuple[LineChaos | None, ServiceFaultBank | None]:
    if options.fault_plan is None:
        return None, None
    plan: NetworkFaultPlan = load_network_fault_plan(options.fault_plan)
    seed = plan.seed if options.fault_seed is None else options.fault_seed
    announce(
        f"faults: armed {len(plan.faults)} fault(s) from "
        f"{options.fault_plan} seed={seed}"
    )
    return LineChaos(plan, seed=seed), ServiceFaultBank(plan, seed=seed)


async def _run(
    service: DigitalTwinService,
    options: ServeOptions,
    announce: Callable[[str], None],
) -> None:
    loop = asyncio.get_running_loop()
    rconfig = options.resilience
    stop = asyncio.Event()
    force = asyncio.Event()
    signals_seen = 0

    def on_signal() -> None:
        nonlocal signals_seen
        signals_seen += 1
        if signals_seen == 1:
            stop.set()
        else:
            # Second SIGINT: the operator wants out *now*.
            force.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signum, on_signal)

    # The plan file read happens off-loop (REP501): arming is one-shot
    # startup work, but the loop is already running here.
    chaos, fault_bank = await asyncio.to_thread(_arm_faults, options, announce)
    service.fault_bank = fault_bank
    pipeline = IngestPipeline(rconfig, service.health, chaos)
    supervisor = TwinSupervisor(
        service,
        pipeline,
        rconfig,
        announce=announce,
        fault_bank=fault_bank,
        max_windows=options.max_windows,
    )
    ingest_counters: dict[str, int] = {}
    breaker: CircuitBreaker | None = None
    if options.ingest_port is not None:
        breaker = CircuitBreaker(
            "tcp-ingest",
            rconfig.breaker_failures,
            BackoffPolicy(
                rconfig.backoff_base_s,
                rconfig.backoff_cap_s,
                seed=rconfig.seed,
                name="tcp-ingest",
            ),
            on_transition=lambda state: service.health.note_breaker(
                state is BreakerState.OPEN
            ),
        )

    def resilience_metrics() -> dict[str, object]:
        flat: dict[str, object] = dict(pipeline.metrics())
        for key, value in supervisor.metrics().items():
            flat[f"supervisor_{key}"] = value
        for key, value in ingest_counters.items():
            flat[f"ingest_{key}"] = value
        if breaker is not None:
            for key, value in breaker.counters().items():
                flat[f"breaker_{key}"] = value
        return flat

    async def feed(line: str) -> None:
        # TCP path: ConfigurationError propagates so the handler can
        # answer the producer with {"error": ...}.
        await pipeline.submit_line(line)

    async def feed_quiet(line: str) -> None:
        # stdin/replay path: nobody to answer — the pipeline counted it.
        with contextlib.suppress(ConfigurationError):
            await pipeline.submit_line(line)

    async def replay_producer() -> None:
        window_s = service.config.window_s
        announce(f"replay: streaming {options.replay}")
        events = replay_events(options.replay, window_s)
        while not stop.is_set():
            # The generator does file I/O lazily (open/read on first and
            # subsequent next()), so advancing it is offloaded like the
            # feeding itself.
            event = await loop.run_in_executor(None, next, events, None)
            if event is None:
                announce("replay: done — all events submitted")
                return
            if chaos is None:
                await pipeline.put_event(event)
            else:
                # Replay goes through the same chaos/guard path as the
                # live sources, as canonical LDJSON lines.
                await feed_quiet(event.canonical)
            # Yield between events so the ingest listener and signal
            # handlers run while a long replay streams.
            await asyncio.sleep(0)

    http_server: ServiceHTTPServer | None = None
    ingest_server: asyncio.AbstractServer | None = None
    producers: list[asyncio.Task] = []
    stdin_task: asyncio.Task | None = None
    supervisor_task = asyncio.create_task(supervisor.run(), name="twin-supervisor")
    stop_waiter = asyncio.create_task(stop.wait(), name="stop-waiter")
    force_waiter = asyncio.create_task(force.wait(), name="force-waiter")
    stream_end_task: asyncio.Task | None = None
    try:
        if options.listen_port is not None:
            http_server = ServiceHTTPServer(
                service,
                options.listen_host,
                options.listen_port,
                extra_metrics=resilience_metrics,
                retry_after_s=rconfig.retry_after_s,
            )
            http_server.start()
            announce(f"http: serving on {http_server.host}:{http_server.port}")
        if options.ingest_port is not None:
            ingest_server = await serve_ingest(
                feed,
                options.ingest_host,
                options.ingest_port,
                max_line_bytes=rconfig.max_line_bytes,
                idle_timeout_s=rconfig.idle_timeout_s,
                max_conn_errors=rconfig.max_conn_errors,
                breaker=breaker,
                counters=ingest_counters,
            )
            sockets = ingest_server.sockets or ()
            for sock in sockets:
                host, port = sock.getsockname()[:2]
                announce(f"ingest: listening on {host}:{port}")
        if options.use_stdin:
            stdin_task = asyncio.create_task(stdin_lines(feed_quiet), name="stdin")
            producers.append(stdin_task)
        if options.replay is not None:
            producers.append(asyncio.create_task(replay_producer(), name="replay"))

        async def stream_end() -> None:
            """Completes when the event stream is finished; pends while live."""
            if producers:
                await asyncio.gather(*producers)
            if options.oneshot:
                return
            if stdin_task is not None and ingest_server is None:
                # stdin was the terminal source: EOF ends the stream.
                return
            if ingest_server is None and http_server is None and stdin_task is None:
                # Replay-only with nothing to keep serving for.
                return
            await asyncio.Event().wait()

        stream_end_task = asyncio.create_task(stream_end(), name="stream-end")

        async def drain_and_finish() -> None:
            """End of stream: let the consumer drain, honoring force/fail."""
            # end_of_stream can itself block on a full queue, so it races
            # against the force signal and a dying supervisor too.
            eos = asyncio.create_task(pipeline.end_of_stream())
            try:
                done, _ = await asyncio.wait(
                    {eos, force_waiter, supervisor_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if force_waiter in done:
                    raise ForcedShutdown("second SIGINT during drain")
                if eos not in done:
                    await supervisor_task  # raises, or --max-windows reached
                    return
            finally:
                eos.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await eos
            done, _ = await asyncio.wait(
                {force_waiter, supervisor_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if force_waiter in done:
                raise ForcedShutdown("second SIGINT during drain")
            await supervisor_task  # propagate ServiceFailedError, if any
            announce(
                f"stream: done — {service.windows_closed} windows closed, "
                f"watermark {service.windows.watermark_s:g}s"
            )

        done, _ = await asyncio.wait(
            {stop_waiter, force_waiter, supervisor_task, stream_end_task},
            return_when=asyncio.FIRST_COMPLETED,
        )
        if force_waiter in done:
            raise ForcedShutdown("second SIGINT")
        if supervisor_task in done:
            # Crash-loop give-up (raises ServiceFailedError) or the
            # --max-windows target was reached (returns cleanly).
            await supervisor_task
            return
        if stream_end_task in done:
            await stream_end_task  # propagate a broken replay source
            await drain_and_finish()
            return
        # stop_waiter: graceful drain of whatever is already queued.
        for task in producers:
            task.cancel()
        for task in producers:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        if not supervisor_task.done():
            await drain_and_finish()
        else:
            await supervisor_task
    finally:
        for task in producers:
            task.cancel()
        for task in (supervisor_task, stop_waiter, force_waiter, stream_end_task):
            if task is not None:
                task.cancel()
        for task in [
            *producers,
            supervisor_task,
            stop_waiter,
            force_waiter,
            *([stream_end_task] if stream_end_task is not None else []),
        ]:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        if ingest_server is not None:
            ingest_server.close()
            await ingest_server.wait_closed()
        if http_server is not None:
            http_server.stop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.remove_signal_handler(signum)


def serve(
    config: ServiceConfig | None,
    options: ServeOptions,
    announce: Callable[[str], None] = print,
) -> DigitalTwinService:
    """Build (or resume) the service and run the serve loop to completion.

    Returns the service so callers (tests, the CLI summary) can read its
    final state; the caller owns :meth:`DigitalTwinService.close`.
    """
    service = _build_service(config, options)
    try:
        restored = (
            f" restored_from={service.restored_from} "
            f"resimulated_windows={service.resimulated_windows}"
            if service.restored_from is not None
            else ""
        )
        announce(
            f"service: scenario={service.config.scenario} "
            f"servers={service.config.n_servers} "
            f"shadows={len(service.shadows)} "
            f"resumed_windows={service.windows_closed}{restored}"
        )
        asyncio.run(_run(service, options, announce))
    except BaseException:
        service.close()
        raise
    return service
