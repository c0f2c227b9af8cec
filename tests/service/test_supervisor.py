"""The twin supervisor: crash restart, stall recovery, crash-loop give-up.

Every test drives a real :class:`DigitalTwinService` (tree-static, 4
servers) through the ingest pipeline under a seeded fault bank, then
checks the tentpole invariant: after faults clear, the served window
chain is bit-identical to a clean run over the same events.
"""

import asyncio
import os
import signal
import threading
import time
import warnings

import pytest

from repro.checkpoint.blob import load_blob
from repro.errors import ServiceFailedError
from repro.faults.models import FaultWindow
from repro.faults.network import (
    NetworkFaultPlan,
    ServiceFaultBank,
    TwinCrash,
    TwinStall,
)
from repro.service import (
    DigitalTwinService,
    HealthState,
    ResilienceConfig,
    ServeOptions,
    ServiceConfig,
    ServiceJournal,
    TwinSupervisor,
    serve,
)
from repro.service.core import InjectedTwinCrash
from repro.service.events import heartbeat, make_event
from repro.service.resilience import HealthMonitor, IngestPipeline
from repro.telemetry.serialize import save_trace_npz
from repro.telemetry.trace import Trace

SCENARIO = "tree-static"
N = 4

pytestmark = pytest.mark.filterwarnings("ignore")


def config(shadows=()):
    return ServiceConfig(scenario=SCENARIO, n_servers=N, shadows=shadows)


def rconfig(**kwargs):
    defaults = dict(
        queue_size=64,
        backoff_base_s=0.001,
        backoff_cap_s=0.002,
        probe_interval_s=0.05,
        stall_checks=2,
        max_restarts=3,
    )
    defaults.update(kwargs)
    return ResilienceConfig(**defaults)


def events_for(n_windows):
    out = []
    for k in range(n_windows):
        out.append(make_event({"kind": "telemetry", "t": k + 0.5, "power_w": 100.0 + k}))
        out.append(heartbeat(float(k + 1)))
    return out


def clean_chain(n_windows):
    """Digest chain from an unsupervised, fault-free run of the same events."""
    service = DigitalTwinService(config())
    try:
        for event in events_for(n_windows):
            service.feed_event(event)
        return [
            (r["window"]["digest"], r["chain"], r["deployed"]["digest"])
            for r in service.records
        ]
    finally:
        service.close()


def run_supervised(service, fault_bank, rc, n_windows, announce=lambda _: None):
    async def scenario():
        pipeline = IngestPipeline(rc, service.health)
        supervisor = TwinSupervisor(
            service,
            pipeline,
            rc,
            announce=announce,
            fault_bank=fault_bank,
        )
        for event in events_for(n_windows):
            await pipeline.put_event(event)
        await pipeline.end_of_stream()
        await supervisor.run()
        return supervisor

    return asyncio.run(scenario())


class TestCrashRecovery:
    def test_injected_crash_restarts_and_matches_clean_run(self):
        plan = NetworkFaultPlan(
            faults=(TwinCrash(window=FaultWindow(1, 1), probability=1.0, times=2),)
        )
        service = DigitalTwinService(config())
        service.fault_bank = bank = ServiceFaultBank(plan)
        messages = []
        try:
            supervisor = run_supervised(
                service, bank, rconfig(), 4, announce=messages.append
            )
            assert supervisor.crashes_seen == 2
            assert supervisor.restarts_total == 2
            assert not supervisor.gave_up
            assert service.windows_closed == 4
            assert service.rebuilds_total == 2
            chain = [
                (r["window"]["digest"], r["chain"], r["deployed"]["digest"])
                for r in service.records
            ]
            assert chain == clean_chain(4)
            # A window close after recovery resets the failure budget.
            assert supervisor.consecutive_failures == 0
            assert any("restart #1" in m for m in messages)
        finally:
            service.close()

    def test_a_journalled_rebuild_restores_the_checkpoint_and_says_so(self, tmp_path):
        """A crash at window 18 of a journalled service: the rebuild
        restores the window-16 blob, re-simulates the 2 windows after it and
        announces so, and the run ends on the clean chain."""
        plan = NetworkFaultPlan(
            faults=(TwinCrash(window=FaultWindow(18, 1), probability=1.0, times=1),)
        )
        cfg = config()
        journal = ServiceJournal.create(tmp_path / "svc", cfg.to_dict())
        service = DigitalTwinService(cfg, journal=journal)
        service.fault_bank = bank = ServiceFaultBank(plan)
        messages = []
        try:
            # A queue this long never reaches a shed rung with 40 events,
            # and probes this far apart never take a slow commit for a stall.
            rc = rconfig(queue_size=256, probe_interval_s=1.0)
            run_supervised(service, bank, rc, 20, announce=messages.append)
            assert service.rebuilds_total == 1
            assert (
                "supervisor: twins rebuilt restored_from=blob resimulated_windows=2"
                in messages
            )
            chain = [
                (r["window"]["digest"], r["chain"], r["deployed"]["digest"])
                for r in service.records
            ]
            assert chain == clean_chain(20)
        finally:
            service.close()

    def test_window_close_resets_consecutive_failures(self):
        # 3 crashes on the same window with max_restarts=3 only survives
        # because... it doesn't reset here; instead crash two separate
        # windows: each recovery closes a window between failures.
        plan = NetworkFaultPlan(
            faults=(
                TwinCrash(window=FaultWindow(0, 1), probability=1.0, times=3),
                TwinCrash(window=FaultWindow(2, 1), probability=1.0, times=3),
            )
        )
        service = DigitalTwinService(config())
        service.fault_bank = bank = ServiceFaultBank(plan)
        try:
            supervisor = run_supervised(service, bank, rconfig(max_restarts=3), 4)
            # Six crashes total, but never more than three consecutive.
            assert supervisor.crashes_seen == 6
            assert not supervisor.gave_up
            assert service.windows_closed == 4
        finally:
            service.close()

    def test_health_degrades_during_restart_and_recovers(self):
        plan = NetworkFaultPlan(
            faults=(TwinCrash(window=FaultWindow(1, 1), probability=1.0, times=1),)
        )
        service = DigitalTwinService(config())
        service.fault_bank = bank = ServiceFaultBank(plan)
        states = []

        real_note_restart = service.health.note_restart

        def spy_restart():
            real_note_restart()
            states.append(service.health.state)

        service.health.note_restart = spy_restart
        try:
            run_supervised(service, bank, rconfig(), 4)
            assert states == [HealthState.DEGRADED]
            # degraded_hold_windows=2 decayed by subsequent closes.
            assert service.health.state is HealthState.OK
        finally:
            service.close()


class TestCrashLoop:
    def test_gives_up_after_max_restarts(self):
        plan = NetworkFaultPlan(
            faults=(
                TwinCrash(window=FaultWindow(1, 1), probability=1.0, times=None),
            )
        )
        service = DigitalTwinService(config())
        service.fault_bank = bank = ServiceFaultBank(plan)
        try:
            with pytest.raises(ServiceFailedError, match="max_restarts=2"):
                run_supervised(service, bank, rconfig(max_restarts=2), 4)
            assert service.health.state is HealthState.FAILED
        finally:
            service.close()

    def test_give_up_marks_supervisor_and_health(self):
        plan = NetworkFaultPlan(
            faults=(
                TwinCrash(window=FaultWindow(0, 1), probability=1.0, times=None),
            )
        )
        service = DigitalTwinService(config())
        service.fault_bank = bank = ServiceFaultBank(plan)

        async def scenario():
            rc = rconfig(max_restarts=1)
            pipeline = IngestPipeline(rc, service.health)
            supervisor = TwinSupervisor(
                service, pipeline, rc, fault_bank=bank
            )
            for event in events_for(2):
                await pipeline.put_event(event)
            await pipeline.end_of_stream()
            with pytest.raises(ServiceFailedError):
                await supervisor.run()
            return supervisor

        try:
            supervisor = asyncio.run(scenario())
            assert supervisor.gave_up
            assert supervisor.metrics()["gave_up"] == 1
            assert supervisor.crashes_seen == 2  # initial + 1 allowed restart
            assert service.health.state is HealthState.FAILED
        finally:
            service.close()


class TestStallRecovery:
    def test_injected_stall_detected_and_recovered(self):
        plan = NetworkFaultPlan(
            faults=(TwinStall(window=FaultWindow(2, 1), probability=1.0, times=1),)
        )
        service = DigitalTwinService(config())
        service.fault_bank = bank = ServiceFaultBank(plan)
        messages = []
        try:
            supervisor = run_supervised(
                service, bank, rconfig(), 3, announce=messages.append
            )
            assert supervisor.stalls_detected == 1
            assert supervisor.restarts_total == 1
            assert service.windows_closed == 3
            chain = [
                (r["window"]["digest"], r["chain"], r["deployed"]["digest"])
                for r in service.records
            ]
            assert chain == clean_chain(3)
            assert any("stalled" in m for m in messages)
        finally:
            service.close()

    def test_idle_queue_is_not_a_stall(self):
        # No events pending: the probe loop must idle without declaring a
        # stall, then finish cleanly at end of stream.
        service = DigitalTwinService(config())

        async def scenario():
            rc = rconfig(probe_interval_s=0.02, stall_checks=2)
            pipeline = IngestPipeline(rc, service.health)
            supervisor = TwinSupervisor(service, pipeline, rc)

            async def late_eos():
                # Longer than stall_checks * probe_interval_s of idleness.
                await asyncio.sleep(0.1)
                await pipeline.end_of_stream()

            eos = asyncio.create_task(late_eos())
            await supervisor.run()
            await eos
            return supervisor

        try:
            supervisor = asyncio.run(scenario())
            assert supervisor.stalls_detected == 0
            assert supervisor.restarts_total == 0
        finally:
            service.close()


class TestMaxWindows:
    def test_stops_at_max_windows_with_live_stream(self):
        service = DigitalTwinService(config())

        async def scenario():
            rc = rconfig()
            pipeline = IngestPipeline(rc, service.health)
            supervisor = TwinSupervisor(service, pipeline, rc, max_windows=2)
            for event in events_for(5):
                await pipeline.put_event(event)
            # No end_of_stream: the supervisor must return on its own.
            await supervisor.run()
            return supervisor

        try:
            asyncio.run(scenario())
            assert service.windows_closed == 2
        finally:
            service.close()


class TestRebuild:
    def test_rebuild_twins_preserves_digests(self):
        service = DigitalTwinService(config(shadows=()))
        try:
            for event in events_for(3):
                service.feed_event(event)
            before = service.records[-1]["deployed"]["digest"]
            service.rebuild_twins()
            assert service.rebuilds_total == 1
            assert service.deployed.windows_advanced == 3
            # The rebuilt twin extends the chain identically.
            for event in events_for(1):
                pass  # (fed below with shifted times)
            service.feed_event(
                make_event({"kind": "telemetry", "t": 3.5, "power_w": 103.0})
            )
            service.feed_event(heartbeat(4.0))
            assert service.windows_closed == 4
            chain = [
                (r["window"]["digest"], r["chain"], r["deployed"]["digest"])
                for r in service.records
            ]
            assert chain == clean_chain(4)
            assert before == chain[2][2]
        finally:
            service.close()

    def test_injected_crash_is_catchable_exception(self):
        plan = NetworkFaultPlan(
            faults=(TwinCrash(window=FaultWindow(0, 1), probability=1.0, times=1),)
        )
        service = DigitalTwinService(config())
        service.fault_bank = ServiceFaultBank(plan)
        try:
            with pytest.raises(InjectedTwinCrash):
                for event in events_for(1):
                    service.feed_event(event)
            # The closed window is parked, not lost: draining commits it.
            assert service.has_pending_windows
            service.drain_pending()
            assert service.windows_closed == 1
        finally:
            service.close()


class TestIdleCheckpoint:
    def test_a_drained_replay_is_checkpointed_before_close(self, tmp_path):
        """The consumer checkpoints whenever the ingest queue is idle. With
        the replay drained and the HTTP listener keeping the service up,
        it waits for more events, and twin.ckpt already records every
        closed window, long before the cadence and before any close()."""
        trace = Trace(["power_w"])
        for k in range(3):
            trace.append_row({"power_w": 100.0 + k})
        replay = tmp_path / "trace.npz"
        save_trace_npz(trace, replay)
        blob_path = tmp_path / "svc" / "twin.ckpt"
        served = threading.Event()
        checkpointed = []

        def stop_once_checkpointed():
            deadline = time.monotonic() + 20.0
            while not served.is_set() and time.monotonic() < deadline:
                if blob_path.exists():
                    checkpointed.append(load_blob(blob_path)["summary"]["windows_closed"])
                    if checkpointed[-1] == 3:
                        break
                time.sleep(0.01)
            if not served.is_set():
                os.kill(os.getpid(), signal.SIGINT)  # a graceful drain

        driver = threading.Thread(target=stop_once_checkpointed)
        driver.start()
        try:
            service = serve(
                config(),
                ServeOptions(journal_dir=tmp_path / "svc", replay=replay, listen_port=0),
                announce=lambda _: None,
            )
        finally:
            served.set()
            driver.join(timeout=30.0)
        try:
            assert service.windows_closed == 3
            assert checkpointed and checkpointed[-1] == 3, checkpointed
        finally:
            service.close()
