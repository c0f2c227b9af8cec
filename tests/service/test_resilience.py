"""Unit tests for the resilience primitives: breaker, ladder, health."""

import asyncio
import json

import pytest

from repro.errors import ConfigurationError
from repro.service.events import parse_event
from repro.service.resilience import (
    HealthMonitor,
    HealthState,
    IngestPipeline,
    ResilienceConfig,
    ShedLevel,
)
from repro.service.resilience.breaker import (
    BackoffPolicy,
    BreakerState,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_breaker(threshold=3, clock=None, **kwargs):
    return CircuitBreaker(
        "test",
        threshold,
        BackoffPolicy(0.1, 1.0, seed=0, name="test"),
        clock=clock or FakeClock(),
        **kwargs,
    )


class TestBackoffPolicy:
    def test_deterministic_per_seed_and_name(self):
        a = BackoffPolicy(0.1, 10.0, seed=3, name="x")
        b = BackoffPolicy(0.1, 10.0, seed=3, name="x")
        assert [a.delay(i) for i in range(6)] == [b.delay(i) for i in range(6)]

    def test_different_names_decorrelate(self):
        a = BackoffPolicy(0.1, 10.0, seed=3, name="x")
        b = BackoffPolicy(0.1, 10.0, seed=3, name="y")
        assert [a.delay(i) for i in range(6)] != [b.delay(i) for i in range(6)]

    def test_growth_is_capped_with_jitter_floor(self):
        policy = BackoffPolicy(0.1, 1.0, seed=0)
        for attempt in range(12):
            d = policy.delay(attempt)
            raw = min(1.0, 0.1 * 2.0**attempt)
            assert 0.5 * raw <= d < raw

    def test_huge_attempt_does_not_overflow(self):
        policy = BackoffPolicy(0.1, 2.0, seed=0)
        assert policy.delay(10_000) <= 2.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackoffPolicy(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(1.0, 0.5)
        with pytest.raises(ConfigurationError):
            BackoffPolicy(0.1, 1.0).delay(-1)


class TestCircuitBreaker:
    def test_closed_allows_and_counts_failures(self):
        breaker = make_breaker(threshold=3)
        assert breaker.state is BreakerState.CLOSED
        for _ in range(2):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_open_refuses_until_cooldown(self):
        clock = FakeClock()
        breaker = make_breaker(threshold=1, clock=clock)
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        clock.advance(1.0)  # past cap
        assert breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_admits_single_probe(self):
        clock = FakeClock()
        breaker = make_breaker(threshold=1, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # second caller refused
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_with_longer_cooldown(self):
        clock = FakeClock()
        breaker = make_breaker(threshold=1, clock=clock)
        breaker.record_failure()
        first_open = breaker._open_until - clock.now
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        second_open = breaker._open_until - clock.now
        # Cooldown scales with how often the breaker has opened; with the
        # jitter floor at 0.5, attempt 1's raw doubles attempt 0's.
        assert second_open > 0
        assert breaker.counters()["opened_total"] == 2.0
        assert first_open > 0

    def test_success_clears_failure_history(self):
        breaker = make_breaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_on_transition_callback(self):
        clock = FakeClock()
        seen = []
        breaker = make_breaker(threshold=1, clock=clock, on_transition=seen.append)
        breaker.record_failure()
        clock.advance(1.0)
        breaker.allow()
        breaker.record_success()
        assert seen == [
            BreakerState.OPEN,
            BreakerState.HALF_OPEN,
            BreakerState.CLOSED,
        ]

    def test_counters_reflect_state(self):
        breaker = make_breaker(threshold=1)
        assert breaker.counters() == {"state": 0.0, "opened_total": 0.0}
        breaker.record_failure()
        assert breaker.counters()["state"] == 2.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_breaker(threshold=0)


class TestHealthMonitor:
    def test_starts_ok(self):
        assert HealthMonitor().state is HealthState.OK

    def test_shed_ladder_maps_to_states(self):
        health = HealthMonitor()
        health.note_shed_level(1)
        assert health.state is HealthState.DEGRADED
        health.note_shed_level(2)
        assert health.state is HealthState.SHEDDING
        health.note_shed_level(3)
        assert health.state is HealthState.SHEDDING
        health.note_shed_level(0)
        assert health.state is HealthState.OK

    def test_breaker_open_degrades(self):
        health = HealthMonitor()
        health.note_breaker(True)
        assert health.state is HealthState.DEGRADED
        health.note_breaker(False)
        assert health.state is HealthState.OK

    def test_restart_hold_decays_with_window_closes(self):
        health = HealthMonitor(degraded_hold_windows=2)
        health.note_restart()
        assert health.state is HealthState.DEGRADED
        health.note_window_closed()
        assert health.state is HealthState.DEGRADED
        health.note_window_closed()
        assert health.state is HealthState.OK

    def test_failed_is_terminal(self):
        health = HealthMonitor()
        health.note_failed()
        assert health.state is HealthState.FAILED
        health.note_shed_level(0)
        health.note_breaker(False)
        health.note_window_closed()
        assert health.state is HealthState.FAILED

    def test_rank_order(self):
        ranks = [s.rank for s in (
            HealthState.OK,
            HealthState.DEGRADED,
            HealthState.SHEDDING,
            HealthState.FAILED,
        )]
        assert ranks == sorted(ranks) == [0, 1, 2, 3]

    def test_counters_shape(self):
        health = HealthMonitor()
        health.note_shed_level(2)
        snap = health.counters()
        assert snap["state"] == "shedding"
        assert snap["rank"] == 2
        assert snap["transitions"]["shedding"] == 1


class TestResilienceConfigValidation:
    def test_defaults_valid(self):
        ResilienceConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_size": 0},
            {"shed_late_frac": -0.1},
            {"shed_late_frac": 0.9, "shed_shadows_frac": 0.5},
            {"shed_shadows_frac": 0.9, "deployed_only_frac": 0.5},
            {"deployed_only_frac": 1.5},
            {"late_horizon_s": -1.0},
            {"max_line_bytes": 0},
            {"idle_timeout_s": 0.0},
            {"max_conn_errors": 0},
            {"breaker_failures": 0},
            {"backoff_base_s": 0.0},
            {"backoff_cap_s": 0.01},
            {"max_restarts": -1},
            {"stall_checks": 0},
            {"probe_interval_s": 0.0},
            {"retry_after_s": 0.0},
            # NaN fails every comparison, so a "<= 0" test lets it through.
            {"idle_timeout_s": float("nan")},
            {"probe_interval_s": float("nan")},
            {"retry_after_s": float("nan")},
            {"backoff_base_s": float("nan")},
            {"backoff_cap_s": float("nan")},
            {"late_horizon_s": float("nan")},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(**kwargs)


def make_pipeline(queue_size=8, late_horizon_s=0.0, **kwargs):
    config = ResilienceConfig(
        queue_size=queue_size,
        shed_late_frac=0.25,
        shed_shadows_frac=0.5,
        deployed_only_frac=0.75,
        late_horizon_s=late_horizon_s,
        **kwargs,
    )
    health = HealthMonitor()
    return IngestPipeline(config, health), health


def data(t, **extra):
    return parse_event(json.dumps({"kind": "telemetry", "t": float(t), **extra}))


def run(coro):
    return asyncio.run(coro)


class TestIngestPipelineLadder:
    def test_level_tracks_occupancy(self):
        async def scenario():
            pipeline, health = make_pipeline(queue_size=8)
            assert pipeline.level() is ShedLevel.OK
            for i in range(2):
                await pipeline.put_event(data(i))
            assert pipeline.level() is ShedLevel.SHED_LATE
            for i in range(2, 4):
                await pipeline.put_event(data(i))
            assert pipeline.level() is ShedLevel.SHED_SHADOWS
            assert health.state is HealthState.SHEDDING
            for i in range(4, 6):
                await pipeline.put_event(data(i))
            assert pipeline.level() is ShedLevel.DEPLOYED_ONLY
            assert pipeline.max_level is ShedLevel.DEPLOYED_ONLY
            # Draining relaxes the ladder and the health state follows.
            while pipeline.qsize():
                await pipeline.get()
            assert pipeline.level() is ShedLevel.OK
            assert health.state is HealthState.OK
            assert pipeline.max_level is ShedLevel.DEPLOYED_ONLY

        run(scenario())

    def test_shed_late_drops_certainly_late_data_only(self):
        async def scenario():
            pipeline, _ = make_pipeline(queue_size=8)
            pipeline.note_close_boundary(10.0)
            # Fill to the first rung.
            for i in range(2):
                await pipeline.put_event(data(100 + i))
            assert pipeline.level() is ShedLevel.SHED_LATE
            # A certainly-late data event is shed at the door...
            assert not await pipeline.put_event(data(1.0))
            # ...but a late heartbeat still passes (watermarks are control).
            hb = parse_event(json.dumps({"kind": "heartbeat", "t": 1.0}))
            assert await pipeline.put_event(hb)
            assert pipeline.counters["shed_late_events"] == 1

        run(scenario())

    def test_no_shedding_at_level_zero(self):
        async def scenario():
            pipeline, _ = make_pipeline(queue_size=8)
            pipeline.note_close_boundary(10.0)
            assert await pipeline.put_event(data(1.0))
            assert pipeline.counters["shed_late_events"] == 0

        run(scenario())

    def test_late_horizon_grace(self):
        async def scenario():
            pipeline, _ = make_pipeline(queue_size=8, late_horizon_s=5.0)
            pipeline.note_close_boundary(10.0)
            for i in range(2):
                await pipeline.put_event(data(100 + i))
            # t=6 is late but within the horizon: kept.
            assert await pipeline.put_event(data(6.0))
            # t=4 is beyond the horizon: shed.
            assert not await pipeline.put_event(data(4.0))

        run(scenario())

    def test_close_boundary_is_monotone(self):
        pipeline, _ = make_pipeline()
        pipeline.note_close_boundary(10.0)
        pipeline.note_close_boundary(5.0)
        assert pipeline._close_boundary_s == 10.0


class TestIngestPipelineLines:
    def test_submit_line_parses_and_enqueues(self):
        async def scenario():
            pipeline, _ = make_pipeline()
            await pipeline.submit_line(json.dumps({"kind": "telemetry", "t": 1.0}))
            event = await pipeline.get()
            assert event.t == 1.0
            assert pipeline.counters["enqueued_events"] == 1
            assert pipeline.counters["dequeued_events"] == 1

        run(scenario())

    def test_oversized_line_rejected(self):
        async def scenario():
            pipeline, _ = make_pipeline(max_line_bytes=64)
            line = json.dumps({"kind": "telemetry", "t": 1.0, "pad": "x" * 100})
            with pytest.raises(ConfigurationError, match="frame limit"):
                await pipeline.submit_line(line)
            assert pipeline.counters["oversized_lines"] == 1
            assert pipeline.qsize() == 0

        run(scenario())

    def test_unparseable_line_counted(self):
        async def scenario():
            pipeline, _ = make_pipeline()
            with pytest.raises(ConfigurationError):
                await pipeline.submit_line("{torn")
            assert pipeline.counters["protocol_errors"] == 1

        run(scenario())

    def test_end_of_stream_yields_none_forever(self):
        async def scenario():
            pipeline, _ = make_pipeline()
            await pipeline.put_event(data(1.0))
            await pipeline.end_of_stream()
            assert (await pipeline.get()).t == 1.0
            assert await pipeline.get() is None
            assert await pipeline.get() is None  # sentinel stays visible

        run(scenario())

    def test_metrics_shape(self):
        async def scenario():
            pipeline, _ = make_pipeline()
            await pipeline.put_event(data(1.0))
            snap = pipeline.metrics()
            assert snap["queue_depth"] == 1
            assert snap["queue_size"] == 8
            assert snap["shed_level"] == 0
            assert snap["chaos"] == {}
            assert set(snap["shed_transitions"]) == {0, 1, 2, 3}

        run(scenario())
