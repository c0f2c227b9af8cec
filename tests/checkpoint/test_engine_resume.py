"""Engine snapshot/restore: bit-identical resume, watchdog state, properties.

Bit-identity is always asserted on the trace bytes *excluding* the
wall-clock timing channels (``TIMING_KEYS``): ``ctl_ms`` measures real
controller wall time and legitimately differs between two runs that are
otherwise byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import load_blob, save_blob
from repro.control import FixedStepController, SafeModeWatchdog, WatchdogConfig
from repro.control.base import ControlObservation
from repro.errors import CheckpointError
from repro.sim import paper_scenario

from .conftest import make_capgpu_run, trace_bytes

TOTAL = 24
SPLIT = 10


class TestSnapshotRestore:
    def test_snapshot_is_non_perturbing(self):
        sim_a, ctl_a, ev_a = make_capgpu_run()
        trace_a = sim_a.run(ctl_a, TOTAL, events=ev_a)

        sim_b, ctl_b, ev_b = make_capgpu_run()
        sim_b.run(ctl_b, SPLIT, events=ev_b)
        sim_b.snapshot(ctl_b, ev_b)  # taking a checkpoint must not disturb
        trace_b = sim_b.run(
            ctl_b, TOTAL - SPLIT, events=ev_b, apply_initial_targets=False
        )
        assert trace_bytes(trace_b) == trace_bytes(trace_a)

    def test_restore_is_bit_identical(self, tmp_path):
        sim_a, ctl_a, ev_a = make_capgpu_run()
        trace_a = sim_a.run(ctl_a, TOTAL, events=ev_a)

        sim_b, ctl_b, ev_b = make_capgpu_run()
        sim_b.run(ctl_b, SPLIT, events=ev_b)
        path = tmp_path / "run.ckpt"
        save_blob(path, sim_b.snapshot(ctl_b, ev_b))

        # A cold process restart: everything rebuilt from scratch, state
        # loaded from disk, run continued to the end.
        sim_c, ctl_c, ev_c = make_capgpu_run()
        sim_c.restore(load_blob(path), controller=ctl_c, events=ev_c)
        assert sim_c.period_index == SPLIT
        trace_c = sim_c.run(
            ctl_c, TOTAL - SPLIT, events=ev_c, apply_initial_targets=False
        )
        assert trace_bytes(trace_c) == trace_bytes(trace_a)

    def test_grown_trace_buffer_restores(self, tmp_path):
        """A blob whose trace buffer grew past a fresh run's capacity
        restores at the captured capacity."""
        sim_a, ctl_a, ev_a = make_capgpu_run()
        trace_a = sim_a.run(ctl_a, TOTAL, events=ev_a)

        sim_b, ctl_b, ev_b = make_capgpu_run()
        sim_b.run(ctl_b, SPLIT, events=ev_b)
        sim_b.trace._grow()  # as appending past its capacity would
        capacity = sim_b.trace._data.shape[0]
        path = tmp_path / "run.ckpt"
        save_blob(path, sim_b.snapshot(ctl_b, ev_b))

        sim_c, ctl_c, ev_c = make_capgpu_run()
        assert sim_c.trace._data.shape[0] < capacity
        sim_c.restore(load_blob(path), controller=ctl_c, events=ev_c)
        assert sim_c.trace._data.shape[0] == capacity
        trace_c = sim_c.run(
            ctl_c, TOTAL - SPLIT, events=ev_c, apply_initial_targets=False
        )
        assert trace_bytes(trace_c) == trace_bytes(trace_a)

    def test_summary_is_inspectable(self):
        sim, ctl, ev = make_capgpu_run()
        sim.run(ctl, SPLIT, events=ev)
        blob = sim.snapshot(ctl, ev)
        summary = blob["summary"]
        assert summary["period_index"] == SPLIT
        assert summary["has_controller"] and summary["has_events"]
        assert summary["mpc_cache_keys"]  # the MPC solved at least one shape
        assert len(summary["actuator_targets_mhz"]) == sim.server.n_channels
        assert summary["rng_streams"] > 0

    def test_presence_mismatch_raises(self):
        sim, ctl, ev = make_capgpu_run()
        sim.run(ctl, 4, events=ev)
        blob = sim.snapshot(ctl, ev)
        sim2, ctl2, ev2 = make_capgpu_run()
        with pytest.raises(CheckpointError, match="controller"):
            sim2.restore(blob, controller=None, events=ev2)
        with pytest.raises(CheckpointError, match="events"):
            sim2.restore(blob, controller=ctl2, events=None)


def _watchdog_obs(power_w: float, set_point_w: float = 1000.0) -> ControlObservation:
    n = 3
    freqs = np.full(n, 1200.0)
    return ControlObservation(
        period_index=0,
        time_s=0.0,
        power_w=power_w,
        power_samples_w=np.array([power_w]),
        set_point_w=set_point_w,
        f_targets_mhz=freqs.copy(),
        f_applied_mhz=freqs.copy(),
        f_min_mhz=np.full(n, 800.0),
        f_max_mhz=np.full(n, 1500.0),
        utilization=np.full(n, 0.5),
        throughput_norm=np.full(n, 0.8),
        throughput_raw=np.full(n, 100.0),
        cpu_channels=(0,),
        gpu_channels=(1, 2),
        power_alt_w=power_w,
    )


class TestWatchdogAcrossRestore:
    def make_watchdog(self) -> SafeModeWatchdog:
        return SafeModeWatchdog(
            FixedStepController(step_size=2),
            WatchdogConfig(trip_periods=2, release_periods=2),
        )

    def tripped_watchdog(self) -> SafeModeWatchdog:
        wd = self.make_watchdog()
        for _ in range(2):  # two consecutive over-cap periods trip it
            wd.step(_watchdog_obs(1200.0))
        assert wd.in_safe_mode
        return wd

    def test_tripped_watchdog_stays_tripped(self):
        from repro.checkpoint import capture, restore

        wd = self.tripped_watchdog()
        [tag] = capture(wd)
        [restored] = restore([tag], [self.make_watchdog()])
        assert restored.in_safe_mode
        assert restored.safe_entries == wd.safe_entries
        assert restored.safe_periods == wd.safe_periods

    def test_release_sequence_is_identical_after_restore(self):
        from repro.checkpoint import capture, restore

        original = self.tripped_watchdog()
        [tag] = capture(original)
        [restored] = restore([tag], [self.make_watchdog()])
        # Drive both through the same calm sequence: they must hold the
        # floor, then release on exactly the same period.
        for _ in range(3):
            a = original.step(_watchdog_obs(950.0))
            b = restored.step(_watchdog_obs(950.0))
            np.testing.assert_array_equal(a, b)
            assert original.in_safe_mode == restored.in_safe_mode
        assert not restored.in_safe_mode  # released after release_periods

    def test_watchdog_wrapped_run_restores_bit_identically(self):
        def build():
            sim, ctl, ev = make_capgpu_run(seed=11)
            return sim, SafeModeWatchdog(ctl), ev

        sim_a, wd_a, ev_a = build()
        trace_a = sim_a.run(wd_a, 16, events=ev_a)

        sim_b, wd_b, ev_b = build()
        sim_b.run(wd_b, 7, events=ev_b)
        blob = sim_b.snapshot(wd_b, ev_b)
        assert "watchdog_safe_mode" in blob["summary"]

        sim_c, wd_c, ev_c = build()
        sim_c.restore(blob, controller=wd_c, events=ev_c)
        trace_c = sim_c.run(wd_c, 9, events=ev_c, apply_initial_targets=False)
        assert trace_bytes(trace_c) == trace_bytes(trace_a)


class TestSnapshotRestoreProperty:
    """Hypothesis: restore-then-run equals run, over randomized engine states."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        split=st.integers(min_value=1, max_value=11),
        set_point_w=st.sampled_from([850.0, 900.0, 1000.0]),
    )
    @settings(max_examples=8, deadline=None)
    def test_roundtrip_equality(self, seed, split, set_point_w):
        total = 12

        def build():
            sim = paper_scenario(seed=seed, set_point_w=set_point_w)
            return sim, FixedStepController(step_size=2)

        sim_a, ctl_a = build()
        trace_a = sim_a.run(ctl_a, total)

        sim_b, ctl_b = build()
        sim_b.run(ctl_b, split)
        blob = sim_b.snapshot(ctl_b)

        sim_c, ctl_c = build()
        sim_c.restore(blob, controller=ctl_c)
        trace_c = sim_c.run(ctl_c, total - split, apply_initial_targets=False)
        assert trace_bytes(trace_c) == trace_bytes(trace_a)
