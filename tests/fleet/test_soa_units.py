"""Unit coverage of the SoA backend's guards and degraded telemetry paths.

The bit-for-bit behavior is proven differentially in
``test_differential.py``; these tests pin the validation surface and the
sample-filter branches the healthy differential scenarios never reach.
"""

import numpy as np
import pytest

from repro.control.fixed_step import FixedStepController, SafeFixedStepController
from repro.errors import ActuationError, ConfigurationError
from repro.fleet import DEFAULT_GPU_SPECS, SoaFleetBackend, SoaServerSpec
from repro.workloads.static import StaticLoadSpec


def spec(i=0, **kw):
    kw.setdefault("set_point_w", 730.0)
    return SoaServerSpec(name=f"s{i}", seed=500 + i, **kw)


def backend(n=2, **kw):
    return SoaFleetBackend([spec(i) for i in range(n)], **kw)


class TestSpec:
    def test_builds_fixed_step(self):
        ctl = spec(controller="fixed-step", step_size=2, deadband_w=3.0).build_controller()
        assert isinstance(ctl, FixedStepController)

    def test_builds_safe_fixed_step(self):
        ctl = spec(controller="safe-fixed-step").build_controller()
        assert isinstance(ctl, SafeFixedStepController)

    def test_builds_mpc(self):
        from repro.core import CapGpuController

        ctl = spec(controller="mpc").build_controller()
        assert isinstance(ctl, CapGpuController)

    def test_unknown_controller_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(controller="pid").build_controller()

    @pytest.mark.parametrize(
        "bad",
        [
            {"step_size": 0},
            {"deadband_w": -1.0},
            {"controller": "safe-fixed-step", "safety_margin_w": 0.0},
        ],
    )
    def test_invalid_controller_parameters_rejected(self, bad):
        # The SoA never builds fixed-step controller objects, so the spec
        # makes their constructors' checks itself.
        with pytest.raises(ConfigurationError):
            spec(**bad)

    @pytest.mark.parametrize("kind", ["fixed-step", "safe-fixed-step", "mpc"])
    def test_every_kind_starts_at_f_min(self, kind):
        """The SoA stages no initial targets: its ``_tgt`` starts at f_min,
        which must be what every kind's ``initial_targets`` returns."""
        be = SoaFleetBackend([spec(controller=kind)])
        ctl = spec(controller=kind).build_controller()
        start = ctl.initial_targets(be._f_min.copy(), be._f_max.copy())
        assert np.asarray(start, dtype=np.float64).tobytes() == be._f_min.tobytes()
        assert be._tgt.tobytes() == be._f_min[None].tobytes()


class TestValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            SoaFleetBackend([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            SoaFleetBackend([spec(0), spec(0)])

    def test_empty_gpu_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            SoaFleetBackend([spec()], gpu_specs=())

    def test_too_many_gpus_rejected(self):
        """At 1 CPU + 7 GPUs numpy's pairwise reduce (and the scalar fast
        path) stop matching sequential addition; the backend refuses rather
        than silently losing bit-equivalence."""
        seven = tuple(
            StaticLoadSpec(name=f"g{i}", demand_rate_s=5.0) for i in range(7)
        )
        with pytest.raises(ConfigurationError):
            SoaFleetBackend([spec()], gpu_specs=seven)
        six = seven[:6]
        SoaFleetBackend([spec()], gpu_specs=six)  # boundary: 1 + 6 < 8 is fine

    def test_negative_periods_rejected(self):
        with pytest.raises(ConfigurationError):
            backend().run_periods(-1)

    def test_last_powers_before_run_rejected(self):
        with pytest.raises(ConfigurationError):
            backend().last_powers()

    def test_server_trace_before_run_is_empty(self):
        trace = backend().server_trace(0)
        assert len(trace) == 0
        assert "power_w" in trace

    def test_server_trace_is_a_detached_copy(self):
        be = backend()
        be.run_periods(2)
        early = be.server_trace(1)
        snapshot = early.as_array()
        be.run_periods(3)
        assert len(early) == 2
        assert np.array_equal(early.as_array(), snapshot, equal_nan=True)
        early["power_w"][:] = -1.0
        again = be.server_trace(1)
        assert len(again) == 5
        assert np.array_equal(again.as_array()[:2], snapshot, equal_nan=True)

    def test_non_finite_targets_rejected(self):
        be = backend()
        bad = np.full((2, be.n_channels), np.nan)
        with pytest.raises(ActuationError):
            be._stage_targets(bad)

    def test_states_before_run_report_full_demand(self):
        states = backend().states()
        assert all(s.demand == 1.0 for s in states)
        assert all(np.isnan(s.power_w) for s in states)


class TestFilterSamples:
    """The staleness/plausibility/freeze filter on crafted windows."""

    def make(self):
        be = backend(n=3)
        be.run_periods(1)  # realistic filter state (last-sample memory)
        return be

    def test_all_kept_window(self):
        be = self.make()
        samples = np.tile(np.array([900.0, 901.0, 902.0, 903.0]), (3, 1))
        keep, count, mean, pminmax = be._filter_samples(samples)
        assert keep.all()
        assert (count == 4).all()
        assert mean == pytest.approx([901.5] * 3)
        assert pminmax[0] == pytest.approx([900.0] * 3)
        assert pminmax[1] == pytest.approx([903.0] * 3)

    def test_implausible_sample_takes_per_row_fallback(self):
        be = self.make()
        samples = np.tile(np.array([900.0, 901.0, 902.0, 903.0]), (3, 1))
        samples[1, 2] = 1e6  # far above the plausibility envelope
        keep, count, mean, _ = be._filter_samples(samples)
        assert count.tolist() == [4, 3, 4]
        assert mean[1] == pytest.approx(np.mean([900.0, 901.0, 903.0]))
        assert mean[0] == pytest.approx(901.5)

    def test_all_rejected_window_is_nan(self):
        be = self.make()
        samples = np.tile(np.array([900.0, 901.0, 902.0, 903.0]), (3, 1))
        samples[2, :] = -50.0  # below the floor: every sample implausible
        _, count, mean, pminmax = be._filter_samples(samples)
        assert count[2] == 0
        assert np.isnan(mean[2])
        assert np.isnan(pminmax[:, 2]).all()
        assert count[0] == 4 and np.isfinite(mean[0])

    def test_frozen_meter_rejected_after_detect_run(self):
        """A meter repeating one value 8+ times is a stuck register, not a
        miraculously flat load — the filter drops the whole window."""
        be = self.make()
        frozen = np.tile(np.array([905.0, 905.0, 905.0, 905.0]), (3, 1))
        for _ in range(3):  # 12 identical samples > the 8-sample threshold
            keep, count, _, _ = be._filter_samples(frozen)
        assert (count == 0).all()
        assert not keep.any()

    def test_freeze_detection_requires_noise_model(self):
        """With a noiseless meter identical samples are expected, so the
        freeze detector must stay off (exactly like the scalar meter)."""
        from repro.sim.engine import SimConfig

        be = backend(n=2, config=SimConfig(meter_noise_sigma_w=0.0))
        be.run_periods(1)
        frozen = np.tile(np.array([905.0, 905.0, 905.0, 905.0]), (2, 1))
        for _ in range(3):
            _, count, mean, _ = be._filter_samples(frozen)
        assert (count == 4).all()
        assert mean == pytest.approx([905.0, 905.0])
