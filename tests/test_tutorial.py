"""The tutorial (docs/tutorial.md) must keep working end-to-end.

This test executes the tutorial's flow (hardware -> workloads -> loop ->
identification -> control -> events -> analysis -> rack) with shortened
horizons, guarding the documentation against API drift.
"""

import numpy as np
import pytest

from repro.analysis import (
    efficiency_report,
    settling_time_periods,
    slo_miss_rate,
    sparkline,
    steady_state_stats,
)
from repro.cluster import ProportionalDemandAllocator
from repro.core import build_capgpu, check_set_point, group_gains, stable_gain_range
from repro.control import GpuOnlyController
from repro.fleet import FleetServer, FleetSimulation, ReferenceBackend
from repro.hardware import TESLA_V100_16GB, CpuModel, CpuSpec, FanModel, GpuModel, GpuServer
from repro.rng import spawn
from repro.sim import EventSchedule, ServerSimulation, SetPointChange, SloChange
from repro.sysid import cross_validate_power_model, identify_power_model
from repro.telemetry import save_trace_npz
from repro.workloads import (
    RESNET50,
    SWIN_T,
    FeatureSelectionWorkload,
    InferencePipeline,
    PipelineConfig,
)

CPU_SPEC = CpuSpec(
    name="epyc-lite",
    n_cores=24,
    levels_mhz=tuple(1200.0 + 100.0 * i for i in range(12)),
    idle_w=35.0,
    dyn_w_per_mhz=0.045,
)


def build_sim(seed: int, set_point_w: float = 700.0) -> ServerSimulation:
    server = GpuServer(
        cpus=[CpuModel(CPU_SPEC)],
        gpus=[GpuModel(TESLA_V100_16GB) for _ in range(2)],
        static_power_w=140.0,
        fan=FanModel(max_power_w=80.0, fixed_speed=0.65),
        seed=seed,
    )
    pipelines = [
        InferencePipeline(
            spec,
            PipelineConfig(preproc_frequency="fixed", fixed_preproc_ghz=2.3),
            rng=spawn(seed, f"pipe{g}"),
        )
        for g, spec in enumerate((RESNET50, SWIN_T))
    ]
    fs = FeatureSelectionWorkload(n_cores=20, rng=spawn(seed, "fs"))
    return ServerSimulation(
        server, pipelines, fs_workload=fs, set_point_w=set_point_w, seed=seed
    )


@pytest.fixture(scope="module")
def identified():
    sim_ident = build_sim(200)
    return identify_power_model(sim_ident, points_per_channel=6)


class TestTutorialFlow:
    def test_envelope_and_feasibility(self, identified):
        sim = build_sim(201)
        lo, hi = sim.server.power_envelope_w()
        assert lo < 700.0 < hi
        report = check_set_point(
            identified.fit, sim.server.f_min_vector(),
            sim.server.f_max_vector(), 700.0,
        )
        assert report.feasible

    def test_identification_generalizes(self, identified):
        scores = cross_validate_power_model(identified.f_mhz, identified.power_w)
        assert min(scores) > 0.9

    def test_stability_interval_contains_nominal(self, identified):
        sweep = stable_gain_range(
            identified.fit.a_w_per_mhz,
            np.full(identified.fit.n_channels, 5e-5),
        )
        lo, hi = sweep.stable_interval()
        assert lo < 1.0 < hi

    def test_run_with_events_and_analysis(self, identified, tmp_path):
        sim = build_sim(201)
        controller = build_capgpu(sim, model=identified.fit)
        events = EventSchedule([
            SetPointChange(15, 760.0),
            SloChange(20, 0, 0.75),
        ])
        trace = sim.run(controller, n_periods=40, events=events)

        mean, _ = steady_state_stats(trace, 15)
        assert mean == pytest.approx(760.0, abs=10.0)
        assert settling_time_periods(trace, start_period=15) < 8
        assert slo_miss_rate(trace, 0, start_period=22) < 0.05
        assert efficiency_report(trace, sim.gpu_channels).batches_per_kj > 0
        assert len(sparkline(trace["power_w"])) > 0
        assert controller.last_feasibility.feasible
        save_trace_npz(trace, tmp_path / "run.npz")
        assert (tmp_path / "run.npz").exists()

    def test_baseline_comparison(self, identified):
        sim = build_sim(202)
        _, gpu_gain = group_gains(
            identified.fit, sim.cpu_channels, sim.gpu_channels
        )
        trace = sim.run(GpuOnlyController(gpu_gain), 30)
        assert np.mean(trace["power_w"][-10:]) == pytest.approx(700.0, abs=10.0)

    def test_rack_scale_out(self, identified):
        nodes = []
        for i in range(2):
            sim = build_sim(210 + i, set_point_w=700.0)
            nodes.append(
                FleetServer(f"srv{i}", sim, build_capgpu(sim, model=identified.fit))
            )
        rack = FleetSimulation(
            ReferenceBackend(nodes), budget_w=1400.0,
            allocation=ProportionalDemandAllocator(), periods_per_rack_period=3,
        )
        rack.run(4)
        rack.set_budget(1300.0)
        trace = rack.run(4)
        assert trace["total_power_w"][-1] == pytest.approx(1300.0, abs=40.0)
