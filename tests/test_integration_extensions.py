"""Integration tests for the extension features working together."""

import numpy as np
import pytest

from repro.experiments.common import identified_model
from repro.sim import paper_scenario


class TestBatchCommandsThroughEngine:
    def test_batch_dvfs_actually_resizes_pipelines(self):
        from repro.control import BatchDvfsController
        from repro.core import group_gains
        from repro.experiments.slo_schedule import initial_slos

        sim = paper_scenario(seed=0, set_point_w=1100.0)
        for g, slo in enumerate(initial_slos(sim)):
            sim.set_slo(g, slo)
        model = identified_model(0)
        _, gg = group_gains(model, sim.cpu_channels, sim.gpu_channels)
        specs = {g: p.spec for g, p in enumerate(sim.pipelines)}
        ctl = BatchDvfsController(gg, specs)
        sim.run(ctl, 15)
        # After steady periods under SLOs the pipelines no longer run the
        # reference batch of 20.
        assert any(p.batch_size != 20 for p in sim.pipelines)
        assert all(p.batch_size == ctl.last_batches[g]
                   for g, p in enumerate(sim.pipelines))

    def test_plain_controllers_leave_batches_alone(self):
        from repro.experiments.common import make_capgpu

        sim = paper_scenario(seed=0, set_point_w=900.0)
        sim.run(make_capgpu(sim, 0), 10)
        assert all(p.batch_size == 20 for p in sim.pipelines)


class TestEventsWithController:
    def test_set_point_change_mid_run_tracked(self):
        from repro.experiments.common import make_capgpu
        from repro.sim import EventSchedule, SetPointChange

        sim = paper_scenario(seed=1, set_point_w=900.0)
        ctl = make_capgpu(sim, 1)
        events = EventSchedule([SetPointChange(15, 1000.0)])
        trace = sim.run(ctl, 35, events=events)
        assert np.mean(trace["power_w"][10:15]) == pytest.approx(900.0, abs=10.0)
        assert np.mean(trace["power_w"][-10:]) == pytest.approx(1000.0, abs=10.0)

    def test_arrival_change_shifts_weights(self):
        """Starving one GPU mid-run lowers its normalized throughput and the
        weight assigner responds by throttling it relative to the others."""
        from repro.experiments.common import make_capgpu
        from repro.sim import ArrivalRateChange, EventSchedule
        from repro.workloads import SteadyArrivals

        sim = paper_scenario(seed=2, set_point_w=900.0)
        ctl = make_capgpu(sim, 2)
        events = EventSchedule(
            [ArrivalRateChange(20, 0, SteadyArrivals(4.0))]
        )
        trace = sim.run(ctl, 60, events=events)
        before = float(np.mean(trace["f_tgt_1"][12:20]))
        after = float(np.mean(trace["f_tgt_1"][-10:]))
        other_after = float(np.mean(trace["f_tgt_2"][-10:]))
        assert after < before - 50.0       # starved GPU throttled
        assert other_after > after          # budget flowed to busy GPUs


class TestPriorityRackEndToEnd:
    def test_high_priority_server_keeps_budget_under_curtailment(self):
        from repro.cluster import PriorityAllocator
        from repro.core import build_capgpu
        from repro.fleet import FleetServer, FleetSimulation, ReferenceBackend

        model = identified_model(0)
        servers = []
        for i, prio in enumerate((2, 0)):
            sim = paper_scenario(seed=110 + i, set_point_w=1000.0)
            servers.append(
                FleetServer(f"srv{i}", sim, build_capgpu(sim, model=model),
                            priority=prio)
            )
        rack = FleetSimulation(
            ReferenceBackend(servers), budget_w=2100.0,
            allocation=PriorityAllocator(), periods_per_rack_period=4,
        )
        rack.run(5)
        trace = rack.trace
        # The high-priority server is satisfied near its maximum; the
        # best-effort one absorbs the shortfall.
        assert trace["budget_srv0"][-1] > trace["budget_srv1"][-1] + 100.0


class TestOracleBenchmarking:
    def test_capgpu_close_to_oracle_variance(self):
        """CapGPU's steady-state variance is within ~2x of the oracle's
        (whose residual is pure plant disturbance)."""
        from repro.control import OracleController
        from repro.experiments.common import make_capgpu

        sim_o = paper_scenario(seed=3, set_point_w=900.0)
        t_o = sim_o.run(OracleController(sim_o.server), 60)
        sim_c = paper_scenario(seed=3, set_point_w=900.0)
        t_c = sim_c.run(make_capgpu(sim_c, 3), 60)
        std_o = float(np.std(t_o["power_w"][-40:]))
        std_c = float(np.std(t_c["power_w"][-40:]))
        assert std_c < 2.0 * std_o


class TestLlmExperimentSmoke:
    def test_llm_serving_experiment(self):
        from repro.experiments import run_llm_serving

        result = run_llm_serving(seed=0, n_periods=40)
        assert result.data["model_r2"] > 0.9
        cap = result.data["CapGPU"]
        assert abs(cap["mean_w"] - 900.0) < 15.0
        assert cap["ttft_s"] < result.data["GPU-Only"]["ttft_s"] * 1.2
