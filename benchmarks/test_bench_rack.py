"""Extension bench: rack-level hierarchical capping over CapGPU servers."""

import numpy as np

from repro.cluster import ProportionalDemandAllocator
from repro.core import build_capgpu
from repro.experiments.common import identified_model
from repro.fleet import FleetServer, FleetSimulation, ReferenceBackend
from repro.sim import paper_scenario
from repro.workloads import SteadyArrivals


def _rack(budget_w: float) -> FleetSimulation:
    model = identified_model(0)
    servers = []
    for i in range(3):
        sim = paper_scenario(seed=100 + i, set_point_w=budget_w / 3)
        if i == 2:  # lightly loaded server
            for pipe in sim.pipelines:
                pipe.arrivals = SteadyArrivals(0.3 * pipe.spec.max_throughput_img_s())
        servers.append(FleetServer(f"srv{i}", sim, build_capgpu(sim, model=model)))
    return FleetSimulation(
        ReferenceBackend(servers), budget_w=budget_w,
        allocation=ProportionalDemandAllocator(), periods_per_rack_period=5,
    )


def run_rack_scenario():
    rack = _rack(2700.0)
    rack.run(6)
    rack.set_budget(2500.0)
    rack.run(6)
    return rack


def test_bench_rack(benchmark):
    rack = benchmark.pedantic(run_rack_scenario, rounds=1, iterations=1)
    trace = rack.trace
    print()
    print("rack totals:", np.round(trace["total_power_w"], 0))

    # Tracks the rack budget before and after the curtailment.
    assert abs(float(np.mean(trace["total_power_w"][3:6])) - 2700.0) < 60.0
    assert abs(float(np.mean(trace["total_power_w"][9:])) - 2500.0) < 60.0
    # The lightly loaded server reports the lowest demand and, after the
    # curtailment, holds the *largest* spare envelope (cedes budget).
    demands = [trace[f"demand_srv{i}"][-1] for i in range(3)]
    assert int(np.argmin(demands)) == 2
    budgets = [trace[f"budget_srv{i}"][-1] for i in range(3)]
    assert budgets[2] <= min(budgets[0], budgets[1]) + 1.0

    benchmark.extra_info["final_total_w"] = round(float(trace["total_power_w"][-1]), 1)
    benchmark.extra_info["final_budgets"] = [round(b, 0) for b in budgets]
