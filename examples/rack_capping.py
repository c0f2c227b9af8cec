#!/usr/bin/env python
"""Oversubscribed rack: budget reallocation across three CapGPU servers.

The paper motivates power capping with oversubscription: the rack budget is
deliberately below the sum of server peaks. This example (an extension
beyond the paper, see DESIGN.md) runs three 3x V100 servers — each enforced
by its own CapGPU controller — under one 2.7 kW rack budget that a
demand-proportional allocator re-divides every five control periods.
Mid-run, the rack budget is cut by 200 W (a utility curtailment event) and
the allocator squeezes the least-demanding server hardest.

Run:  python examples/rack_capping.py
"""

from repro.cluster import ProportionalDemandAllocator
from repro.core import build_capgpu
from repro.fleet import FleetServer, FleetSimulation, ReferenceBackend
from repro.sim import paper_scenario
from repro.workloads import SteadyArrivals

SEED = 21
RACK_BUDGET_W = 2700.0
CURTAILED_BUDGET_W = 2500.0


def main() -> FleetSimulation:
    from repro.sysid import identify_power_model

    print("Identifying one server model (all servers share the hardware)...")
    model = identify_power_model(paper_scenario(seed=SEED), points_per_channel=5).fit

    servers = []
    for i in range(3):
        sim = paper_scenario(seed=SEED + i, set_point_w=RACK_BUDGET_W / 3)
        if i == 2:
            # Server 2 is lightly loaded: its GPUs see ~30% of peak demand.
            for g, pipe in enumerate(sim.pipelines):
                rate = 0.3 * pipe.spec.max_throughput_img_s()
                pipe.arrivals = SteadyArrivals(rate)
        controller = build_capgpu(sim, model=model)
        servers.append(FleetServer(f"srv{i}", sim, controller))

    # A rack is a one-rack fleet: the scalar reference backend under one
    # flat allocator.
    rack = FleetSimulation(
        ReferenceBackend(servers),
        budget_w=RACK_BUDGET_W,
        allocation=ProportionalDemandAllocator(),
        periods_per_rack_period=5,
    )

    print(f"Running 6 allocation rounds at {RACK_BUDGET_W:.0f} W...")
    rack.run(6)
    print(f"Curtailment: rack budget -> {CURTAILED_BUDGET_W:.0f} W; 6 more rounds...")
    rack.set_budget(CURTAILED_BUDGET_W)
    trace = rack.run(6)

    print("\nRound  budget  total  " + "  ".join(
        f"B({s.name})/P({s.name})" for s in servers
    ))
    for k in range(len(trace)):
        cells = "  ".join(
            f"{trace[f'budget_{s.name}'][k]:5.0f}/{trace[f'power_{s.name}'][k]:5.0f}"
            for s in servers
        )
        print(f"{int(trace['rack_period'][k]):5d}  {trace['budget_w'][k]:6.0f} "
              f"{trace['total_power_w'][k]:6.0f}  {cells}")

    print("\nFinal demand signals (1 = fully throughput-starved):")
    for s in servers:
        print(f"  {s.name}: {trace[f'demand_{s.name}'][-1]:.2f}")
    print(
        "\nNote how the lightly loaded srv2 reports low demand and cedes "
        "budget to the busy servers, especially after the curtailment."
    )
    return rack


if __name__ == "__main__":
    main()
