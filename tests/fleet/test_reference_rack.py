"""A rack of CapGPU servers: a flat fleet on the reference backend."""

import numpy as np
import pytest

from repro.cluster import FairShareAllocator, ProportionalDemandAllocator
from repro.core import build_capgpu
from repro.errors import ConfigurationError
from repro.experiments.common import identified_model
from repro.fleet import FleetServer, FleetSimulation, ReferenceBackend
from repro.fleet.scenarios import fleet_scenario
from repro.sim import paper_scenario


def make_rack(n=2, budget=1800.0, allocator=None, periods=3, seed0=70):
    servers = []
    for i in range(n):
        sim = paper_scenario(seed=seed0 + i, set_point_w=budget / n)
        ctl = build_capgpu(sim, model=identified_model(0))
        servers.append(FleetServer(f"srv{i}", sim, ctl))
    return FleetSimulation(
        ReferenceBackend(servers),
        budget_w=budget,
        allocation=allocator or FairShareAllocator(),
        periods_per_rack_period=periods,
    )


class TestConstruction:
    def test_requires_servers(self):
        with pytest.raises(ConfigurationError):
            ReferenceBackend([])

    def test_duplicate_names_rejected(self):
        sim = paper_scenario(seed=70)
        ctl = build_capgpu(sim, model=identified_model(0))
        with pytest.raises(ConfigurationError):
            ReferenceBackend([FleetServer("x", sim, ctl), FleetServer("x", sim, ctl)])

    def test_budget_validated(self):
        with pytest.raises(ConfigurationError):
            make_rack(budget=-5.0)


class TestRun:
    def test_total_power_tracks_rack_budget(self):
        rack = make_rack(n=2, budget=1800.0)
        trace = rack.run(6)
        assert trace["total_power_w"][-1] == pytest.approx(1800.0, abs=40.0)

    def test_per_server_budgets_sum_to_rack_budget(self):
        rack = make_rack(n=3, budget=2700.0)
        trace = rack.run(3)
        total = sum(trace[f"budget_srv{i}"][-1] for i in range(3))
        assert total == pytest.approx(2700.0, abs=1.0)

    def test_budget_change_propagates(self):
        rack = make_rack(n=2, budget=1800.0)
        rack.run(4)
        rack.set_budget(1700.0)
        trace = rack.run(5)
        assert trace["total_power_w"][-1] == pytest.approx(1700.0, abs=40.0)

    def test_trace_layout(self):
        rack = make_rack(n=2)
        trace = rack.run(2)
        for name in ("rack_period", "budget_w", "total_power_w",
                     "budget_srv0", "power_srv1", "demand_srv0"):
            assert name in trace
        assert len(trace) == 2

    def test_demand_allocation_favors_starved_server(self):
        """A server whose GPUs run far below peak pulls budget its way."""
        rack = make_rack(n=2, budget=1750.0, allocator=ProportionalDemandAllocator())
        rack.run(6)
        demands = [rack.trace[f"demand_srv{i}"][-1] for i in range(2)]
        budgets = [rack.trace[f"budget_srv{i}"][-1] for i in range(2)]
        hungrier = int(np.argmax(demands))
        if abs(demands[0] - demands[1]) > 0.05:
            assert budgets[hungrier] == max(budgets)

    def test_run_validates_periods(self):
        rack = make_rack()
        with pytest.raises(ConfigurationError):
            rack.run(0)

    def test_set_budget_changes_the_next_allocation_round(self):
        """A budget set mid-run is the one the next round divides."""
        rack = fleet_scenario("fair-static").build_fleet("reference", n_servers=2)
        rack.run(1)
        rack.set_budget(1400.0)
        assert rack.budget_w == 1400.0
        rack.run(1)
        assert rack.trace.last("budget_w") == 1400.0
        with pytest.raises(ConfigurationError):
            rack.set_budget(-1.0)
