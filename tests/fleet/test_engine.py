"""Fleet engine construction, budgeting and stepping edge cases."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet import FleetSimulation, ReferenceBackend
from repro.fleet.scenarios import fleet_scenario
from repro.fleet.tree import BudgetTree
from repro.cluster import FairShareAllocator


def small_fleet(n=2, backend="reference"):
    return fleet_scenario("fair-static").build_fleet(backend, n_servers=n)


class TestConstruction:
    def test_budget_must_be_positive(self):
        scenario = fleet_scenario("fair-static")
        with pytest.raises(ConfigurationError):
            FleetSimulation(
                ReferenceBackend(scenario.servers(2)),
                budget_w=-10.0,
                allocation=FairShareAllocator(),
            )

    def test_tree_leaf_count_must_match_backend(self):
        scenario = fleet_scenario("fair-static")
        with pytest.raises(ConfigurationError):
            FleetSimulation(
                ReferenceBackend(scenario.servers(2)),
                budget_w=1460.0,
                allocation=BudgetTree.flat(FairShareAllocator(), 3),
            )

    def test_periods_per_rack_period_validated(self):
        scenario = fleet_scenario("fair-static")
        with pytest.raises(ConfigurationError):
            FleetSimulation(
                ReferenceBackend(scenario.servers(2)),
                budget_w=1460.0,
                allocation=FairShareAllocator(),
                periods_per_rack_period=0,
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            fleet_scenario("fair-static").build_fleet("cuda", n_servers=2)

    def test_reference_only_scenario_refuses_specs(self):
        with pytest.raises(ConfigurationError):
            fleet_scenario("paper-rack").specs()

    def test_reference_only_scenario_refuses_a_seed(self):
        scenario = fleet_scenario("paper-rack")
        with pytest.raises(ConfigurationError, match="does not take a seed"):
            scenario.build_fleet("reference", n_servers=1, seed=3)

    def test_seed_shifts_noise_not_topology(self):
        scenario = fleet_scenario("demand-static")
        base, seeded = scenario.specs(4), scenario.specs(4, seed=3)
        assert [s.seed + 300_000 for s in base] == [s.seed for s in seeded]
        assert [dataclasses.replace(s, seed=0) for s in base] == [
            dataclasses.replace(s, seed=0) for s in seeded
        ]
        fleet = scenario.build_fleet("soa", n_servers=4, seed=3)
        assert fleet.backend.names == [s.name for s in base]
        assert fleet.budget_w == scenario.budget_w(4)

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigurationError):
            fleet_scenario("no-such-fleet")


class TestStepping:
    def test_run_rejects_zero_rack_periods(self):
        with pytest.raises(ConfigurationError):
            small_fleet().run(0)

    def test_server_run_periods_zero_is_noop(self):
        """A rack manager may schedule an empty slice; nothing advances and
        the initial-targets latch stays unset."""
        [server] = fleet_scenario("fair-static").servers(1)
        server.run_periods(0)
        assert len(server.sim.trace) == 0
        assert not server._started
        server.run_periods(1)  # the first real period still applies initials
        assert len(server.sim.trace) == 1

    def test_backend_run_periods_zero_is_noop(self):
        scenario = fleet_scenario("fair-static")
        from repro.fleet import SoaFleetBackend

        backend = SoaFleetBackend(scenario.specs(2))
        backend.run_periods(0)
        assert (backend.period_index, backend.time_s) == (0, 0.0)
        assert backend._pending is None  # no command staged
        with pytest.raises(ConfigurationError):
            backend.last_powers()

    def test_set_budget_mid_run_takes_effect_next_round(self):
        fleet = small_fleet(n=3)
        fleet.run(2)
        assert fleet.trace.last("budget_w") == fleet.budget_w
        fleet.set_budget(fleet.budget_w * 0.95)
        fleet.run(1)
        assert fleet.trace.last("budget_w") == pytest.approx(730.0 * 3 * 0.95)
        budgets = [fleet.trace.last(f"budget_{n}") for n in fleet.backend.names]
        assert sum(budgets) <= fleet.budget_w + 1e-6

    def test_set_budget_validates(self):
        fleet = small_fleet()
        with pytest.raises(ConfigurationError):
            fleet.set_budget(0.0)

    @pytest.mark.parametrize("backend", ["reference", "soa", "fast"])
    def test_server_trace_refuses_index_out_of_range(self, backend):
        fleet = small_fleet(n=2, backend=backend)
        fleet.run(1)
        assert len(fleet.backend.server_trace(1)) == fleet.periods_per_rack_period
        for index in (-1, 2):
            with pytest.raises(ConfigurationError, match="out of range"):
                fleet.backend.server_trace(index)

    @pytest.mark.parametrize("backend", ["reference", "soa", "fast"])
    def test_set_budgets_refuses_wrong_length(self, backend):
        fleet = small_fleet(n=2, backend=backend)
        for budgets in ([700.0], [700.0, 700.0, 700.0]):
            with pytest.raises(ConfigurationError, match="expected 2 budgets"):
                fleet.backend.set_budgets(budgets)
        fleet.backend.set_budgets([700.0, 710.0])

    def test_total_power_is_sum_of_server_powers(self):
        fleet = small_fleet(n=3)
        fleet.run(2)
        powers = fleet.backend.last_powers()
        assert fleet.trace.last("total_power_w") == pytest.approx(sum(powers))
        assert np.isfinite(powers).all()
