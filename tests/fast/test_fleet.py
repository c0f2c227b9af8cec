"""FastFleetBackend: construction and agreement with the SoA reference."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fast.fleet import FastFleetBackend
from repro.fleet import FleetSimulation, SoaFleetBackend, SoaServerSpec
from repro.fleet.scenarios import fleet_scenario


def specs(n=3, controller="fixed-step", **kw):
    return [
        SoaServerSpec(
            name=f"s{i}", seed=900 + i, set_point_w=730.0 + 10.0 * i,
            controller=controller, **kw,
        )
        for i in range(n)
    ]


def run_fleet(backend, n_rounds=4):
    sc = fleet_scenario("fair-static")  # FairShareAllocator works at any n
    fleet = FleetSimulation(
        backend,
        budget_w=730.0 * len(backend.specs),
        allocation=sc.allocation(len(backend.specs)),
    )
    fleet.run(n_rounds // 2)
    fleet.set_budget(fleet.budget_w * 0.96)
    fleet.run(n_rounds - n_rounds // 2)
    return fleet


class TestValidation:
    def test_mixed_fixed_step_kinds_accepted(self):
        s = specs(2, controller="fixed-step") + specs(1, controller="safe-fixed-step")
        s = [dataclasses.replace(x, name=f"m{i}") for i, x in enumerate(s)]
        backend = FastFleetBackend(s)
        backend.run_periods(2)
        assert [len(backend.server_trace(i)) for i in range(3)] == [2, 2, 2]
        assert np.isfinite(backend.last_powers()).all()

    def test_all_mpc_accepted(self):
        backend = FastFleetBackend(specs(2, controller="mpc"))
        backend.run_periods(2)
        assert [len(backend.server_trace(i)) for i in range(2)] == [2, 2]
        assert np.isfinite(backend.last_powers()).all()

    def test_controller_objects_only_for_soa_mpc_rows(self, monkeypatch):
        """The SoA builds a controller object for each MPC row only; the
        fast backend builds none."""
        built = []
        build = SoaServerSpec.build_controller

        def counting(spec):
            built.append(spec.controller)
            return build(spec)

        monkeypatch.setattr(SoaServerSpec, "build_controller", counting)
        mixed = specs(2, controller="mpc") + [
            dataclasses.replace(x, name=f"f{i}", controller=kind)
            for i, (x, kind) in enumerate(
                zip(specs(2), ["fixed-step", "safe-fixed-step"])
            )
        ]
        SoaFleetBackend(mixed)
        assert built == ["mpc", "mpc"]
        FastFleetBackend(mixed)
        assert built == ["mpc", "mpc"]


class TestAgainstSoa:
    """The fast backend against the SoA it subclasses.

    Fixed-step rows step through the SoA's own bank, so they agree bit for
    bit; MPC rows take the pre-solved gains, so they agree only closely.
    """

    @pytest.mark.parametrize("controller", ["fixed-step", "safe-fixed-step"])
    def test_fixed_step_traces_match(self, controller):
        s = specs(3, controller=controller)
        soa = run_fleet(SoaFleetBackend([dataclasses.replace(x) for x in s]))
        fast = run_fleet(FastFleetBackend([dataclasses.replace(x) for x in s]))
        for i in range(3):
            ref_t, fast_t = soa.backend.server_trace(i), fast.backend.server_trace(i)
            for chan in ("power_w", "f_tgt_0", "f_tgt_1", "power_max_w", "util_1"):
                assert fast_t[chan].tobytes() == ref_t[chan].tobytes(), chan

    def test_mixed_fleet_fixed_step_rows_match_soa(self):
        """``demand-static`` with every third row on MPC, under fixed
        budgets (an allocator would couple the rows through the MPC rows'
        powers): the fixed-step rows equal the SoA's bit for bit."""
        scenario = fleet_scenario("demand-static")
        s = [
            dataclasses.replace(x, controller="mpc") if i % 3 == 0 else x
            for i, x in enumerate(scenario.specs(8))
        ]
        backends = [SoaFleetBackend(s), FastFleetBackend(s)]
        for backend in backends:
            backend.set_budgets([x.set_point_w for x in s])
            backend.run_periods(3)
            backend.set_budgets([0.96 * x.set_point_w for x in s])
            backend.run_periods(3)
        soa, fast = backends
        for i in range(8):
            soa_t, fast_t = soa.server_trace(i), fast.server_trace(i)
            if i % 3 == 0:
                np.testing.assert_allclose(
                    fast_t["power_w"], soa_t["power_w"], rtol=0, atol=2.0
                )
                continue
            for chan in soa_t.channels:
                if chan != "ctl_ms":
                    assert fast_t[chan].tobytes() == soa_t[chan].tobytes(), (i, chan)

    def test_mpc_powers_close(self):
        s = specs(3, controller="mpc", )
        s = [dataclasses.replace(x, set_point_w=880.0 + 15.0 * i) for i, x in enumerate(s)]
        soa = run_fleet(SoaFleetBackend([dataclasses.replace(x) for x in s]))
        fast = run_fleet(FastFleetBackend([dataclasses.replace(x) for x in s]))
        for i in range(3):
            np.testing.assert_allclose(
                fast.backend.server_trace(i)["power_w"],
                soa.backend.server_trace(i)["power_w"],
                rtol=0, atol=2.0,
            )

    def test_states_and_budget_plumbing(self):
        fleet = run_fleet(FastFleetBackend(specs(2)))
        assert fleet.n_servers == 2
        assert len(fleet.backend.last_powers()) == 2
        assert all(np.isfinite(p) for p in fleet.backend.last_powers())


class TestScenarioRegistry:
    def test_mpc_static_registered_and_fast_capable(self):
        sc = fleet_scenario("mpc-static")
        assert sc.soa_capable
        fleet = sc.build_fleet("fast", 2)
        fleet.run(2)
        assert len(fleet.trace) == 2

    def test_unknown_backend_message_names_fast(self):
        sc = fleet_scenario("tree-static")
        with pytest.raises(ConfigurationError, match="fast"):
            sc.build_fleet("warp", 2)
