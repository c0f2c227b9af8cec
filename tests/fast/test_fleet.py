"""FastFleetBackend: bank validation and agreement with the SoA reference."""

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
        assert FastFleetBackend(s)._bank == "fixed-step"

    def test_all_mpc_accepted(self):
        assert FastFleetBackend(specs(2, controller="mpc"))._bank == "mpc"

    def test_mpc_fixed_step_mix_rejected(self):
        mixed = specs(1, controller="mpc") + [
            dataclasses.replace(specs(1)[0], name="other")
        ]
        with pytest.raises(ConfigurationError, match="soa"):
            FastFleetBackend(mixed)


class TestAgainstSoa:
    """The vectorized controller banks against the SoA's controller objects.

    Both backends step the same period body, so fixed-step fleets agree
    exactly in practice; the contract is only closeness, so the assertion
    leaves float-rounding headroom.
    """

    @pytest.mark.parametrize("controller", ["fixed-step", "safe-fixed-step"])
    def test_fixed_step_traces_match(self, controller):
        s = specs(3, controller=controller)
        soa = run_fleet(SoaFleetBackend([dataclasses.replace(x) for x in s]))
        fast = run_fleet(FastFleetBackend([dataclasses.replace(x) for x in s]))
        for i in range(3):
            ref_t, fast_t = soa.backend.server_trace(i), fast.backend.server_trace(i)
            for chan in ("power_w", "f_tgt_0", "f_tgt_1", "power_max_w", "util_1"):
                np.testing.assert_allclose(
                    fast_t[chan], ref_t[chan], rtol=0, atol=1e-9, err_msg=chan
                )

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
