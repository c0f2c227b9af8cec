"""Statistical fast-vs-reference equivalence, the fast engine's CI gate.

Three layers:

* registered-scenario runs (``run_fleet_equivalence``) — the exact
  comparisons CI's fast-equivalence job executes;
* hypothesis property runs — randomized fleets (seeds, set points, demand
  scales, curtailments) must stay inside the committed tolerance envelopes;
* chaos runs (``-m chaos``) — the scalar CapGPU loop under meter fault
  plans, where the degradation ladder feeds the fast solver NaN and stale
  power readings.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.equiv import (
    TOLERANCES,
    compare_backends,
    run_fleet_equivalence,
    run_scalar_capgpu_equivalence,
)
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultWindow, MeterDropout, MeterFreeze
from repro.fleet import FleetSimulation, SoaFleetBackend
from repro.fleet.scenarios import fleet_scenario

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestRegisteredScenarios:
    """The suite CI runs: every fast-capable registered scenario."""

    @pytest.mark.parametrize("scenario", ["mpc-static", "tree-static", "fair-static"])
    def test_fleet_equivalence(self, scenario):
        report = run_fleet_equivalence(scenario, n_rounds=6)
        assert report.ok, "\n" + report.render()

    def test_scalar_capgpu_equivalence(self):
        report = run_scalar_capgpu_equivalence(seed=0, n_periods=25)
        assert report.ok, "\n" + report.render()

    def test_rejects_single_round(self):
        with pytest.raises(ConfigurationError):
            run_fleet_equivalence("mpc-static", n_rounds=1)


class TestPropertyEnvelope:
    """Randomized scenarios stay inside the committed tolerance envelopes."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 9999),
        n_servers=st.integers(2, 5),
        set_point_w=st.floats(850.0, 950.0),
        demand_scale=st.floats(0.75, 1.05),
        curtail=st.floats(0.0, 0.08),
    )
    def test_randomized_mpc_fleets(
        self, seed, n_servers, set_point_w, demand_scale, curtail
    ):
        self._assert_equivalent(
            "mpc-static", seed, n_servers, set_point_w, demand_scale, curtail
        )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 9999),
        n_servers=st.integers(2, 5),
        set_point_w=st.floats(690.0, 760.0),
        demand_scale=st.floats(0.6, 1.0),
        curtail=st.floats(0.0, 0.08),
    )
    def test_randomized_fixed_step_fleets(
        self, seed, n_servers, set_point_w, demand_scale, curtail
    ):
        self._assert_equivalent(
            "demand-static", seed, n_servers, set_point_w, demand_scale, curtail
        )

    @staticmethod
    def _assert_equivalent(
        scenario, seed, n_servers, set_point_w, demand_scale, curtail
    ):
        from repro.fast.fleet import FastFleetBackend

        sc = fleet_scenario(scenario)
        base = sc.specs(n_servers)
        specs = [
            dataclasses.replace(
                s,
                seed=s.seed + 100_000 * seed,
                set_point_w=set_point_w + 5.0 * i,
                demand_scale=demand_scale,
            )
            for i, s in enumerate(base)
        ]
        backends = []
        for cls in (SoaFleetBackend, FastFleetBackend):
            fleet = FleetSimulation(
                cls([dataclasses.replace(s) for s in specs]),
                budget_w=sc.budget_w(n_servers),
                allocation=sc.allocation(n_servers),
                periods_per_rack_period=sc.periods_per_rack_period,
            )
            fleet.run(3)
            fleet.set_budget(fleet.budget_w * (1.0 - curtail))
            fleet.run(3)
            backends.append(fleet.backend)
        report = compare_backends(
            backends[0], backends[1], scenario=f"{scenario}-randomized"
        )
        assert report.ok, "\n" + report.render()


@pytest.mark.chaos
class TestChaosEquivalence:
    """Fault plans through both engines: the degradation ladder must hand
    the fast solver the same degraded observations it hands the reference,
    and the closed loops must stay within tolerance of each other."""

    def plan(self, kind):
        if kind == "dropout":
            return FaultPlan(
                (MeterDropout(window=FaultWindow(start_period=5, n_periods=6)),)
            )
        if kind == "freeze":
            return FaultPlan(
                (MeterFreeze(window=FaultWindow(start_period=4, n_periods=8)),)
            )
        return FaultPlan(
            (
                MeterDropout(window=FaultWindow(start_period=4, n_periods=3)),
                MeterFreeze(window=FaultWindow(start_period=10, n_periods=4)),
            )
        )

    @pytest.mark.parametrize("kind", ["dropout", "freeze", "soup"])
    def test_scalar_capgpu_under_faults(self, kind):
        report = run_scalar_capgpu_equivalence(
            seed=3, n_periods=30, faults=self.plan(kind)
        )
        assert report.ok, "\n" + report.render()

    @pytest.mark.parametrize("seed", [1, 11, 29])
    def test_randomized_fault_windows(self, seed):
        rng = np.random.default_rng(seed)
        plan = FaultPlan(
            (
                MeterDropout(
                    window=FaultWindow(
                        start_period=int(rng.integers(2, 8)),
                        n_periods=int(rng.integers(2, 7)),
                    )
                ),
            )
        )
        report = run_scalar_capgpu_equivalence(
            seed=seed,
            set_point_w=float(rng.uniform(850.0, 950.0)),
            n_periods=30,
            faults=plan,
        )
        assert report.ok, "\n" + report.render()


class TestToleranceContract:
    def test_tolerances_catch_the_clip_regression(self):
        """The committed envelopes must be tight enough to fail on the
        closed-loop drift the naive clipped-unconstrained solver produced
        (mean power error drift ~19 W, violation-rate drift ~0.55)."""
        power_tol = next(t for t in TOLERANCES if t.metric == "power_err_w")
        viol_tol = next(t for t in TOLERANCES if t.metric == "violation_rate")
        assert power_tol.mean_tol < 19.0
        assert viol_tol.mean_tol < 0.55
