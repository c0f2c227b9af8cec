"""Differential proof of the fleet engine.

Three layers of bit-for-bit equivalence, each pinned by canonical digests
(timing channels excluded, everything else exact):

1. a flat one-rack fleet on the reference backend vs a literal
   transcription of the original rack loop (the *oracle* below) — the
   fleet engine changed no floats;
2. the structure-of-arrays backend vs the reference backend (N scalar
   engines) on every SoA-capable registered scenario, at seed 0 and at a
   nonzero seed;
3. ``snapshot()``/``restore()`` mid-run vs an uninterrupted run.

Fault-injection scenarios run under the ``chaos`` marker; the 256-server
smoke runs under ``fleet_smoke`` (both off by default, on in CI's
fleet-equivalence job).
"""

import hashlib

import numpy as np
import pytest

from repro.fleet import FleetSimulation, ReferenceBackend, SoaFleetBackend
from repro.fleet.scenarios import FLEET_SCENARIOS, fleet_scenario
from repro.fleet.soa import build_scalar_twin
from repro.runner import _canonicalize, canonical_json
from repro.sim.engine import SimConfig
from repro.telemetry.trace import Trace

SOA_SCENARIOS = sorted(n for n, s in FLEET_SCENARIOS.items() if s.soa_capable)


def digest(trace: Trace) -> str:
    return hashlib.sha256(
        canonical_json(_canonicalize(trace)).encode()
    ).hexdigest()


def fleet_digests(fleet: FleetSimulation) -> list[str]:
    """Fleet trace digest + every per-server trace digest."""
    out = [digest(fleet.trace)]
    for i in range(fleet.n_servers):
        out.append(digest(fleet.backend.server_trace(i)))
    return out


# -- the oracle: the original rack loop, verbatim ----------------------------


class OracleRack:
    """Literal transcription of the original rack simulation (before the
    fleet engine replaced it), kept here as the fixed point the engine is
    differenced against. Operates on the same ``FleetServer`` construction
    but steps and records with the old loop's own code — including its
    interleaved set-budget-then-run order and its old trace layout (no
    ``alloc_ms`` channel)."""

    def __init__(self, servers, allocator, rack_budget_w, periods_per_rack_period):
        self.servers = list(servers)
        self.allocator = allocator
        self.rack_budget_w = rack_budget_w
        self.periods_per_rack_period = periods_per_rack_period
        self._started = {s.name: False for s in self.servers}
        channels = ["rack_period", "budget_w", "total_power_w"]
        for s in self.servers:
            channels += [f"budget_{s.name}", f"power_{s.name}", f"demand_{s.name}"]
        self.trace = Trace(channels)
        self.rack_period = 0

    def _state(self, server):
        from repro.cluster.allocator import ServerPowerState

        lo, hi = server.sim.server.power_envelope_w(utilization=1.0)
        trace = server.sim.trace
        if len(trace) > 0:
            power = trace.last("power_w")
            pressure = [
                max(trace.last(f"util_{c}") - trace.last(f"tput_norm_{c}"), 0.0)
                for c in server.sim.gpu_channels
            ]
            demand = float(np.clip(np.mean(pressure), 0.0, 1.0))
        else:
            power = float("nan")
            demand = 1.0
        return ServerPowerState(
            name=server.name, power_w=power, p_min_w=lo, p_max_w=hi,
            demand=demand, priority=server.priority,
        )

    def run(self, n_rack_periods):
        for _ in range(n_rack_periods):
            states = [self._state(s) for s in self.servers]
            budgets = self.allocator.allocate(self.rack_budget_w, states)
            for server, budget in zip(self.servers, budgets):
                server.sim.set_point_w = budget
                server.sim.run(
                    server.controller,
                    self.periods_per_rack_period,
                    apply_initial_targets=not self._started[server.name],
                )
                self._started[server.name] = True
            row = {
                "rack_period": float(self.rack_period),
                "budget_w": self.rack_budget_w,
            }
            total = 0.0
            for server, budget, state in zip(self.servers, budgets, states):
                power = server.sim.trace.last("power_w")
                total += power
                row[f"budget_{server.name}"] = budget
                row[f"power_{server.name}"] = power
                row[f"demand_{server.name}"] = state.demand
            row["total_power_w"] = total
            self.trace.append(**row)
            self.rack_period += 1
        return self.trace


def run_oracle(scenario, n_rounds):
    oracle = OracleRack(
        scenario.servers(),
        scenario.allocation(),
        scenario.budget_w(),
        scenario.periods_per_rack_period,
    )
    oracle.run(n_rounds)
    return oracle


# -- layer 1: the reference backend reproduces the old rack loop ------------


def assert_rack_matches_oracle(scenario, n_rounds):
    """The scenario's flat fleet on the reference backend, digest for digest
    against the oracle; returns the fleet."""
    oracle = run_oracle(scenario, n_rounds)
    rack = scenario.build_fleet("reference")
    rack.run(n_rounds)
    assert digest(rack.trace) == digest(oracle.trace)
    for i, server in enumerate(oracle.servers):
        assert digest(rack.backend.server_trace(i)) == digest(server.sim.trace)
    return rack


# The test names keep their original ids; "rack shim" now means the flat
# one-rack fleet on the reference backend.
@pytest.mark.parametrize(
    "name", ["fair-static", "demand-static", "priority-static", "paper-rack"]
)
def test_rack_shim_matches_oracle(name):
    assert_rack_matches_oracle(fleet_scenario(name), n_rounds=3)


@pytest.mark.chaos
def test_chaos_rack_shim_matches_oracle():
    """Fault-injected servers (meter dropout + freeze) on the reference
    backend."""
    # Long enough that both fault windows open and close.
    rack = assert_rack_matches_oracle(fleet_scenario("chaos-rack"), n_rounds=5)
    # The faults actually fired: some periods lost all meter samples.
    fresh = rack.backend.server_trace(0)["fresh_samples"]
    assert (fresh == 0.0).any()


# -- layer 2: the SoA backend reproduces the reference backend ---------------


def soa_and_reference(name, seed=0):
    """The scenario on both backends (at most 8 servers), each run through
    a mid-run budget change."""
    scenario = fleet_scenario(name)
    n = min(scenario.n_servers, 8)
    fleets = [scenario.build_fleet(be, n, seed) for be in ("reference", "soa")]
    for fleet in fleets:
        fleet.run(2)
        fleet.set_budget(fleet.budget_w * 0.97)  # mid-run budget change
        fleet.run(2)
    return fleets


@pytest.mark.parametrize("name", SOA_SCENARIOS)
def test_soa_matches_reference(name):
    ref, soa = soa_and_reference(name)
    assert fleet_digests(ref) == fleet_digests(soa)


@pytest.mark.parametrize("name", SOA_SCENARIOS)
def test_seeded_soa_matches_reference(name):
    """A seed shifts every server's RNG streams alike on both backends."""
    ref, soa = soa_and_reference(name, seed=3)
    assert fleet_digests(ref) == fleet_digests(soa)
    unseeded, _ = soa_and_reference(name)
    assert digest(ref.trace) != digest(unseeded.trace)


@pytest.mark.parametrize(
    "config",
    [SimConfig(meter_interval_s=0.5), SimConfig(control_period_s=10.0)],
    ids=lambda config: f"{config.samples_per_period}-samples",
)
@pytest.mark.parametrize("name", ["fair-static", "demand-static"])
def test_soa_matches_reference_with_long_meter_windows(name, config):
    """From 8 samples per period on, numpy's window mean is a pairwise sum,
    not a left-to-right one; the SoA must still take the engine's mean."""
    scenario = fleet_scenario(name)
    n = min(scenario.n_servers, 8)
    specs = scenario.specs(n)
    fleets = [
        FleetSimulation(
            backend,
            budget_w=scenario.budget_w(n),
            allocation=scenario.allocation(n),
            periods_per_rack_period=scenario.periods_per_rack_period,
        )
        for backend in (
            ReferenceBackend([build_scalar_twin(s, config=config) for s in specs]),
            SoaFleetBackend(specs, config=config),
        )
    ]
    for fleet in fleets:
        fleet.run(2)
        fleet.set_budget(fleet.budget_w * 0.97)
        fleet.run(2)
    ref, soa = fleets
    assert fleet_digests(ref) == fleet_digests(soa)


def test_soa_matches_reference_across_rapl_wrap():
    """Counters started 100 J below the RAPL range wrap in the first
    period; the SoA counter and its window anchors must follow the scalar
    ``SimulatedRapl`` through the wrap bit for bit."""
    scenario = fleet_scenario("fair-static")
    n = 4
    specs = scenario.specs(n)
    ref_backend = ReferenceBackend([build_scalar_twin(s) for s in specs])
    soa_backend = SoaFleetBackend(specs)
    fleets = [
        FleetSimulation(
            backend,
            budget_w=scenario.budget_w(n),
            allocation=scenario.allocation(n),
            periods_per_rack_period=scenario.periods_per_rack_period,
        )
        for backend in (ref_backend, soa_backend)
    ]
    start_uj = 262_143_328_850 - 1e8
    soa_backend._rapl_energy[:] = start_uj
    for server in ref_backend.servers:
        server.sim.rapl._energy_uj = start_uj
    for _ in range(2):
        for fleet in fleets:
            fleet.run(1)
        ref_energy = np.array([s.sim.rapl._energy_uj for s in ref_backend.servers])
        ref_anchor = np.array(
            [s.sim._rapl_energy_anchor for s in ref_backend.servers], dtype=np.int64
        )
        assert soa_backend._rapl_energy.tobytes() == ref_energy.tobytes()
        assert soa_backend._rapl_anchor_uj.tobytes() == ref_anchor.tobytes()
        assert (soa_backend._rapl_energy < start_uj).all()  # it wrapped
    assert fleet_digests(fleets[0]) == fleet_digests(fleets[1])


def test_soa_trace_channels_match_engine_layout():
    scenario = fleet_scenario("fair-static")
    ref = scenario.build_fleet("reference", n_servers=2)
    soa = scenario.build_fleet("soa", n_servers=2)
    ref.run(1)
    soa.run(1)
    assert tuple(soa.backend.server_trace(0).channels) == tuple(
        ref.backend.server_trace(0).channels
    )


# -- layer 3: snapshot/restore mid-run ---------------------------------------


@pytest.mark.parametrize("backend", ["reference", "soa"])
def test_snapshot_restore_mid_run(backend):
    scenario = fleet_scenario("tree-static")
    n = 8
    straight = scenario.build_fleet(backend, n_servers=n)
    straight.run(4)

    first = scenario.build_fleet(backend, n_servers=n)
    first.run(2)
    blob = first.snapshot()
    first.run(2)  # keep running after the snapshot: capture must not disturb

    resumed = scenario.build_fleet(backend, n_servers=n)
    resumed.restore(blob)
    resumed.run(2)

    want = fleet_digests(straight)
    assert fleet_digests(first) == want
    assert fleet_digests(resumed) == want


# -- at scale ----------------------------------------------------------------


@pytest.mark.fleet_smoke
def test_soa_smoke_256_servers():
    """One budget round over 256 servers: sane powers, conserved budget."""
    scenario = fleet_scenario("tree-static")
    fleet = scenario.build_fleet("soa", n_servers=256)
    fleet.run(2)
    powers = np.asarray(fleet.backend.last_powers())
    assert powers.shape == (256,)
    assert np.isfinite(powers).all()
    lo, hi = 0.25 * 600.0, 1.5 * 1500.0  # generous plausibility band
    assert ((powers > lo) & (powers < hi)).all()
    budgets = [
        fleet.trace.last(f"budget_{name}") for name in fleet.backend.names
    ]
    assert sum(budgets) <= fleet.budget_w + 1e-6
    assert fleet.trace.last("total_power_w") == pytest.approx(
        float(powers.sum())
    )
