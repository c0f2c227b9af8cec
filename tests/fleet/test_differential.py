"""Differential proof of the fleet engine.

Four layers of bit-for-bit equivalence, each pinned by canonical digests
(timing channels excluded, everything else exact):

1. a flat one-rack fleet on the reference backend vs a literal
   transcription of the original rack loop (the *oracle* below) — the
   fleet engine changed no floats;
2. the structure-of-arrays backend vs the reference backend (N scalar
   engines) on every SoA-capable registered scenario, at seed 0 and at a
   nonzero seed, and on a fleet that mixes fixed-step and MPC rows;
3. ``snapshot()``/``restore()`` mid-run vs an uninterrupted run;
4. fleets stepped as one bank (one SoA holding every member's rows) vs
   the same fleets run alone, also across a mid-run snapshot.

The SoA steps a period in blocks of ticks whose length follows from the
row count (``repro.fleet.soa.CELLS``); the long-window and RAPL-wrap
differentials also run with 1-tick and 3-tick blocks, whose boundaries
split meter windows.

Fault-injection scenarios run under the ``chaos`` marker; the 256- and
1024-server smokes run under ``fleet_smoke`` (both off by default, on in
CI's fleet-equivalence job).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.checkpoint.state import capture, restore
from repro.errors import ConfigurationError
from repro.fleet import FleetBank, FleetSimulation, ReferenceBackend, SoaFleetBackend
from repro.fleet import soa as soa_module
from repro.fleet.scenarios import FLEET_SCENARIOS, fleet_scenario, soa_bank
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


@pytest.mark.parametrize(
    "name", ["fair-static", "demand-static", "priority-static", "paper-rack"]
)
def test_flat_rack_matches_oracle(name):
    assert_rack_matches_oracle(fleet_scenario(name), n_rounds=3)


@pytest.mark.chaos
def test_chaos_flat_rack_matches_oracle():
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


#: Block lengths in ticks, None for the default ``CELLS``.
BLOCKS = pytest.mark.parametrize(
    "block_ticks", [None, 1, 3], ids=lambda t: "default-blocks" if t is None else f"{t}-tick-blocks"
)


def record_blocks(monkeypatch, block_ticks, n_servers):
    """Patch ``CELLS`` so that ``n_servers`` rows step in ``block_ticks``-tick
    blocks (None keeps the default); returns the list every stepped block's
    length is appended to."""
    if block_ticks is not None:
        monkeypatch.setattr(soa_module, "CELLS", block_ticks * n_servers)
    lengths = []
    step = SoaFleetBackend._step_block

    def spy(self, wall, *args):
        lengths.append(len(wall))
        return step(self, wall, *args)

    monkeypatch.setattr(SoaFleetBackend, "_step_block", spy)
    return lengths


@BLOCKS
@pytest.mark.parametrize(
    "config",
    [SimConfig(meter_interval_s=0.5), SimConfig(control_period_s=10.0)],
    ids=lambda config: f"{config.samples_per_period}-samples",
)
@pytest.mark.parametrize("name", ["fair-static", "demand-static"])
def test_soa_matches_reference_with_long_meter_windows(name, config, block_ticks, monkeypatch):
    """From 8 samples per period on, numpy's window mean is a pairwise sum,
    not a left-to-right one; the SoA must still take the engine's mean."""
    scenario = fleet_scenario(name)
    n = min(scenario.n_servers, 8)
    specs = scenario.specs(n)
    lengths = record_blocks(monkeypatch, block_ticks, n)
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
    # 8 rows step each period as one block by default.
    assert max(lengths) == (block_ticks or config.ticks_per_period)


@BLOCKS
def test_soa_matches_reference_across_rapl_wrap(block_ticks, monkeypatch):
    """Counters started 100 J below the RAPL range wrap in the first
    period; the SoA counter and its window anchors must follow the scalar
    ``SimulatedRapl`` through the wrap bit for bit."""
    scenario = fleet_scenario("fair-static")
    n = 4
    specs = scenario.specs(n)
    lengths = record_blocks(monkeypatch, block_ticks, n)
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
    assert max(lengths) == (block_ticks or SimConfig().ticks_per_period)


def test_mixed_fleet_soa_matches_reference():
    """``demand-static`` with every third row on MPC: the SoA steps the
    fixed-step rows as a bank and the MPC rows through controller objects,
    the reference backend every row through its own object."""
    scenario = fleet_scenario("demand-static")
    n = 8
    specs = [
        dataclasses.replace(s, controller="mpc") if i % 3 == 0 else s
        for i, s in enumerate(scenario.specs(n))
    ]
    fleets = [
        FleetSimulation(
            backend,
            budget_w=scenario.budget_w(n),
            allocation=scenario.allocation(n),
            periods_per_rack_period=scenario.periods_per_rack_period,
        )
        for backend in (
            ReferenceBackend([build_scalar_twin(s) for s in specs]),
            SoaFleetBackend(specs),
        )
    ]
    for fleet in fleets:
        fleet.run(2)
        fleet.set_budget(fleet.budget_w * 0.97)
        fleet.run(2)
    ref, soa = fleets
    assert fleet_digests(ref) == fleet_digests(soa)


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


# -- layer 4: fleets stepped as one bank -------------------------------------

#: Bank members: (scenario, servers, seed, fraction of the scenario budget).
BANKS = {
    "one": [("tree-static", 8, 3, 1.0)],
    "caps": [("tree-static", 8, 3, 1.0), ("tree-static", 8, 3, 0.8)],
    "mixed": [
        ("tree-static", 8, 0, 1.2),
        ("demand-static", 6, 1, 0.9),
        ("mpc-static", 4, 0, 1.0),
    ],
    "four": [
        ("priority-static", 5, 2, 1.0),
        ("tree-static", 8, 3, 0.8),
        ("mpc-static", 3, 3, 1.1),
        ("demand-static", 7, 0, 1.0),
    ],
}


def fleets_alone(members):
    """Fresh ``soa`` fleets, one per member, at their budget fractions."""
    fleets = []
    for name, n, seed, frac in members:
        fleet = fleet_scenario(name).build_fleet("soa", n, seed)
        fleet.set_budget(fleet.budget_w * frac)
        fleets.append(fleet)
    return fleets


def bank_of(members):
    """The members' fleets built as one bank, at their budget fractions."""
    bank = soa_bank([(name, n, seed) for name, n, seed, _ in members])
    for fleet, (*_, frac) in zip(bank.fleets, members):
        fleet.set_budget(fleet.budget_w * frac)
    return bank


def run_with_budget_cut(run, fleets):
    """Two rounds, a 3% budget cut on every member, two more rounds."""
    run(2)
    for fleet in fleets:
        fleet.set_budget(fleet.budget_w * 0.97)
    run(2)


@pytest.mark.parametrize("bank", sorted(BANKS))
def test_bank_members_match_fleets_run_alone(bank):
    alone = fleets_alone(BANKS[bank])
    for fleet in alone:
        run_with_budget_cut(fleet.run, [fleet])
    banked = bank_of(BANKS[bank])
    run_with_budget_cut(banked.run, banked.fleets)
    assert [fleet_digests(f) for f in banked.fleets] == [fleet_digests(f) for f in alone]


def test_bank_snapshot_restore_mid_run():
    """One capture over every member (the shared SoA is one subtree),
    restored in one call into a fresh bank, continues as the uninterrupted
    bank does."""
    members = BANKS["mixed"]
    straight = bank_of(members)
    run_with_budget_cut(straight.run, straight.fleets)

    first = bank_of(members)
    first.run(2)
    nodes = capture(*first.fleets)
    for fleet in first.fleets:
        fleet.set_budget(fleet.budget_w * 0.97)
    first.run(2)

    resumed = bank_of(members)
    restore(nodes, resumed.fleets)
    for fleet in resumed.fleets:
        fleet.set_budget(fleet.budget_w * 0.97)
    resumed.run(2)

    want = [fleet_digests(f) for f in straight.fleets]
    assert [fleet_digests(f) for f in first.fleets] == want
    assert [fleet_digests(f) for f in resumed.fleets] == want


def test_bank_slice_refuses_out_of_range_servers_and_stepping():
    bank = bank_of(BANKS["caps"])
    bank.run(1)
    rows = bank.fleets[1].backend
    assert rows.names == [f"s{i:04d}" for i in range(8)]
    for index in (-1, 8):
        with pytest.raises(ConfigurationError, match="out of range"):
            rows.server_trace(index)
    with pytest.raises(ConfigurationError, match="through its bank"):
        bank.fleets[1].run(1)


def test_bank_refuses_what_it_cannot_step_exactly():
    """A bank is built from scenario specs, so only a reference-only
    scenario (no specs) and rounds of another length are left to refuse."""
    with pytest.raises(ConfigurationError, match="reference-only"):
        soa_bank([("tree-static", 4, 0), ("paper-rack", 2, 0)])
    scenario = fleet_scenario("tree-static")
    fleets = [scenario.build_fleet("soa", 4) for _ in range(2)]
    fleets[1].periods_per_rack_period = 2
    with pytest.raises(ConfigurationError, match="periods_per_rack_period"):
        FleetBank(fleets)


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


@pytest.mark.fleet_smoke
def test_soa_smoke_1024_servers_in_window_blocks_and_one_block(monkeypatch):
    """At 1024 servers a period steps in 10-tick blocks, one meter window
    each; stepped as one 40-tick block instead, a round's history is the
    same bit for bit."""
    histories = []
    for block_ticks, expected in ((None, 10), (40, 40)):
        lengths = record_blocks(monkeypatch, block_ticks, 1024)
        fleet = fleet_scenario("tree-static").build_fleet("soa", n_servers=1024)
        fleet.run(1)
        monkeypatch.undo()
        assert set(lengths) == {expected}
        backend = fleet.backend
        hist = backend._hist[: backend._n_rows].copy()
        hist[:, :, backend._chan_index["ctl_ms"]] = 0.0  # timing, not state
        histories.append((hist.tobytes(), digest(fleet.trace)))
    assert histories[0] == histories[1]
