"""Fleet co-simulation: many capped servers under one budget hierarchy.

A rack of CapGPU servers under one reallocated budget, generalized along
two axes:

* **scale** — the per-server stepping is delegated to a *backend*. The
  :class:`ReferenceBackend` keeps one scalar
  :class:`~repro.sim.engine.ServerSimulation` per server (the original rack
  loop, unchanged float for float); the structure-of-arrays backend in
  :mod:`repro.fleet.soa` steps thousands of homogeneous servers as one
  numpy program per meter window (10 ticks by default) and reproduces the
  reference bit for bit (``tests/fleet/test_differential.py``).
* **hierarchy** — budgets descend a :class:`~repro.fleet.tree.BudgetTree`
  (datacenter → row → rack → server) instead of one flat allocator call;
  a flat tree reproduces the original rack loop exactly;
* **banks** — a round is a *plan* (states, budget tree, caps) and a
  *record* (the fleet-trace row). A :class:`FleetBank` plans each member,
  steps one backend once and records each member, so fleets whose servers
  share one backend step together; :meth:`FleetSimulation.run` is the
  bank of one. :func:`repro.fleet.scenarios.soa_bank` builds the fleets
  of several scenarios on one SoA backend, each member's backend a slice
  of its rows (the digital twin's deployed fleet and its shadows step
  this way).

A single rack is ``FleetSimulation(ReferenceBackend([FleetServer(...),
...]), budget_w, allocator)``. Registered scenarios are built by
:meth:`repro.fleet.scenarios.FleetScenario.build_fleet`, the one place a
scenario, backend name, size and seed become a :class:`FleetSimulation`,
or, several at once, by ``soa_bank``.
"""

from __future__ import annotations

import time
from collections.abc import Mapping

import numpy as np

from ..cluster.allocator import BudgetAllocator, ServerPowerState
from ..control.base import PowerCappingController
from ..errors import ConfigurationError
from ..sim.engine import ServerSimulation
from ..telemetry.trace import Trace
from ..units import require_positive, seconds_to_milliseconds
from .tree import BudgetTree

__all__ = ["FleetServer", "FleetBackend", "ReferenceBackend", "FleetSimulation", "FleetBank"]


class FleetServer:
    """One server slot in a fleet: a scalar simulation plus its controller."""

    def __init__(
        self,
        name: str,
        sim: ServerSimulation,
        controller: PowerCappingController,
        priority: int = 0,
    ):
        self.name = str(name)
        self.sim = sim
        self.controller = controller
        self.priority = int(priority)
        self._started = False

    def state(self) -> ServerPowerState:
        """Snapshot for the allocator."""
        lo, hi = self.sim.server.power_envelope_w(utilization=1.0)
        trace = self.sim.trace
        if len(trace) > 0:
            power = trace.last("power_w")
            # Demand = throttling pressure: a GPU that is busy a larger
            # fraction of time than the throughput fraction it delivers is
            # being held back by its clock (cap), whereas a GPU idle for
            # lack of work shows low utilization *and* low throughput and
            # contributes nothing. This distinguishes "capped" from "idle".
            pressure = [
                max(
                    trace.last(f"util_{c}") - trace.last(f"tput_norm_{c}"), 0.0
                )
                for c in self.sim.gpu_channels
            ]
            demand = float(np.clip(np.mean(pressure), 0.0, 1.0))
        else:
            power = float("nan")
            demand = 1.0
        return ServerPowerState(
            name=self.name,
            power_w=power,
            p_min_w=lo,
            p_max_w=hi,
            demand=demand,
            priority=self.priority,
        )

    def run_periods(self, n: int) -> None:
        """Advance the server ``n`` control periods under its controller.

        ``n == 0`` is an explicit no-op (a rack manager may legitimately
        schedule an empty slice); negative ``n`` is rejected by the engine.
        """
        if n == 0:
            return
        self.sim.run(
            self.controller, n, apply_initial_targets=not self._started
        )
        self._started = True


class FleetBackend:
    """Stepping strategy of a fleet: the state of N servers and how to
    advance them one budget round.

    Implementations must present the same float-level semantics as N
    independent :class:`~repro.sim.engine.ServerSimulation` loops — that is
    the contract the differential suite enforces.
    """

    @property
    def names(self) -> list[str]:
        raise NotImplementedError

    @property
    def n_servers(self) -> int:
        return len(self.names)

    def states(self) -> list[ServerPowerState]:
        """One allocator-visible snapshot per server."""
        raise NotImplementedError

    def set_budgets(self, budgets_w: list[float]) -> None:
        """Apply one power cap per server (takes effect next period)."""
        raise NotImplementedError

    def run_periods(self, n: int) -> None:
        """Advance every server ``n`` control periods."""
        raise NotImplementedError

    def last_powers(self) -> list[float]:
        """Most recent measured ``power_w`` per server."""
        raise NotImplementedError

    def server_trace(self, index: int) -> Trace:
        """Per-period trace of server ``index`` (engine channel layout)."""
        raise NotImplementedError

    def server_columns(self, names: tuple[str, ...]) -> list[np.ndarray]:
        """Each named engine channel as a ``(periods, n_servers)`` array."""
        traces = [self.server_trace(i) for i in range(self.n_servers)]
        return [np.column_stack([t[name] for t in traces]) for name in names]

    def history_tables(self) -> dict[str, tuple[np.ndarray, int]]:
        """Growable history arrays, keyed by name, as ``(storage, rows
        written)``: what a checkpoint may keep outside its state blob
        (:meth:`FleetSimulation.history_tables`). None by default."""
        return {}

    def _check_budgets(self, budgets_w: list[float]) -> None:
        """Refuse a budget list whose length is not ``n_servers``; every
        :meth:`set_budgets` calls this first, so no backend drops extra
        budgets or broadcasts a single one."""
        if len(budgets_w) != self.n_servers:
            raise ConfigurationError(
                f"expected {self.n_servers} budgets, got {len(budgets_w)}"
            )

    def _check_server_index(self, index: int) -> None:
        """Refuse an index outside ``range(n_servers)``; every
        :meth:`server_trace` calls this first, so a negative index never
        wraps around to a server counted from the end."""
        if not 0 <= index < self.n_servers:
            raise ConfigurationError(f"server index {index} out of range")


class ReferenceBackend(FleetBackend):
    """N scalar :class:`ServerSimulation` loops — the original rack body.

    The known-good reference the SoA backend is differenced against, and
    the only backend that supports heterogeneous servers, full inference
    pipelines, fault injection and event schedules.
    """

    def __init__(self, servers: list[FleetServer]):
        if not servers:
            raise ConfigurationError("fleet needs at least one server")
        names = [s.name for s in servers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate server names: {names}")
        self.servers = list(servers)

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.servers]

    def states(self) -> list[ServerPowerState]:
        return [s.state() for s in self.servers]

    def set_budgets(self, budgets_w: list[float]) -> None:
        self._check_budgets(budgets_w)
        for server, budget in zip(self.servers, budgets_w):
            server.sim.set_point_w = budget

    def run_periods(self, n: int) -> None:
        for server in self.servers:
            server.run_periods(n)

    def last_powers(self) -> list[float]:
        return [s.sim.trace.last("power_w") for s in self.servers]

    def server_trace(self, index: int) -> Trace:
        self._check_server_index(index)
        return self.servers[index].sim.trace


class FleetSimulation:
    """A fleet of capped servers under a hierarchically reallocated budget.

    Every ``periods_per_rack_period`` server control periods the fleet
    manager reads each server's state (power, achievable envelope, demand),
    descends the budget tree, and pushes new per-server caps; each server's
    own controller then tracks its cap. Servers are electrically
    independent, so backends may advance them in any per-server order
    without loss of fidelity.

    Parameters
    ----------
    backend:
        Server state + stepping strategy.
    budget_w:
        Total fleet budget (the root of the tree divides this).
    allocation:
        A :class:`~repro.fleet.tree.BudgetTree`, or a flat
        :class:`~repro.cluster.allocator.BudgetAllocator` (wrapped in a
        single-rack tree — float-identical to calling it directly).
    periods_per_rack_period:
        Server control periods per budget round.
    """

    def __init__(
        self,
        backend: FleetBackend,
        budget_w: float,
        allocation: BudgetTree | BudgetAllocator,
        periods_per_rack_period: int = 5,
    ):
        self.backend = backend
        self.budget_w = require_positive(budget_w, "budget_w")
        if isinstance(allocation, BudgetTree):
            self.tree = allocation
        else:
            self.tree = BudgetTree.flat(allocation, backend.n_servers)
        if self.tree.n_servers != backend.n_servers:
            raise ConfigurationError(
                f"tree has {self.tree.n_servers} leaves for "
                f"{backend.n_servers} servers"
            )
        if periods_per_rack_period < 1:
            raise ConfigurationError("periods_per_rack_period must be >= 1")
        self.periods_per_rack_period = int(periods_per_rack_period)
        names = backend.names
        channels = ["rack_period", "budget_w", "total_power_w"]
        for name in names:
            channels += [f"budget_{name}", f"power_{name}", f"demand_{name}"]
        channels.append("alloc_ms")
        self.trace = Trace(channels)
        self.rack_period = 0
        self.last_alloc_ms = 0.0

    @property
    def n_servers(self) -> int:
        return self.backend.n_servers

    def set_budget(self, budget_w: float) -> None:
        """Change the fleet budget (takes effect at the next rack period)."""
        self.budget_w = require_positive(budget_w, "budget_w")

    def run(self, n_rack_periods: int) -> Trace:
        """Run ``n_rack_periods`` allocation rounds; returns the fleet trace.

        The fleet steps as a :class:`FleetBank` of one."""
        FleetBank([self]).run(n_rack_periods)
        return self.trace

    def _plan(self) -> tuple[list[ServerPowerState], list[float]]:
        """A round's first half: read the server states, descend the budget
        tree and push the per-server caps; returns the states and budgets
        :meth:`_record` writes once the servers have stepped."""
        states = self.backend.states()
        t0 = time.perf_counter()  # repro-lint: disable=REP101 -- alloc_ms is timing telemetry, excluded from digests (runner.TIMING_KEYS)
        budgets = self.tree.allocate(self.budget_w, states)
        self.last_alloc_ms = seconds_to_milliseconds(
            time.perf_counter() - t0  # repro-lint: disable=REP101 -- same timing window as t0 above
        )
        self.backend.set_budgets(budgets)
        return states, budgets

    def _record(self, states: list[ServerPowerState], budgets: list[float]) -> None:
        """A round's second half: the fleet trace row of the round just
        stepped."""
        row: dict[str, float] = {
            "rack_period": float(self.rack_period),
            "budget_w": self.budget_w,
        }
        total = 0.0
        powers = self.backend.last_powers()
        for name, budget, state, power in zip(self.backend.names, budgets, states, powers):
            total += power
            row[f"budget_{name}"] = budget
            row[f"power_{name}"] = power
            row[f"demand_{name}"] = state.demand
        row["total_power_w"] = total
        row["alloc_ms"] = self.last_alloc_ms
        self.trace.append(**row)
        self.rack_period += 1

    # -- checkpointing -----------------------------------------------------

    def history_tables(self) -> dict[str, tuple[np.ndarray, int]]:
        """The fleet's growable history arrays, keyed by table name, as
        ``(storage, rows written)``: the fleet trace's rows on every
        backend, plus the backend's own (the SoA per-server history).
        Only the first ``rows`` rows of a storage array are history."""
        tables = {"trace": (self.trace._data, len(self.trace))}
        tables.update(self.backend.history_tables())
        return tables

    def snapshot(self, tables: Mapping[str, np.ndarray] | None = None) -> dict:
        """Freeze the fleet (backend state, RNG streams, traces, budgets).

        The generic object-graph walker captures everything reachable —
        device state, generators, controller state, per-server traces —
        such that :meth:`restore` followed by :meth:`run` continues
        bit-identically with an uninterrupted run. ``tables`` maps names
        to storage arrays of :meth:`history_tables` that the caller keeps
        elsewhere; each is captured as a reference by name.
        """
        from ..checkpoint.state import capture

        return {"fleet": capture(self, tables=tables)[0]}

    def restore(
        self, blob: dict, tables: Mapping[str, np.ndarray] | None = None
    ) -> "FleetSimulation":
        """Load a :meth:`snapshot` blob into this (same-construction) fleet;
        ``tables`` supplies the arrays the snapshot referenced by name."""
        from ..checkpoint.state import restore

        restore([blob["fleet"]], [self], tables=tables)
        return self


class FleetBank:
    """Fleets that step in lockstep through one backend holding all their
    servers (by default the first member's own, for a bank of one).

    Each round plans every member (states, its own budget tree, caps),
    steps ``backend`` once, then records every member's trace row.
    :func:`repro.fleet.scenarios.soa_bank` builds a bank of several SoA
    fleets.
    """

    def __init__(self, fleets: list[FleetSimulation], backend: FleetBackend | None = None):
        if not fleets:
            raise ConfigurationError("a bank needs at least one fleet")
        periods = {fleet.periods_per_rack_period for fleet in fleets}
        if len(periods) != 1:
            raise ConfigurationError(
                f"bank members must share periods_per_rack_period, got {sorted(periods)}"
            )
        self.fleets = list(fleets)
        self.backend = fleets[0].backend if backend is None else backend
        self.periods_per_rack_period = fleets[0].periods_per_rack_period

    def run(self, n_rack_periods: int) -> None:
        """Run ``n_rack_periods`` allocation rounds of every member."""
        if n_rack_periods < 1:
            raise ConfigurationError("n_rack_periods must be >= 1")
        for _ in range(n_rack_periods):
            plans = [fleet._plan() for fleet in self.fleets]
            self.backend.run_periods(self.periods_per_rack_period)
            for fleet, plan in zip(self.fleets, plans):
                fleet._record(*plan)
