"""Registered fleet scenarios: shared fixtures for tests, benches, CLI.

Each scenario is a *recipe* — scale-parametric and backend-agnostic — so the
same registry entry drives the differential suite (scalar rack loop vs
fleet engine vs structure-of-arrays backend on identical inputs), the
benchmark harness (64/256/1024-server builds), ``repro run --fleet`` and
the digital twins of :mod:`repro.service`. :meth:`FleetScenario.build_fleet`
is the one place a scenario, backend name, size and seed become a
:class:`~repro.fleet.engine.FleetSimulation`; :func:`soa_bank` is the one
place several of them become one bank on one SoA.

Scenarios with a ``spec_fn`` are *homogeneous static-load* fleets: every
server is described by a :class:`~repro.fleet.soa.SoaServerSpec`, so they
build on either backend and must produce bit-identical traces on both. A
seed shifts every server's RNG seed by 100,000 per unit, which
re-randomizes the noise and leaves the topology alone. Scenarios with a
``server_fn`` build arbitrary scalar servers (full paper inference
pipelines, fault injection), run on the reference backend only and refuse
a nonzero seed.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from ..cluster.allocator import (
    BudgetAllocator,
    FairShareAllocator,
    PriorityAllocator,
    ProportionalDemandAllocator,
)
from ..errors import ConfigurationError
from .engine import FleetBackend, FleetBank, FleetServer, FleetSimulation, ReferenceBackend
from .soa import SoaFleetBackend, SoaRows, SoaServerSpec, build_scalar_twin
from .tree import BudgetTree

__all__ = [
    "FleetScenario",
    "FLEET_SCENARIOS",
    "fleet_scenario",
    "fleet_scenario_names",
    "soa_bank",
]


class FleetScenario:
    """A named, scale-parametric fleet construction recipe.

    Parameters
    ----------
    name / description:
        Registry key and one-line summary.
    n_servers:
        Default fleet size (overridable at build time — benchmarks build
        the same scenario at 64/256/1024).
    budget_per_server_w:
        Fleet budget is ``n_servers * budget_per_server_w`` so the scenario
        stays feasible at any scale.
    alloc_fn:
        ``n_servers -> BudgetTree | BudgetAllocator``.
    spec_fn:
        ``index -> SoaServerSpec`` for homogeneous static-load fleets
        (enables the SoA backend).
    server_fn:
        ``index -> FleetServer`` for heterogeneous/reference-only fleets.
        Exactly one of ``spec_fn``/``server_fn`` must be given.
    periods_per_rack_period:
        Server control periods per budget round.
    chaos:
        True for fault-injection scenarios (tests mark these ``chaos``).
    """

    def __init__(
        self,
        name: str,
        description: str,
        n_servers: int,
        budget_per_server_w: float,
        alloc_fn: Callable[[int], BudgetTree | BudgetAllocator],
        spec_fn: Callable[[int], SoaServerSpec] | None = None,
        server_fn: Callable[[int], FleetServer] | None = None,
        periods_per_rack_period: int = 3,
        chaos: bool = False,
    ):
        if (spec_fn is None) == (server_fn is None):
            raise ConfigurationError("give exactly one of spec_fn / server_fn")
        self.name = name
        self.description = description
        self.n_servers = int(n_servers)
        self.budget_per_server_w = float(budget_per_server_w)
        self.alloc_fn = alloc_fn
        self.spec_fn = spec_fn
        self.server_fn = server_fn
        self.periods_per_rack_period = int(periods_per_rack_period)
        self.chaos = bool(chaos)

    @property
    def soa_capable(self) -> bool:
        return self.spec_fn is not None

    def specs(self, n_servers: int | None = None, seed: int = 0) -> list[SoaServerSpec]:
        """Server specs, every RNG seed shifted by 100,000 per unit of
        ``seed`` (a seed re-randomizes noise, not topology)."""
        if self.spec_fn is None:
            raise ConfigurationError(
                f"scenario {self.name!r} is reference-only; the soa and fast "
                "backends need a spec-built (static-load) scenario"
            )
        n = self.n_servers if n_servers is None else n_servers
        return [
            dataclasses.replace(spec, seed=spec.seed + 100_000 * seed)
            for spec in map(self.spec_fn, range(n))
        ]

    def servers(self, n_servers: int | None = None, seed: int = 0) -> list[FleetServer]:
        """Fresh scalar servers (the reference construction)."""
        n = self.n_servers if n_servers is None else n_servers
        if self.server_fn is None:
            return [build_scalar_twin(s) for s in self.specs(n, seed)]
        if seed != 0:
            raise ConfigurationError(
                f"scenario {self.name!r} is reference-only and does not take a seed"
            )
        return [self.server_fn(i) for i in range(n)]

    def budget_w(self, n_servers: int | None = None) -> float:
        n = self.n_servers if n_servers is None else n_servers
        return self.budget_per_server_w * n

    def allocation(self, n_servers: int | None = None):
        n = self.n_servers if n_servers is None else n_servers
        return self.alloc_fn(n)

    def build_fleet(
        self, backend: str = "reference", n_servers: int | None = None, seed: int = 0
    ) -> FleetSimulation:
        """The scenario's fleet on ``backend`` (``reference``, ``soa``,
        ``fast`` or ``fast-parallel``); ``seed`` as in :meth:`specs`."""
        n = self.n_servers if n_servers is None else n_servers
        be: FleetBackend
        if backend == "reference":
            be = ReferenceBackend(self.servers(n, seed))
        elif backend == "soa":
            be = SoaFleetBackend(self.specs(n, seed))
        elif backend == "fast":
            from ..fast.fleet import FastFleetBackend

            be = FastFleetBackend(self.specs(n, seed))
        elif backend == "fast-parallel":
            from ..fast.parallel import ParallelFleetBackend

            be = ParallelFleetBackend(self.specs(n, seed))
        else:
            raise ConfigurationError(
                f"unknown fleet backend {backend!r}; have reference, soa, "
                f"fast, fast-parallel"
            )
        return self._fleet_on(be)

    def _fleet_on(self, backend: FleetBackend) -> FleetSimulation:
        """The scenario's budget, allocation and round length over
        ``backend``'s servers."""
        n = backend.n_servers
        return FleetSimulation(
            backend,
            budget_w=self.budget_w(n),
            allocation=self.allocation(n),
            periods_per_rack_period=self.periods_per_rack_period,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "soa" if self.soa_capable else "reference-only"
        return f"FleetScenario({self.name!r}, n={self.n_servers}, {kind})"


# -- static-load spec builders (deterministic in the server index) -----------

def _fair_spec(i: int) -> SoaServerSpec:
    return SoaServerSpec(
        name=f"s{i:04d}",
        seed=1000 + i,
        set_point_w=700.0,
        demand_scale=0.7 + 0.05 * (i % 8),
    )


def _demand_spec(i: int) -> SoaServerSpec:
    return SoaServerSpec(
        name=f"s{i:04d}",
        seed=2000 + i,
        set_point_w=680.0 + 10.0 * (i % 5),
        demand_scale=0.6 + 0.08 * (i % 7),
        controller="safe-fixed-step" if i % 3 == 0 else "fixed-step",
        deadband_w=5.0 if i % 2 else 0.0,
    )


def _mpc_spec(i: int) -> SoaServerSpec:
    return SoaServerSpec(
        name=f"s{i:04d}",
        seed=4000 + i,
        set_point_w=880.0 + 15.0 * (i % 4),
        demand_scale=0.8 + 0.05 * (i % 5),
        controller="mpc",
    )


def _priority_spec(i: int) -> SoaServerSpec:
    return SoaServerSpec(
        name=f"s{i:04d}",
        seed=3000 + i,
        set_point_w=720.0,
        demand_scale=0.75 + 0.06 * (i % 5),
        priority=i % 3,
    )


def _paper_server(i: int) -> FleetServer:
    # Lazy imports: repro.experiments imports repro.fleet for the at-scale
    # experiment, so the paper-rack builder must not import it at load time.
    from ..core import build_capgpu
    from ..experiments.common import identified_model
    from ..sim import paper_scenario

    sim = paper_scenario(seed=70 + i, set_point_w=900.0)
    return FleetServer(f"srv{i}", sim, build_capgpu(sim, model=identified_model(0)))


def _chaos_server(i: int) -> FleetServer:
    from ..control.fixed_step import FixedStepController
    from ..faults import FaultPlan, FaultWindow, MeterDropout, MeterFreeze
    from ..sim import paper_scenario

    # Stagger fault windows across servers so the allocator sees a mix of
    # degraded and healthy telemetry in the same budget round.
    plan = FaultPlan(
        (
            MeterDropout(window=FaultWindow(start_period=3 + i, n_periods=4)),
            MeterFreeze(window=FaultWindow(start_period=9, n_periods=3 + i)),
        )
    )
    sim = paper_scenario(seed=170 + i, set_point_w=900.0, faults=plan)
    return FleetServer(f"srv{i}", sim, FixedStepController())


FLEET_SCENARIOS: dict[str, FleetScenario] = {
    s.name: s
    for s in [
        FleetScenario(
            name="fair-static",
            description="homogeneous static-load fleet, fair-share budgets",
            n_servers=6,
            budget_per_server_w=730.0,
            alloc_fn=lambda n: FairShareAllocator(),
            spec_fn=_fair_spec,
        ),
        FleetScenario(
            name="demand-static",
            description="mixed fixed/safe controllers, demand-weighted budgets",
            n_servers=6,
            budget_per_server_w=725.0,
            alloc_fn=lambda n: ProportionalDemandAllocator(),
            spec_fn=_demand_spec,
        ),
        FleetScenario(
            name="priority-static",
            description="three priority tiers, water-filled top tier first",
            n_servers=6,
            budget_per_server_w=720.0,
            alloc_fn=lambda n: PriorityAllocator(),
            spec_fn=_priority_spec,
        ),
        FleetScenario(
            name="mpc-static",
            description="MPC-heavy static-load fleet: CapGPU (uniform "
            "weights, shared identified model) on every server",
            n_servers=4,
            budget_per_server_w=900.0,
            alloc_fn=lambda n: FairShareAllocator(),
            spec_fn=_mpc_spec,
        ),
        FleetScenario(
            name="tree-static",
            description="datacenter->row->rack->server budget tree over a "
            "static-load fleet",
            n_servers=16,
            budget_per_server_w=730.0,
            alloc_fn=lambda n: BudgetTree.uniform(
                FairShareAllocator, n, servers_per_rack=4, racks_per_row=2
            ),
            spec_fn=_fair_spec,
        ),
        FleetScenario(
            name="paper-rack",
            description="two full paper servers (inference pipelines + "
            "CapGPU) under fair-share rack budgets",
            n_servers=2,
            budget_per_server_w=900.0,
            alloc_fn=lambda n: FairShareAllocator(),
            server_fn=_paper_server,
        ),
        FleetScenario(
            name="chaos-rack",
            description="paper servers with staggered meter dropout/freeze "
            "faults under fair-share budgets",
            n_servers=2,
            budget_per_server_w=900.0,
            alloc_fn=lambda n: FairShareAllocator(),
            server_fn=_chaos_server,
            chaos=True,
        ),
    ]
}


def fleet_scenario(name: str) -> FleetScenario:
    """Look up a registered fleet scenario by name."""
    try:
        return FLEET_SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fleet scenario {name!r}; have {sorted(FLEET_SCENARIOS)}"
        ) from None


def fleet_scenario_names() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(FLEET_SCENARIOS)


def soa_bank(members: list[tuple[str, int, int]]) -> FleetBank:
    """Fleets of SoA-capable scenarios stepped as one bank (see "Banks" in
    :mod:`repro.fleet.soa`), each member a ``(scenario, n_servers, seed)``
    as :meth:`FleetScenario.build_fleet` takes them. One
    :class:`SoaFleetBackend` is built from every member's specs, each
    member's rows after the previous member's, and each member's fleet has
    its :class:`SoaRows` slice as its backend. Members reuse server names
    (``s0000``, ...), so the shared backend names them
    ``"{member}/{name}"``."""
    recipes = [fleet_scenario(name) for name, _, _ in members]
    specs = [recipe.specs(n, seed) for recipe, (_, n, seed) in zip(recipes, members)]
    shared = SoaFleetBackend(
        [
            dataclasses.replace(spec, name=f"{k}/{spec.name}")
            for k, member in enumerate(specs)
            for spec in member
        ]
    )
    fleets = []
    start = 0
    for recipe, member in zip(recipes, specs):
        fleets.append(recipe._fleet_on(SoaRows(shared, start, [s.name for s in member])))
        start += len(member)
    return FleetBank(fleets, shared)
