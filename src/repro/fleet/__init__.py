"""Fleet-scale co-simulation: vectorized servers under hierarchical budgets.

Layers, bottom up:

* :mod:`repro.fleet.tree` — :class:`BudgetTree`: datacenter → row → rack →
  server budget descent whose interior nodes reuse the flat
  :mod:`repro.cluster.allocator` policies;
* :mod:`repro.fleet.engine` — :class:`FleetSimulation` over a pluggable
  :class:`FleetBackend` (:class:`ReferenceBackend` = N scalar engines);
* :mod:`repro.fleet.soa` — :class:`SoaFleetBackend`: the fleet as
  structure-of-arrays numpy state, bit-identical to the reference
  (``tests/fleet/test_differential.py``);
* :mod:`repro.fleet.scenarios` — registered recipes, and
  ``FleetScenario.build_fleet(backend, n_servers, seed)``, the one place a
  scenario becomes a :class:`FleetSimulation` (``soa_bank`` builds several
  of them on one SoA). A seed shifts every server's RNG streams and leaves
  the topology alone; reference-only scenarios refuse a nonzero seed.

A rack of hand-built servers is ``FleetSimulation(ReferenceBackend(
[FleetServer(...), ...]), budget_w, allocator)``.
"""

from .engine import FleetBackend, FleetBank, FleetServer, FleetSimulation, ReferenceBackend
from .scenarios import soa_bank
from .soa import DEFAULT_GPU_SPECS, SoaFleetBackend, SoaRows, SoaServerSpec, build_scalar_twin
from .tree import BudgetNode, BudgetTree

__all__ = [
    "BudgetNode",
    "BudgetTree",
    "FleetBackend",
    "FleetBank",
    "FleetServer",
    "FleetSimulation",
    "ReferenceBackend",
    "SoaFleetBackend",
    "SoaRows",
    "SoaServerSpec",
    "DEFAULT_GPU_SPECS",
    "build_scalar_twin",
    "soa_bank",
]
