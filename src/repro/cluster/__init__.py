"""Rack budget allocators for hierarchical power capping (extension).

See DESIGN.md: this layer implements the oversubscription context the paper
motivates (Dynamo-style budget reallocation), with CapGPU as the per-server
enforcement mechanism. Each allocator divides one budget among the servers
below it. A rack runs under one allocator as
``FleetSimulation(ReferenceBackend([FleetServer(...), ...]), budget_w,
allocator)`` (:mod:`repro.fleet`), and the interior nodes of a fleet's
budget tree reuse the same policies.
"""

from .allocator import (
    BudgetAllocator,
    FairShareAllocator,
    PriorityAllocator,
    ProportionalDemandAllocator,
    ServerPowerState,
)

__all__ = [
    "ServerPowerState",
    "BudgetAllocator",
    "FairShareAllocator",
    "ProportionalDemandAllocator",
    "PriorityAllocator",
]
