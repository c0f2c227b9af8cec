"""Rack-level budget allocators (extension beyond the paper).

The paper's context is power oversubscription: a rack (or data center) holds
a budget below the sum of its servers' peaks, and a manager — Meta's Dynamo,
Google's priority-aware capping, SHIP [29] — divides it among servers, each
of which enforces its share with a server-level capper such as CapGPU. This
module supplies that upper layer for our simulated servers.

An allocator receives one :class:`ServerPowerState` per server (what a rack
manager can measure: current draw, achievable envelope, a demand signal,
a priority weight) and returns per-server budgets that

* never drop below a server's achievable minimum (it could not comply),
* never exceed its achievable maximum (wasted budget), and
* sum to at most the rack budget.

Implemented policies:

* :class:`FairShareAllocator` — equal split of the controllable range;
* :class:`ProportionalDemandAllocator` — headroom proportional to measured
  demand (throughput-starved servers get more, like Dynamo's workload-aware
  groups);
* :class:`PriorityAllocator` — water-filling by strict priority tiers
  (high-priority servers are satisfied first, as in [16, 24]).
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import BudgetShortfallWarning, ConfigurationError
from ..units import sum_in_order

__all__ = [
    "ServerPowerState",
    "BudgetAllocator",
    "FairShareAllocator",
    "ProportionalDemandAllocator",
    "PriorityAllocator",
]


@dataclass(frozen=True)
class ServerPowerState:
    """What the rack manager knows about one server.

    ``demand`` is a non-negative scalar expressing how much the server would
    benefit from more budget (e.g. 1 - mean normalized throughput, or queue
    growth); ``priority`` orders servers for the priority policy (higher =
    more important).
    """

    name: str
    power_w: float
    p_min_w: float
    p_max_w: float
    demand: float = 1.0
    priority: int = 0

    def __post_init__(self):
        if self.p_min_w > self.p_max_w:
            raise ConfigurationError(f"{self.name}: p_min exceeds p_max")
        if self.demand < 0:
            raise ConfigurationError(f"{self.name}: demand must be >= 0")


def _validate(states: list[ServerPowerState], budget_w: float) -> list[float] | None:
    """Shared precondition check; returns a clamped allocation on shortfall.

    When ``budget_w`` is below the sum of server minimums no allocator can
    satisfy both the budget and the per-server floors. The defined behavior
    (property-tested) is clamp-to-min: every server receives exactly its
    ``p_min_w`` and a :class:`~repro.errors.BudgetShortfallWarning` carries
    the structured deficit. Returns ``None`` when the budget is feasible and
    the caller should run its policy.
    """
    if not states:
        raise ConfigurationError("need at least one server state")
    floor = sum_in_order(s.p_min_w for s in states)
    if budget_w < floor:
        warnings.warn(BudgetShortfallWarning(budget_w, floor), stacklevel=3)
        return [s.p_min_w for s in states]
    return None


def _water_fill(
    states: list[ServerPowerState], budget_w: float, weights: np.ndarray
) -> list[float]:
    """Guarantee every minimum, then split the surplus by weight, capping at
    each server's maximum and redistributing until no budget is stranded."""
    alloc = np.array([s.p_min_w for s in states], dtype=np.float64)
    caps = np.array([s.p_max_w for s in states], dtype=np.float64)
    surplus = budget_w - float(alloc.sum())
    w = np.asarray(weights, dtype=np.float64).copy()
    active = (caps - alloc) > 1e-9
    for _ in range(len(states) + 1):
        if surplus <= 1e-9 or not np.any(active):
            break
        w_active = np.where(active, w, 0.0)
        total_w = float(w_active.sum())
        if total_w <= 0:
            # No remaining weight: spread evenly across non-saturated servers.
            w_active = active.astype(np.float64)
            total_w = float(w_active.sum())
        share = surplus * w_active / total_w
        new_alloc = np.minimum(alloc + share, caps)
        surplus -= float((new_alloc - alloc).sum())
        alloc = new_alloc
        active = (caps - alloc) > 1e-9
    return [float(a) for a in alloc]


class BudgetAllocator(ABC):
    """Divides a rack budget among servers."""

    @abstractmethod
    def allocate(self, budget_w: float, states: list[ServerPowerState]) -> list[float]:
        """Return one budget per server (aligned with ``states``)."""


class FairShareAllocator(BudgetAllocator):
    """Equal share of the surplus above every server's minimum."""

    def allocate(self, budget_w: float, states: list[ServerPowerState]) -> list[float]:
        clamped = _validate(states, budget_w)
        if clamped is not None:
            return clamped
        return _water_fill(states, budget_w, np.ones(len(states)))


class ProportionalDemandAllocator(BudgetAllocator):
    """Surplus proportional to each server's demand signal.

    A floor keeps zero-demand servers from being starved outright (they
    still receive a trickle so a demand spike can be detected next round).
    """

    def __init__(self, demand_floor: float = 0.05):
        if demand_floor < 0:
            raise ConfigurationError("demand_floor must be >= 0")
        self.demand_floor = float(demand_floor)

    def allocate(self, budget_w: float, states: list[ServerPowerState]) -> list[float]:
        clamped = _validate(states, budget_w)
        if clamped is not None:
            return clamped
        weights = np.array(
            [max(s.demand, self.demand_floor) for s in states], dtype=np.float64
        )
        return _water_fill(states, budget_w, weights)


class PriorityAllocator(BudgetAllocator):
    """Strict priority tiers: satisfy higher tiers to their maximum first.

    Within a tier the surplus splits evenly. This mirrors priority-aware
    capping [16, 24], where best-effort servers absorb the shortfall.
    """

    def allocate(self, budget_w: float, states: list[ServerPowerState]) -> list[float]:
        clamped = _validate(states, budget_w)
        if clamped is not None:
            return clamped
        alloc = {i: s.p_min_w for i, s in enumerate(states)}
        surplus = budget_w - sum_in_order(alloc.values())
        for prio in sorted({s.priority for s in states}, reverse=True):
            tier = [i for i, s in enumerate(states) if s.priority == prio]
            tier_states = [states[i] for i in tier]
            tier_budget = sum_in_order(alloc[i] for i in tier) + surplus
            tier_alloc = _water_fill(
                tier_states,
                min(tier_budget, sum_in_order(s.p_max_w for s in tier_states)),
                np.ones(len(tier)),
            )
            spent = sum_in_order(tier_alloc) - sum_in_order(alloc[i] for i in tier)
            surplus -= spent
            for i, a in zip(tier, tier_alloc):
                alloc[i] = a
            if surplus <= 1e-9:
                break
        return [alloc[i] for i in range(len(states))]
