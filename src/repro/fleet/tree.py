"""Hierarchical budget allocation: datacenter -> row -> rack -> server.

"Power Aware Dynamic Reallocation for Inference" (PAPERS.md) motivates a
budget *hierarchy* rather than a flat per-rack split: a datacenter budget is
divided among rows, each row's share among its racks, and each rack's share
among its servers. :class:`BudgetTree` composes the existing flat
:class:`~repro.cluster.allocator.BudgetAllocator` policies into that shape —
every interior node runs one allocator over *aggregate* views of its
children, and the leaves hand per-server budgets to the fleet engine.

Aggregation gives an interior node exactly what a real power manager at that
level can see about a subtree: summed draw and summed achievable envelope,
a span-weighted demand signal, and the subtree's highest priority. A leaf's
"aggregate" is the server state itself, untouched — which makes a flat tree
(one root, N leaves) *bit-identical* to calling the allocator directly, the
equivalence the differential suite pins down.
"""

from __future__ import annotations

import numpy as np

from ..cluster.allocator import BudgetAllocator, ServerPowerState
from ..errors import ConfigurationError
from ..units import sum_in_order

__all__ = ["BudgetNode", "BudgetTree"]


class BudgetNode:
    """One node of a budget hierarchy.

    A *leaf* references one server by index into the fleet's state list
    (``allocator=None``, no children). An *interior* node owns a
    :class:`BudgetAllocator` and at least one child.
    """

    __slots__ = ("name", "allocator", "children", "leaf_index")

    def __init__(
        self,
        name: str,
        allocator: BudgetAllocator | None = None,
        children: list["BudgetNode"] | None = None,
        leaf_index: int | None = None,
    ):
        self.name = str(name)
        self.allocator = allocator
        self.children: tuple[BudgetNode, ...] = tuple(children or ())
        self.leaf_index = leaf_index
        if leaf_index is not None:
            if self.children or allocator is not None:
                raise ConfigurationError(
                    f"node {name!r}: a leaf has no children and no allocator"
                )
            if leaf_index < 0:
                raise ConfigurationError(f"node {name!r}: leaf_index must be >= 0")
        else:
            if not self.children:
                raise ConfigurationError(
                    f"node {name!r}: interior nodes need at least one child"
                )
            if allocator is None:
                raise ConfigurationError(
                    f"node {name!r}: interior nodes need an allocator"
                )

    @property
    def is_leaf(self) -> bool:
        return self.leaf_index is not None

    def leaves(self) -> list["BudgetNode"]:
        """All leaf nodes of this subtree, left to right."""
        if self.is_leaf:
            return [self]
        out: list[BudgetNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out


def _aggregate(node: BudgetNode, subs: list[ServerPowerState]) -> ServerPowerState:
    """The state a power manager one level up observes for interior
    ``node``, from its children's states ``subs`` (a leaf child's is its
    server state, untouched; the flat-tree equivalence relies on this).

    Draw and envelope are summed, demand is weighed by each child's
    controllable span (a big rack's demand counts proportionally; spanless
    children fall back to a plain mean) and the subtree's highest priority
    is exposed, so a priority policy above never starves a subtree holding
    high-priority servers.
    """
    p_min = sum_in_order(s.p_min_w for s in subs)
    p_max = sum_in_order(s.p_max_w for s in subs)
    power = sum_in_order(s.power_w for s in subs)
    spans = [s.p_max_w - s.p_min_w for s in subs]
    total_span = sum_in_order(spans)
    if total_span > 0:
        demand = sum_in_order(s.demand * w for s, w in zip(subs, spans)) / total_span
    else:
        demand = float(np.mean([s.demand for s in subs]))
    priority = max(s.priority for s in subs)
    return ServerPowerState(
        name=node.name,
        power_w=power,
        p_min_w=p_min,
        p_max_w=p_max,
        demand=demand,
        priority=priority,
    )


def _file_views(
    node: BudgetNode,
    states: list[ServerPowerState],
    views: dict[BudgetNode, list[ServerPowerState]],
) -> None:
    """File under interior ``node`` the states its allocator divides among:
    one per child, each interior child's aggregated from its own filed
    views. Bottom-up, so each subtree is aggregated once per round."""
    subs = []
    for child in node.children:
        if child.is_leaf:
            subs.append(states[child.leaf_index])
        else:
            _file_views(child, states, views)
            subs.append(_aggregate(child, views[child]))
    views[node] = subs


class BudgetTree:
    """A hierarchy of budget allocators over a fleet of servers.

    ``allocate`` descends from the root: each interior node divides its
    budget among its children using the node's own allocator over the
    children's aggregate states, and leaves collect their final share.
    Shortfall at any node follows the allocator contract (clamp-to-min with
    a :class:`~repro.errors.BudgetShortfallWarning`); a feasible parent
    budget always produces feasible child budgets, so the warning can only
    originate at the root.
    """

    def __init__(self, root: BudgetNode):
        if root.is_leaf:
            raise ConfigurationError("the root of a budget tree must be interior")
        self.root = root
        leaf_ids = [leaf.leaf_index for leaf in root.leaves()]
        self.n_servers = len(leaf_ids)
        if sorted(leaf_ids) != list(range(self.n_servers)):
            raise ConfigurationError(
                f"leaf indices must cover 0..{self.n_servers - 1} exactly "
                f"once, got {sorted(leaf_ids)}"
            )

    # -- construction helpers ----------------------------------------------

    @classmethod
    def flat(cls, allocator: BudgetAllocator, n_servers: int) -> "BudgetTree":
        """One root over ``n_servers`` leaves: the flat-rack special case.

        Equivalent, float for float, to ``allocator.allocate(budget, states)``.
        """
        if n_servers < 1:
            raise ConfigurationError("n_servers must be >= 1")
        leaves = [
            BudgetNode(f"server{i}", leaf_index=i) for i in range(n_servers)
        ]
        return cls(BudgetNode("rack", allocator=allocator, children=leaves))

    @classmethod
    def uniform(
        cls,
        allocator_factory,
        n_servers: int,
        servers_per_rack: int = 16,
        racks_per_row: int = 4,
    ) -> "BudgetTree":
        """Datacenter -> row -> rack -> server with uniform fan-out.

        ``allocator_factory`` is called once per interior node (``() ->
        BudgetAllocator``) so stateful policies never share instances across
        levels. The last rack/row may be ragged when the counts do not
        divide evenly.
        """
        if n_servers < 1:
            raise ConfigurationError("n_servers must be >= 1")
        if servers_per_rack < 1 or racks_per_row < 1:
            raise ConfigurationError("fan-out parameters must be >= 1")
        racks: list[BudgetNode] = []
        for r0 in range(0, n_servers, servers_per_rack):
            idxs = range(r0, min(r0 + servers_per_rack, n_servers))
            leaves = [BudgetNode(f"server{i}", leaf_index=i) for i in idxs]
            racks.append(
                BudgetNode(
                    f"rack{len(racks)}", allocator=allocator_factory(), children=leaves
                )
            )
        rows: list[BudgetNode] = []
        for w0 in range(0, len(racks), racks_per_row):
            rows.append(
                BudgetNode(
                    f"row{len(rows)}",
                    allocator=allocator_factory(),
                    children=racks[w0 : w0 + racks_per_row],
                )
            )
        return cls(BudgetNode("datacenter", allocator=allocator_factory(), children=rows))

    # -- allocation --------------------------------------------------------

    def allocate(
        self, budget_w: float, states: list[ServerPowerState]
    ) -> list[float]:
        """Per-server budgets (aligned with ``states``) for ``budget_w``."""
        if len(states) != self.n_servers:
            raise ConfigurationError(
                f"expected {self.n_servers} states, got {len(states)}"
            )
        views: dict[BudgetNode, list[ServerPowerState]] = {}
        _file_views(self.root, states, views)
        out: list[float] = [0.0] * self.n_servers
        self._descend(self.root, float(budget_w), views, out)
        return out

    def _descend(
        self,
        node: BudgetNode,
        budget_w: float,
        views: dict[BudgetNode, list[ServerPowerState]],
        out: list[float],
    ) -> None:
        if node.is_leaf:
            out[node.leaf_index] = budget_w
            return
        shares = node.allocator.allocate(budget_w, views[node])
        for child, share in zip(node.children, shares):
            self._descend(child, share, views, out)

    def describe(self) -> str:
        """One-line-per-node rendering (diagnostics and docs)."""
        lines: list[str] = []

        def walk(node: BudgetNode, depth: int) -> None:
            kind = (
                f"server[{node.leaf_index}]"
                if node.is_leaf
                else type(node.allocator).__name__
            )
            lines.append("  " * depth + f"{node.name}: {kind}")
            for child in node.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)
