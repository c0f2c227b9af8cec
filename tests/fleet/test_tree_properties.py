"""Property-based invariants of the hierarchical budget tree.

The load-bearing claim is the *flat-tree equivalence*: a one-level tree is
bit-identical (``==``, not approx) to calling the allocator directly, which
lets every flat-allocator property proven in
``tests/cluster/test_allocator_properties.py`` transfer to trees of depth
one for free. The remaining properties cover what depth adds: conservation
through every interior split, per-leaf envelope bounds, and shortfall
behavior (a warning can only originate at the root; below the floor every
leaf lands exactly on its minimum).
"""

import math
import warnings
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    FairShareAllocator,
    PriorityAllocator,
    ProportionalDemandAllocator,
    ServerPowerState,
)
from repro.errors import BudgetShortfallWarning, ConfigurationError
from repro.fleet import BudgetNode, BudgetTree
from repro.fleet import tree as tree_module

import pytest

server_strategy = st.builds(
    lambda pmin, span, demand, prio: (pmin, pmin + span, demand, prio),
    st.floats(min_value=300.0, max_value=900.0),
    st.floats(min_value=10.0, max_value=800.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=3),
)

ALLOCATOR_FACTORIES = [FairShareAllocator, ProportionalDemandAllocator, PriorityAllocator]


def make_states(raw):
    return [
        ServerPowerState(
            name=f"s{i}", power_w=pmin, p_min_w=pmin, p_max_w=pmax,
            demand=demand, priority=prio,
        )
        for i, (pmin, pmax, demand, prio) in enumerate(raw)
    ]


@st.composite
def fleet_case(draw, min_size=1, max_size=12):
    raw = draw(st.lists(server_strategy, min_size=min_size, max_size=max_size))
    states = make_states(raw)
    floor = sum(s.p_min_w for s in states)
    ceiling = sum(s.p_max_w for s in states)
    # An interior node re-sums minimums in its own (tree-shaped) association
    # order, which can land an ulp above the flat left-to-right floor; keep
    # drawn budgets strictly feasible at every node.
    budget = draw(st.floats(min_value=floor + 1e-6, max_value=ceiling * 1.5))
    return states, budget


@st.composite
def tree_shape(draw):
    """Fan-out parameters for BudgetTree.uniform (ragged shapes included)."""
    servers_per_rack = draw(st.integers(min_value=1, max_value=4))
    racks_per_row = draw(st.integers(min_value=1, max_value=3))
    return servers_per_rack, racks_per_row


# -- flat-tree equivalence ----------------------------------------------------


@given(fleet_case(max_size=6))
@settings(max_examples=60, deadline=None)
def test_property_flat_tree_is_bit_identical_to_allocator(case):
    states, budget = case
    for factory in ALLOCATOR_FACTORIES:
        direct = factory().allocate(budget, states)
        via_tree = BudgetTree.flat(factory(), len(states)).allocate(budget, states)
        assert via_tree == direct  # float for float, no tolerance


# -- conservation and bounds through the hierarchy ----------------------------


@given(fleet_case(), tree_shape())
@settings(max_examples=60, deadline=None)
def test_property_tree_conserves_budget_within_ulps(case, shape):
    """At every split the children receive at most the parent's share, so
    the leaves can only overshoot the root budget by accumulated rounding:
    one ulp per server is a safe bound for trees of this depth."""
    states, budget = case
    spr, rpr = shape
    for factory in ALLOCATOR_FACTORIES:
        tree = BudgetTree.uniform(
            factory, len(states), servers_per_rack=spr, racks_per_row=rpr
        )
        alloc = tree.allocate(budget, states)
        total = sum(alloc)
        slack = len(states) * math.ulp(max(abs(budget), abs(total), 1.0))
        assert total - budget <= slack


@given(fleet_case(), tree_shape())
@settings(max_examples=60, deadline=None)
def test_property_tree_respects_leaf_envelopes(case, shape):
    states, budget = case
    spr, rpr = shape
    for factory in ALLOCATOR_FACTORIES:
        tree = BudgetTree.uniform(
            factory, len(states), servers_per_rack=spr, racks_per_row=rpr
        )
        alloc = tree.allocate(budget, states)
        assert len(alloc) == len(states)
        for a, s in zip(alloc, states):
            assert s.p_min_w - 1e-6 <= a <= s.p_max_w + 1e-6


# -- one aggregate per subtree per round --------------------------------------


def interior_nodes_below_root(tree):
    stack, count = list(tree.root.children), 0
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            count += 1
            stack.extend(node.children)
    return count


def count_aggregates(tree, budget, states):
    """``(budgets, _aggregate calls)`` of one ``allocate``."""
    with mock.patch.object(
        tree_module, "_aggregate", wraps=tree_module._aggregate
    ) as spy:
        budgets = tree.allocate(budget, states)
    return budgets, spy.call_count


def reaggregating_allocate(tree, budget, states):
    """The descent as it was before each subtree was aggregated once per
    round: every level re-aggregates each child subtree from its leaves,
    with the same operands in the same order."""

    def aggregate(node):
        if node.is_leaf:
            return states[node.leaf_index]
        return tree_module._aggregate(node, [aggregate(c) for c in node.children])

    out = [0.0] * len(states)

    def descend(node, budget_w):
        if node.is_leaf:
            out[node.leaf_index] = budget_w
            return
        shares = node.allocator.allocate(budget_w, [aggregate(c) for c in node.children])
        for child, share in zip(node.children, shares):
            descend(child, share)

    descend(tree.root, float(budget))
    return out


@given(fleet_case(), tree_shape())
@settings(max_examples=60, deadline=None)
def test_property_each_subtree_is_aggregated_once_per_round(case, shape):
    """One ``_aggregate`` per interior node below the root (leaves pass
    their state through, the root's aggregate is never needed), and the
    budgets of the descent that re-aggregated each level, bit for bit."""
    states, budget = case
    spr, rpr = shape
    for factory in ALLOCATOR_FACTORIES:
        tree = BudgetTree.uniform(
            factory, len(states), servers_per_rack=spr, racks_per_row=rpr
        )
        budgets, calls = count_aggregates(tree, budget, states)
        assert calls == interior_nodes_below_root(tree)
        assert budgets == reaggregating_allocate(tree, budget, states)


@pytest.mark.parametrize("n, interior", [(8, 3), (1024, 384)])
def test_tree_static_round_aggregates(n, interior):
    """The ``tree-static`` shape (4 servers per rack, 2 racks per row): 2
    racks and a row at 8 servers; 256 racks and 128 rows at 1024."""
    tree = BudgetTree.uniform(FairShareAllocator, n, servers_per_rack=4, racks_per_row=2)
    states = make_states([(600.0 + i % 7, 1300.0, (i % 5) / 4, 0) for i in range(n)])
    budgets, calls = count_aggregates(tree, 730.0 * n, states)
    assert calls == interior_nodes_below_root(tree) == interior
    assert budgets == reaggregating_allocate(tree, 730.0 * n, states)


# -- shortfall behavior -------------------------------------------------------


@given(fleet_case(), tree_shape())
@settings(max_examples=40, deadline=None)
def test_property_feasible_root_budget_never_warns(case, shape):
    """A feasible parent budget produces feasible child budgets, so no
    interior node may warn when the root budget covers the fleet floor."""
    states, budget = case
    spr, rpr = shape
    for factory in ALLOCATOR_FACTORIES:
        tree = BudgetTree.uniform(
            factory, len(states), servers_per_rack=spr, racks_per_row=rpr
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", BudgetShortfallWarning)
            tree.allocate(budget, states)


@given(
    st.lists(server_strategy, min_size=1, max_size=12),
    tree_shape(),
    st.floats(min_value=0.0, max_value=0.99),
)
@settings(max_examples=40, deadline=None)
def test_property_root_shortfall_warns_once_and_clamps_leaves(raw, shape, frac):
    states = make_states(raw)
    floor = sum(s.p_min_w for s in states)
    budget = floor * frac
    spr, rpr = shape
    for factory in ALLOCATOR_FACTORIES:
        tree = BudgetTree.uniform(
            factory, len(states), servers_per_rack=spr, racks_per_row=rpr
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", BudgetShortfallWarning)
            alloc = tree.allocate(budget, states)
        assert alloc == [s.p_min_w for s in states]
        shortfalls = [w for w in caught if isinstance(w.message, BudgetShortfallWarning)]
        assert len(shortfalls) == 1  # the root, and only the root
        assert shortfalls[0].message.budget_w == budget


# -- construction validation --------------------------------------------------


class TestTreeValidation:
    def test_leaf_rejects_children_and_allocator(self):
        with pytest.raises(ConfigurationError):
            BudgetNode("bad", allocator=FairShareAllocator(), leaf_index=0)
        with pytest.raises(ConfigurationError):
            BudgetNode(
                "bad",
                children=[BudgetNode("leaf", leaf_index=0)],
                leaf_index=1,
            )

    def test_leaf_index_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            BudgetNode("bad", leaf_index=-1)

    def test_interior_requires_children_and_allocator(self):
        with pytest.raises(ConfigurationError):
            BudgetNode("bad", allocator=FairShareAllocator())
        with pytest.raises(ConfigurationError):
            BudgetNode("bad", children=[BudgetNode("leaf", leaf_index=0)])

    def test_root_must_be_interior(self):
        with pytest.raises(ConfigurationError):
            BudgetTree(BudgetNode("leaf", leaf_index=0))

    def test_leaf_indices_must_cover_range_exactly(self):
        gap = BudgetNode(
            "rack",
            allocator=FairShareAllocator(),
            children=[
                BudgetNode("a", leaf_index=0),
                BudgetNode("b", leaf_index=2),  # index 1 missing
            ],
        )
        with pytest.raises(ConfigurationError):
            BudgetTree(gap)
        dup = BudgetNode(
            "rack",
            allocator=FairShareAllocator(),
            children=[
                BudgetNode("a", leaf_index=0),
                BudgetNode("b", leaf_index=0),
            ],
        )
        with pytest.raises(ConfigurationError):
            BudgetTree(dup)

    def test_state_count_must_match(self):
        tree = BudgetTree.flat(FairShareAllocator(), 2)
        with pytest.raises(ConfigurationError):
            tree.allocate(2000.0, make_states([(700.0, 1300.0, 1.0, 0)]))

    def test_flat_and_uniform_validate_parameters(self):
        with pytest.raises(ConfigurationError):
            BudgetTree.flat(FairShareAllocator(), 0)
        with pytest.raises(ConfigurationError):
            BudgetTree.uniform(FairShareAllocator, 0)
        with pytest.raises(ConfigurationError):
            BudgetTree.uniform(FairShareAllocator, 4, servers_per_rack=0)
        with pytest.raises(ConfigurationError):
            BudgetTree.uniform(FairShareAllocator, 4, racks_per_row=0)

    def test_describe_renders_every_node(self):
        tree = BudgetTree.uniform(
            FairShareAllocator, 4, servers_per_rack=2, racks_per_row=1
        )
        text = tree.describe()
        assert "datacenter: FairShareAllocator" in text
        for i in range(4):
            assert f"server[{i}]" in text
