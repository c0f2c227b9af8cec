"""Figure 9 at fleet scale: budget reallocation over a server hierarchy.

The paper's single-server experiments cap one box. This extension runs the
same control stack under a datacenter → row → rack → server budget tree
(the oversubscription setting of Dynamo/SHIP in PAPERS.md): every budget
round the hierarchy reallocates the fleet budget from live telemetry, then
mid-run the datacenter budget is curtailed — the fleet-scale analog of
Figure 9's mid-run condition change — and every server's controller tracks
its new cap.

Runs on either fleet backend. The structure-of-arrays backend makes the
default 64-server fleet interactive and a 1024-server fleet practical; the
reference backend (N scalar engines) is bit-identical and serves as the
cross-check (``tests/fleet/test_differential.py``).
"""

from __future__ import annotations

import numpy as np

from ..analysis import format_table
from ..errors import ConfigurationError
from ..fleet.scenarios import fleet_scenario
from ..units import sum_in_order
from .common import ExperimentResult

__all__ = ["run_fig9_scale"]

#: Fraction of the fleet budget withdrawn at the mid-run curtailment. The
#: static-load scenarios budget ~730 W/server against a ~692 W achievable
#: floor, so 4% is a deep cut that stays feasible at every tree level.
CURTAIL_FRACTION = 0.04


def run_fig9_scale(
    seed: int = 0,
    n_servers: int = 64,
    backend: str | None = None,
    scenario: str = "tree-static",
    n_rack_periods: int = 6,
) -> ExperimentResult:
    """Hierarchical budget reallocation with a mid-run curtailment.

    Half the rack periods run at the full fleet budget, half after a
    :data:`CURTAIL_FRACTION` cut. Reported per round: the fleet budget, the
    summed per-server allocations (conservation), total measured power and
    its tracking error. The default backend follows the engine mode: ``soa``
    (bit-identical) under the reference engine, ``fast`` under
    ``--engine fast``.
    """
    if backend is None:
        from ..enginemode import fast_enabled

        backend = "fast" if fast_enabled() else "soa"
    if n_rack_periods < 2:
        raise ConfigurationError("n_rack_periods must be >= 2 (pre and post cut)")
    sc = fleet_scenario(scenario)
    if not sc.soa_capable:
        raise ConfigurationError(
            f"fleet scenario {scenario!r} is reference-only; "
            "fig9-scale needs a spec-built (static-load) scenario"
        )
    # Seeds re-randomize every server's noise, not the topology.
    fleet = sc.build_fleet(backend, n_servers, seed)
    try:
        full_budget_w = fleet.budget_w
        half = n_rack_periods // 2
        fleet.run(half)
        fleet.set_budget(full_budget_w * (1.0 - CURTAIL_FRACTION))
        fleet.run(n_rack_periods - half)
        powers = np.asarray(fleet.backend.last_powers())
    finally:
        fleet.backend.close()  # fast-parallel owns worker processes + shm

    result = ExperimentResult(
        "fig9-scale",
        f"Hierarchical budget reallocation over {fleet.n_servers} servers "
        f"({backend} backend)",
    )
    trace = fleet.trace
    names = fleet.backend.names
    rows = []
    for k in range(len(trace)):
        budget = float(trace["budget_w"][k])
        allocated = float(sum_in_order(trace[f"budget_{n}"][k] for n in names))
        total = float(trace["total_power_w"][k])
        rows.append(
            [int(trace["rack_period"][k]), budget, allocated, total, total - budget]
        )
    result.add(
        format_table(
            ["Round", "Budget (W)", "Allocated (W)", "Power (W)", "Error (W)"],
            rows,
            title=(
                f"Figure 9 at scale: {sc.description}; budget curtailed "
                f"{CURTAIL_FRACTION:.0%} after round {half - 1}"
            ),
            float_fmt="{:.1f}",
        )
    )
    result.add("Budget hierarchy:\n" + fleet.tree.describe())

    post = trace["total_power_w"][half:]
    post_budget = full_budget_w * (1.0 - CURTAIL_FRACTION)
    result.data["trace"] = trace
    result.data["n_servers"] = fleet.n_servers
    result.data["backend"] = backend
    result.data["final_powers_w"] = powers
    result.data["post_cut_tracking_err_w"] = float(np.mean(post - post_budget))
    return result
