"""Fast-engine benches (the ``fast`` baseline namespace).

Every bench here carries the ``fast_engine`` marker, so the harness files
it under the ``fast`` engine namespace in ``BENCH_<sha>.json`` and
``repro bench-compare --engine fast`` diffs it against the fast baseline —
the reference namespace never sees these entries.

Two speedup acceptance benches (MPC-heavy fleet and the 1024-server
fleet round, both >= 5x over the reference backend) plus a deterministic
equivalence-margin bench that files how far inside the committed
tolerance envelopes the fast engine currently sits.
"""

import time

import numpy as np
import pytest

from repro.equiv import run_fleet_equivalence
from repro.fleet.scenarios import fleet_scenario

pytestmark = pytest.mark.fast_engine


def _file_fleet_metrics(benchmark, fleet):
    powers = np.asarray(fleet.backend.last_powers())
    assert np.isfinite(powers).all()
    benchmark.extra_info["final_total_w"] = round(float(powers.sum()), 1)
    benchmark.extra_info["mean_power_w"] = round(float(powers.mean()), 2)
    benchmark.extra_info["n_servers"] = fleet.n_servers


def test_bench_fast_mpc_fleet_speedup(benchmark):
    """Two MPC-heavy budget-reallocation rounds at 16 servers, fast vs
    reference, measured head-to-head. The reference pays one SLSQP solve
    per server per control period; the fast engine pays one batched
    pre-solved matmul per control period for the whole fleet plus the
    active-set projection for the rows a bound pins. The acceptance bar
    is >= 5x."""
    scenario = fleet_scenario("mpc-static")

    def measured():
        fast = scenario.build_fleet("fast", n_servers=16)
        fast.run(1)  # warm: gain-cache fill, noise-block refills
        t0 = time.perf_counter()
        fast.run(2)
        t_fast = time.perf_counter() - t0

        ref = scenario.build_fleet("reference", n_servers=16)
        ref.run(1)
        t0 = time.perf_counter()
        ref.run(2)
        t_ref = time.perf_counter() - t0
        return fast, t_fast, t_ref

    fast, t_fast, t_ref = benchmark.pedantic(measured, rounds=1, iterations=1)
    speedup = t_ref / t_fast
    print()
    print(
        f"mpc fleet n=16, 2 rounds: fast {t_fast * 1e3:.0f} ms, "
        f"reference {t_ref * 1e3:.0f} ms -> {speedup:.1f}x"
    )
    assert speedup >= 5.0
    # Headline *accuracy* numbers only: wall-clock ratios are hardware noise
    # and belong in the printed line, not the compared metrics.
    _file_fleet_metrics(benchmark, fast)


def test_bench_fast_fleet_1024_speedup(benchmark):
    """One budget-reallocation round over 1024 servers on the fast backend
    vs the reference backend (timed at 64 servers, extrapolated linearly —
    servers are independent, so reference cost is linear in N). Same
    acceptance shape as the SoA bench; the bar is >= 5x."""
    scenario = fleet_scenario("tree-static")

    def measured():
        fast = scenario.build_fleet("fast", n_servers=1024)
        fast.run(1)
        t0 = time.perf_counter()
        fast.run(1)
        t_fast = time.perf_counter() - t0

        ref = scenario.build_fleet("reference", n_servers=64)
        ref.run(1)
        t0 = time.perf_counter()
        ref.run(1)
        t_ref_64 = time.perf_counter() - t0
        return fast, t_fast, t_ref_64 * (1024 / 64)

    fast, t_fast, t_ref_1024 = benchmark.pedantic(measured, rounds=1, iterations=1)
    speedup = t_ref_1024 / t_fast
    print()
    print(
        f"1024-server round: fast {t_fast * 1e3:.0f} ms, "
        f"scalar (extrapolated) {t_ref_1024 * 1e3:.0f} ms -> {speedup:.1f}x"
    )
    assert speedup >= 5.0
    assert fast.trace.last("total_power_w") == pytest.approx(
        fast.budget_w, rel=0.05
    )
    _file_fleet_metrics(benchmark, fast)


def test_bench_fast_equivalence_margin(benchmark):
    """The registered mpc-static equivalence run, filed as metrics: the
    realized fast-vs-reference diffs per tolerance row. A creeping semantic
    regression in the fast engine shows up here as metric drift long before
    it breaches the hard envelopes that fail CI."""
    report = benchmark.pedantic(
        run_fleet_equivalence,
        kwargs={"scenario": "mpc-static", "n_rounds": 6},
        rounds=1,
        iterations=1,
    )
    print()
    print(report.render())
    assert report.ok
    for row in report.rows:
        benchmark.extra_info[f"{row.metric}_mean_diff"] = round(
            float(row.mean_abs_diff), 4
        )
        benchmark.extra_info[f"{row.metric}_max_diff"] = round(
            float(row.max_abs_diff), 4
        )
    benchmark.extra_info["n_servers"] = report.n_servers
