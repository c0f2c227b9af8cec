"""Coordinated batching + DVFS vs CapGPU (extension comparison).

Runs the [20]-style :class:`~repro.control.batch_dvfs.BatchDvfsController`
next to CapGPU and GPU-Only under the Section 6.4 SLO schedule. Batch
adaptation gives the shared-clock controller a second knob — it can shrink a
tightened task's batch instead of raising every GPU's clock — so it should
beat GPU-Only on SLO compliance; CapGPU's per-device clocks remain the most
precise instrument.
"""

from __future__ import annotations

import numpy as np

from ..analysis import format_table, slo_miss_rate, steady_state_stats
from ..control import BatchDvfsController
from ..core import group_gains
from ..sim import paper_scenario
from ..units import sum_in_order
from .common import (
    ExperimentResult,
    identified_model,
    make_capgpu,
    make_gpu_only,
    modulator_for,
    steady_window,
)
from .slo_schedule import SLO_CHANGE_PERIOD, initial_slos, section64_slo_events

__all__ = ["run_batching_comparison"]


def _make_batch_dvfs(sim, seed: int) -> BatchDvfsController:
    model = identified_model(seed)
    _, gpu_gain = group_gains(model, sim.cpu_channels, sim.gpu_channels)
    specs = {g: p.spec for g, p in enumerate(sim.pipelines) if p is not None}
    return BatchDvfsController(gpu_gain, specs)


def run_batching_comparison(
    seed: int = 0, set_point_w: float = 1100.0, n_periods: int = 60
) -> ExperimentResult:
    """SLO-schedule comparison: GPU-Only vs Batch+DVFS vs CapGPU."""
    result = ExperimentResult(
        "batching", "Coordinated batching+DVFS [20] vs CapGPU under SLOs"
    )
    strategies = [
        ("GPU-Only", lambda sim: make_gpu_only(sim, seed)),
        ("Batch+DVFS", lambda sim: _make_batch_dvfs(sim, seed)),
        ("CapGPU", lambda sim: make_capgpu(sim, seed)),
    ]
    rows = []
    data = {}
    for label, factory in strategies:
        sim = paper_scenario(
            seed=seed, set_point_w=set_point_w,
            modulator_factory=modulator_for(label),
        )
        for g, slo in enumerate(initial_slos(sim)):
            sim.set_slo(g, slo)
        events = section64_slo_events(sim)
        trace = sim.run(factory(sim), n_periods, events=events)
        steady = steady_window(n_periods)
        mean, std = steady_state_stats(trace, steady)
        misses = [
            slo_miss_rate(trace, g, start_period=SLO_CHANGE_PERIOD + 2)
            for g in range(sim.server.n_gpus)
        ]
        # Delivered images/s = batches/s x that pipeline's batch size.
        img_rate = sum_in_order(
            float(np.nanmean(trace[f"tput_{c}"][-steady:]))
            * sim.pipelines[g].batch_size
            for g, c in enumerate(sim.gpu_channels)
        )
        rows.append([label, mean, std, img_rate, *misses, max(misses)])
        data[label] = {
            "mean_w": mean, "std_w": std, "img_rate": img_rate,
            "misses": misses, "worst_miss": max(misses),
        }
    n_gpus = len(rows[0]) - 5
    result.add(
        format_table(
            ["Strategy", "Power W", "Std W", "Total img/s",
             *[f"miss GPU{g}" for g in range(n_gpus)], "worst miss"],
            rows,
            title=f"Batching comparison at {set_point_w:.0f} W "
                  "(Section 6.4 SLO schedule)",
            float_fmt="{:.3f}",
        )
    )
    result.data.update(data)
    return result
