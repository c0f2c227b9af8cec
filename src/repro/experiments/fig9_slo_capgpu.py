"""Figure 9 — CapGPU under changing SLOs.

Same schedule as Figure 8 (50%-tail SLOs, period-14 switch: GPU 0 tightened
to 30%-tail, GPUs 1-2 relaxed to 80%-tail, 1000 W set point), but under
CapGPU, whose per-device frequency allocation and explicit Eq. 10b-c
constraints should keep every task's latency under its (changing) SLO —
the paper reports zero misses.
"""

from __future__ import annotations

from ..analysis import format_table
from .common import CheckpointPolicy, ExperimentResult, make_capgpu
from .fig8_slo_baselines import run_slo_strategy, summarize_slo_trace
from .slo_schedule import SLO_CHANGE_PERIOD

__all__ = ["run_fig9"]


def run_fig9(
    seed: int = 0,
    set_point_w: float = 1100.0,
    n_periods: int = 60,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
    resume: bool = False,
    stop_flag=None,
) -> ExperimentResult:
    """CapGPU under the Section 6.4 SLO schedule.

    The single long engine run makes this the checkpointing reference
    experiment: pass ``checkpoint_every``/``checkpoint_path`` (the CLI's
    ``--checkpoint-every``/``--checkpoint-file``) for periodic crash-safe
    saves, ``resume=True`` to continue from the newest checkpoint —
    bit-identical to an uninterrupted run either way.
    """
    checkpoint = None
    if checkpoint_every is not None or checkpoint_path is not None or resume:
        if checkpoint_path is None:
            raise ValueError("checkpointing requires checkpoint_path")
        checkpoint = CheckpointPolicy(
            path=checkpoint_path,
            every_n_periods=10 if checkpoint_every is None else checkpoint_every,
            resume=resume,
            stop_flag=stop_flag,
        )
    result = ExperimentResult("fig9", "Inference latency vs SLO under CapGPU")
    trace, sim = run_slo_strategy(
        "CapGPU",
        lambda s: make_capgpu(s, seed),
        seed,
        set_point_w,
        n_periods,
        checkpoint=checkpoint,
    )
    rows = summarize_slo_trace("CapGPU", trace, sim, result)
    result.add(
        format_table(
            ["Strategy", "Task", "Miss rate after switch"],
            rows,
            title=(
                "Figure 9: CapGPU deadline miss rates after the "
                f"period-{SLO_CHANGE_PERIOD} SLO change (paper: all SLOs met)"
            ),
            float_fmt="{:.3f}",
        )
    )
    result.data["trace"] = trace
    result.data["miss_rows"] = rows
    return result
