"""Statistical equivalence between the fast and reference engines.

The fast engine (:mod:`repro.fast`) is allowed to change float semantics,
so its outputs can never be digest-compared to the reference. This module
is the trust bridge: it compares the two engines through *distributions of
closed-loop metrics* — per-server power tracking error, cap-violation
rates, and settle times — against the explicit tolerance table below.

Pairing, not pooling: both engines run the identical scenario (same specs,
same seeds, same RNG streams), so every fast server has a reference twin
and the comparison is on paired differences per metric. A paired test is
strictly stronger than comparing pooled distributions — a systematic
per-server bias that pooled summary statistics would average away shows up
directly.

The reference side runs on the SoA backend, which the differential suite
(``tests/fleet/test_differential.py``) pins bit-identical to N scalar
reference engines — so "SoA vs fast" *is* "reference vs fast", at fleet
scale, in test-friendly time.

The committed :data:`TOLERANCES` are the fast engine's semantic contract:
CI fails when any paired difference drifts past them, and any intentional
widening must edit this file (and justify itself in review). See
``docs/simulator.md`` for the contract's rationale and when to trust which
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .telemetry.trace import Trace

__all__ = [
    "ToleranceSpec",
    "TOLERANCES",
    "SETTLE_BAND_FRAC",
    "server_metrics",
    "fleet_server_metrics",
    "EquivRow",
    "EquivReport",
    "compare_backends",
    "compare_metrics",
    "compare_traces",
    "run_fleet_equivalence",
    "run_scalar_capgpu_equivalence",
]

#: Settle band: a server has settled once |power - set point| stays within
#: this fraction of the set point for the rest of the run.
SETTLE_BAND_FRAC = 0.05


@dataclass(frozen=True)
class ToleranceSpec:
    """Committed tolerance for one closed-loop metric.

    ``mean_tol`` bounds the mean absolute paired difference across servers;
    ``max_tol`` bounds the worst single server. Both must hold.
    """

    metric: str
    unit: str
    mean_tol: float
    max_tol: float
    description: str


#: The fast engine's semantic contract. Calibrated on the registered
#: static-load scenarios (mpc-static is the stressor: the analytic
#: projected MPC solve vs the reference SLSQP iteration is the only
#: relaxation in the fast engine; fixed-step rows step through the SoA's
#: own bank, so they reproduce the SoA bit for bit).
TOLERANCES: tuple[ToleranceSpec, ...] = (
    ToleranceSpec(
        metric="power_err_w",
        unit="W",
        mean_tol=5.0,
        max_tol=15.0,
        description="per-server mean |power - set point| over the run",
    ),
    ToleranceSpec(
        metric="violation_rate",
        unit="fraction",
        mean_tol=0.10,
        max_tol=0.25,
        description="fraction of periods whose peak power sample exceeds the cap",
    ),
    ToleranceSpec(
        metric="settle_periods",
        unit="periods",
        mean_tol=3.0,
        max_tol=8.0,
        description=f"periods to enter and hold the {SETTLE_BAND_FRAC:.0%} band",
    ),
)


def server_metrics(
    trace: Trace, settle_band_frac: float = SETTLE_BAND_FRAC
) -> dict[str, float]:
    """The equivalence metrics of one server's period trace.

    * ``power_err_w`` — mean absolute tracking error over periods with a
      finite power reading;
    * ``violation_rate`` — fraction of periods whose *peak* power sample
      (``power_max_w``) exceeds the period's set point (peak-based, like
      the paper's violation counting);
    * ``settle_periods`` — first period index from which the absolute error
      stays inside ``settle_band_frac * set_point`` for the rest of the
      run (the run length if it never settles; NaN errors never settle).
    """
    if len(trace) == 0:
        raise ConfigurationError("cannot compute equivalence metrics of an empty trace")
    return _metrics(
        trace["power_w"], trace["set_point_w"], trace["power_max_w"], settle_band_frac
    )


def fleet_server_metrics(
    power: np.ndarray,
    set_point: np.ndarray,
    peak: np.ndarray,
    settle_band_frac: float = SETTLE_BAND_FRAC,
) -> list[dict[str, float]]:
    """:func:`server_metrics` of every server, from ``(periods, servers)``
    blocks of the ``power_w``, ``set_point_w`` and ``power_max_w`` channels.

    Each server's means stay 1-D reductions over its own column: a
    reduction along the period axis of the block rounds differently.
    """
    if power.shape[0] == 0:
        raise ConfigurationError("cannot compute equivalence metrics of an empty trace")
    return [
        _metrics(power[:, i], set_point[:, i], peak[:, i], settle_band_frac)
        for i in range(power.shape[1])
    ]


def _metrics(
    power: np.ndarray, set_point: np.ndarray, peak: np.ndarray, settle_band_frac: float
) -> dict[str, float]:
    err = power - set_point
    finite = np.isfinite(err)
    abs_err = np.abs(err[finite])
    power_err_w = float(abs_err.mean()) if abs_err.size else float("nan")
    peak_finite = np.isfinite(peak)
    violations = (peak > set_point) & peak_finite
    violation_rate = (
        float(violations.sum() / peak_finite.sum()) if peak_finite.any() else float("nan")
    )
    band = settle_band_frac * np.abs(set_point)
    inside = finite & (np.abs(err) <= band)
    outside = np.flatnonzero(~inside)
    settle = int(outside[-1]) + 1 if outside.size else 0
    return {
        "power_err_w": power_err_w,
        "violation_rate": violation_rate,
        "settle_periods": float(settle),
    }


@dataclass(frozen=True)
class EquivRow:
    """Paired-difference summary of one metric across the fleet."""

    metric: str
    unit: str
    mean_abs_diff: float
    max_abs_diff: float
    mean_tol: float
    max_tol: float

    @property
    def ok(self) -> bool:
        # NaN differences (metric undefined on one side only) must fail.
        return bool(
            self.mean_abs_diff <= self.mean_tol and self.max_abs_diff <= self.max_tol
        )


@dataclass
class EquivReport:
    """Fast-vs-reference equivalence verdict for one scenario run."""

    scenario: str
    n_servers: int
    rows: list[EquivRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.rows) and all(row.ok for row in self.rows)

    def render(self) -> str:
        lines = [
            f"equivalence: {self.scenario} ({self.n_servers} servers), "
            f"paired |fast - reference| per metric",
        ]
        for row in self.rows:
            marker = "ok" if row.ok else "EXCEEDED"
            lines.append(
                f"  [{marker:>8s}] {row.metric}: mean {row.mean_abs_diff:.4g} "
                f"(tol {row.mean_tol:g}), max {row.max_abs_diff:.4g} "
                f"(tol {row.max_tol:g}) {row.unit}"
            )
        lines.append(
            "PASS: statistically equivalent" if self.ok else "FAIL: tolerance exceeded"
        )
        return "\n".join(lines)


def compare_traces(
    reference: list[Trace],
    fast: list[Trace],
    scenario: str = "custom",
    tolerances: tuple[ToleranceSpec, ...] = TOLERANCES,
) -> EquivReport:
    """Paired equivalence report from matched per-server trace lists."""
    return compare_metrics(
        [server_metrics(t) for t in reference],
        [server_metrics(t) for t in fast],
        scenario=scenario,
        tolerances=tolerances,
    )


def compare_metrics(
    ref_metrics: list[dict[str, float]],
    fast_metrics: list[dict[str, float]],
    scenario: str = "custom",
    tolerances: tuple[ToleranceSpec, ...] = TOLERANCES,
) -> EquivReport:
    """Paired equivalence report from matched per-server metrics
    (:func:`server_metrics` of each side's servers)."""
    if len(ref_metrics) != len(fast_metrics) or not ref_metrics:
        raise ConfigurationError(
            f"paired comparison needs equal nonempty server lists, got "
            f"{len(ref_metrics)} reference vs {len(fast_metrics)} fast"
        )
    report = EquivReport(scenario=scenario, n_servers=len(ref_metrics))
    for spec in tolerances:
        diffs = np.array(
            [
                fm[spec.metric] - rm[spec.metric]
                for rm, fm in zip(ref_metrics, fast_metrics)
            ],
            dtype=np.float64,
        )
        abs_diffs = np.abs(diffs)
        # NaN on both sides is agreement (0 diff); NaN on one side is a
        # real discrepancy and propagates to a failing NaN difference.
        both_nan = np.array(
            [
                np.isnan(rm[spec.metric]) and np.isnan(fm[spec.metric])
                for rm, fm in zip(ref_metrics, fast_metrics)
            ]
        )
        abs_diffs = np.where(both_nan, 0.0, abs_diffs)
        report.rows.append(
            EquivRow(
                metric=spec.metric,
                unit=spec.unit,
                mean_abs_diff=float(abs_diffs.mean()),
                max_abs_diff=float(abs_diffs.max()),
                mean_tol=spec.mean_tol,
                max_tol=spec.max_tol,
            )
        )
    return report


def compare_backends(
    reference, fast, scenario: str = "custom",
    tolerances: tuple[ToleranceSpec, ...] = TOLERANCES,
) -> EquivReport:
    """Paired equivalence report from two run fleet backends."""
    n = len(reference.specs)
    if n != len(fast.specs):
        raise ConfigurationError("backends hold different fleet sizes")
    return compare_traces(
        [reference.server_trace(i) for i in range(n)],
        [fast.server_trace(i) for i in range(n)],
        scenario=scenario,
        tolerances=tolerances,
    )


def run_fleet_equivalence(
    scenario: str = "mpc-static",
    n_servers: int | None = None,
    n_rounds: int = 8,
    backend: str = "fast",
    tolerances: tuple[ToleranceSpec, ...] = TOLERANCES,
    curtail_fraction: float = 0.04,
) -> EquivReport:
    """Run one registered scenario on both engines and compare.

    Both fleets run ``n_rounds`` budget rounds with a mid-run budget cut
    (``curtail_fraction``) so the comparison covers a transient — settle
    times are only meaningful when something changes. The reference side
    uses the SoA backend (differential-pinned bit-identical to the scalar
    reference); ``backend`` picks the fast side (``fast`` or
    ``fast-parallel``).
    """
    from .fleet.scenarios import fleet_scenario

    if backend not in ("fast", "fast-parallel"):
        raise ConfigurationError(
            f"equivalence compares the reference against a fast backend, "
            f"got {backend!r}"
        )
    if n_rounds < 2:
        raise ConfigurationError("n_rounds must be >= 2 (pre and post cut)")
    sc = fleet_scenario(scenario)
    fleets = []
    for be in ("soa", backend):
        fleet = sc.build_fleet(be, n_servers)
        half = n_rounds // 2
        fleet.run(half)
        fleet.set_budget(fleet.budget_w * (1.0 - curtail_fraction))
        fleet.run(n_rounds - half)
        fleets.append(fleet)
    try:
        report = compare_backends(
            fleets[0].backend, fleets[1].backend,
            scenario=scenario, tolerances=tolerances,
        )
    finally:
        for fleet in fleets:
            fleet.backend.close()
    return report


def run_scalar_capgpu_equivalence(
    seed: int = 0,
    set_point_w: float = 900.0,
    n_periods: int = 30,
    faults=None,
    tolerances: tuple[ToleranceSpec, ...] = TOLERANCES,
) -> EquivReport:
    """Single-server CapGPU equivalence on the scalar engine, faults allowed.

    Runs the paper scenario twice from identical seeds — once with the
    reference MPC, once under :func:`repro.enginemode.fast_engine` (which
    swaps in the pre-solved-gain solver at construction) — and compares the
    closed-loop metrics. ``faults`` (a :class:`repro.faults.FaultPlan`)
    exercises the degradation ladder under both engines; the scalar plant
    itself is engine-independent, so every difference is the solver's.
    """
    from .core import build_capgpu
    from .experiments.common import identified_model
    from .enginemode import fast_engine
    from .sim import paper_scenario

    traces = []
    for use_fast in (False, True):
        sim = paper_scenario(seed=seed, set_point_w=set_point_w, faults=faults)
        if use_fast:
            with fast_engine():
                controller = build_capgpu(sim, model=identified_model(0))
        else:
            controller = build_capgpu(sim, model=identified_model(0))
        traces.append(sim.run(controller, n_periods))
    return compare_traces(
        [traces[0]], [traces[1]],
        scenario="scalar-capgpu" + ("-faults" if faults is not None else ""),
        tolerances=tolerances,
    )
