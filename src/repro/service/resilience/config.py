"""Tunables of the self-healing service plane, in one frozen dataclass.

Defaults are generous enough that a healthy stream never notices the
machinery exists (the shed ladder only engages when the bounded queue
actually fills), while the chaos tests and the CI drill shrink them to
force every rung deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ConfigurationError
from ...faults.network import DEFAULT_MAX_LINE_BYTES
from ...units import require_non_negative, require_positive

__all__ = ["ResilienceConfig"]


@dataclass(frozen=True)
class ResilienceConfig:
    """Bounds, thresholds, and policies of the resilient serve loop.

    Queue / shed ladder
        ``queue_size`` bounds the ingestion queue (backpressure propagates
        to producers through ``await put``). The ladder rungs engage at
        occupancy fractions ``shed_late_frac`` (certainly-late events are
        dropped at the door), ``shed_shadows_frac`` (shadow equivalence
        deltas and on-demand what-ifs are shed), and
        ``deployed_only_frac`` (the shadows' summaries are shed too; the
        shadow twins keep stepping with the deployed twin's bank).
    Ingest guards
        ``max_line_bytes`` bounds one LDJSON frame; ``idle_timeout_s`` is
        the per-connection read deadline; ``max_conn_errors`` closes a
        connection that keeps sending garbage.
    Breaker / backoff
        Capped exponential backoff (``backoff_base_s``..``backoff_cap_s``)
        with deterministic seeded jitter; breakers open after
        ``breaker_failures`` consecutive failures and probe half-open
        after the cooldown.
    Supervisor
        The twin task is restarted up to ``max_restarts`` consecutive
        times (crash or stall); ``stall_checks`` no-progress probes
        ``probe_interval_s`` apart declare a stall. A window close resets
        the consecutive-failure count.
    HTTP degradation
        ``retry_after_s`` is the ``Retry-After`` hint served with 503s
        while the plane is degraded.
    """

    queue_size: int = 256
    shed_late_frac: float = 0.25
    shed_shadows_frac: float = 0.5
    deployed_only_frac: float = 0.75
    late_horizon_s: float = 0.0
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES
    idle_timeout_s: float | None = 30.0
    max_conn_errors: int = 100
    breaker_failures: int = 5
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    max_restarts: int = 5
    stall_checks: int = 4
    probe_interval_s: float = 0.25
    retry_after_s: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.queue_size < 1:
            raise ConfigurationError("queue_size must be >= 1")
        fracs = (
            self.shed_late_frac,
            self.shed_shadows_frac,
            self.deployed_only_frac,
        )
        if not all(0.0 < f <= 1.0 for f in fracs):
            raise ConfigurationError("shed fractions must lie in (0, 1]")
        if not (
            self.shed_late_frac
            <= self.shed_shadows_frac
            <= self.deployed_only_frac
        ):
            raise ConfigurationError(
                "shed fractions must be ordered: late <= shadows <= deployed-only"
            )
        require_non_negative(self.late_horizon_s, "late_horizon_s")
        if self.max_line_bytes < 2:
            raise ConfigurationError("max_line_bytes must be >= 2")
        if self.idle_timeout_s is not None:
            require_positive(self.idle_timeout_s, "idle_timeout_s")
        if self.max_conn_errors < 1:
            raise ConfigurationError("max_conn_errors must be >= 1")
        if self.breaker_failures < 1:
            raise ConfigurationError("breaker_failures must be >= 1")
        require_positive(self.backoff_base_s, "backoff_base_s")
        require_positive(self.backoff_cap_s, "backoff_cap_s")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ConfigurationError(
                "backoff must satisfy 0 < base <= cap"
            )
        if self.max_restarts < 0:
            raise ConfigurationError("max_restarts must be >= 0")
        if self.stall_checks < 1:
            raise ConfigurationError("stall_checks must be >= 1")
        require_positive(self.probe_interval_s, "probe_interval_s")
        require_positive(self.retry_after_s, "retry_after_s")
