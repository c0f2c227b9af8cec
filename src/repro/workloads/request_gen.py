"""Request arrival processes for inference pipelines.

The evaluation pipelines run with a saturated backlog (producers always have
images to preprocess), but the motivation experiment and the adaptability
study need shaped offered load: steady, Poisson, and bursty arrivals. A
process returns the (possibly fractional) number of image arrivals in each
simulation tick; the pipeline buffers them as pending work.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import ConfigurationError
from ..rng import BlockSampler
from ..units import require_non_negative, require_positive

__all__ = [
    "ArrivalProcess",
    "SaturatedArrivals",
    "SteadyArrivals",
    "PoissonArrivals",
    "BurstArrivals",
    "TraceArrivals",
]


class ArrivalProcess(ABC):
    """Offered load in images per second, evaluated tick by tick."""

    @abstractmethod
    def arrivals(self, t_s: float, dt_s: float) -> float:
        """Image arrivals during ``[t_s, t_s + dt_s)`` (may be fractional)."""

    def reset(self) -> None:
        """Clear internal state (default: stateless)."""


class SaturatedArrivals(ArrivalProcess):
    """Infinite backlog — producers never wait for work (evaluation default)."""

    def arrivals(self, t_s: float, dt_s: float) -> float:
        return float("inf")


class SteadyArrivals(ArrivalProcess):
    """Constant offered rate in images/s."""

    def __init__(self, rate_img_s: float):
        self.rate = require_non_negative(rate_img_s, "rate_img_s")

    def arrivals(self, t_s: float, dt_s: float) -> float:
        return self.rate * dt_s


class PoissonArrivals(ArrivalProcess):
    """Poisson arrivals with the given mean rate."""

    def __init__(self, rate_img_s: float, rng: np.random.Generator):
        self.rate = require_non_negative(rate_img_s, "rate_img_s")
        self._rng = rng
        # Per-tick counts are pre-drawn in blocks keyed on lambda = rate*dt
        # (batch draws consume the generator stream exactly like scalar
        # draws, so the arrival sequence is bit-identical). If the rate is
        # mutated mid-run the sampler re-keys, discarding any buffered
        # draws — the stream stays seeded-deterministic but diverges from
        # the scalar draw order from that point on.
        self._sampler: BlockSampler | None = None
        self._sampler_lam: float | None = None

    def arrivals(self, t_s: float, dt_s: float) -> float:
        lam = self.rate * dt_s
        if lam != self._sampler_lam:
            self._sampler = BlockSampler(self._rng, "poisson", (lam,))
            self._sampler_lam = lam
        return float(self._sampler.next())


class TraceArrivals(ArrivalProcess):
    """Rate schedule replayed from a recorded trace.

    ``times_s`` / ``rates_img_s`` define a right-continuous step function:
    the offered rate at time ``t`` is the rate of the last breakpoint at or
    before ``t`` (0 before the first breakpoint). ``loop`` repeats the
    schedule with the last breakpoint's time as the cycle length — useful
    for replaying a measured diurnal pattern.
    """

    def __init__(self, times_s, rates_img_s, loop: bool = False):
        import numpy as np

        t = np.asarray(times_s, dtype=np.float64)
        r = np.asarray(rates_img_s, dtype=np.float64)
        if t.ndim != 1 or t.shape != r.shape or t.size == 0:
            raise ConfigurationError("times_s and rates_img_s must be aligned 1-D")
        if np.any(np.diff(t) <= 0):
            raise ConfigurationError("times_s must be strictly increasing")
        if np.any(r < 0):
            raise ConfigurationError("rates must be >= 0")
        self._t = t
        self._r = r
        self.loop = bool(loop)

    def rate_at(self, t_s: float) -> float:
        """The offered rate at absolute time ``t_s``."""
        import numpy as np

        t = float(t_s)
        if self.loop:
            cycle = float(self._t[-1])
            if cycle > 0:
                t = t % cycle
        idx = int(np.searchsorted(self._t, t, side="right")) - 1
        if idx < 0:
            return 0.0
        return float(self._r[idx])

    def arrivals(self, t_s: float, dt_s: float) -> float:
        return self.rate_at(t_s) * dt_s


class BurstArrivals(ArrivalProcess):
    """Steady base rate with a rectangular burst window.

    Models the Section 6.4 scenario: a sudden surge of inference requests
    between ``burst_start_s`` and ``burst_end_s`` (during which the data
    center raises the power budget).
    """

    def __init__(
        self,
        base_rate_img_s: float,
        burst_rate_img_s: float,
        burst_start_s: float,
        burst_end_s: float,
    ):
        self.base = require_non_negative(base_rate_img_s, "base_rate_img_s")
        self.burst = require_positive(burst_rate_img_s, "burst_rate_img_s")
        if burst_end_s <= burst_start_s:
            raise ConfigurationError("burst_end_s must exceed burst_start_s")
        self.start = float(burst_start_s)
        self.end = float(burst_end_s)

    def arrivals(self, t_s: float, dt_s: float) -> float:
        rate = self.burst if self.start <= t_s < self.end else self.base
        return rate * dt_s
