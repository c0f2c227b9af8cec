"""Device abstractions: discrete frequency domains and powered devices.

Real CPUs/GPUs expose a *discrete* set of operating frequencies (P-states /
application clocks). The controller computes fractional targets; the
actuation layer (:mod:`repro.actuators`) resolves them onto this grid, via
delta-sigma modulation as described in Section 5 of the paper.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..errors import ActuationError, ConfigurationError
from ..units import require_monotonic, require_non_negative
from .power import DevicePowerModel

__all__ = ["FrequencyDomain", "Device"]


class FrequencyDomain:
    """An ordered grid of supported discrete frequencies, in MHz.

    Provides clamping, nearest-level snapping and level arithmetic (move up or
    down ``n`` levels) used by the fixed-step baselines and the delta-sigma
    modulator.
    """

    def __init__(self, levels_mhz: Iterable[float]):
        levels = require_monotonic(levels_mhz, "levels_mhz")
        self._levels = np.asarray(levels, dtype=np.float64)
        # Hot-path scalar metadata (property calls cost real time at ~2M
        # clamp/contains calls per simulated run).
        self._f_min = float(self._levels[0])
        self._f_max = float(self._levels[-1])
        self._level_set = frozenset(self._levels.tolist())
        # A grid is "uniform" only if every level is *exactly* f0 + i*pitch
        # in float64 — then nearest-level arithmetic can replace the
        # searchsorted walk with identical results (the server actuator
        # keys on this).
        if self._levels.size > 1:
            pitch = float(self._levels[1] - self._levels[0])
            exact = pitch > 0 and bool(
                np.all(
                    self._levels
                    == self._f_min + pitch * np.arange(self._levels.size)
                )
            )
            self._uniform_pitch = pitch if exact else None
        else:
            self._uniform_pitch = None

    @classmethod
    def from_range(cls, lo_mhz: float, hi_mhz: float, step_mhz: float) -> "FrequencyDomain":
        """Build a uniform grid ``lo, lo+step, ..., hi`` (inclusive of ``hi``)."""
        if step_mhz <= 0:
            raise ConfigurationError("step_mhz must be positive")
        if hi_mhz < lo_mhz:
            raise ConfigurationError("hi_mhz must be >= lo_mhz")
        n = int(round((hi_mhz - lo_mhz) / step_mhz))
        if abs(lo_mhz + n * step_mhz - hi_mhz) > 1e-9:
            raise ConfigurationError(
                f"range [{lo_mhz}, {hi_mhz}] is not an integer multiple of step {step_mhz}"
            )
        return cls(lo_mhz + step_mhz * np.arange(n + 1))

    @property
    def levels(self) -> np.ndarray:
        """Copy of the level grid in MHz (ascending)."""
        return self._levels.copy()

    @property
    def n_levels(self) -> int:
        return int(self._levels.size)

    @property
    def f_min(self) -> float:
        return self._f_min

    @property
    def f_max(self) -> float:
        return self._f_max

    @property
    def uniform_pitch_mhz(self) -> float | None:
        """Grid pitch when levels are exactly ``f_min + i*pitch``, else None."""
        return self._uniform_pitch

    @property
    def span(self) -> float:
        """``f_max - f_min`` in MHz."""
        return self.f_max - self.f_min

    def clamp(self, f_mhz: float) -> float:
        """Clamp a (possibly fractional) frequency into ``[f_min, f_max]``."""
        return float(min(max(f_mhz, self.f_min), self.f_max))

    def contains(self, f_mhz: float, tol: float = 1e-6) -> bool:
        """True if ``f_mhz`` is (within ``tol``) one of the discrete levels."""
        # Exact hits (the overwhelmingly common case: modulators emit grid
        # values verbatim) resolve through a set lookup; the tolerance scan
        # only runs for off-grid queries.
        if f_mhz in self._level_set:
            return True
        return bool(np.any(np.abs(self._levels - f_mhz) <= tol))

    def nearest(self, f_mhz: float) -> float:
        """Snap to the nearest discrete level (ties resolve downward)."""
        idx = self.nearest_index(f_mhz)
        return float(self._levels[idx])

    def nearest_index(self, f_mhz: float) -> int:
        """Index of the nearest discrete level (ties resolve downward)."""
        # searchsorted gives the insertion point; compare both neighbours.
        i = int(np.searchsorted(self._levels, f_mhz))
        if i == 0:
            return 0
        if i >= self._levels.size:
            return int(self._levels.size - 1)
        below, above = self._levels[i - 1], self._levels[i]
        return i - 1 if (f_mhz - below) <= (above - f_mhz) else i

    def floor(self, f_mhz: float) -> float:
        """Largest level <= ``f_mhz`` (or ``f_min`` if below the grid)."""
        i = int(np.searchsorted(self._levels, f_mhz, side="right")) - 1
        return float(self._levels[max(i, 0)])

    def ceil(self, f_mhz: float) -> float:
        """Smallest level >= ``f_mhz`` (or ``f_max`` if above the grid)."""
        i = int(np.searchsorted(self._levels, f_mhz, side="left"))
        return float(self._levels[min(i, self._levels.size - 1)])

    def step(self, f_mhz: float, n_levels: int) -> float:
        """Move ``n_levels`` grid positions from the level nearest ``f_mhz``.

        Saturates at the grid ends (the fixed-step baseline relies on this).
        """
        idx = self.nearest_index(f_mhz) + int(n_levels)
        idx = min(max(idx, 0), self._levels.size - 1)
        return float(self._levels[idx])

    def step_by_mhz(self, f_mhz: float, delta_mhz: float) -> float:
        """Move by approximately ``delta_mhz``, snapping to the grid.

        Used by the fixed-step baseline, whose step sizes (e.g. 90 MHz for
        GPUs, 100 MHz for CPUs) need not equal the grid pitch. Guarantees at
        least one level of movement when ``delta_mhz`` is non-zero and the
        grid end has not been reached.
        """
        if delta_mhz == 0.0:
            return self.nearest(f_mhz)
        target = self.nearest(self.clamp(f_mhz + delta_mhz))
        current = self.nearest(f_mhz)
        if target == current:
            target = self.step(current, 1 if delta_mhz > 0 else -1)
        return target

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FrequencyDomain({self.f_min:.0f}..{self.f_max:.0f} MHz, "
            f"{self.n_levels} levels)"
        )


class Device:
    """A powered device (CPU package or GPU) with a discrete frequency domain.

    The device holds its *applied* discrete frequency (what the modulator set
    this tick) and its current utilization in ``[0, 1]`` (set each tick by the
    workload model). :meth:`power_w` evaluates the ground-truth power model.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        domain: FrequencyDomain,
        power_model: DevicePowerModel,
        initial_frequency_mhz: float | None = None,
    ):
        if kind not in ("cpu", "gpu"):
            raise ConfigurationError(f"kind must be 'cpu' or 'gpu', got {kind!r}")
        self.name = str(name)
        self.kind = kind
        self.domain = domain
        self.power_model = power_model
        f0 = domain.f_min if initial_frequency_mhz is None else initial_frequency_mhz
        if not domain.contains(f0):
            raise ConfigurationError(
                f"initial frequency {f0} MHz is not a discrete level of {domain!r}"
            )
        self._frequency_mhz = float(f0)
        self._utilization = 1.0

    @property
    def frequency_mhz(self) -> float:
        """Currently applied discrete frequency."""
        return self._frequency_mhz

    @property
    def utilization(self) -> float:
        """Current busy fraction in ``[0, 1]``."""
        return self._utilization

    def apply_frequency(self, f_mhz: float) -> None:
        """Apply a discrete frequency level (actuators call this each tick)."""
        if not self.domain.contains(f_mhz):
            raise ActuationError(
                f"{self.name}: {f_mhz} MHz is not a supported discrete level"
            )
        self._frequency_mhz = float(f_mhz)

    def set_utilization(self, util: float) -> None:
        """Set the busy fraction for the current tick (clamped to [0, 1])."""
        require_non_negative(util, "utilization")
        self._utilization = float(min(util, 1.0))

    def _set_utilization_in_range(self, util: float) -> None:
        """Engine fast path: caller guarantees ``0 <= util <= 1`` already."""
        self._utilization = util

    def power_w(self) -> float:
        """Ground-truth power draw at the current frequency and utilization."""
        return self.power_model.power_w(self._frequency_mhz, self._utilization)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Device({self.name!r}, {self.kind}, f={self._frequency_mhz:.0f} MHz, "
            f"util={self._utilization:.2f})"
        )
