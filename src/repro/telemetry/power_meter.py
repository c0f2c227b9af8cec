"""ACPI-style server power meter.

Reproduces the measurement path of Section 5: the testbed exposes a
``power_meter-acpi-0`` device through lm-sensors that samples wall power at
one-second intervals and appends readings to a sysfs file the controller
reads. We model:

* integration — each emitted sample is the *average* instantaneous power over
  the sampling interval (the meter integrates, it does not spot-sample);
* quantization — readings are quantized to the meter's resolution;
* sensor noise — additive Gaussian error per sample;
* a bounded ring buffer of recent samples with monotonically increasing
  sequence numbers, mirroring a file that is appended to and rotated.

The controller's view (``average_over_last``) is exactly what the paper's
controller computes: the mean of the samples that arrived during the last
control period.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import ConfigurationError, TelemetryError
from ..rng import BlockSampler
from ..units import require_positive

__all__ = ["AcpiPowerMeter", "PowerSample"]


class PowerSample:
    """One emitted meter reading."""

    __slots__ = ("seq", "time_s", "power_w")

    def __init__(self, seq: int, time_s: float, power_w: float):
        self.seq = seq
        self.time_s = time_s
        self.power_w = power_w

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PowerSample(seq={self.seq}, t={self.time_s:.1f}s, {self.power_w:.1f} W)"


class AcpiPowerMeter:
    """Integrating wall-power meter with periodic sample emission.

    Parameters
    ----------
    sample_interval_s:
        Interval between emitted samples (the paper's meter: 1 s).
    resolution_w:
        Quantization step of emitted readings.
    noise_sigma_w:
        Std of additive Gaussian sensor noise per sample.
    rng:
        Random generator for the sensor noise (required if noise > 0).
    buffer_len:
        Ring-buffer capacity (old samples are dropped like a rotated log).
    """

    def __init__(
        self,
        sample_interval_s: float = 1.0,
        resolution_w: float = 0.1,
        noise_sigma_w: float = 1.0,
        rng: np.random.Generator | None = None,
        buffer_len: int = 4096,
    ):
        self.sample_interval_s = require_positive(sample_interval_s, "sample_interval_s")
        self.resolution_w = require_positive(resolution_w, "resolution_w")
        if noise_sigma_w < 0:
            raise ConfigurationError("noise_sigma_w must be >= 0")
        if noise_sigma_w > 0 and rng is None:
            raise ConfigurationError("rng is required when noise_sigma_w > 0")
        self.noise_sigma_w = float(noise_sigma_w)
        self._rng = rng
        # Sensor-noise draws come from a block sampler — batch draws consume
        # the generator stream identically to scalar draws, so emitted
        # samples are bit-for-bit those of one draw per sample.
        self._noise_sampler = (
            BlockSampler(rng, "normal", (0.0, self.noise_sigma_w))
            if self.noise_sigma_w > 0
            else None
        )
        if buffer_len < 1:
            raise ConfigurationError("buffer_len must be >= 1")
        self._buffer: deque[PowerSample] = deque(maxlen=int(buffer_len))
        self._seq = 0
        self._accum_j = 0.0
        self._accum_t = 0.0
        self._time_s = 0.0

    # -- simulation side ------------------------------------------------------

    def accumulate(self, instantaneous_power_w: float, dt_s: float) -> PowerSample | None:
        """Feed one simulation tick of ground-truth power.

        Returns the newly emitted :class:`PowerSample` if the sampling
        interval elapsed during this tick, else ``None``.
        """
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        self._accum_j += instantaneous_power_w * dt_s
        self._accum_t += dt_s
        self._time_s += dt_s
        # Emit when a full interval has been integrated. Tick sizes are
        # expected to divide the interval; tolerate float drift.
        if self._accum_t + 1e-9 >= self.sample_interval_s:
            mean_w = self._accum_j / self._accum_t
            if self._noise_sampler is not None:
                mean_w += self._noise_sampler.next()
            quantized = round(mean_w / self.resolution_w) * self.resolution_w
            sample = PowerSample(self._seq, self._time_s, float(quantized))
            self._buffer.append(sample)
            self._seq += 1
            self._accum_j = 0.0
            self._accum_t = 0.0
            return sample
        return None

    def reset(self) -> None:
        """Clear the buffer and integration state."""
        self._buffer.clear()
        self._seq = 0
        self._accum_j = 0.0
        self._accum_t = 0.0
        self._time_s = 0.0

    # -- controller side -------------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Number of samples currently in the buffer."""
        return len(self._buffer)

    @property
    def total_emitted(self) -> int:
        """Total samples emitted since construction/reset."""
        return self._seq

    def latest(self) -> PowerSample:
        """Most recent sample; raises :class:`TelemetryError` when empty."""
        if not self._buffer:
            raise TelemetryError("power meter has produced no samples yet")
        return self._buffer[-1]

    def last_n(self, n: int) -> list[PowerSample]:
        """The most recent ``min(n, available)`` samples, oldest first."""
        if n < 0:
            raise ConfigurationError("n must be >= 0")
        if n == 0:
            return []
        items = list(self._buffer)
        return items[-n:]

    def average_over_last(self, n: int) -> float:
        """Mean power of the last ``n`` samples (the control-period average).

        This is the feedback value ``p(k)`` of the paper's control loop: the
        control period is a multiple of the sampling interval and the
        controller averages the samples that arrived within it.
        """
        samples = self.last_n(n)
        if not samples:
            raise TelemetryError("power meter has produced no samples yet")
        return float(np.mean([s.power_w for s in samples]))

    def samples_since(self, seq: int) -> list[PowerSample]:
        """All buffered samples with sequence number > ``seq``, oldest first."""
        return [s for s in self._buffer if s.seq > seq]

    def render_file(self, n: int = 32) -> str:
        """Render the last ``n`` samples in the lm-sensors text format.

        A fidelity aid: the real controller reads a text file updated by the
        meter. Format: one ``power1_average: <watts>`` line per sample.
        """
        return "\n".join(f"power1_average: {s.power_w:.1f}" for s in self.last_n(n))
