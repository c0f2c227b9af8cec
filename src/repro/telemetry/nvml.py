"""Simulated NVML (nvidia-smi) management interface.

The paper's baselines read per-GPU power through ``nvidia-smi`` and set
application clocks with ``nvidia-smi -ac <mem>,<core>``. This module exposes
the subset of the pynvml surface those code paths need, backed by the
simulated :class:`~repro.hardware.server.GpuServer`:

* handles per GPU index,
* board power in **milliwatts** (as pynvml reports it), with per-query
  sensor noise,
* current/supported application clocks,
* ``set_applications_clocks(mem, core)`` which snaps to the supported grid
  exactly like the real tool (invalid combinations are rejected).

Baselines use this instead of touching the server object directly, so their
information set matches what they would have on real hardware.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, TelemetryError
from ..hardware.server import GpuServer
from ..rng import BlockSampler
from ..units import milliwatts_to_watts, watts_to_milliwatts

__all__ = ["SimulatedNvml", "NvmlDeviceHandle"]


class NvmlDeviceHandle:
    """Opaque handle to one GPU, as returned by ``nvmlDeviceGetHandleByIndex``."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = int(index)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NvmlDeviceHandle({self.index})"


class SimulatedNvml:
    """pynvml-workalike bound to a simulated server.

    Parameters
    ----------
    server:
        The simulated plant.
    rng:
        Generator for per-query power-sensor noise.
    power_noise_sigma_w:
        Std of the per-query Gaussian error on board power (the real NVML
        power sensor is noticeably noisy; ~1 W is typical).
    """

    def __init__(
        self,
        server: GpuServer,
        rng: np.random.Generator | None = None,
        power_noise_sigma_w: float = 1.0,
    ):
        self._server = server
        if power_noise_sigma_w < 0:
            raise ConfigurationError("power_noise_sigma_w must be >= 0")
        if power_noise_sigma_w > 0 and rng is None:
            raise ConfigurationError("rng required when power_noise_sigma_w > 0")
        self._rng = rng
        self._sigma = float(power_noise_sigma_w)
        # Per-query sensor noise pre-drawn in blocks; batch draws consume the
        # generator stream identically to scalar draws (bit-identical values).
        self._noise_sampler = (
            BlockSampler(rng, "normal", (0.0, self._sigma)) if self._sigma > 0 else None
        )
        # Pending application-clock commands, applied by the actuation layer.
        self._pending_clocks: dict[int, float] = {}

    # -- discovery ---------------------------------------------------------

    def device_count(self) -> int:
        """Number of GPUs on the server (``nvmlDeviceGetCount``)."""
        return self._server.n_gpus

    def device_handle_by_index(self, index: int) -> NvmlDeviceHandle:
        """Handle for GPU ``index`` (``nvmlDeviceGetHandleByIndex``)."""
        if not 0 <= index < self._server.n_gpus:
            raise TelemetryError(f"GPU index {index} out of range")
        return NvmlDeviceHandle(index)

    def device_name(self, handle: NvmlDeviceHandle) -> str:
        """Marketing name of the GPU."""
        return self._server.gpus[handle.index].spec.name

    # -- sensors ------------------------------------------------------------

    def power_usage_mw(self, handle: NvmlDeviceHandle) -> float:
        """Instantaneous board power in milliwatts (``nvmlDeviceGetPowerUsage``)."""
        p = self._server.gpu_power_w(handle.index)
        if self._noise_sampler is not None:
            p += self._noise_sampler.next()
        return watts_to_milliwatts(max(p, 0.0))

    def total_gpu_power_w(self) -> float:
        """Sum of all boards' power in watts (convenience for GPU-side loops)."""
        total = 0.0
        for i in range(self._server.n_gpus):
            total += milliwatts_to_watts(self.power_usage_mw(self.device_handle_by_index(i)))
        return total

    def utilization_rates(self, handle: NvmlDeviceHandle) -> float:
        """GPU busy fraction in [0, 1] (``nvmlDeviceGetUtilizationRates``)."""
        return self._server.gpus[handle.index].utilization

    def clock_info_mhz(self, handle: NvmlDeviceHandle) -> float:
        """Current graphics clock in MHz (``nvmlDeviceGetClockInfo``)."""
        return self._server.gpus[handle.index].core_clock_mhz

    def supported_graphics_clocks(self, handle: NvmlDeviceHandle) -> list[float]:
        """Supported application core clocks at the fixed memory clock."""
        return list(self._server.gpus[handle.index].domain.levels)

    # -- actuation ------------------------------------------------------------

    def set_applications_clocks(
        self, handle: NvmlDeviceHandle, mem_mhz: float, core_mhz: float
    ) -> float:
        """Request application clocks (``nvidia-smi -ac mem,core``).

        The memory clock must match the board's fixed memory clock (as in the
        paper, which pins memory at 877 MHz). The core clock must be one of
        the supported levels — the real tool rejects off-grid values rather
        than rounding, and so do we. Returns the accepted core clock.

        The command is *staged*: the actuation layer picks it up and applies
        it at the next tick, modelling command latency.
        """
        gpu = self._server.gpus[handle.index]
        if abs(mem_mhz - gpu.memory_clock_mhz) > 1e-6:
            raise ConfigurationError(
                f"unsupported memory clock {mem_mhz} MHz (board uses "
                f"{gpu.memory_clock_mhz} MHz)"
            )
        if not gpu.domain.contains(core_mhz):
            raise ConfigurationError(
                f"unsupported core clock {core_mhz} MHz for {gpu.spec.name}"
            )
        self._pending_clocks[handle.index] = float(core_mhz)
        return float(core_mhz)

    def pop_pending_clock(self, index: int) -> float | None:
        """Actuation-layer hook: take (and clear) the staged clock command."""
        return self._pending_clocks.pop(index, None)
