"""GPU server model: host CPU(s) + multiple GPUs + platform components.

The server is the plant the controllers act on. It composes:

* a list of CPU packages and a list of GPUs (the controllable *channels*,
  ordered CPUs-then-GPUs as in the paper's ``F`` vector);
* a constant platform floor (motherboard, DRAM, NICs, storage, PSU losses);
* a fan bank (fixed speed per the paper's methodology);
* optional thermal nodes per device;
* an AR(1) power disturbance (applied at the wall, i.e. what the ACPI power
  meter sees on top of the component sum).

Only the telemetry layer reads :meth:`total_power_w`; controllers never see
ground truth directly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..rng import spawn
from ..units import require_non_negative, sum_in_order
from .cpu import CpuModel
from .device import Device
from .fan import FanModel
from .gpu import GpuModel
from .power import Ar1Noise
from .thermal import ThermalNode

__all__ = ["GpuServer", "ChannelRef"]


class ChannelRef:
    """Reference to one controllable frequency channel of a server.

    ``index`` is the position in the server-wide channel vector ``F``
    (CPUs first, then GPUs — the paper's ordering).
    """

    __slots__ = ("index", "kind", "device_index", "name")

    def __init__(self, index: int, kind: str, device_index: int, name: str):
        self.index = index
        self.kind = kind
        self.device_index = device_index
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ChannelRef({self.index}, {self.kind}{self.device_index}, {self.name!r})"


class GpuServer:
    """A multi-GPU inference server (the controlled plant).

    Parameters
    ----------
    cpus / gpus:
        Device models. At least one device overall is required.
    static_power_w:
        Constant platform floor in watts.
    fan:
        Fan model; defaults to a fixed-speed bank as in the paper.
    noise:
        Optional AR(1) wall-power disturbance. Pass ``None`` for a
        deterministic plant (useful in unit tests).
    thermal:
        If True, attach a :class:`ThermalNode` per device.
    seed:
        Root seed for the disturbance stream when ``noise`` is not given.
    noise_sigma_w / noise_rho:
        AR(1) parameters used when constructing the default disturbance.
    """

    def __init__(
        self,
        cpus: Sequence[CpuModel],
        gpus: Sequence[GpuModel],
        static_power_w: float = 180.0,
        fan: FanModel | None = None,
        noise: Ar1Noise | None = None,
        thermal: bool = False,
        seed: int | None = 0,
        noise_sigma_w: float = 3.5,
        noise_rho: float = 0.8,
    ):
        self.cpus = list(cpus)
        self.gpus = list(gpus)
        if not self.cpus and not self.gpus:
            raise ConfigurationError("server needs at least one device")
        self.static_power_w = require_non_negative(static_power_w, "static_power_w")
        self.fan = fan if fan is not None else FanModel()
        if noise is not None:
            self.noise = noise
        elif seed is None:
            self.noise = None
        else:
            self.noise = Ar1Noise(noise_sigma_w, noise_rho, spawn(seed, "server-wall-noise"))
        self._noise_value = 0.0
        #: CPU package subtotal as of the last :meth:`step_all` call.
        self.last_cpu_power_w = 0.0
        self.thermal_nodes: list[ThermalNode] | None = (
            [ThermalNode() for _ in self.devices] if thermal else None
        )
        self._channels = self._build_channels()
        devs = self.devices
        self._device_seq = tuple(devs)  # immutable hot-path view
        self._f_min_vec = np.array([d.domain.f_min for d in devs])
        self._f_max_vec = np.array([d.domain.f_max for d in devs])
        # Each device with its power-law coefficients as plain floats, for
        # step_all's loop: (device, idle, dyn, floor, 1 - floor, quad, f_ref).
        terms = []
        for d in devs:
            m = d.power_model
            floor = float(m.util_floor)
            terms.append((d, float(m.idle_w), float(m.dyn_w_per_mhz), floor, 1.0 - floor,
                          float(m.quad_w_per_mhz2), float(m.f_ref_mhz)))
        self._power_terms = tuple(terms)

    # -- structure ----------------------------------------------------------

    def _build_channels(self) -> list[ChannelRef]:
        chans: list[ChannelRef] = []
        for j, cpu in enumerate(self.cpus):
            chans.append(ChannelRef(len(chans), "cpu", j, f"cpu{j}:{cpu.name}"))
        for i, gpu in enumerate(self.gpus):
            chans.append(ChannelRef(len(chans), "gpu", i, f"gpu{i}:{gpu.name}"))
        return chans

    @property
    def channels(self) -> list[ChannelRef]:
        """Channel references, CPUs first then GPUs (paper's F ordering)."""
        return list(self._channels)

    @property
    def n_channels(self) -> int:
        return len(self._channels)

    @property
    def n_cpus(self) -> int:
        return len(self.cpus)

    @property
    def n_gpus(self) -> int:
        return len(self.gpus)

    @property
    def devices(self) -> list[Device]:
        """All devices in channel order."""
        return [*self.cpus, *self.gpus]

    def device(self, channel: int) -> Device:
        """Device backing channel ``channel``."""
        return self.devices[channel]

    def gpu_channel_indices(self) -> list[int]:
        """Channel indices of the GPUs."""
        return [c.index for c in self._channels if c.kind == "gpu"]

    def cpu_channel_indices(self) -> list[int]:
        """Channel indices of the CPUs."""
        return [c.index for c in self._channels if c.kind == "cpu"]

    # -- frequency vector ----------------------------------------------------

    def frequency_vector(self) -> np.ndarray:
        """Current applied frequencies ``F`` in MHz, channel order."""
        return np.array([d.frequency_mhz for d in self._device_seq])

    def f_min_vector(self) -> np.ndarray:
        """Per-channel minimum frequencies."""
        return self._f_min_vec.copy()

    def f_max_vector(self) -> np.ndarray:
        """Per-channel maximum frequencies."""
        return self._f_max_vec.copy()

    def utilization_vector(self) -> np.ndarray:
        """Current per-channel busy fractions."""
        return np.array([d.utilization for d in self._device_seq])

    def apply_frequency_levels(self, levels_mhz) -> None:
        """Set one discrete level per device, in channel order.

        Actuation-layer fast path: the caller (the server actuator)
        guarantees every entry is an exact grid level of the matching
        domain, so the per-device ``contains`` validation of
        :meth:`Device.apply_frequency` is skipped. Accepts an array or a
        plain list of floats; each device stores a plain float.
        """
        if isinstance(levels_mhz, np.ndarray):
            levels_mhz = levels_mhz.tolist()
        for d, f in zip(self._device_seq, levels_mhz):
            d._frequency_mhz = f

    # -- power ----------------------------------------------------------------

    def component_power_w(self) -> np.ndarray:
        """Per-channel device power (ground truth, no wall noise)."""
        return np.array([d.power_w() for d in self._device_seq])

    def cpu_power_w(self) -> float:
        """Total CPU package power (what RAPL would report)."""
        return float(sum_in_order(c.power_w() for c in self.cpus))

    def gpu_power_w(self, index: int | None = None) -> float:
        """Board power of one GPU, or of all GPUs when ``index`` is None."""
        if index is None:
            return float(sum_in_order(g.power_w() for g in self.gpus))
        return float(self.gpus[index].power_w())

    def total_power_w(self, include_noise: bool = True) -> float:
        """Wall power right now: devices + platform floor + fan + disturbance."""
        p = self.static_power_w + self.fan.power_w() + sum_in_order(
            d.power_w() for d in self._device_seq
        )
        if include_noise and self.noise is not None:
            p += self._noise_value
        return p

    def power_envelope_w(self, utilization: float = 1.0) -> tuple[float, float]:
        """Achievable (min, max) wall power at a fixed utilization.

        Used for set-point feasibility checks (Section 4.4's assumption).
        Noise is excluded — the envelope is the deterministic range.
        """
        lo = self.static_power_w + self.fan.power_w()
        hi = lo
        for d in self.devices:
            lo += d.power_model.power_w(d.domain.f_min, utilization)
            hi += d.power_model.power_w(d.domain.f_max, utilization)
        return lo, hi

    # -- time stepping ----------------------------------------------------------

    def advance(self, dt_s: float) -> None:
        """Advance server-internal dynamics by one tick.

        Samples the wall disturbance and, when thermal modelling is enabled,
        integrates device temperatures and updates the fan.
        """
        if self.noise is not None:
            self._noise_value = self.noise.sample()
        if self.thermal_nodes is not None:
            hottest = ThermalNode.step_many(
                self.thermal_nodes, [d.power_w() for d in self._device_seq], dt_s
            )
            self.fan.update(hottest)
        else:
            self.fan.update(None if self.fan.mode.value == "fixed" else self.fan.t_low_c)

    def step_all(self, dt_s: float) -> float:
        """Advance the plant one tick; returns wall power.

        The engine's per-tick plant update: :meth:`advance`, then one pass
        over the devices. The pass evaluates each device's power law with
        the IEEE operations of
        :meth:`~repro.hardware.power.DevicePowerModel.power_w` in the same
        order (utilization is already in ``[0, 1]``) and sums the powers
        left to right, on every server. As a side effect the CPU package
        subtotal is stashed in :attr:`last_cpu_power_w` (summed as
        :meth:`cpu_power_w` sums it) so the RAPL counter can integrate it
        without recomputing device powers.
        """
        self.advance(dt_s)
        n_cpu = len(self.cpus)
        cpu_p = 0.0
        total = 0.0
        for i, (d, idle, dyn, flo, omf, quad, fref) in enumerate(self._power_terms):
            f = d._frequency_mhz
            df = f - fref
            pw = idle + dyn * f * (flo + omf * d._utilization) + quad * df * df
            total += pw
            if i < n_cpu:
                cpu_p += pw
        self.last_cpu_power_w = cpu_p
        p = self.static_power_w + self.fan.power_w() + total
        if self.noise is not None:
            p += self._noise_value
        return p

    def reset(self) -> None:
        """Reset disturbances, temperatures and frequencies to initial state."""
        self._noise_value = 0.0
        if self.noise is not None:
            self.noise.reset()
        if self.thermal_nodes is not None:
            for node in self.thermal_nodes:
                node.reset()
        for d in self.devices:
            d.apply_frequency(d.domain.f_min)
            d.set_utilization(1.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GpuServer({self.n_cpus} CPU, {self.n_gpus} GPU, "
            f"static={self.static_power_w:.0f} W)"
        )
