"""Per-channel and server-wide frequency actuation.

The actuation layer sits between controllers (which emit fractional targets
once per control period) and devices (which accept one discrete level per
simulation tick):

* :class:`ChannelActuator` owns the modulator for one device and applies one
  level per tick;
* :class:`ServerActuator` fans a target vector out to all channels, tracks
  the tick-averaged *applied* frequency per control period (what the
  controller's incremental model should see as ``F(k-1)``), and models a
  one-tick command latency: a target set during tick ``t`` first affects the
  level applied at tick ``t+1`` — like writing a sysfs file that the
  governor picks up on its next update.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..errors import ActuationError, ConfigurationError
from ..hardware.device import Device
from ..hardware.server import GpuServer
from .modulator import DeltaSigmaModulator, Modulator, NearestLevelModulator

__all__ = ["ChannelActuator", "ServerActuator"]


class ChannelActuator:
    """Actuates a single device through a modulator."""

    def __init__(self, device: Device, modulator: Modulator | None = None):
        self.device = device
        self.modulator = modulator if modulator is not None else DeltaSigmaModulator(device.domain)
        self._target_mhz = device.frequency_mhz
        self._pending_mhz: float | None = None

    @property
    def target_mhz(self) -> float:
        """Currently active (possibly fractional) target."""
        return self._target_mhz

    def set_target(self, f_mhz: float) -> None:
        """Stage a new fractional target (takes effect next tick)."""
        if not np.isfinite(f_mhz):
            raise ActuationError(f"{self.device.name}: non-finite target {f_mhz!r}")
        self._pending_mhz = self.device.domain.clamp(float(f_mhz))

    def tick(self) -> float:
        """Apply one modulated discrete level; returns the applied level."""
        if self._pending_mhz is not None:
            self._target_mhz = self._pending_mhz
            self._pending_mhz = None
        level = self.modulator.next_level(self._target_mhz)
        self.device.apply_frequency(level)
        return level

    def reset(self) -> None:
        """Clear modulator state and pending commands; target = current freq."""
        self.modulator.reset()
        self._pending_mhz = None
        self._target_mhz = self.device.frequency_mhz


class ServerActuator:
    """Vector actuation across all channels of a server.

    Parameters
    ----------
    server:
        The plant.
    modulator_factory:
        :class:`DeltaSigmaModulator` (the paper's scheme, the default) or
        :class:`NearestLevelModulator` (the ablation baseline). Either is
        rolled out for all channels in one pass per tick; any other factory
        raises :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, server: GpuServer, modulator_factory=None):
        factory = modulator_factory if modulator_factory is not None else DeltaSigmaModulator
        if factory not in (DeltaSigmaModulator, NearestLevelModulator):
            raise ConfigurationError(
                "ServerActuator rolls out DeltaSigmaModulator or "
                f"NearestLevelModulator, not {factory!r}"
            )
        self.server = server
        self.channels = [ChannelActuator(d, factory(d.domain)) for d in server.devices]
        n = len(self.channels)
        # The rollout below reproduces the channels' modulators bit for bit.
        # State lives in plain Python float lists, not numpy arrays: at the
        # handful of channels a server has, scalar IEEE arithmetic is both
        # bit-identical to the vector expressions and severalfold cheaper
        # per tick. A channel whose grid is exactly uniform snaps to its
        # nearest level by index arithmetic (the levels reconstruct as
        # ``f_min + pitch*k`` bit for bit, and comparing both neighbours
        # keeps the resolve-ties-down rule); any other grid snaps through
        # FrequencyDomain.nearest itself.
        domains = [d.domain for d in server.devices]
        self._domains = domains
        self._delta_sigma = factory is DeltaSigmaModulator
        self._f_min = [dom.f_min for dom in domains]
        self._f_max = [dom.f_max for dom in domains]
        self._grid_pitch = [dom.uniform_pitch_mhz for dom in domains]
        self._k_max = [float(dom.n_levels - 2) for dom in domains]
        self._tgt = [c.target_mhz for c in self.channels]
        self._stale_targets = True
        # Applied levels of the current tick. Nearest-level modulation is
        # stateless, so for it they are recomputed only on promotion.
        self._applied = [0.0] * n
        if self._delta_sigma:
            # The anti-windup bound each DeltaSigmaModulator computed for
            # itself — read back so the clip is bitwise the scalar one.
            self._err_bound = [c.modulator._pitch for c in self.channels]
            self._err = [0.0] * n
        self._applied_sum = [0.0] * n
        self._applied_ticks = 0

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def targets(self) -> np.ndarray:
        """Vector of active targets in MHz."""
        return np.array([c.target_mhz for c in self.channels], dtype=np.float64)

    def set_targets(self, f_mhz: Sequence[float]) -> None:
        """Stage a full target vector (length must match channel count)."""
        arr = np.asarray(f_mhz, dtype=np.float64)
        if arr.shape != (len(self.channels),):
            raise ActuationError(
                f"expected {len(self.channels)} targets, got shape {arr.shape}"
            )
        for chan, f in zip(self.channels, arr):
            chan.set_target(float(f))
        self._stale_targets = True

    def set_target(self, channel: int, f_mhz: float) -> None:
        """Stage a target for one channel."""
        self.channels[channel].set_target(f_mhz)
        self._stale_targets = True

    def tick(self):
        """Advance all modulators one tick; returns the applied discrete levels.

        The returned list may be overwritten by the next tick; the engine
        does not read it (it reads the devices).
        """
        if self._stale_targets:
            # Promote pending commands (the one-tick latency) and refresh
            # the target vector; between control periods this is skipped.
            tgt = self._tgt
            for i, c in enumerate(self.channels):
                if c._pending_mhz is not None:
                    c._target_mhz = c._pending_mhz
                    c._pending_mhz = None
                tgt[i] = c._target_mhz
            self._stale_targets = False
            if not self._delta_sigma:
                self._applied = [self._snap_to_level(t, i) for i, t in enumerate(tgt)]
        applied = self._applied
        if self._delta_sigma:
            # The delta-sigma rollout of DeltaSigmaModulator.next_level,
            # unrolled over channels with every float op in the modulator's
            # order — bitwise the same levels and error state. Targets are
            # already domain-clamped by set_target.
            snap = self._snap_to_level
            tgt = self._tgt
            err = self._err
            bound = self._err_bound
            for i in range(len(applied)):
                desired = tgt[i] + err[i]
                applied[i] = level = snap(desired, i)
                e = desired - level
                b = bound[i]
                err[i] = -b if e < -b else (b if e > b else e)
        self.server.apply_frequency_levels(applied)
        s = self._applied_sum
        for i, a in enumerate(applied):
            s[i] += a
        self._applied_ticks += 1
        return applied

    def _snap_to_level(self, desired: float, i: int) -> float:
        """Snap one desired frequency to channel ``i``'s nearest level."""
        lo = self._f_min[i]
        hi = self._f_max[i]
        clipped = lo if desired < lo else (hi if desired > hi else desired)
        p = self._grid_pitch[i]
        if p is None:
            return self._domains[i].nearest(clipped)
        k = math.floor((clipped - lo) / p)
        km = self._k_max[i]
        if k > km:
            k = km
        below = lo + p * k
        above = lo + p * (k + 1.0)
        return below if (clipped - below) <= (above - clipped) else above

    def applied_average_and_reset(self) -> np.ndarray:
        """Tick-averaged applied frequencies since the last call.

        This is the effective ``F(k-1)`` the plant actually experienced over
        the elapsed control period (the whole point of delta-sigma: the
        average, not any single level, tracks the fractional command).
        """
        if self._applied_ticks == 0:
            return self.targets()
        s = self._applied_sum
        avg = np.array(s, dtype=np.float64) / self._applied_ticks
        for i in range(len(s)):
            s[i] = 0.0
        self._applied_ticks = 0
        return avg

    def reset(self) -> None:
        """Reset all channel actuators and the averaging window."""
        for c in self.channels:
            c.reset()
        n = len(self.channels)
        self._applied_sum = [0.0] * n
        self._applied_ticks = 0
        self._stale_targets = True
        if self._delta_sigma:
            self._err = [0.0] * n

