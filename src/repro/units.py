"""Unit conversions, validation helpers and an order-fixed float sum.

Internal convention of the whole package:

* frequencies are **MHz** (``float``) — matches ``nvidia-smi`` output and
  keeps CPU (1000-2400) and GPU (435-1350) knobs on comparable scales, which
  conditions the MPC Hessian far better than mixing GHz and MHz;
* power is **watts**;
* energy is **joules** (RAPL exposes microjoules; the adapter converts);
* time is **seconds**.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import TYPE_CHECKING

from .errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only; keeps runtime numpy-free
    import numpy as np
    import numpy.typing as npt

__all__ = [
    "MHZ_PER_GHZ",
    "ghz_to_mhz",
    "mhz_to_ghz",
    "watts_to_milliwatts",
    "milliwatts_to_watts",
    "joules_to_microjoules",
    "microjoules_to_joules",
    "microjoules_to_joules_array",
    "joules_to_kilojoules",
    "kilojoules_to_joules",
    "seconds_to_milliseconds",
    "milliseconds_to_seconds",
    "require_positive",
    "require_non_negative",
    "require_in_range",
    "require_monotonic",
    "sum_in_order",
]

MHZ_PER_GHZ = 1000.0


def ghz_to_mhz(ghz: float) -> float:
    """Convert gigahertz to megahertz."""
    return float(ghz) * MHZ_PER_GHZ


def mhz_to_ghz(mhz: float) -> float:
    """Convert megahertz to gigahertz."""
    return float(mhz) / MHZ_PER_GHZ


def watts_to_milliwatts(watts: float) -> float:
    """Convert watts to milliwatts (NVML reports milliwatts)."""
    return float(watts) * 1e3


def milliwatts_to_watts(mw: float) -> float:
    """Convert milliwatts to watts."""
    return float(mw) / 1e3


def joules_to_microjoules(j: float) -> float:
    """Convert joules to microjoules (RAPL counts microjoules)."""
    return float(j) * 1e6


def microjoules_to_joules(uj: float) -> float:
    """Convert microjoules to joules."""
    return float(uj) / 1e6


def microjoules_to_joules_array(uj: npt.NDArray[np.int64]) -> npt.NDArray[np.float64]:
    """Elementwise :func:`microjoules_to_joules` for fleet-axis counters.

    Same division as the scalar converter, so vectorized RAPL windows stay
    bit-identical to the per-server path.
    """
    result: npt.NDArray[np.float64] = uj / 1e6
    return result


def joules_to_kilojoules(j: float) -> float:
    """Convert joules to kilojoules (efficiency metrics report work/kJ)."""
    return float(j) / 1e3


def kilojoules_to_joules(kj: float) -> float:
    """Convert kilojoules to joules."""
    return float(kj) * 1e3


def seconds_to_milliseconds(s: float) -> float:
    """Convert seconds to milliseconds (controller timings report ms)."""
    return float(s) * 1e3


def milliseconds_to_seconds(ms: float) -> float:
    """Convert milliseconds to seconds."""
    return float(ms) / 1e3


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number strictly greater than zero."""
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    return v


def require_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number greater than or equal to zero."""
    v = float(value)
    if not math.isfinite(v) or v < 0.0:
        raise ConfigurationError(f"{name} must be a non-negative finite number, got {value!r}")
    return v


def require_in_range(value: float, lo: float, hi: float, name: str) -> float:
    """Validate that ``lo <= value <= hi``."""
    v = float(value)
    if not math.isfinite(v) or v < lo or v > hi:
        raise ConfigurationError(f"{name} must lie in [{lo}, {hi}], got {value!r}")
    return v


def require_monotonic(values: Iterable[float], name: str) -> list[float]:
    """Validate that ``values`` is non-empty and strictly increasing."""
    out = [float(v) for v in values]
    if not out:
        raise ConfigurationError(f"{name} must be non-empty")
    for a, b in zip(out, out[1:]):
        if not b > a:
            raise ConfigurationError(f"{name} must be strictly increasing, got {out!r}")
    return out


def sum_in_order(values: Iterable[float]) -> float:
    """Sum ``values`` left to right, the same on every Python version.

    CPython 3.12 made builtin ``sum()`` compensate its rounding over floats,
    so its last bit depends on the interpreter; digest-relevant code sums
    floats through this instead.
    """
    total = 0.0
    for v in values:
        total += v
    return total
