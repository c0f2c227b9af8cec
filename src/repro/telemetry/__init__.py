"""Telemetry: power meters, throughput/utilization monitors, NVML/RAPL sims.

Controllers never read the plant's ground truth directly; everything they
observe flows through this package, with realistic sampling, quantization,
noise and counter semantics (see DESIGN.md's substitution table).
"""

from .monitors import ThroughputMonitor, UtilizationMonitor
from .nvml import NvmlDeviceHandle, SimulatedNvml
from .power_meter import AcpiPowerMeter, PowerSample
from .rapl import RaplWindowReader, SimulatedRapl
from .serialize import (
    load_trace_npz,
    save_trace_npz,
    trace_from_csv,
    trace_to_csv,
)
from .trace import Trace

__all__ = [
    "AcpiPowerMeter",
    "PowerSample",
    "ThroughputMonitor",
    "UtilizationMonitor",
    "SimulatedNvml",
    "NvmlDeviceHandle",
    "SimulatedRapl",
    "RaplWindowReader",
    "Trace",
    "trace_to_csv",
    "trace_from_csv",
    "save_trace_npz",
    "load_trace_npz",
]
