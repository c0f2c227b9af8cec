"""The closed-loop simulation engine.

Wires the plant (server), workloads (pipelines + feature selection),
telemetry (power meter, monitors, NVML, RAPL) and actuation (delta-sigma
modulators) into the feedback loop of Figure 1 of the paper:

1. each simulation tick (``dt_s``, default 100 ms) the modulators apply one
   discrete frequency level per device, the workload pipelines advance, and
   the power meter integrates the wall power;
2. every ``meter_interval_s`` (1 s, the paper's ACPI meter) a power sample
   is emitted;
3. every ``control_period_s`` (4 s = 4 samples, Section 6.1) the controller
   receives a :class:`~repro.control.base.ControlObservation` built purely
   from telemetry and returns the next frequency targets.

The engine also provides open-loop facilities used by system identification
and the static-configuration experiments (Table 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..actuators import ServerActuator
from ..control.base import ControlObservation, PowerCappingController
from ..errors import ConfigurationError
from ..faults import (
    FaultInjector,
    FaultModel,
    FaultPlan,
    FaultyNvml,
    FaultyPowerMeter,
    FaultyRapl,
    FaultyServerActuator,
)
from ..hardware.server import GpuServer
from ..rng import spawn
from ..telemetry import (
    AcpiPowerMeter,
    SimulatedNvml,
    SimulatedRapl,
    ThroughputMonitor,
    Trace,
    UtilizationMonitor,
)
from ..units import (
    microjoules_to_joules,
    milliwatts_to_watts,
    mhz_to_ghz,
    require_positive,
    seconds_to_milliseconds,
)
from ..workloads.feature_selection import FeatureSelectionWorkload
from ..workloads.pipeline import GpuWorkload
from .events import EventSchedule

__all__ = [
    "SimConfig",
    "ServerSimulation",
    "PeriodRecord",
    "POWER_SOURCES",
    "trace_channels",
]

#: Fraction of one core consumed by the controller process (Section 5 pins
#: one core for the controller; it is mostly idle between invocations).
_CONTROLLER_CORE_UTIL = 0.3

#: Degradation-ladder rungs, in preference order; the trace stores the
#: numeric code in the ``power_src`` channel.
POWER_SOURCES = ("acpi", "nvml+rapl", "holdover", "none")
_POWER_SOURCE_CODE = {name: float(i) for i, name in enumerate(POWER_SOURCES)}

#: Consecutive bit-identical meter samples before the value is declared
#: frozen (only while sensor noise is configured — a noiseless meter
#: legitimately repeats itself). Two control periods' worth by default.
_FREEZE_DETECT_SAMPLES = 8


def trace_channels(n_channels: int, n_gpus: int) -> list[str]:
    """The per-server trace layout, shared by the scalar engine and the SoA
    fleet backend."""
    chans = [
        "time_s", "period", "set_point_w", "power_w",
        "power_max_w", "power_min_w", "ctl_ms",
        "true_power_w", "power_src", "fresh_samples", "safe_mode",
    ]
    for i in range(n_channels):
        chans += [f"f_tgt_{i}", f"f_app_{i}", f"util_{i}", f"tput_{i}", f"tput_norm_{i}"]
    for g in range(n_gpus):
        chans += [f"lat_mean_g{g}", f"lat_p95_g{g}", f"slo_g{g}", f"slo_miss_g{g}"]
    chans += ["cpu_lat_s", "cpu_tput"]
    return chans


@dataclass(frozen=True)
class SimConfig:
    """Timing configuration of the simulation loop."""

    dt_s: float = 0.1
    meter_interval_s: float = 1.0
    control_period_s: float = 4.0
    meter_noise_sigma_w: float = 1.0
    meter_resolution_w: float = 0.1

    def __post_init__(self):
        require_positive(self.dt_s, "dt_s")
        require_positive(self.meter_interval_s, "meter_interval_s")
        require_positive(self.control_period_s, "control_period_s")
        if self.meter_interval_s % self.dt_s > 1e-9 and (
            self.dt_s - self.meter_interval_s % self.dt_s
        ) > 1e-9:
            raise ConfigurationError("dt_s must divide meter_interval_s")
        ratio = self.control_period_s / self.meter_interval_s
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigurationError("meter_interval_s must divide control_period_s")

    @property
    def samples_per_period(self) -> int:
        return int(round(self.control_period_s / self.meter_interval_s))

    @property
    def ticks_per_period(self) -> int:
        return int(round(self.control_period_s / self.dt_s))


@dataclass
class PeriodRecord:
    """Aggregates computed over one control period (engine-internal)."""

    batch_latencies: list
    batch_slo_misses: list
    fs_latencies: list


class ServerSimulation:
    """Closed-loop simulation of one GPU server under a capping controller.

    Parameters
    ----------
    server:
        The plant (see :mod:`repro.hardware.presets`).
    pipelines:
        One :class:`~repro.workloads.pipeline.GpuWorkload` per GPU —
        typically an :class:`~repro.workloads.pipeline.InferencePipeline`
        or a :class:`~repro.workloads.static.StaticLoadPipeline`; ``None``
        entries allowed for idle GPUs. Length must equal ``server.n_gpus``.
    fs_workload:
        Optional CPU feature-selection workload (the paper's CPU-side task).
    set_point_w:
        Initial power budget.
    config:
        Loop timing; defaults to the paper's (0.1 s tick, 1 s meter, 4 s
        control period).
    seed:
        Root seed for telemetry noise streams.
    slos_s:
        Optional initial SLO per GPU index (list aligned with GPUs; ``None``
        entries mean no SLO).
    modulator_factory:
        Override the per-channel modulator (ablations use nearest-level).
    faults:
        Optional :class:`~repro.faults.FaultPlan`. When given, the meter,
        NVML, RAPL and actuator are replaced by their fault-capable
        wrappers sharing one :class:`~repro.faults.FaultInjector` (an empty
        plan is a property-tested exact identity); when ``None`` the plain
        components are used and the hot loop pays nothing.
    """

    def __init__(
        self,
        server: GpuServer,
        pipelines: list[GpuWorkload | None],
        fs_workload: FeatureSelectionWorkload | None = None,
        set_point_w: float = 900.0,
        config: SimConfig = SimConfig(),
        seed: int = 0,
        slos_s: list[float | None] | None = None,
        modulator_factory=None,
        faults: FaultPlan | None = None,
    ):
        if len(pipelines) != server.n_gpus:
            raise ConfigurationError(
                f"need one pipeline slot per GPU ({server.n_gpus}), got {len(pipelines)}"
            )
        self.server = server
        self.pipelines = list(pipelines)
        self.fs = fs_workload
        self.set_point_w = require_positive(set_point_w, "set_point_w")
        self.config = config
        meter_kwargs = dict(
            sample_interval_s=config.meter_interval_s,
            resolution_w=config.meter_resolution_w,
            noise_sigma_w=config.meter_noise_sigma_w,
            rng=spawn(seed, "acpi-meter-noise"),
        )
        if faults is not None:
            self.fault_injector: FaultInjector | None = FaultInjector(
                faults, seed=seed
            )
            self.actuator: ServerActuator = FaultyServerActuator(
                server, self.fault_injector, modulator_factory
            )
            self.meter: AcpiPowerMeter = FaultyPowerMeter(
                self.fault_injector, **meter_kwargs
            )
            self.nvml: SimulatedNvml = FaultyNvml(
                server, self.fault_injector, rng=spawn(seed, "nvml-noise")
            )
            self.rapl: SimulatedRapl = FaultyRapl(server, self.fault_injector)
        else:
            self.fault_injector = None
            self.actuator = ServerActuator(server, modulator_factory)
            self.meter = AcpiPowerMeter(**meter_kwargs)
            self.nvml = SimulatedNvml(server, rng=spawn(seed, "nvml-noise"))
            self.rapl = SimulatedRapl(server)
        self._rapl_energy_anchor = 0
        self._rapl_time_anchor = 0.0

        # Graceful-degradation state (see _build_observation): freshness
        # tracking for the meter, last-good holdover values, and the
        # plausibility envelope used to reject glitched samples.
        self._last_meter_seq = -1
        self._last_good_power_w: float | None = None
        self._last_cpu_power_w: float | None = None
        self._stale_periods = 0
        self._freeze_run = 0
        self._last_sample_w: float | None = None
        env_lo, env_hi = server.power_envelope_w()
        self._plausible_lo_w = 0.25 * env_lo
        self._plausible_hi_w = 1.5 * env_hi
        # One-time calibration constant a real deployment would measure at
        # commissioning: wall power not covered by RAPL + NVML (PSU losses,
        # fans, boards). Lets the side-channel estimate approximate wall
        # power without peeking at the live plant.
        self._platform_overhead_w = server.static_power_w + server.fan.power_w()
        self._true_power_sum = 0.0
        self._true_power_ticks = 0
        self._last_commanded_mhz: np.ndarray | None = None
        self._safe_mode_flag = 0.0

        self.cpu_channels = tuple(server.cpu_channel_indices())
        self.gpu_channels = tuple(server.gpu_channel_indices())
        self._slos: dict[int, float] = {}
        if slos_s is not None:
            if len(slos_s) != server.n_gpus:
                raise ConfigurationError("slos_s must align with GPUs")
            for g, slo in enumerate(slos_s):
                if slo is not None:
                    self._slos[self.gpu_channels[g]] = float(slo)

        # Monitors: throughput per channel (CPU = feature-selection subsets/s,
        # GPU = inference batches/s), utilization per channel.
        self.tput_monitors: list[ThroughputMonitor] = []
        self.util_monitors: list[UtilizationMonitor] = []
        f_max_ghz = mhz_to_ghz(server.cpus[0].domain.f_max) if server.cpus else 0.0
        for ref in server.channels:
            if ref.kind == "cpu":
                hint = (
                    fs_workload.max_rate_subsets_s(f_max_ghz)
                    if fs_workload is not None
                    else None
                )
                self.tput_monitors.append(ThroughputMonitor(ref.name, hint))
            else:
                pipe = self.pipelines[ref.device_index]
                hint = pipe.spec.max_batch_rate_s() if pipe is not None else None
                self.tput_monitors.append(ThroughputMonitor(ref.name, hint))
            self.util_monitors.append(UtilizationMonitor(ref.name))

        self.time_s = 0.0
        self.period_index = 0
        self.trace = Trace(
            trace_channels(server.n_channels, server.n_gpus), capacity=1024
        )
        self.last_control_ms = 0.0

        # Monitor feeding: per-tick counts are summed into plain Python
        # accumulators and flushed into the monitors once per control period.
        # A monitor window built from one ``record(total, elapsed)`` call is
        # bit-identical to one built from per-tick calls — the same float
        # additions run in the same order, and seeding the window is
        # ``0.0 + total == total`` exactly.
        self._tput_acc = [0.0] * server.n_channels
        self._util_acc = [0.0] * server.n_channels
        self._acc_elapsed = 0.0

        # Reserve cores: each pipeline's workers + one controller core; the
        # rest run feature selection. (Used only for utilization accounting.)
        self._preproc_workers = sum(
            p.config.n_workers for p in self.pipelines if p is not None
        )

    # -- SLO management -----------------------------------------------------------

    def set_slo(self, gpu_index: int, slo_s: float | None) -> None:
        """Set or clear the SLO of GPU ``gpu_index`` (fires from events too)."""
        if not 0 <= gpu_index < self.server.n_gpus:
            raise ConfigurationError(f"gpu_index {gpu_index} out of range")
        chan = self.gpu_channels[gpu_index]
        if slo_s is None:
            self._slos.pop(chan, None)
        else:
            self._slos[chan] = float(slo_s)

    @property
    def slos(self) -> dict[int, float]:
        """Current SLOs keyed by *channel* index."""
        return dict(self._slos)

    # -- fault injection ---------------------------------------------------------

    def inject_fault(self, fault: FaultModel):
        """Arm a fault at run time (fires from :class:`FaultEvent` too).

        Requires the simulation to have been built with ``faults=`` (an
        empty :class:`FaultPlan` suffices) so the fault-capable wrappers are
        installed.
        """
        if self.fault_injector is None:
            raise ConfigurationError(
                "simulation was built without fault wrappers; pass "
                "faults=FaultPlan() to enable run-time fault injection"
            )
        return self.fault_injector.arm(fault)

    # -- one tick -----------------------------------------------------------------

    def _tick(self, record: PeriodRecord) -> None:
        cfg = self.config
        dt = cfg.dt_s
        tput_acc = self._tput_acc
        util_acc = self._util_acc
        self.actuator.tick()

        cpu = self.server.cpus[0]
        cpu_ghz = cpu.frequency_ghz
        gpus = self.server.gpus
        gpu_channels = self.gpu_channels
        t_now = self.time_s

        preproc_busy_cores = 0.0
        for g, pipe in enumerate(self.pipelines):
            gpu = gpus[g]
            chan = gpu_channels[g]
            if pipe is None:
                gpu._set_utilization_in_range(0.0)
                continue
            tick = pipe.step(t_now, dt, cpu_ghz, gpu._frequency_mhz)
            # gpu_busy_s <= dt by construction, so the ratio is in [0, 1]
            # and the validating scalar setter can be skipped.
            gpu._set_utilization_in_range(tick.gpu_busy_s / dt)
            tput_acc[chan] += tick.batches_completed
            util_acc[chan] += tick.gpu_busy_s
            preproc_busy_cores += pipe.config.n_workers * tick.preproc_busy_frac
            lats = tick.batch_latencies_s
            if lats:
                slo = self._slos.get(chan)
                rec_lat = record.batch_latencies[g]
                rec_miss = record.batch_slo_misses[g]
                for lat in lats:
                    rec_lat.append(lat)
                    rec_miss.append(False if slo is None else lat > slo)

        fs_cores = 0
        cpu_chan = self.cpu_channels[0]
        if self.fs is not None:
            fs_cores = self.fs.n_cores
            done, lats = self.fs.step(dt, cpu_ghz)
            tput_acc[cpu_chan] += done
            record.fs_latencies.extend(lats)

        busy_cores = preproc_busy_cores + fs_cores + _CONTROLLER_CORE_UTIL
        cpu_util = min(busy_cores / cpu.n_cores, 1.0)
        cpu._set_utilization_in_range(cpu_util)
        util_acc[cpu_chan] += cpu_util * dt
        # Additional CPU packages host no simulated workload; their package
        # utilization reflects whatever the device model currently reports.
        for extra_chan in self.cpu_channels[1:]:
            util_acc[extra_chan] += self.server.device(extra_chan).utilization * dt
        self._acc_elapsed += dt

        p_true = self.server.step_all(dt)
        self.meter.accumulate(p_true, dt)
        self.rapl.accumulate(dt, cpu_power_w=self.server.last_cpu_power_w)
        self._true_power_sum += p_true
        self._true_power_ticks += 1
        self.time_s += dt

    # -- observation assembly --------------------------------------------------------

    def _fresh_meter_samples(self) -> tuple[np.ndarray, int]:
        """Meter samples that arrived this period and survived filtering.

        Three defences run here (the top rung of the degradation ladder):

        * *staleness* — only samples with sequence numbers newer than the
          previous observation count, so a stalled meter yields an empty
          window instead of silently re-reading old data;
        * *plausibility* — readings outside a generous multiple of the
          server's achievable power envelope are discarded as glitches;
        * *freeze detection* — a run of bit-identical readings (with sensor
          noise configured, which makes exact repeats astronomically
          unlikely) marks the value stream frozen and the window unusable.

        Returns ``(filtered sample values, number that arrived)``.
        """
        new = self.meter.samples_since(self._last_meter_seq)
        if new:
            self._last_meter_seq = new[-1].seq
        arrived = len(new)
        values = []
        for s in new:
            w = s.power_w
            if w == self._last_sample_w:
                self._freeze_run += 1
            else:
                self._freeze_run = 0
            self._last_sample_w = w
            if not np.isfinite(w) or not (
                self._plausible_lo_w <= w <= self._plausible_hi_w
            ):
                continue  # glitch: reject the sample, keep the window
            values.append(w)
        if (
            self.config.meter_noise_sigma_w > 0
            and self._freeze_run >= _FREEZE_DETECT_SAMPLES
        ):
            values = []  # frozen value stream: nothing here is trustworthy
        return np.array(values, dtype=np.float64), arrived

    def _build_observation(self) -> ControlObservation:
        if self._acc_elapsed > 0:
            # Flush the per-period accumulators into the monitors so the
            # read_and_reset calls below see exactly the windows per-tick
            # recording would have built.
            elapsed = self._acc_elapsed
            tput_acc = self._tput_acc
            util_acc = self._util_acc
            for i in range(self.server.n_channels):
                self.tput_monitors[i].record(tput_acc[i], elapsed)
                self.util_monitors[i].record(util_acc[i], elapsed)
                tput_acc[i] = 0.0
                util_acc[i] = 0.0
            self._acc_elapsed = 0.0
        samples, _ = self._fresh_meter_samples()

        tput_raw = np.empty(self.server.n_channels)
        tput_norm = np.empty(self.server.n_channels)
        util = np.empty(self.server.n_channels)
        for i in range(self.server.n_channels):
            tput_raw[i] = self.tput_monitors[i].read_and_reset()
            tput_norm[i] = self.tput_monitors[i].normalized()
            util[i] = self.util_monitors[i].read_and_reset()

        gpu_power = np.array(
            [
                milliwatts_to_watts(
                    self.nvml.power_usage_mw(self.nvml.device_handle_by_index(g))
                )
                for g in range(self.server.n_gpus)
            ]
        )
        # RAPL window power since the previous observation. A zero energy
        # delta over a nonzero window means the counter is frozen (package
        # idle power is never zero): hold the last good CPU reading.
        now_uj = self.rapl.read_energy_uj()
        d_uj = now_uj - self._rapl_energy_anchor
        if d_uj < 0:
            d_uj += self.rapl.max_energy_range_uj
        dt = self.time_s - self._rapl_time_anchor
        if dt > 0 and d_uj == 0 and self._last_cpu_power_w is not None:
            cpu_power = self._last_cpu_power_w
        elif dt > 0:
            cpu_power = microjoules_to_joules(d_uj) / dt
            self._last_cpu_power_w = cpu_power
        else:
            cpu_power = float("nan")
        self._rapl_energy_anchor = now_uj
        self._rapl_time_anchor = self.time_s

        # Independent side-channel estimate of wall power: NVML board sum +
        # RAPL package power + the commissioning-time platform overhead.
        gpu_sum = float(gpu_power.sum())
        if np.isfinite(cpu_power) and np.isfinite(gpu_sum):
            power_alt = cpu_power + gpu_sum + self._platform_overhead_w
        else:
            power_alt = float("nan")

        # The degradation ladder: fresh meter samples, else the side-channel
        # estimate, else last-good holdover, else admit blindness.
        if samples.size:
            power = float(samples.mean())
            source = "acpi"
            self._stale_periods = 0
            self._last_good_power_w = power
        elif np.isfinite(power_alt):
            power = power_alt
            source = "nvml+rapl"
            self._stale_periods += 1
        elif self._last_good_power_w is not None:
            power = self._last_good_power_w
            source = "holdover"
            self._stale_periods += 1
        else:
            power = float("nan")
            source = "none"
            self._stale_periods += 1

        # Actuator read-back verification: the tick-averaged frequency the
        # plant actually ran at, against what the controller commanded for
        # this period. Stuck/clamped writes show up as a large residual.
        f_applied = self.actuator.applied_average_and_reset()
        if self._last_commanded_mhz is not None:
            act_err = f_applied - self._last_commanded_mhz
        else:
            act_err = np.full(self.server.n_channels, np.nan)

        obs = ControlObservation(
            period_index=self.period_index,
            time_s=self.time_s,
            power_w=power,
            power_samples_w=samples,
            set_point_w=self.set_point_w,
            f_targets_mhz=self.actuator.targets(),
            f_applied_mhz=f_applied,
            f_min_mhz=self.server.f_min_vector(),
            f_max_mhz=self.server.f_max_vector(),
            utilization=util,
            throughput_norm=tput_norm,
            throughput_raw=tput_raw,
            cpu_channels=self.cpu_channels,
            gpu_channels=self.gpu_channels,
            slos_s=dict(self._slos),
            cpu_power_w=cpu_power,
            gpu_power_w=gpu_power,
            power_source=source,
            power_alt_w=power_alt,
            fresh_samples=int(samples.size),
            stale_periods=self._stale_periods,
            actuation_error_mhz=act_err,
        )
        return obs

    def _record_period(self, obs: ControlObservation, record: PeriodRecord) -> None:
        row: dict[str, float] = {
            "time_s": obs.time_s,
            "period": float(self.period_index),
            "set_point_w": obs.set_point_w,
            "power_w": obs.power_w,
            "power_max_w": float(obs.power_samples_w.max()) if obs.power_samples_w.size else float("nan"),
            "power_min_w": float(obs.power_samples_w.min()) if obs.power_samples_w.size else float("nan"),
            "ctl_ms": self.last_control_ms,
            "true_power_w": (
                self._true_power_sum / self._true_power_ticks
                if self._true_power_ticks
                else float("nan")
            ),
            "power_src": _POWER_SOURCE_CODE[obs.power_source],
            "fresh_samples": float(obs.fresh_samples),
            "safe_mode": self._safe_mode_flag,
        }
        self._true_power_sum = 0.0
        self._true_power_ticks = 0
        for i in range(self.server.n_channels):
            row[f"f_tgt_{i}"] = float(obs.f_targets_mhz[i])
            row[f"f_app_{i}"] = float(obs.f_applied_mhz[i])
            row[f"util_{i}"] = float(obs.utilization[i])
            row[f"tput_{i}"] = float(obs.throughput_raw[i])
            row[f"tput_norm_{i}"] = float(obs.throughput_norm[i])
        for g in range(self.server.n_gpus):
            lats = record.batch_latencies[g]
            misses = record.batch_slo_misses[g]
            chan = self.gpu_channels[g]
            row[f"lat_mean_g{g}"] = float(np.mean(lats)) if lats else float("nan")
            row[f"lat_p95_g{g}"] = float(np.quantile(lats, 0.95)) if lats else float("nan")
            row[f"slo_g{g}"] = self._slos.get(chan, float("nan"))
            row[f"slo_miss_g{g}"] = (
                float(np.mean(misses)) if misses else float("nan")
            )
        row["cpu_lat_s"] = (
            float(np.mean(record.fs_latencies)) if record.fs_latencies else float("nan")
        )
        row["cpu_tput"] = float(obs.throughput_raw[self.cpu_channels[0]])
        self.trace.append(**row)

    # -- checkpointing -----------------------------------------------------------

    def snapshot(self, controller=None, events=None) -> dict:
        """Freeze the full run state into a versioned checkpoint blob.

        Captures everything the next period depends on — device state,
        RNG bit-generator streams, degradation-ladder freshness/holdover
        state, actuator targets and read-back state, the cumulative trace,
        plus the controller stack and event schedule when passed — such
        that :meth:`restore` followed by ``run`` continues bit-identically
        with an uninterrupted run. Pass the *same* ``controller`` and
        ``events`` objects the run loop uses (or ``None``).
        """
        from ..checkpoint.engine import capture_run_state

        return capture_run_state(self, controller=controller, events=events)

    def restore(self, blob: dict, controller=None, events=None) -> "ServerSimulation":
        """Load a :meth:`snapshot` blob into this (freshly built) engine.

        The engine, controller, and events must have been constructed the
        same way as the checkpointed run (same scenario/factories); their
        state is then overwritten in place. Returns ``self``.
        """
        from ..checkpoint.engine import restore_run_state

        return restore_run_state(blob, self, controller=controller, events=events)

    # -- run loops ---------------------------------------------------------------

    def run(
        self,
        controller: PowerCappingController | None,
        n_periods: int,
        events: EventSchedule | None = None,
        apply_initial_targets: bool = True,
    ) -> Trace:
        """Run ``n_periods`` control periods under ``controller``.

        ``controller=None`` runs open loop at the current targets (used for
        static-configuration experiments). Returns the engine's trace (one
        row per period; cumulative across successive ``run`` calls).
        """
        if n_periods < 1:
            raise ConfigurationError("n_periods must be >= 1")
        if controller is not None and apply_initial_targets:
            self.actuator.set_targets(
                controller.initial_targets(
                    self.server.f_min_vector(), self.server.f_max_vector()
                )
            )
        for _ in range(n_periods):
            if events is not None:
                events.fire(self.period_index, self)
            if self.fault_injector is not None:
                # After events, so a FaultEvent can arm a fault for the very
                # period it fires in.
                self.fault_injector.begin_period(self.period_index)
            record = PeriodRecord(
                batch_latencies=[[] for _ in range(self.server.n_gpus)],
                batch_slo_misses=[[] for _ in range(self.server.n_gpus)],
                fs_latencies=[],
            )
            for _ in range(self.config.ticks_per_period):
                self._tick(record)
            obs = self._build_observation()
            if controller is not None:
                t0 = time.perf_counter()  # repro-lint: disable=REP101 -- ctl_ms is timing telemetry, excluded from digests (runner.TIMING_KEYS)
                targets = controller.step(obs)
                batches = controller.batch_commands(obs)
                self.last_control_ms = seconds_to_milliseconds(
                    time.perf_counter() - t0  # repro-lint: disable=REP101 -- same timing window as t0 above
                )
                self.actuator.set_targets(targets)
                self._last_commanded_mhz = np.asarray(
                    targets, dtype=np.float64
                ).copy()
                self._safe_mode_flag = float(
                    bool(getattr(controller, "in_safe_mode", False))
                )
                if batches:
                    for g, batch in batches.items():
                        pipe = self.pipelines[g]
                        if pipe is not None:
                            pipe.set_batch_size(batch)
            else:
                self.last_control_ms = 0.0
            self._record_period(obs, record)
            self.period_index += 1
        return self.trace

    def run_open_loop(self, targets_mhz, n_periods: int) -> Trace:
        """Hold fixed frequency targets for ``n_periods`` periods."""
        self.actuator.set_targets(np.asarray(targets_mhz, dtype=np.float64))
        return self.run(controller=None, n_periods=n_periods)

    def measure_power_w(
        self, targets_mhz, settle_periods: int = 1, measure_periods: int = 2
    ) -> float:
        """Open-loop power measurement at a frequency point (for sys-id).

        Applies the targets, discards ``settle_periods`` periods of samples,
        then returns the mean meter power over ``measure_periods`` periods.
        """
        self.actuator.set_targets(np.asarray(targets_mhz, dtype=np.float64))
        self.run(controller=None, n_periods=settle_periods)
        before = len(self.trace)
        self.run(controller=None, n_periods=measure_periods)
        power = self.trace["power_w"][before:]
        return float(np.mean(power))
