"""Structure-of-arrays fleet backend: N servers as one numpy program.

Runs the single-server plant of ``sim/engine.py`` for N servers at once,
vectorized across the *server* axis. Device frequencies, utilizations,
delta-sigma error state, meter/RAPL accumulators, monitor windows and
degradation-ladder state all live in ``(n_servers, n_channels)`` /
``(n_servers,)`` float64 arrays. The control period advances in blocks of
ticks, each one numpy program over a ``(channels, ticks, n_servers)``
block, instead of N scalar ``ServerSimulation`` loops. Servers are the
innermost axis, so each channel's block is one contiguous run. A block
holds at most :data:`CELLS` ticks times servers (and at least one tick):
with the default 40-tick period, up to 256 servers step the whole period
as one block and 1024 servers step 10-tick blocks, one meter window each.
A block runs in three steps:

1. the delta-sigma actuator steps tick by tick on ``(channels, n)`` arrays
   until a tick leaves its error state unchanged: the target holds for the
   whole period, so every later tick repeats that one exactly and the
   rollout copies its level over the rest of the block (fixed-step rows
   command on-grid targets, so their error stays zero and one tick is
   computed);
2. the workload law, utilization, CPU preprocessing load and per-channel
   plant power are evaluated once over the block;
3. only the true recurrences run per tick: the fractional-batch carry,
   the AR(1) wall noise, the RAPL counter's wrapping ``+=``/``%=`` and
   the running sums, which give up each meter sample's energy at its
   emission tick, so a block boundary need not fall on a window boundary.

**Bit-for-bit contract.** Every expression below is a transcription of the
scalar hot path with the same float operations in the same order, so a SoA
fleet reproduces N scalar engines exactly (``tests/fleet/test_differential``
pins this):

* an elementwise IEEE operation gives the same bits on a block as on one
  column, and ``+`` and ``*`` commute bit for bit, so the block steps
  (some of them in place) keep each expression's operation order;
* each noise stream (wall, meter, NVML) is one ``_NoiseBank``, whose
  refills draw each server's generator in the block multiples a per-server
  block sampler of :mod:`repro.rng` would; batch draws consume a generator
  stream identically to scalar draws;
* sums that the scalar engine accumulates left-to-right (per-channel plant
  power, GPU board sum, preproc cores, demand pressure) run over fewer than
  8 elements (the constructor refuses more than 6 GPUs) and are explicit
  left-to-right adds of slices; the meter-window mean is numpy's row mean
  of the ``(n_servers, samples)`` window, which equals the engine's 1-D
  ``np.mean`` at every window length (numpy's pairwise reduce matches
  sequential addition only below 8 elements);
* every running sum over ticks (meter energy, applied-frequency sum,
  throughput and utilization accumulators, true-power sum) starts from
  its carried value and adds the ticks in order. Their increments share
  one block and one add per tick advances them all; a tick-axis
  ``np.add.accumulate`` gives the same bits but runs one inner loop per
  element, several times slower at fleet scale, and
  ``ndarray.sum(axis=0)`` promises no order, so neither is used;
* the scalar clocks (``time_s``, the monitor and meter window clocks) keep
  their per-tick Python float adds and run first, for the whole period;
  the meter's emission ticks and each window's length are read off them,
  and the running sums copy a sample's energy out at its emission tick
  and restart it from 0.0, as the scalar meter does;
* scalar quirks are preserved: the ``(busy*dt)/dt`` utilization round trip,
  the NVML watts→milliwatts→watts round trip, RAPL's truncate-to-int read,
  banker's rounding in the meter quantizer, and the shared-epsilon meter
  emission test.

At period boundaries every state array holds what a tick-by-tick loop
would hold, under fixed attribute names and shapes, so ``snapshot()`` and
``restore()`` need no translation.

Controllers. Every ``fixed-step`` and ``safe-fixed-step`` row steps
through one bank, ``_fixed_step_targets``: the paper's Fixed-step rule
(Section 6.1) as one array program over the rows, with one round-robin
cursor per row. It transcribes :class:`FixedStepController` comparison for
comparison, so it commands the same targets bit for bit
(``tests/fleet/test_fixed_step_bank.py`` checks it against one controller
object per row; the reference backend, which steps those objects, is the
differential suite's oracle). ``mpc`` rows keep one
:class:`~repro.core.CapGpuController` each, fed a per-server
:class:`ControlObservation` once per period, so a fleet may mix kinds. The
fast engine's :class:`~repro.fast.fleet.FastFleetBackend` overrides only
the MPC rows' set-up and step (``_init_mpc_rows`` and ``_mpc_targets``)
and shares the rest of the period.

Banks. Servers do not interact inside a period, and every per-server
expression above is elementwise over the server axis, so the rows of
several fleets can share one backend:
:func:`repro.fleet.scenarios.soa_bank` builds one
:class:`SoaFleetBackend` from every member's specs and gives each member a
:class:`SoaRows` slice of it, which reads and writes only that member's
rows under the member's own server names. One ``run_periods`` call then
steps every member, each exactly as if it ran alone. Only this exact class
banks: the fast engine solves its MPC rows as one batch, and those
results move in the last bits with the batch's shape.

The backend models the homogeneous fleet case: ``v100_server`` plants with
:class:`~repro.workloads.static.StaticLoadPipeline` workloads and the
controllers a :class:`SoaServerSpec` names. Heterogeneous racks, full
inference pipelines, faults and events stay on the
:class:`~repro.fleet.engine.ReferenceBackend`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..actuators.modulator import DeltaSigmaModulator
from ..cluster.allocator import ServerPowerState
from ..control.base import ControlObservation, PowerCappingController
from ..control.fixed_step import (
    _UTIL_TIE_TOL,
    CPU_STEP_MHZ,
    GPU_STEP_MHZ,
    FixedStepController,
    SafeFixedStepController,
)
from ..errors import ActuationError, ConfigurationError
from ..hardware.presets import v100_server
from ..rng import spawn
from ..sim.engine import (
    _CONTROLLER_CORE_UTIL,
    _FREEZE_DETECT_SAMPLES,
    POWER_SOURCES,
    ServerSimulation,
    SimConfig,
    trace_channels,
)
from ..telemetry.trace import Trace
from ..units import (
    microjoules_to_joules_array,
    require_positive,
    seconds_to_milliseconds,
)
from ..workloads.pipeline import PipelineConfig
from ..workloads.static import StaticLoadPipeline, StaticLoadSpec
from .engine import FleetBackend, FleetServer

__all__ = [
    "SoaServerSpec",
    "SoaFleetBackend",
    "SoaRows",
    "DEFAULT_GPU_SPECS",
    "build_scalar_twin",
    "fleet_identified_model",
]

#: Per-GPU workload laws of the default homogeneous fleet: three V100s at
#: staggered offered loads (the mix exercises both the capped and the
#: demand-limited branch of the static-load law).
DEFAULT_GPU_SPECS: tuple[StaticLoadSpec, ...] = (
    StaticLoadSpec(name="static-g0", demand_rate_s=9.0),
    StaticLoadSpec(name="static-g1", demand_rate_s=7.0),
    StaticLoadSpec(name="static-g2", demand_rate_s=5.0),
)

#: The most cells (ticks times servers) one stepped block holds. A small
#: fleet's period is dominated by fixed per-block numpy cost, so it steps
#: the whole period as one block; at 1024 servers the work outweighs that
#: cost and a block is one 10-tick meter window, as it always was.
CELLS = 10_240

#: The per-channel trace groups, in the order ``trace_channels`` lays out
#: each channel's columns.
_CHANNEL_GROUPS = ("f_tgt", "f_app", "util", "tput", "tput_norm")


@lru_cache(maxsize=1)
def fleet_identified_model():
    """One-shot system identification on a probe static-load server: the
    default fleet's GPU workloads and :class:`SimConfig`, seed 0, six
    points per channel.

    Cached per process (like :func:`repro.experiments.common.identified_model`)
    so every MPC controller in a homogeneous fleet — reference twins and SoA
    columns alike — shares the same :class:`PowerModelFit`, mirroring the
    paper's identify-once-per-testbed workflow.
    """
    from ..sysid import identify_power_model

    server = v100_server(seed=0, n_gpus=len(DEFAULT_GPU_SPECS))
    pipelines = [
        StaticLoadPipeline(gs, PipelineConfig(n_workers=1)) for gs in DEFAULT_GPU_SPECS
    ]
    sim = ServerSimulation(server, pipelines, config=SimConfig(), seed=0)
    return identify_power_model(sim, points_per_channel=6).fit


@dataclass(frozen=True)
class SoaServerSpec:
    """Construction recipe for one fleet server (both backends build from
    this, so the scalar twin and the SoA column are configured identically).

    ``controller="mpc"`` wires the CapGPU MPC (uniform penalty weights, no
    SLO manager, the shared :func:`fleet_identified_model`) — the MPC-heavy
    fleet case. Uniform weights keep the MPC's ``(a, r)`` matrices constant
    across servers and periods, which the fast engine's factorization cache
    exploits; the reference path just runs the stock controller.
    """

    name: str
    seed: int
    set_point_w: float = 1000.0
    priority: int = 0
    demand_scale: float = 1.0
    controller: str = "fixed-step"
    step_size: int = 1
    deadband_w: float = 0.0
    safety_margin_w: float = 25.0

    def __post_init__(self) -> None:
        # The controllers' own checks: the SoA steps fixed-step rows as a
        # bank and never constructs their objects.
        if self.controller not in ("fixed-step", "safe-fixed-step", "mpc"):
            raise ConfigurationError(f"unknown controller {self.controller!r}")
        if self.step_size < 1:
            raise ConfigurationError("step_size must be >= 1")
        if self.deadband_w < 0:
            raise ConfigurationError("deadband_w must be >= 0")
        if self.controller == "safe-fixed-step":
            require_positive(self.safety_margin_w, "safety_margin_w")

    def build_controller(self) -> PowerCappingController:
        if self.controller == "mpc":
            from ..core import CapGpuController, WeightAssigner

            return CapGpuController(
                model=fleet_identified_model(),
                weights=WeightAssigner(mode="uniform"),
            )
        if self.controller == "safe-fixed-step":
            return SafeFixedStepController(
                self.safety_margin_w,
                step_size=self.step_size,
                deadband_w=self.deadband_w,
            )
        return FixedStepController(step_size=self.step_size, deadband_w=self.deadband_w)


def build_scalar_twin(
    spec: SoaServerSpec,
    gpu_specs: tuple[StaticLoadSpec, ...] = DEFAULT_GPU_SPECS,
    config: SimConfig = SimConfig(),
) -> FleetServer:
    """The scalar :class:`FleetServer` a :class:`SoaServerSpec` describes.

    The differential suite runs fleets built from the same spec list through
    this path and the SoA path and asserts identical traces.
    """
    server = v100_server(seed=spec.seed, n_gpus=len(gpu_specs))
    pipelines = [
        StaticLoadPipeline(gs.scaled(spec.demand_scale), PipelineConfig(n_workers=1))
        for gs in gpu_specs
    ]
    sim = ServerSimulation(
        server,
        pipelines,
        set_point_w=spec.set_point_w,
        config=config,
        seed=spec.seed,
    )
    return FleetServer(spec.name, sim, spec.build_controller(), spec.priority)


@dataclass(frozen=True)
class PeriodReadings:
    """What one control period measured across the fleet: one row per
    server, shaped ``(n,)`` or ``(n, channels)`` unless noted."""

    samples: np.ndarray  # (n, samples per period) meter window
    keep: np.ndarray  # which samples passed the meter filter
    count: np.ndarray  # samples kept
    pminmax: np.ndarray  # (2, n) smallest and largest kept sample
    power: np.ndarray  # the degradation ladder's reading
    src_code: np.ndarray  # its rung, an index into POWER_SOURCES
    power_alt: np.ndarray  # NVML + RAPL side-channel estimate
    cpu_power: np.ndarray
    gpu_power: np.ndarray  # (n, gpus)
    util: np.ndarray
    tput_raw: np.ndarray
    tput_norm: np.ndarray
    f_applied: np.ndarray  # tick-averaged applied frequency


@lru_cache(maxsize=None)
def _group_columns(n_channels: int, n_gpus: int) -> np.ndarray:
    """The trace columns of each per-channel group, shaped
    ``(groups, channels)`` (read-only: every caller shares it)."""
    ix = {c: i for i, c in enumerate(trace_channels(n_channels, n_gpus))}
    columns = np.array(
        [[ix[f"{group}_{c}"] for c in range(n_channels)] for group in _CHANNEL_GROUPS]
    )
    columns.setflags(write=False)
    return columns


def _sum_rows(block: np.ndarray) -> np.ndarray:
    """Left-to-right sum over axis 0, one row at a time (the scalar
    engine's sequential adds)."""
    total = block[0]
    for row in block[1:]:
        total = total + row
    return total


class _NoiseBank:
    """One normal noise stream of every server: the servers' generators,
    their latest refill as one ``(n, fill)`` buffer, and one cursor.

    The fleet ticks in lockstep, so every server's stream sits at the same
    position and a take is one column slice. A refill draws ``size=fill``
    from each server's own generator, ``fill`` the block multiple that a
    per-server block sampler's ``take`` would draw (:mod:`repro.rng`), so
    each stream is consumed exactly as that sampler consumes it.
    """

    def __init__(self, rngs: list[np.random.Generator], sigma: float, block: int = 256):
        self._rngs = rngs
        self._sigma = float(sigma)
        self._block = block
        self._buf = np.empty((len(rngs), 0), dtype=np.float64)
        self._i = 0

    def take(self, k: int) -> np.ndarray:
        """Every server's next ``k`` samples, shaped ``(n, k)``."""
        buf, i = self._buf, self._i
        end = i + k
        if end <= buf.shape[1]:
            self._i = end
            return buf[:, i:end]
        need = end - buf.shape[1]
        fill = -(-need // self._block) * self._block
        self._buf = np.array(
            [rng.normal(0.0, self._sigma, size=fill) for rng in self._rngs]
        )
        self._i = need
        return np.concatenate((buf[:, i:], self._buf[:, :need]), axis=1)


def _server_states(
    last: np.ndarray | None,
    chan_index: dict[str, int],
    n_gpus: int,
    names: list[str],
    priorities: list[int],
    envelope: tuple[float, float],
) -> list[ServerPowerState]:
    """Allocator snapshots from a fleet's last ``(n, channels)`` trace rows.

    ``last`` is None before the first period. Demand is the mean throttling
    pressure over the GPU channels, summed left to right like the scalar
    :meth:`FleetServer.state`.
    """
    n = len(names)
    lo, hi = envelope
    if last is not None:
        power = last[:, chan_index["power_w"]]
        pressure: np.ndarray | None = None
        for g in range(n_gpus):
            c = 1 + g
            pg = np.maximum(
                last[:, chan_index[f"util_{c}"]] - last[:, chan_index[f"tput_norm_{c}"]],
                0.0,
            )
            pressure = pg if pressure is None else pressure + pg
        demand = np.clip(pressure / n_gpus, 0.0, 1.0)
    else:
        power = np.full(n, np.nan)
        demand = np.ones(n)
    return [
        ServerPowerState(
            name=names[i],
            power_w=float(power[i]),
            p_min_w=lo,
            p_max_w=hi,
            demand=float(demand[i]),
            priority=priorities[i],
        )
        for i in range(n)
    ]


class SoaFleetBackend(FleetBackend):
    """The structure-of-arrays fleet: state shaped ``(n_servers, ...)``."""

    def __init__(
        self,
        specs: list[SoaServerSpec],
        gpu_specs: tuple[StaticLoadSpec, ...] = DEFAULT_GPU_SPECS,
        config: SimConfig = SimConfig(),
    ):
        if not specs:
            raise ConfigurationError("fleet needs at least one server")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate server names: {names}")
        if not gpu_specs:
            raise ConfigurationError("need at least one GPU workload spec")
        if 1 + len(gpu_specs) >= 8:
            # The column-sequential sums below replicate the scalar engine's
            # numpy reductions over the GPUs (``gpu_power.sum()`` in its
            # observation, ``np.mean`` of the pressures in FleetServer.state),
            # which are left to right only below 8 elements.
            raise ConfigurationError("SoA fleet supports at most 6 GPUs per server")
        self.specs = list(specs)
        self.gpu_specs = tuple(gpu_specs)
        self.config = config
        self._names = names
        n = len(specs)
        n_gpus = len(gpu_specs)

        # -- fleet-wide constants, read off one prototype plant ------------
        proto = v100_server(seed=0, n_gpus=n_gpus)
        devs = proto.devices
        n_chan = proto.n_channels
        self.n_gpus = n_gpus
        self.n_channels = n_chan
        self._n_cores = proto.cpus[0].n_cores
        pm = [d.power_model for d in devs]
        self._pm_idle = np.array([m.idle_w for m in pm], dtype=np.float64)
        self._pm_dyn = np.array([m.dyn_w_per_mhz for m in pm], dtype=np.float64)
        self._pm_floor = np.array([m.util_floor for m in pm], dtype=np.float64)
        self._pm_omf = 1.0 - self._pm_floor
        self._pm_quad = np.array([m.quad_w_per_mhz2 for m in pm], dtype=np.float64)
        self._pm_fref = np.array([m.f_ref_mhz for m in pm], dtype=np.float64)
        self._f_min = proto.f_min_vector()
        self._f_max = proto.f_max_vector()
        pitches = [d.domain.uniform_pitch_mhz for d in devs]
        if any(p is None for p in pitches):
            raise ConfigurationError("SoA fleet requires exact-uniform grids")
        self._pitch = np.array(pitches, dtype=np.float64)
        self._k_max = np.array(
            [float(d.domain.n_levels - 2) for d in devs], dtype=np.float64
        )
        # The anti-windup bound each DeltaSigmaModulator computes for itself.
        self._err_bound = np.array(
            [DeltaSigmaModulator(d.domain)._pitch for d in devs], dtype=np.float64
        )
        # Plant constants: platform floor + fixed-speed fan (also the
        # side-channel estimate's calibration constant), the wall-noise
        # AR(1) parameters and the plausibility envelope — all identical
        # expressions to the scalar engine's construction-time values.
        self._base_power_w = proto.static_power_w + proto.fan.power_w()
        env_lo, env_hi = proto.power_envelope_w()
        self._plausible_lo_w = 0.25 * env_lo
        self._plausible_hi_w = 1.5 * env_hi
        self._envelope = proto.power_envelope_w(utilization=1.0)
        self._noise_rho = proto.noise._rho
        noise_sigma = proto.noise._sigma
        self._rapl_range_uj = 262_143_328_850  # SimulatedRapl default

        # -- noise streams, one bank each (same spawn names as the scalar engine)
        def bank(name: str, sigma: float) -> _NoiseBank:
            return _NoiseBank([spawn(s.seed, name) for s in specs], sigma)

        self._wall_noise = bank("server-wall-noise", noise_sigma)
        self._meter_noise = bank("acpi-meter-noise", config.meter_noise_sigma_w)
        self._nvml_noise = bank("nvml-noise", 1.0)

        # -- controllers: the fixed-step bank, objects for the MPC rows ------
        is_mpc = np.array([s.controller == "mpc" for s in specs])
        self._fs_rows = np.flatnonzero(~is_mpc)
        self._mpc_rows = np.flatnonzero(is_mpc)
        fixed = [specs[i] for i in self._fs_rows]
        self._fs_step = np.array([float(s.step_size) for s in fixed])
        self._fs_deadband = np.array([s.deadband_w for s in fixed])
        self._fs_margin = np.array(
            [s.safety_margin_w if s.controller == "safe-fixed-step" else 0.0 for s in fixed]
        )
        self._fs_rr = np.zeros(len(fixed), dtype=np.int64)  # round-robin cursors
        self._init_mpc_rows([specs[i] for i in self._mpc_rows])

        # -- workload parameters -------------------------------------------
        self._priorities = [s.priority for s in specs]
        self._set_point = np.array([s.set_point_w for s in specs], dtype=np.float64)
        # demand[i, g] — the same product StaticLoadSpec.scaled computes.
        self._demand = np.array(
            [[gs.demand_rate_s * s.demand_scale for gs in gpu_specs] for s in specs],
            dtype=np.float64,
        )

        # The static-load law's per-GPU constants, shaped (gpus, 1, 1) to
        # broadcast over a (gpus, ticks, n) block.
        def per_gpu(values: list[float]) -> np.ndarray:
            return np.array(values, dtype=np.float64).reshape(n_gpus, 1, 1)

        self._law_base = per_gpu([gs.base_rate_s for gs in gpu_specs])
        self._law_slope = per_gpu([gs.rate_per_mhz for gs in gpu_specs])
        self._law_fref = per_gpu([gs.f_ref_mhz for gs in gpu_specs])
        self._law_preproc = per_gpu([gs.preproc_scale for gs in gpu_specs])
        self._workers = per_gpu([float(PipelineConfig(n_workers=1).n_workers)] * n_gpus)

        # -- mutable fleet state, shaped (N, C) / (N, G) / (N,) -------------
        self._f = np.tile(self._f_min, (n, 1))
        self._u = np.ones((n, n_chan), dtype=np.float64)
        self._tgt = np.tile(self._f_min, (n, 1))
        self._pending: np.ndarray | None = None
        self._err = np.zeros((n, n_chan), dtype=np.float64)
        self._applied_sum = np.zeros((n, n_chan), dtype=np.float64)
        self._applied_ticks = 0
        self._last_commanded: np.ndarray | None = None
        self._noise_state = np.zeros(n, dtype=np.float64)
        self._frac_batches = np.zeros((n, n_gpus), dtype=np.float64)
        # Monitor windows: the hint-seeded running maximum plus per-period
        # event/busy accumulators (flushed exactly like the engine's).
        hints = [0.0] + [float(gs.max_batch_rate_s()) for gs in gpu_specs]
        self._max_seen = np.tile(np.array(hints, dtype=np.float64), (n, 1))
        self._tput_acc = np.zeros((n, n_chan), dtype=np.float64)
        self._util_acc = np.zeros((n, n_chan), dtype=np.float64)
        self._acc_elapsed = 0.0
        # Meter integration + freshness tracking (accumulated time is shared:
        # the fleet ticks in lockstep).
        self._m_accum_j = np.zeros(n, dtype=np.float64)
        self._m_accum_t = 0.0
        self._last_sample_w = np.full(n, np.nan)
        self._freeze_run = np.zeros(n, dtype=np.int64)
        # RAPL counters and window anchors.
        self._rapl_energy = np.zeros(n, dtype=np.float64)
        self._rapl_anchor_uj = np.zeros(n, dtype=np.int64)
        self._rapl_anchor_t = 0.0
        self._last_cpu_power = np.zeros(n, dtype=np.float64)
        self._has_last_cpu = np.zeros(n, dtype=bool)
        # Degradation-ladder holdover state.
        self._last_good_power = np.zeros(n, dtype=np.float64)
        self._has_last_good = np.zeros(n, dtype=bool)
        self._stale_periods = np.zeros(n, dtype=np.int64)
        self._true_power_sum = np.zeros(n, dtype=np.float64)
        self._true_power_ticks = 0
        self.time_s = 0.0
        self.period_index = 0
        self._last_ctl_ms = 0.0
        self._channels = trace_channels(n_chan, n_gpus)
        self._chan_index = {c: i for i, c in enumerate(self._channels)}
        # Per-period history: one (capacity, n, channels) array whose first
        # ``_n_rows`` rows are written, doubling like Trace. Growth is
        # zero-filled (untouched pages stay unmapped, and a snapshot of the
        # spare rows is deterministic); each row is NaN-filled when written.
        self._hist = np.zeros((16, n, len(self._channels)), dtype=np.float64)
        self._n_rows = 0

    def _init_mpc_rows(self, specs: list[SoaServerSpec]) -> None:
        """Set up the ``mpc`` rows' controllers: one reference
        :class:`~repro.core.CapGpuController` per row."""
        self._mpc_controllers = [s.build_controller() for s in specs]

    @property
    def names(self) -> list[str]:
        return list(self._names)

    # -- FleetBackend interface --------------------------------------------

    def _last_row(self) -> np.ndarray | None:
        """The latest period's ``(n, channels)`` row; None before the first."""
        return self._hist[self._n_rows - 1] if self._n_rows else None

    def states(self) -> list[ServerPowerState]:
        return _server_states(
            self._last_row(),
            self._chan_index,
            self.n_gpus,
            self._names,
            self._priorities,
            self._envelope,
        )

    def set_budgets(self, budgets_w: list[float]) -> None:
        self._check_budgets(budgets_w)
        self._set_point[:] = budgets_w

    def last_powers(self) -> list[float]:
        last = self._last_row()
        if last is None:
            raise ConfigurationError("fleet has not run yet")
        return last[:, self._chan_index["power_w"]].tolist()

    def server_trace(self, index: int) -> Trace:
        self._check_server_index(index)
        return Trace.from_array(self._channels, self._hist[: self._n_rows, index])

    def server_columns(self, names: tuple[str, ...]) -> list[np.ndarray]:
        hist = self._hist[: self._n_rows]
        return [hist[:, :, self._chan_index[name]] for name in names]

    def history_tables(self) -> dict[str, tuple[np.ndarray, int]]:
        return {"soa": (self._hist, self._n_rows)}

    # -- stepping ----------------------------------------------------------

    def _stage_targets(self, targets: np.ndarray) -> None:
        """Stage per-server target vectors (the one-tick command latency)."""
        if not np.isfinite(targets).all():
            raise ActuationError("non-finite frequency target in fleet command")
        # Domain clamp, exactly FrequencyDomain.clamp per channel.
        self._pending = np.minimum(np.maximum(targets, self._f_min), self._f_max)

    def run_periods(self, n: int) -> None:
        if n < 0:
            raise ConfigurationError("n_periods must be >= 0")
        # Every controller a spec names starts at f_min (the base
        # initial_targets), which _tgt holds from construction.
        for _ in range(n):
            self._run_one_period()

    def _run_one_period(self) -> None:
        cfg = self.config
        n = len(self.specs)
        dt = cfg.dt_s
        ticks = cfg.ticks_per_period
        spp = cfg.samples_per_period
        n_chan = self.n_channels
        n_gpus = self.n_gpus

        # Per-period noise: one slice per stream, consuming each server's
        # generator exactly as the scalar components would.
        wall = self._wall_noise.take(ticks).T
        meter_noise = self._meter_noise.take(spp)

        # The scalar clocks keep their per-tick float adds, for the whole
        # period first. The meter's window clock (shared: the fleet ticks in
        # lockstep) gives each sample's emission tick and window length.
        emit_at = [-1] * ticks
        window_s = []
        for t in range(ticks):
            self._acc_elapsed += dt
            self.time_s += dt
            self._m_accum_t += dt
            if self._m_accum_t + 1e-9 >= cfg.meter_interval_s:
                emit_at[t] = len(window_s)
                window_s.append(self._m_accum_t)
                self._m_accum_t = 0.0
        if len(window_s) != spp:
            raise ConfigurationError(
                f"meter emitted {len(window_s)} samples per period, expected {spp}"
            )

        # The running sums, one row each, in the order of a block's
        # increments: applied levels, completed batches, busy seconds per
        # channel, meter energy and true power.
        meter = 2 * n_chan + n_gpus
        sums = np.empty((meter + 2, n), dtype=np.float64)
        sums[:n_chan] = self._applied_sum.T
        sums[n_chan : n_chan + n_gpus] = self._tput_acc[:, 1:].T
        sums[n_chan + n_gpus : meter] = self._util_acc.T
        sums[meter] = self._m_accum_j
        sums[meter + 1] = self._true_power_sum
        # Each sample's window energy; (n, samples) in C order, so the
        # filter's row mean is numpy's mean of each server's window.
        energy = np.empty((n, spp), dtype=np.float64)
        block = max(1, min(ticks, CELLS // n))
        for start in range(0, ticks, block):
            end = start + block
            self._step_block(wall[start:end], sums, emit_at[start:end], energy)
        self._applied_sum[:] = sums[:n_chan].T
        self._applied_ticks += ticks
        self._tput_acc[:, 1:] = sums[n_chan : n_chan + n_gpus].T
        self._util_acc[:] = sums[n_chan + n_gpus : meter].T
        self._m_accum_j[:] = sums[meter]
        self._true_power_sum[:] = sums[meter + 1]
        self._true_power_ticks += ticks

        mean_w = energy / np.array(window_s)
        if cfg.meter_noise_sigma_w > 0:
            mean_w += meter_noise
        samples = np.rint(mean_w / cfg.meter_resolution_w) * cfg.meter_resolution_w
        self._observe_and_control(samples)

    def _step_block(
        self, wall: np.ndarray, sums: np.ndarray, emit_at: list[int], energy: np.ndarray
    ) -> None:
        """Advance the fleet ``len(wall)`` ticks; ``wall`` holds the ticks'
        ``(ticks, n)`` wall-noise innovations. ``sums`` holds the period's
        running sums; at a tick whose ``emit_at`` entry is ``k >= 0`` the
        meter's energy goes to column ``k`` of ``energy`` and restarts
        from 0.0.

        Blocks are laid out ``(channels, ticks, n)``: each channel's ticks
        and servers are one contiguous run, and per-channel constants
        broadcast as ``(channels, 1, 1)``. A block is updated in place once
        its old value is not needed again, which keeps large temporaries
        few; ``x *= c`` has the bits of ``c * x``.
        """
        dt = self.config.dt_s
        ticks, n = wall.shape
        n_chan = self.n_channels
        n_gpus = self.n_gpus
        # The running sums' per-tick increments share one block, rows in
        # the order of ``sums``, so one loop over the ticks adds them all.
        meter = 2 * n_chan + n_gpus
        increments = np.empty((meter + 2, ticks, n), dtype=np.float64)
        f = increments[:n_chan]
        done = increments[n_chan : n_chan + n_gpus]
        busy_s = increments[n_chan + n_gpus : meter]
        meter_j = increments[meter]
        p_true = increments[meter + 1]
        self._actuate(f)

        # Workloads (GPU channel order, like the engine's pipeline loop).
        demand = self._demand.T[:, None]
        capacity = f[1:] - self._law_fref
        capacity *= self._law_slope
        capacity += self._law_base  # base + slope * (f - f_ref)
        busy = demand / capacity
        np.minimum(busy, 1.0, out=busy)
        rate_dt = np.minimum(demand, capacity, out=capacity)
        rate_dt *= dt
        np.multiply(busy, dt, out=busy_s[1:])
        contrib = busy  # workers * min(busy * preproc_scale, 1)
        contrib *= self._law_preproc
        np.minimum(contrib, 1.0, out=contrib)
        contrib *= self._workers
        # CPU channel: preproc workers + the controller's own core.
        busy_cores = _sum_rows(contrib) + _CONTROLLER_CORE_UTIL
        cpu_util = np.minimum(busy_cores / self._n_cores, 1.0)
        np.multiply(cpu_util, dt, out=busy_s[0])
        u = np.empty_like(f)
        u[0] = cpu_util
        np.divide(busy_s[1:], dt, out=u[1:])  # the engine's (busy*dt)/dt round trip

        # Plant: idle + dyn * f * (floor + (1 - floor) * u) + quad * df * df
        # per channel, summed left-to-right (sequential adds match the
        # scalar fast path).
        df = f - self._pm_fref[:, None, None]
        load = self._pm_omf[:, None, None] * u
        load += self._pm_floor[:, None, None]
        pw = self._pm_dyn[:, None, None] * f
        pw *= load
        pw += self._pm_idle[:, None, None]
        np.multiply(self._pm_quad[:, None, None], df, out=load)
        load *= df
        pw += load
        p_base = self._base_power_w + _sum_rows(pw)
        cpu_uj = pw[0] * dt
        cpu_uj *= 1e6

        # The true recurrences, tick by tick: fractional-batch carry, the
        # AR(1) wall disturbance and the wrapping RAPL counter.
        frac = np.ascontiguousarray(self._frac_batches.T)
        noise = np.empty(wall.shape, dtype=np.float64)
        state = self._noise_state
        rapl = self._rapl_energy
        for j in range(ticks):
            frac += rate_dt[:, j]
            np.floor(frac, out=done[:, j])
            frac -= done[:, j]
            state = self._noise_rho * state + wall[j]
            noise[j] = state
            rapl += cpu_uj[j]
            rapl %= self._rapl_range_uj
        self._frac_batches[:] = frac.T
        self._noise_state = state
        np.add(p_base, noise, out=p_true)
        np.multiply(p_true, dt, out=meter_j)

        # Running sums: each adds its ticks, in order, to its carried value.
        meter_sum = sums[meter]
        for j, k in enumerate(emit_at):
            sums += increments[:, j]
            if k >= 0:
                energy[:, k] = meter_sum
                meter_sum[:] = 0.0
        self._f[:] = f[:, -1].T
        self._u[:] = u[:, -1].T

    def _actuate(self, levels: np.ndarray) -> None:
        """Fill ``levels``, ``(channels, ticks, n)``, with the delta-sigma
        actuator's applied levels for the next ticks.

        Pending commands are promoted first (the one-tick latency). The
        target then holds for the rest of the period, so a tick that leaves
        the error state unchanged repeats exactly on every later tick: the
        rollout stops there and copies its level forward.
        """
        if self._pending is not None:
            self._tgt = self._pending
            self._pending = None
        f_min = self._f_min[:, None]
        f_max = self._f_max[:, None]
        pitch = self._pitch[:, None]
        k_max = self._k_max[:, None]
        bound = self._err_bound[:, None]
        tgt = np.ascontiguousarray(self._tgt.T)
        err = np.ascontiguousarray(self._err.T)
        for j in range(levels.shape[1]):
            desired = tgt + err
            clipped = np.minimum(np.maximum(desired, f_min), f_max)
            k = np.floor((clipped - f_min) / pitch)
            np.minimum(k, k_max, out=k)
            below = f_min + pitch * k
            above = f_min + pitch * (k + 1.0)
            level = np.where((clipped - below) <= (above - clipped), below, above)
            levels[:, j] = level
            e = desired - level
            new_err = np.minimum(np.maximum(e, -bound), bound)
            if (new_err == err).all():
                levels[:, j + 1 :] = level[:, None]
                break
            err = new_err
        self._err = np.ascontiguousarray(new_err.T)

    def _filter_samples(
        self, samples: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The engine's staleness/plausibility/freeze filter, vectorized.

        Returns ``(keep mask, kept count, mean, (min, max) stacked)`` with
        NaN statistics for servers whose window came up empty.
        """
        spp = samples.shape[1]
        # The freeze run counts repeats of the previous sample, one sample
        # at a time; the plausibility test covers the window at once.
        run, last = self._freeze_run, self._last_sample_w
        for w in samples.T:
            run = np.where(w == last, run + 1, 0)
            last = w
        self._freeze_run = run
        self._last_sample_w = last.copy()
        keep = (
            np.isfinite(samples)
            & (samples >= self._plausible_lo_w)
            & (samples <= self._plausible_hi_w)
        )
        if self.config.meter_noise_sigma_w > 0:
            keep[self._freeze_run >= _FREEZE_DETECT_SAMPLES, :] = False
        count = keep.sum(axis=1)
        # Fast path: every sample kept → numpy's row mean, which equals the
        # engine's 1-D np.mean of the window at every window length.
        mean = np.where(count == spp, samples.mean(axis=1), np.nan)
        masked_hi = np.where(keep, samples, -np.inf)
        masked_lo = np.where(keep, samples, np.inf)
        has = count > 0
        pmax = np.where(has, masked_hi.max(axis=1), np.nan)
        pmin = np.where(has, masked_lo.min(axis=1), np.nan)
        # Degraded rows (some samples rejected): per-row scalar fallback.
        for i in np.nonzero(has & (count < spp))[0]:
            mean[i] = samples[i, keep[i]].mean()
        return keep, count, mean, np.stack([pmin, pmax])

    def _observe_and_control(self, samples: np.ndarray) -> None:
        n = len(self.specs)

        # Monitor flush + read (rate, running-max normalization, busy mean).
        elapsed = self._acc_elapsed
        tput_raw = self._tput_acc / elapsed
        max_seen = np.maximum(self._max_seen, tput_raw, out=self._max_seen)
        safe_den = np.where(max_seen > 0, max_seen, 1.0)
        tput_norm = np.where(
            max_seen > 0, np.minimum(tput_raw / safe_den, 1.0), 0.0
        )
        util = np.minimum(self._util_acc / elapsed, 1.0)
        self._tput_acc[:] = 0.0
        self._util_acc[:] = 0.0
        self._acc_elapsed = 0.0

        keep, count, mean_power, pminmax = self._filter_samples(samples)

        # NVML board powers of every GPU channel: model power at the
        # *clamped* utilization, plus per-query noise, through the
        # watts→mw→watts round trip.
        nvml = self._nvml_noise.take(self.n_gpus)
        g = slice(1, None)
        uc = np.minimum(np.maximum(self._u[:, g], 0.0), 1.0)
        fc = self._f[:, g]
        df = fc - self._pm_fref[g]
        raw = (
            self._pm_idle[g]
            + self._pm_dyn[g] * fc * (self._pm_floor[g] + (1.0 - self._pm_floor[g]) * uc)
            + self._pm_quad[g] * df * df
        )
        gpu_power = (np.maximum(raw + nvml, 0.0) * 1e3) / 1e3
        gpu_sum = _sum_rows(gpu_power.T)

        # RAPL window power since the previous observation (frozen-counter
        # holdover included), truncating the float counter like the sysfs read.
        now_uj = self._rapl_energy.astype(np.int64)
        d_uj = now_uj - self._rapl_anchor_uj
        d_uj = np.where(d_uj < 0, d_uj + self._rapl_range_uj, d_uj)
        dt_win = self.time_s - self._rapl_anchor_t
        if dt_win > 0:
            hold = (d_uj == 0) & self._has_last_cpu
            computed = microjoules_to_joules_array(d_uj) / dt_win
            cpu_power = np.where(hold, self._last_cpu_power, computed)
            fresh = ~hold
            self._last_cpu_power = np.where(fresh, cpu_power, self._last_cpu_power)
            self._has_last_cpu = self._has_last_cpu | fresh
        else:
            cpu_power = np.full(n, np.nan)
        self._rapl_anchor_uj = now_uj
        self._rapl_anchor_t = self.time_s

        finite = np.isfinite(cpu_power) & np.isfinite(gpu_sum)
        power_alt = np.where(
            finite, cpu_power + gpu_sum + self._base_power_w, np.nan
        )

        # The degradation ladder per server.
        has = count > 0
        alt_ok = np.isfinite(power_alt)
        power = np.where(
            has,
            mean_power,
            np.where(
                alt_ok,
                power_alt,
                np.where(self._has_last_good, self._last_good_power, np.nan),
            ),
        )
        src_code = np.where(
            has,
            0.0,
            np.where(alt_ok, 1.0, np.where(self._has_last_good, 2.0, 3.0)),
        )
        self._stale_periods = np.where(has, 0, self._stale_periods + 1)
        self._last_good_power = np.where(has, power, self._last_good_power)
        self._has_last_good = self._has_last_good | has

        # Actuator read-back: tick-averaged applied frequency per channel.
        if self._applied_ticks:
            f_applied = self._applied_sum / self._applied_ticks
            self._applied_sum[:] = 0.0
            self._applied_ticks = 0
        else:
            f_applied = self._tgt.copy()

        readings = PeriodReadings(
            samples=samples,
            keep=keep,
            count=count,
            pminmax=pminmax,
            power=power,
            src_code=src_code,
            power_alt=power_alt,
            cpu_power=cpu_power,
            gpu_power=gpu_power,
            util=util,
            tput_raw=tput_raw,
            tput_norm=tput_norm,
            f_applied=f_applied,
        )
        t0 = time.perf_counter()  # repro-lint: disable=REP101 -- ctl_ms is timing telemetry, excluded from digests (runner.TIMING_KEYS)
        new_targets = self._controller_targets(readings)
        self._last_ctl_ms = seconds_to_milliseconds(
            time.perf_counter() - t0  # repro-lint: disable=REP101 -- same timing window as t0 above
        )
        self._last_commanded = new_targets.copy()
        self._stage_targets(new_targets)

        self._record_period(readings)
        self.period_index += 1

    def _controller_targets(self, r: PeriodReadings) -> np.ndarray:
        """The fleet's next ``(n, channels)`` targets: the fixed-step bank's
        rows, then the MPC rows."""
        targets = np.empty_like(self._tgt)
        targets[self._fs_rows] = self._fixed_step_targets(r.power, r.util)
        if self._mpc_rows.size:
            targets[self._mpc_rows] = self._mpc_targets(r)
        return targets

    def _fixed_step_targets(self, power: np.ndarray, util: np.ndarray) -> np.ndarray:
        """The fixed-step rows' next targets, one array program for all of
        them: each row moves as its :class:`FixedStepController` would
        (safe-fixed-step rows against the margin-shifted set point), with
        the same comparisons, the same round-robin cursor and the same
        float operations. ``power`` and ``util`` cover the whole fleet."""
        rows = self._fs_rows
        targets = self._tgt[rows]
        util = util[rows]
        err = (self._set_point[rows] - self._fs_margin) - power[rows]
        # The scalar guard is `abs(err) <= deadband: hold`, so a NaN error
        # falls through and moves (direction -1); negate the hold test to match.
        active = ~(np.abs(err) <= self._fs_deadband)
        raise_f = err > 0

        up_movable = targets < self._f_max - 1e-9
        down_movable = targets > self._f_min + 1e-9
        movable = np.where(raise_f[:, None], up_movable, down_movable)
        has_movable = movable.any(axis=1)

        best_up = np.where(movable, util, -np.inf).max(axis=1)
        best_down = np.where(movable, util, np.inf).min(axis=1)
        best = np.where(raise_f, best_up, best_down)
        tied = movable & (np.abs(util - best[:, None]) <= _UTIL_TIE_TOL)
        n_tied = np.maximum(tied.sum(axis=1), 1)

        move = active & has_movable
        pick = self._fs_rr % n_tied  # the scalar round-robin cursor, per row
        cum = np.cumsum(tied, axis=1)
        channel = np.argmax(tied & (cum == (pick + 1)[:, None]), axis=1)
        self._fs_rr = np.where(move, self._fs_rr + 1, self._fs_rr)

        moved = np.nonzero(move)[0]
        cols = channel[moved]
        direction = np.where(raise_f[moved], 1.0, -1.0)
        base = np.where(cols == 0, CPU_STEP_MHZ, GPU_STEP_MHZ)  # channel 0 is the CPU
        delta = direction * base * self._fs_step[moved]
        targets[moved, cols] = np.clip(
            targets[moved, cols] + delta, self._f_min[cols], self._f_max[cols]
        )
        return targets

    def _mpc_targets(self, r: PeriodReadings) -> np.ndarray:
        """The MPC rows' next targets: one reference controller step per
        row, fed a per-server observation."""
        n_chan = self.n_channels
        cpu_channels = (0,)
        gpu_channels = tuple(range(1, n_chan))
        targets = np.empty((self._mpc_rows.size, n_chan), dtype=np.float64)
        for j, i in enumerate(self._mpc_rows):
            if self._last_commanded is not None:
                act_err = r.f_applied[i] - self._last_commanded[i]
            else:
                act_err = np.full(n_chan, np.nan)
            obs = ControlObservation(
                period_index=self.period_index,
                time_s=self.time_s,
                power_w=float(r.power[i]),
                power_samples_w=r.samples[i, r.keep[i]],
                set_point_w=float(self._set_point[i]),
                f_targets_mhz=self._tgt[i].copy(),
                f_applied_mhz=r.f_applied[i],
                f_min_mhz=self._f_min.copy(),
                f_max_mhz=self._f_max.copy(),
                utilization=r.util[i],
                throughput_norm=r.tput_norm[i],
                throughput_raw=r.tput_raw[i],
                cpu_channels=cpu_channels,
                gpu_channels=gpu_channels,
                slos_s={},
                cpu_power_w=float(r.cpu_power[i]),
                gpu_power_w=r.gpu_power[i],
                power_source=POWER_SOURCES[int(r.src_code[i])],
                power_alt_w=float(r.power_alt[i]),
                fresh_samples=int(r.count[i]),
                stale_periods=int(self._stale_periods[i]),
                actuation_error_mhz=act_err,
            )
            controller = self._mpc_controllers[j]
            targets[j] = controller.step(obs)
            controller.batch_commands(obs)  # static load is batch-agnostic
        return targets

    def _record_period(self, r: PeriodReadings) -> None:
        if self._n_rows == self._hist.shape[0]:
            grown = np.zeros((max(2 * self._n_rows, 16),) + self._hist.shape[1:])
            grown[: self._n_rows] = self._hist
            self._hist = grown
        row = self._hist[self._n_rows]
        row[...] = np.nan
        ix = self._chan_index
        row[:, ix["time_s"]] = self.time_s
        row[:, ix["period"]] = float(self.period_index)
        row[:, ix["set_point_w"]] = self._set_point
        row[:, ix["power_w"]] = r.power
        row[:, ix["power_min_w"]] = r.pminmax[0]
        row[:, ix["power_max_w"]] = r.pminmax[1]
        row[:, ix["ctl_ms"]] = self._last_ctl_ms
        row[:, ix["true_power_w"]] = self._true_power_sum / self._true_power_ticks
        self._true_power_sum[:] = 0.0
        self._true_power_ticks = 0
        row[:, ix["power_src"]] = r.src_code
        row[:, ix["fresh_samples"]] = r.count.astype(np.float64)
        row[:, ix["safe_mode"]] = 0.0  # no controller a spec names has a safe mode
        groups = (self._tgt, r.f_applied, r.util, r.tput_raw, r.tput_norm)
        for columns, values in zip(_group_columns(self.n_channels, self.n_gpus), groups):
            row[:, columns] = values
        # Latency channels stay NaN: the static-load law reports no
        # per-batch latencies (matching its scalar twin), and no SLOs or
        # feature-selection workload exist on the SoA path.
        row[:, ix["cpu_tput"]] = r.tput_raw[:, 0]
        self._n_rows += 1


class SoaRows(FleetBackend):
    """One bank member's servers: a run of rows of a shared
    :class:`SoaFleetBackend`.

    It reads and writes only its own rows and reports the member's own
    server names, so the member's fleet trace has the channels it would
    have on a backend of its own. Only the bank steps the shared backend
    (:class:`~repro.fleet.engine.FleetBank`); a slice refuses
    :meth:`run_periods`.
    """

    def __init__(self, soa: SoaFleetBackend, start: int, names: list[str]):
        self._soa = soa
        self._start = start
        self._stop = start + len(names)
        self._names = list(names)

    @property
    def _rows(self) -> slice:
        return slice(self._start, self._stop)

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def states(self) -> list[ServerPowerState]:
        soa = self._soa
        last = soa._last_row()
        return _server_states(
            None if last is None else last[self._rows],
            soa._chan_index,
            soa.n_gpus,
            self._names,
            soa._priorities[self._rows],
            soa._envelope,
        )

    def set_budgets(self, budgets_w: list[float]) -> None:
        self._check_budgets(budgets_w)
        self._soa._set_point[self._rows] = budgets_w

    def run_periods(self, n: int) -> None:
        raise ConfigurationError(
            "a bank member's rows step only through its bank (FleetBank.run)"
        )

    def last_powers(self) -> list[float]:
        return self._soa.last_powers()[self._rows]

    def server_trace(self, index: int) -> Trace:
        self._check_server_index(index)
        return self._soa.server_trace(self._start + index)

    def server_columns(self, names: tuple[str, ...]) -> list[np.ndarray]:
        return [column[:, self._rows] for column in self._soa.server_columns(names)]
