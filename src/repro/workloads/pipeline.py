"""End-to-end ML inference pipeline: CPU preprocessing -> queue -> GPU batches.

Reproduces the serving structure of Sections 3.2 and 5 of the paper:

* one or more CPU *producer* cores run preprocessing (resize / normalize /
  tensor conversion) at a rate proportional to their clock;
* preprocessed images land in a shared bounded queue;
* a GPU-bound consumer assembles fixed-size batches and runs inference with
  the Eq. 8 frequency-latency model (executed as work units progressing at
  ``(f/f_max)^gamma``, so mid-batch frequency changes — e.g. delta-sigma
  dithering — integrate correctly).

Two couplings are supported (Section 6.2 distinguishes them):

* ``preproc_frequency="cpu"`` — producer cores follow the controlled CPU
  clock (the Table 1 motivation box throttles the whole package);
* ``preproc_frequency="fixed"`` — producer cores are exempt from DVFS (the
  evaluation testbed regulates only the feature-selection cores, leaving the
  data-preparation cores at a fixed clock).

The pipeline can run *saturated* (infinite backlog — evaluation default),
*open-loop* against an :class:`~repro.workloads.request_gen.ArrivalProcess`,
or *closed-loop* with a bounded number of in-flight images (the motivation
experiment's ten request streams).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Protocol

import numpy as np

from ..errors import ConfigurationError
from ..rng import BlockSampler
from ..units import require_positive
from .models import InferenceModelSpec, sample_batch_work
from .request_gen import ArrivalProcess, SaturatedArrivals

__all__ = ["PipelineConfig", "PipelineTick", "GpuWorkload", "InferencePipeline"]

_LATENCY_WINDOW = 512  # recent per-batch samples kept for percentile stats


@dataclass(frozen=True)
class PipelineConfig:
    """Serving configuration of one inference pipeline.

    Parameters
    ----------
    n_workers:
        Number of dedicated CPU preprocessing cores (paper: one per GPU
        workload on the testbed; ten on the motivation box).
    queue_capacity_img:
        Bound of the shared tensor queue in images.
    inflight_limit_img:
        Closed-loop window: maximum images preprocessed-but-not-inferred at
        any time (``None`` = open loop).
    preproc_frequency:
        ``"cpu"`` (producers follow the controlled clock) or ``"fixed"``.
    fixed_preproc_ghz:
        Producer clock when ``preproc_frequency="fixed"``.
    """

    n_workers: int = 1
    queue_capacity_img: int = 400
    inflight_limit_img: int | None = None
    preproc_frequency: str = "cpu"
    fixed_preproc_ghz: float = 2.4

    def __post_init__(self):
        if self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if self.queue_capacity_img < 1:
            raise ConfigurationError("queue_capacity_img must be >= 1")
        if self.inflight_limit_img is not None and self.inflight_limit_img < 1:
            raise ConfigurationError("inflight_limit_img must be >= 1 or None")
        if self.preproc_frequency not in ("cpu", "fixed"):
            raise ConfigurationError("preproc_frequency must be 'cpu' or 'fixed'")
        require_positive(self.fixed_preproc_ghz, "fixed_preproc_ghz")


class PipelineTick:
    """Per-tick pipeline observations fed to monitors and traces.

    A plain slots class rather than a dataclass: one is allocated per
    pipeline per simulation tick, so construction cost matters.
    """

    __slots__ = (
        "images_preprocessed",
        "batches_completed",
        "images_completed",
        "batch_latencies_s",
        "queue_waits_s",
        "gpu_busy_s",
        "preproc_busy_frac",
        "queue_len_img",
    )

    def __init__(
        self,
        images_preprocessed: float = 0.0,
        batches_completed: int = 0,
        images_completed: int = 0,
        batch_latencies_s: list | None = None,
        queue_waits_s: list | None = None,
        gpu_busy_s: float = 0.0,
        preproc_busy_frac: float = 0.0,
        queue_len_img: float = 0.0,
    ):
        self.images_preprocessed = images_preprocessed
        self.batches_completed = batches_completed
        self.images_completed = images_completed
        self.batch_latencies_s = [] if batch_latencies_s is None else batch_latencies_s
        self.queue_waits_s = [] if queue_waits_s is None else queue_waits_s
        self.gpu_busy_s = gpu_busy_s
        self.preproc_busy_frac = preproc_busy_frac
        self.queue_len_img = queue_len_img


class _RunningBatch:
    __slots__ = ("work_s", "progress_s", "start_t", "queue_wait_s", "n_images")

    def __init__(self, work_s: float, start_t: float, queue_wait_s: float,
                 n_images: int):
        self.work_s = work_s
        self.progress_s = 0.0
        self.start_t = start_t
        self.queue_wait_s = queue_wait_s
        self.n_images = n_images


class GpuWorkload(Protocol):
    """Structural interface :class:`~repro.sim.engine.ServerSimulation`
    requires of a per-GPU workload.

    Satisfied by :class:`InferencePipeline` (the full queued serving model)
    and by :class:`~repro.workloads.static.StaticLoadPipeline` (the
    closed-form fleet model). ``spec`` must expose ``max_batch_rate_s()``
    (throughput-monitor normalization hint).
    """

    config: PipelineConfig
    spec: Any

    def step(
        self, t_s: float, dt_s: float, cpu_ghz: float, gpu_mhz: float
    ) -> PipelineTick: ...

    def set_batch_size(self, batch: int) -> None: ...


class InferencePipeline:
    """Simulates one model's serving pipeline on one GPU."""

    def __init__(
        self,
        spec: InferenceModelSpec,
        config: PipelineConfig,
        rng: np.random.Generator,
        arrivals: ArrivalProcess | None = None,
    ):
        if config.queue_capacity_img < spec.batch_size:
            raise ConfigurationError(
                "queue capacity must hold at least one batch "
                f"({config.queue_capacity_img} < {spec.batch_size})"
            )
        if (
            config.inflight_limit_img is not None
            and config.inflight_limit_img < spec.batch_size
        ):
            raise ConfigurationError(
                "inflight limit must admit at least one batch "
                f"({config.inflight_limit_img} < {spec.batch_size})"
            )
        self.spec = spec
        self.config = config
        self._rng = rng
        # Jitter draws pre-fetched in blocks; batch draws consume the
        # generator stream identically to per-batch scalar draws, so sampled
        # work (and digests) are those of one draw per batch.
        self._work_sampler = (
            BlockSampler(rng, "lognormal", (0.0, spec.jitter_sigma))
            if spec.jitter_sigma > 0
            else None
        )
        # Current assembly size; mutable at run time (dynamic-batching
        # extension). Starts at the spec's reference batch size.
        self._batch_size = int(spec.batch_size)
        # Hot-path caches. Clocks take few distinct values (discrete DVFS
        # levels), so the per-tick powers/divisions are memoized on the exact
        # float frequency — cache hits return the identical float64 the
        # direct expression would produce.
        self._gpu_rate_cache: dict[float, float] = {}
        self._preproc_rate_cache: dict[float, float] = {}
        self.arrivals = arrivals if arrivals is not None else SaturatedArrivals()
        # FIFO of [image_count, mean_push_time] chunks (fluid approximation).
        self._queue: deque[list] = deque()
        self._queue_len = 0.0
        self._pending_img = 0.0  # offered but not yet preprocessed (finite modes)
        self._batch: _RunningBatch | None = None
        self.completed_images = 0
        self.completed_batches = 0
        self.recent_latencies_s: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self.recent_queue_waits_s: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._total_latency_s = 0.0
        self._total_queue_wait_s = 0.0

    # -- derived rates -------------------------------------------------------

    def preproc_rate_img_s(self, cpu_freq_ghz: float) -> float:
        """Aggregate producer rate at the effective preprocessing clock."""
        f = (
            self.config.fixed_preproc_ghz
            if self.config.preproc_frequency == "fixed"
            else cpu_freq_ghz
        )
        return self.config.n_workers * f / self.spec.preproc_cost_core_ghz_s

    def preproc_latency_s(self, cpu_freq_ghz: float) -> float:
        """Per-image preprocessing time on one producer core."""
        f = (
            self.config.fixed_preproc_ghz
            if self.config.preproc_frequency == "fixed"
            else cpu_freq_ghz
        )
        return self.spec.preproc_cost_core_ghz_s / f

    @property
    def queue_len_img(self) -> float:
        """Images currently waiting in the shared queue."""
        return self._queue_len

    @property
    def batch_size(self) -> int:
        """Current assembly batch size (mutable via :meth:`set_batch_size`)."""
        return self._batch_size

    def set_batch_size(self, batch: int) -> None:
        """Change the assembly batch size (affects the *next* batch).

        Must stay within what the queue and the in-flight window can hold.
        """
        if batch < 1:
            raise ConfigurationError("batch must be >= 1")
        if batch > self.config.queue_capacity_img:
            raise ConfigurationError(
                f"batch {batch} exceeds queue capacity "
                f"{self.config.queue_capacity_img}"
            )
        if (
            self.config.inflight_limit_img is not None
            and batch > self.config.inflight_limit_img
        ):
            raise ConfigurationError(
                f"batch {batch} exceeds in-flight limit "
                f"{self.config.inflight_limit_img}"
            )
        self._batch_size = int(batch)

    @property
    def inflight_img(self) -> float:
        """Images preprocessed but not yet inferred."""
        batch = self._batch.n_images if self._batch is not None else 0
        return self._queue_len + batch

    @property
    def gpu_busy(self) -> bool:
        """True while a batch is running."""
        return self._batch is not None

    # -- statistics ----------------------------------------------------------

    def mean_batch_latency_s(self) -> float:
        """Lifetime mean per-batch inference latency (NaN before any batch)."""
        if self.completed_batches == 0:
            return float("nan")
        return self._total_latency_s / self.completed_batches

    def mean_queue_wait_s(self) -> float:
        """Lifetime mean per-image queue wait (NaN before any batch)."""
        if self.completed_batches == 0:
            return float("nan")
        return self._total_queue_wait_s / self.completed_batches

    def latency_percentile_s(self, q: float) -> float:
        """Recent-window latency percentile, ``q`` in (0, 1)."""
        if not self.recent_latencies_s:
            return float("nan")
        return float(np.quantile(np.asarray(self.recent_latencies_s), q))

    # -- dynamics --------------------------------------------------------------

    def step(
        self, t_s: float, dt_s: float, cpu_freq_ghz: float, gpu_freq_mhz: float
    ) -> PipelineTick:
        """Advance the pipeline one tick; returns the tick's observations."""
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        tick = PipelineTick()
        pending = self._pending_img
        queue_len = self._queue_len

        # 1. offered load
        new = self.arrivals.arrivals(t_s, dt_s)
        if math.isinf(new):
            pending = math.inf
        else:
            if math.isinf(pending):
                # The arrival process changed from saturated to metered
                # (e.g. an ArrivalRateChange event): the infinite backlog
                # was notional, so restart metered accounting from zero.
                pending = 0.0
            pending += new

        # 2. preprocessing: bounded by capacity, backlog, queue space, window
        rate = self._preproc_rate_cache.get(cpu_freq_ghz)
        if rate is None:
            rate = self._preproc_rate_cache[cpu_freq_ghz] = self.preproc_rate_img_s(
                cpu_freq_ghz
            )
        capacity = rate * dt_s
        space = self.config.queue_capacity_img - queue_len
        window = (
            math.inf
            if self.config.inflight_limit_img is None
            else max(self.config.inflight_limit_img - self.inflight_img, 0.0)
        )
        produced = max(min(capacity, pending, space, window), 0.0)
        if produced > 0:
            if not math.isinf(pending):
                pending -= produced
            self._queue.append([produced, t_s + 0.5 * dt_s])
            queue_len += produced
        self._pending_img = pending
        self._queue_len = queue_len
        tick.images_preprocessed = produced
        tick.preproc_busy_frac = produced / capacity if capacity > 0 else 0.0

        # 3. GPU progress, with sub-tick completion accounting: when a batch
        # finishes inside the tick, the exact completion instant is recovered
        # from the progress overshoot (otherwise every latency sample would
        # carry a +O(dt) quantization bias), and the spare tail of the tick
        # immediately serves the next batch if one can be assembled.
        batch = self._batch
        if batch is not None:
            rate = self._gpu_rate_cache.get(gpu_freq_mhz)
            if rate is None:
                rate = self._gpu_rate_cache[gpu_freq_mhz] = (
                    gpu_freq_mhz / self.spec.f_gmax_mhz
                ) ** self.spec.gamma
            batch.progress_s += dt_s * rate
            tick.gpu_busy_s = dt_s
            if batch.progress_s >= batch.work_s:
                overshoot = batch.progress_s - batch.work_s
                spare_s = overshoot / rate if rate > 0 else 0.0
                spare_s = min(spare_s, dt_s)
                completion_t = t_s + dt_s - spare_s
                self._complete_batch(completion_t, tick)
                if self._queue_len >= self._batch_size:
                    self._start_batch(completion_t)
                    self._batch.progress_s += spare_s * rate
                else:
                    tick.gpu_busy_s = dt_s - spare_s

        # 4. batch assembly when idle (images that arrived this tick count)
        if self._batch is None and self._queue_len >= self._batch_size:
            self._start_batch(t_s + dt_s)

        tick.queue_len_img = self._queue_len
        return tick

    def _complete_batch(self, now_s: float, tick: PipelineTick) -> None:
        batch = self._batch
        assert batch is not None
        latency = now_s - batch.start_t
        self._batch = None
        self.completed_batches += 1
        self.completed_images += batch.n_images
        self._total_latency_s += latency
        self._total_queue_wait_s += batch.queue_wait_s
        self.recent_latencies_s.append(latency)
        self.recent_queue_waits_s.append(batch.queue_wait_s)
        tick.batches_completed += 1
        tick.images_completed += batch.n_images
        tick.batch_latencies_s.append(latency)
        tick.queue_waits_s.append(batch.queue_wait_s)

    def _start_batch(self, now_s: float) -> None:
        n_images = self._batch_size
        need = float(n_images)
        weighted_age = 0.0
        taken = 0.0
        while need > 1e-12 and self._queue:
            chunk = self._queue[0]
            take = min(chunk[0], need)
            weighted_age += take * (now_s - chunk[1])
            chunk[0] -= take
            need -= take
            taken += take
            if chunk[0] <= 1e-12:
                self._queue.popleft()
        self._queue_len = max(self._queue_len - taken, 0.0)
        queue_wait = weighted_age / taken if taken > 0 else 0.0
        work = sample_batch_work(
            self.spec, self._rng, batch=n_images, sampler=self._work_sampler
        )
        self._batch = _RunningBatch(work, now_s, queue_wait, n_images)

    def reset(self) -> None:
        """Return to the empty initial state (keeps spec/config/rng)."""
        self._queue.clear()
        self._queue_len = 0.0
        self._pending_img = 0.0
        self._batch = None
        self.completed_images = 0
        self.completed_batches = 0
        self.recent_latencies_s.clear()
        self.recent_queue_waits_s.clear()
        self._total_latency_s = 0.0
        self._total_queue_wait_s = 0.0
        self._batch_size = int(self.spec.batch_size)
        self.arrivals.reset()
