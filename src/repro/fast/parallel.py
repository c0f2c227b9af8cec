"""Shared-memory parallel fleet stepping (fast engine only).

:class:`ParallelFleetBackend` shards a homogeneous fleet across worker
processes, each owning a :class:`~repro.fast.fleet.FastFleetBackend` for a
contiguous slice of the server list. Control-plane commands (run N periods,
set budgets) travel over pipes; the data plane — the per-server telemetry
row each control period ends with — is written by every worker into its
slice of one ``multiprocessing.shared_memory`` block, so the parent reads
fleet-wide power/state for the allocator without serializing a single
array.

Servers never interact inside a period (budgets only change between
``run_periods`` calls) and every server's RNG streams are seeded from its
own spec. So for fixed-step fleets the results are exact: they equal a
single-process :class:`FastFleetBackend` over the same specs, and
``tests/golden/test_fast_backends.py`` pins their digests. MPC fleets are
not exact: the MPC bank's ``g0 @ gains.g_f.T`` and its multi-RHS
``np.linalg.solve`` round differently with the number of rows in the
batch, so a worker's slice can differ from the whole fleet in the last bit
(2.3e-13 MHz of ``f_tgt_0`` on ``mpc-static``, 4 servers, 2 workers). They
agree within the ``repro.equiv`` tolerances, which
``test_parallel_backend_equivalence`` gates.

Lifecycle: workers are daemonic (they die with the parent at worst);
call :meth:`close` — or use the backend as a context manager — to shut
them down and unlink the shared segment deterministically.
"""

from __future__ import annotations

import multiprocessing as mp
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from ..cluster.allocator import ServerPowerState
from ..errors import ConfigurationError
from ..fleet.engine import FleetBackend
from ..fleet.soa import DEFAULT_GPU_SPECS, SoaServerSpec, _server_states
from ..sim.engine import SimConfig
from ..telemetry.trace import Trace
from ..workloads.static import StaticLoadSpec

__all__ = ["ParallelFleetBackend"]


def _worker_main(
    conn: Any,
    specs: list[SoaServerSpec],
    gpu_specs: tuple[StaticLoadSpec, ...],
    config: SimConfig,
    shm_name: str,
    n_total: int,
    n_trace_channels: int,
    start: int,
) -> None:
    """Worker loop: own a fleet slice, mirror each period's last row to shm."""
    from .fleet import FastFleetBackend

    backend = FastFleetBackend(specs, gpu_specs, config)
    shm = shared_memory.SharedMemory(name=shm_name)
    rows = np.ndarray(
        (n_total, n_trace_channels), dtype=np.float64, buffer=shm.buf
    )
    view = rows[start : start + len(specs)]
    try:
        while True:
            cmd, payload = conn.recv()
            if cmd == "run":
                backend.run_periods(payload)
                view[:] = backend._last_row()
                conn.send(("ok", backend.period_index))
            elif cmd == "budgets":
                backend.set_budgets(payload)
                conn.send(("ok", None))
            elif cmd == "trace":
                conn.send(("ok", backend.server_trace(payload).as_array()))
            elif cmd == "close":
                conn.send(("ok", None))
                return
            else:  # pragma: no cover - protocol guard
                conn.send(("error", f"unknown command {cmd!r}"))
    finally:
        shm.close()
        conn.close()


class ParallelFleetBackend(FleetBackend):
    """Chunked multi-process fast fleet with a shared-memory data plane."""

    def __init__(
        self,
        specs: list[SoaServerSpec],
        gpu_specs: tuple[StaticLoadSpec, ...] = DEFAULT_GPU_SPECS,
        config: SimConfig = SimConfig(),
        n_workers: int = 2,
    ):
        from .fleet import FastFleetBackend

        if n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if n_workers > len(specs):
            n_workers = len(specs)
        # A one-server probe supplies the trace layout, envelope and name
        # validation (FastFleetBackend runs the full spec checks per chunk).
        probe = FastFleetBackend(list(specs[:1]), gpu_specs, config)
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate server names: {names}")
        self.specs = list(specs)
        self.gpu_specs = tuple(gpu_specs)
        self.config = config
        self.n_gpus = probe.n_gpus
        self._names = names
        self._priorities = [s.priority for s in specs]
        self._envelope = probe._envelope
        self._channels = probe._channels
        self._chan_index = dict(probe._chan_index)
        n = len(specs)

        # The shared data plane: one row of trace channels per server,
        # refreshed by each worker after every run_periods barrier.
        self._shm = shared_memory.SharedMemory(
            create=True, size=n * len(self._channels) * 8
        )
        self._rows = np.ndarray(
            (n, len(self._channels)), dtype=np.float64, buffer=self._shm.buf
        )
        self._rows[:] = np.nan

        bounds = np.linspace(0, n, n_workers + 1).astype(int)
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self._conns = []
        self._procs = []
        self._slices: list[tuple[int, int]] = []
        for w in range(n_workers):
            lo, hi = int(bounds[w]), int(bounds[w + 1])
            if lo == hi:
                continue
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    self.specs[lo:hi],
                    self.gpu_specs,
                    config,
                    self._shm.name,
                    n,
                    len(self._channels),
                    lo,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
            self._slices.append((lo, hi))
        self._ran = False
        self._closed = False
        self.period_index = 0

    @property
    def n_workers(self) -> int:
        """Live worker processes (capped at the fleet size)."""
        return len(self._procs)

    # -- control plane -------------------------------------------------------

    def _broadcast(self, cmd: str, payloads: list[Any]) -> list[Any]:
        """Scatter a command to every worker, then barrier on the acks."""
        if self._closed:
            raise ConfigurationError("parallel fleet backend is closed")
        for conn, payload in zip(self._conns, payloads):
            conn.send((cmd, payload))
        results = []
        for conn in self._conns:
            status, value = conn.recv()
            if status != "ok":  # pragma: no cover - protocol guard
                raise ConfigurationError(f"fleet worker failed: {value}")
            results.append(value)
        return results

    def run_periods(self, n: int) -> None:
        if n < 0:
            raise ConfigurationError("n_periods must be >= 0")
        if n == 0:
            return
        self._broadcast("run", [n] * len(self._conns))
        self.period_index += n
        self._ran = True

    def set_budgets(self, budgets_w: list[float]) -> None:
        self._check_budgets(budgets_w)
        payloads = [list(budgets_w[lo:hi]) for lo, hi in self._slices]
        self._broadcast("budgets", payloads)

    # -- data plane (reads straight from the shared segment) -----------------

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def states(self) -> list[ServerPowerState]:
        return _server_states(
            self._rows if self._ran else None,
            self._chan_index,
            self.n_gpus,
            self._names,
            self._priorities,
            self._envelope,
        )

    def last_powers(self) -> list[float]:
        if not self._ran:
            raise ConfigurationError("fleet has not run yet")
        return self._rows[:, self._chan_index["power_w"]].tolist()

    def server_trace(self, index: int) -> Trace:
        self._check_server_index(index)
        for w, (lo, hi) in enumerate(self._slices):
            if lo <= index < hi:
                conn = self._conns[w]
                conn.send(("trace", index - lo))
                status, rows = conn.recv()
                if status != "ok":  # pragma: no cover - protocol guard
                    raise ConfigurationError(f"fleet worker failed: {rows}")
                return Trace.from_array(self._channels, rows)
        raise ConfigurationError(f"no worker owns server index {index}")

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop the workers and release the shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("close", None))
                conn.recv()
            except (OSError, EOFError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - stuck-worker fallback
                proc.terminate()
        del self._rows
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> ParallelFleetBackend:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            if not getattr(self, "_closed", True):
                self.close()
        except Exception:
            pass
