"""Relaxed-semantics fleet backend: the SoA period with controller banks.

:class:`FastFleetBackend` subclasses the bit-identical
:class:`~repro.fleet.soa.SoaFleetBackend` and steps its period body
unchanged: the same window step, meter filter, degradation ladder and trace
rows. It overrides one method, the controller step
(``_controller_targets``), and relaxes two things there:

* **vectorized controller banks** — homogeneous fixed-step/safe-fixed-step
  fleets step as one array program (no per-server Python controller
  objects in the loop);
* **pre-solved MPC gains** — MPC fleets evaluate the process-global
  pre-solved gain cache of :class:`~repro.fast.mpc.FastMimoPowerMpc` with
  one batched matmul for the whole fleet per control period, instead of an
  SLSQP solve per server.

RNG streams are untouched: each server consumes exactly the same
per-server noise draws as its reference twin. A fixed-step bank reproduces
the ``soa`` digests of every registered scenario
(``tests/golden/test_fast_backends.py``); MPC differences come from the
analytic (projected) solve, and ``repro.equiv`` bounds them statistically.

Supported fleets are the SoA-capable ones with ``fixed-step``/
``safe-fixed-step`` (mixed freely) or ``mpc`` controllers; anything else
should run on the ``soa`` or ``reference`` backends, which accept arbitrary
controller objects.
"""

from __future__ import annotations

import numpy as np

from ..control.fixed_step import CPU_STEP_MHZ, GPU_STEP_MHZ, _UTIL_TIE_TOL
from ..core.mpc import MpcConfig
from ..core.weights import WeightAssigner
from ..errors import ConfigurationError
from ..fleet.soa import (
    DEFAULT_GPU_SPECS,
    PeriodReadings,
    SoaFleetBackend,
    SoaServerSpec,
    fleet_identified_model,
)
from ..sim.engine import SimConfig
from ..workloads.static import StaticLoadSpec
from .mpc import FastMimoPowerMpc

__all__ = ["FastFleetBackend"]

#: Controller kinds the vectorized banks cover.
_FIXED_STEP_KINDS = frozenset({"fixed-step", "safe-fixed-step"})


class FastFleetBackend(SoaFleetBackend):
    """The fast fleet: the SoA period, stepped by a vectorized controller bank."""

    def __init__(
        self,
        specs: list[SoaServerSpec],
        gpu_specs: tuple[StaticLoadSpec, ...] = DEFAULT_GPU_SPECS,
        config: SimConfig = SimConfig(),
    ):
        kinds = {s.controller for s in specs}
        if kinds == {"mpc"}:
            self._bank = "mpc"
        elif kinds <= _FIXED_STEP_KINDS:
            self._bank = "fixed-step"
        else:
            raise ConfigurationError(
                f"fast backend supports fixed-step/safe-fixed-step or all-mpc "
                f"fleets, got controllers {sorted(kinds)}; run mixed or custom "
                f"fleets on the 'soa' or 'reference' backend"
            )
        super().__init__(specs, gpu_specs, config)
        n = len(specs)
        n_chan = self.n_channels

        if self._bank == "mpc":
            # One shared solver + one (a, r) cache entry for the whole
            # fleet: uniform penalty weights and the shared identified model
            # make the MPC matrices constant across servers and periods.
            model = fleet_identified_model()
            self._mpc = FastMimoPowerMpc(n_chan, MpcConfig())
            self._mpc_a = np.ascontiguousarray(model.a_w_per_mhz, dtype=np.float64)
            self._mpc_r = np.full(
                n_chan, WeightAssigner(mode="uniform").r_scale, dtype=np.float64
            )
        else:
            self._fs_step = np.array([float(s.step_size) for s in specs])
            self._fs_deadband = np.array([s.deadband_w for s in specs])
            self._fs_margin = np.array(
                [
                    s.safety_margin_w if s.controller == "safe-fixed-step" else 0.0
                    for s in specs
                ]
            )
            self._fs_rr = np.zeros(n, dtype=np.int64)
            self._fs_step_base = np.where(
                np.arange(n_chan) == 0, CPU_STEP_MHZ, GPU_STEP_MHZ
            )

    # -- controller banks ----------------------------------------------------

    def _controller_targets(self, r: PeriodReadings) -> np.ndarray:
        """The whole fleet's next targets as one array program: no
        per-server Python controller steps."""
        if self._bank == "mpc":
            return self._mpc_bank_targets(r.power)
        return self._fixed_step_bank_targets(r.power, r.util)

    def _mpc_bank_targets(self, power: np.ndarray) -> np.ndarray:
        """One batched pre-solved-gain MPC evaluation for the whole fleet."""
        floors = self._f_min
        f_now = np.clip(self._tgt, floors, self._f_max)
        errors = power - self._set_point
        d0 = self._mpc.batch_first_moves(
            errors, f_now, self._mpc_a, self._mpc_r, floors, self._f_max
        )
        return f_now + d0

    def _fixed_step_bank_targets(
        self, power: np.ndarray, util: np.ndarray
    ) -> np.ndarray:
        """Vectorized fixed-step / safe-fixed-step (margin-shifted) fleet."""
        targets = self._tgt.copy()
        err = (self._set_point - self._fs_margin) - power
        # Scalar guard is `abs(err) <= deadband: hold`, so a NaN error falls
        # through and moves (direction -1); negate the hold test to match.
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
        pick = self._fs_rr % n_tied  # the scalar round-robin cursor, per server
        cum = np.cumsum(tied, axis=1)
        choice_mask = tied & (cum == (pick + 1)[:, None])
        channel = np.argmax(choice_mask, axis=1)
        self._fs_rr = np.where(move, self._fs_rr + 1, self._fs_rr)

        rows = np.nonzero(move)[0]
        cols = channel[rows]
        direction = np.where(raise_f[rows], 1.0, -1.0)
        delta = direction * self._fs_step_base[cols] * self._fs_step[rows]
        moved = np.clip(
            targets[rows, cols] + delta, self._f_min[cols], self._f_max[cols]
        )
        targets[rows, cols] = moved
        return targets
