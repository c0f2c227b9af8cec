"""Relaxed-semantics fleet backend: the SoA period with pre-solved MPC gains.

:class:`FastFleetBackend` subclasses the bit-identical
:class:`~repro.fleet.soa.SoaFleetBackend` and steps its period body
unchanged: the same window step, meter filter, degradation ladder, trace
rows and fixed-step bank. It overrides the set-up and step of the ``mpc``
rows (``_init_mpc_rows`` and ``_mpc_targets``) and relaxes one thing
there: **pre-solved MPC gains**. The MPC rows evaluate the process-global
pre-solved gain cache of :class:`~repro.fast.mpc.FastMimoPowerMpc` with one
batched matmul per control period, instead of an SLSQP solve per server,
and no controller object is built.

RNG streams are untouched: each server consumes exactly the same
per-server noise draws as its reference twin. Fixed-step and
safe-fixed-step rows step through the SoA's own bank, so they equal their
``soa`` rows bit for bit (``tests/golden/test_fast_backends.py`` pins the
digests of every registered fixed-step scenario); MPC differences come
from the analytic (projected) solve, and ``repro.equiv`` bounds them
statistically. A fleet may mix kinds, as on the ``soa`` backend.
"""

from __future__ import annotations

import numpy as np

from ..core.mpc import MpcConfig
from ..core.weights import WeightAssigner
from ..fleet.soa import (
    PeriodReadings,
    SoaFleetBackend,
    SoaServerSpec,
    fleet_identified_model,
)
from .mpc import FastMimoPowerMpc

__all__ = ["FastFleetBackend"]


class FastFleetBackend(SoaFleetBackend):
    """The fast fleet: the SoA period, MPC rows stepped by pre-solved gains."""

    def _init_mpc_rows(self, specs: list[SoaServerSpec]) -> None:
        if not specs:
            return
        # One shared solver + one (a, r) cache entry for every MPC row:
        # uniform penalty weights and the shared identified model make the
        # MPC matrices constant across servers and periods.
        model = fleet_identified_model()
        n_chan = self.n_channels
        self._mpc = FastMimoPowerMpc(n_chan, MpcConfig())
        self._mpc_a = np.ascontiguousarray(model.a_w_per_mhz, dtype=np.float64)
        self._mpc_r = np.full(
            n_chan, WeightAssigner(mode="uniform").r_scale, dtype=np.float64
        )

    def _mpc_targets(self, r: PeriodReadings) -> np.ndarray:
        """One batched pre-solved-gain MPC evaluation for the MPC rows."""
        rows = self._mpc_rows
        floors = self._f_min
        f_now = np.clip(self._tgt[rows], floors, self._f_max)
        errors = r.power[rows] - self._set_point[rows]
        d0 = self._mpc.batch_first_moves(
            errors, f_now, self._mpc_a, self._mpc_r, floors, self._f_max
        )
        return f_now + d0
