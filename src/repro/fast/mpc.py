"""Relaxed-semantics MPC: pre-solved gains instead of per-step linear solves.

The unconstrained minimizer of the CapGPU MPC quadratic is linear in the
period's data (see :func:`repro.core.mpc.unconstrained_gains`)::

    D*(e, g0) = -H^{-1} (e * q_row + P_map g0) = G_e * e + G_f @ g0

``H``, ``q_row`` and ``P_map`` depend only on the gains ``a``, the penalty
weights ``r`` and the frozen config — so the solver can Cholesky-factor
``H`` **once** per ``(a, r)`` and replace every subsequent solve with one
small matvec. The factorization cache is *process-global*: every controller
in a fleet with the same model and uniform penalty weights shares one entry
across all servers and all ticks.

When the box constraints bind, naively clipping the unconstrained
trajectory is **not** the constrained optimum — the unconstrained minimizer
routinely stages a huge first move cancelled by the next one (the QP is
nearly degenerate along move-compensation directions because the control
penalty ``R`` is tiny), and clipping destroys the cancellation while
keeping the huge first move. Instead, the fast solver changes variables to
cumulative positions, where the trajectory constraints become a pure box,
and runs a small vectorized active-set iteration: servers are grouped by
clamp pattern, and each group's free-coordinate subsystem is solved with
one shared factorization ("pre-solved cap-projection cache"). Interior
solves — the common case — short-circuit to the pure matvec.

Semantics contract (why this lives under ``repro.fast``):

* the reference solver honors ``config.solver`` (``"slsqp"`` by default);
  the fast solver always uses the pre-solved gains plus the active-set
  projection. Both converge to the same convex optimum, but along
  different float paths and to different solver tolerances —
  :mod:`repro.equiv` bounds the closed-loop effect statistically;
* ``H^{-1}b`` via a cached Cholesky factor is not bit-identical to the
  reference's per-step ``np.linalg.solve``; differences are at rounding
  level but digests will differ;
* a ``max_step_mhz`` limit adds move-increment constraints that are not a
  box in position space; the fast solver falls back to move-by-move
  clipping there (no shipped configuration sets it).
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ..core.mpc import MimoPowerMpc, MpcConfig, MpcSolution
from ..errors import ConfigurationError

__all__ = ["FastMimoPowerMpc", "presolved_gains"]

#: Process-global pre-solved gain cache:
#: (n, config, a bytes, r bytes) -> _Gains.
#: Shared across every FastMimoPowerMpc instance so a homogeneous fleet
#: factors H exactly once, not once per server.
_GAIN_CACHE: dict[tuple, "_Gains"] = {}  # repro-lint: lock-protocol=_GAIN_LOCK -- read/evict/insert under the lock; _Gains are immutable once published

#: Guards every read-modify-write of ``_GAIN_CACHE``: the fast fleet bank
#: is constructed from thread-pool callbacks and service shadows, so two
#: threads can race the evict-then-insert sequence. Gains themselves are
#: computed *outside* the lock (the Cholesky factor is the expensive part)
#: and are deterministic for a given key, so racing duplicate computations
#: is safe — last writer wins with an identical value.
_GAIN_LOCK = threading.Lock()

#: Entries kept before a full clear (same discipline as MimoPowerMpc's
#: per-instance cache; adapting gains would otherwise grow it unboundedly).
_GAIN_CACHE_LIMIT = 256

#: Active-set iterations before accepting the current (feasible) iterate.
#: The box QP has N*M unknowns; empirically the clamp pattern stabilizes in
#: two or three rounds.
_ACTIVE_SET_MAX_ITER = 24

#: Clamp detection tolerance (MHz) and KKT gradient tolerance.
_BOX_TOL = 1e-9


class _Gains:
    """Cached per-(a, r) solver constants (read-only arrays)."""

    __slots__ = ("h", "q_row", "p_map", "g_e", "g_f", "h_pos", "q_pos", "p_pos")

    def __init__(self, mpc: MimoPowerMpc, a: np.ndarray, r: np.ndarray):
        h, _ap, q_row, p_map = mpc._assemble(a, r)
        factor = cho_factor(h)
        solved = cho_solve(factor, np.column_stack([q_row, p_map]))
        g_e = -solved[:, 0]
        g_f = -solved[:, 1:]
        # Cumulative-position change of variables: with z_m = sum_{j<=m} d_j
        # (stacked like d), d = L z where L is the block first-difference
        # operator. The cost becomes z' (L'HL) z + 2 (L'b)' z and the
        # trajectory constraints become the box floors - f_now <= z <= f_max
        # - f_now, blockwise.
        n, m_hor = mpc.n, mpc.config.control_horizon
        k = n * m_hor
        l_op = np.zeros((k, k))
        idx = np.arange(n)
        for m in range(m_hor):
            l_op[m * n + idx, m * n + idx] = 1.0
            if m:
                l_op[m * n + idx, (m - 1) * n + idx] = -1.0
        h_pos = l_op.T @ h @ l_op
        q_pos = l_op.T @ q_row
        p_pos = l_op.T @ p_map
        for arr in (g_e, g_f, h_pos, q_pos, p_pos):
            arr.setflags(write=False)
        self.h, self.q_row, self.p_map = h, q_row, p_map
        self.g_e, self.g_f = g_e, g_f
        self.h_pos, self.q_pos, self.p_pos = h_pos, q_pos, p_pos


def presolved_gains(mpc: MimoPowerMpc, a: np.ndarray, r: np.ndarray) -> _Gains:
    """The cached solver constants for ``(a, r)``, computed process-wide once.

    ``G_e = -H^{-1} q_row`` (shape ``(N*M,)``) and ``G_f = -H^{-1} P_map``
    (shape ``(N*M, N)``) give the unconstrained trajectory directly:
    ``D* = G_e * e + G_f @ g0``. The ``*_pos`` members are the same
    quadratic transported to cumulative-position coordinates for the
    active-set projection.
    """
    key = (mpc.n, mpc.config, a.tobytes(), r.tobytes())
    with _GAIN_LOCK:
        hit = _GAIN_CACHE.get(key)
    if hit is not None:
        return hit
    entry = _Gains(mpc, a, r)  # expensive factorization: outside the lock
    with _GAIN_LOCK:
        if len(_GAIN_CACHE) >= _GAIN_CACHE_LIMIT:
            _GAIN_CACHE.clear()
        return _GAIN_CACHE.setdefault(key, entry)


def _cumulative_blocks(d: np.ndarray, n: int, m_hor: int) -> np.ndarray:
    """Stacked cumulative moves ``z`` from stacked moves ``d`` (rows)."""
    return np.cumsum(d.reshape(-1, m_hor, n), axis=1).reshape(d.shape)


def _first_differences(z: np.ndarray, n: int, m_hor: int) -> np.ndarray:
    """Stacked moves ``d`` from stacked cumulative moves ``z`` (rows)."""
    blocks = z.reshape(-1, m_hor, n)
    d = blocks.copy()
    d[:, 1:] -= blocks[:, :-1]
    return d.reshape(z.shape)


def _box_qp_active_set(
    gains: _Gains,
    b_pos: np.ndarray,
    z_unc: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Vectorized box-QP: ``min_z z'H_pos z + 2 b_pos.z`` s.t. ``lo<=z<=hi``.

    All rows share ``H_pos``; ``b_pos``/bounds/start vary per row. Servers
    are grouped by clamp pattern each round, so one factorization serves
    every server whose active set matches — the whole fleet converges in a
    handful of small grouped solves. The iterate is kept feasible
    throughout; on hitting the iteration cap the current projection is
    returned (a safe, feasible fallback).
    """
    h_pos = gains.h_pos
    s, k = b_pos.shape
    z = np.clip(z_unc, lo, hi)
    pending = np.arange(s)
    for _ in range(_ACTIVE_SET_MAX_ITER):
        grad = z[pending] @ h_pos + b_pos[pending]
        at_lo = z[pending] <= lo[pending] + _BOX_TOL
        at_hi = z[pending] >= hi[pending] - _BOX_TOL
        # KKT: a lower clamp is optimal iff the gradient pushes outward
        # (grad >= 0); symmetric for upper clamps. Everything else is free.
        act_lo = at_lo & (grad >= -_BOX_TOL)
        act_hi = at_hi & (grad <= _BOX_TOL)
        free = ~(act_lo | act_hi)
        # Rows whose free coordinates are already stationary are done.
        settled = np.abs(np.where(free, grad, 0.0)).max(axis=1) <= 1e-7
        pending = pending[~settled]
        if pending.size == 0:
            break
        free = free[~settled]
        zp = z[pending]
        fixed = np.where(free, 0.0, zp)
        patterns = np.unique(free, axis=0)
        z_new = np.where(free, 0.0, zp)
        for pat in patterns:
            rows = np.nonzero((free == pat).all(axis=1))[0]
            f_idx = np.nonzero(pat)[0]
            if f_idx.size == 0:
                continue
            rhs = -(
                b_pos[pending[rows]][:, f_idx]
                + fixed[rows] @ h_pos[:, f_idx]
            )
            sol = np.linalg.solve(h_pos[np.ix_(f_idx, f_idx)], rhs.T).T
            z_new[rows[:, None], f_idx[None, :]] = sol
        z[pending] = np.clip(z_new, lo[pending], hi[pending])
    return z


class FastMimoPowerMpc(MimoPowerMpc):
    """Drop-in MPC solver using pre-solved gains (relaxed semantics).

    Constructed in place of :class:`MimoPowerMpc` when the fast engine is
    enabled (see :mod:`repro.enginemode`). Ignores ``config.solver``: every
    solve is the analytic gain evaluation, plus the grouped active-set box
    projection when constraints bind.
    """

    def __init__(self, n_channels: int, config: MpcConfig = MpcConfig()):
        super().__init__(n_channels, config)

    def _constrained_trajectories(
        self,
        errors: np.ndarray,
        f_now: np.ndarray,
        gains: _Gains,
        floors: np.ndarray,
        f_max: np.ndarray,
    ) -> np.ndarray:
        """Stacked optimal trajectories ``d`` for rows of period data.

        ``errors`` has shape ``(S,)``; ``f_now``/``floors``/``f_max`` shape
        ``(S, N)``. Rows whose unconstrained optimum is interior keep it
        verbatim (the pure pre-solved-gain path); the rest go through the
        box-QP active-set projection in cumulative-position coordinates.
        """
        cfg = self.config
        n, m_hor = self.n, cfg.control_horizon
        g0 = f_now - floors
        d_unc = errors[:, None] * gains.g_e[None, :] + g0 @ gains.g_f.T  # (S, N*M)
        z_unc = _cumulative_blocks(d_unc, n, m_hor)
        lo = np.tile(floors - f_now, m_hor)
        hi = np.tile(f_max - f_now, m_hor)
        if cfg.max_step_mhz is not None:
            # Move-increment limits are not a box in position space; keep
            # the documented clipping fallback (no shipped config sets it).
            d = d_unc.copy()
            f = f_now.copy()
            traj = d.reshape(-1, m_hor, n)
            for m in range(m_hor):
                step = traj[:, m]
                np.clip(step, -cfg.max_step_mhz, cfg.max_step_mhz, out=step)
                target = np.clip(f + step, floors, f_max)
                traj[:, m] = target - f
                f = target
            return d
        inside = ((z_unc >= lo - _BOX_TOL) & (z_unc <= hi + _BOX_TOL)).all(axis=1)
        if inside.all():
            return d_unc
        d = d_unc.copy()
        rows = np.nonzero(~inside)[0]
        b_pos = errors[rows, None] * gains.q_pos[None, :] + g0[rows] @ gains.p_pos.T
        z = _box_qp_active_set(gains, b_pos, z_unc[rows], lo[rows], hi[rows])
        d[rows] = _first_differences(z, n, m_hor)
        return d

    def solve(
        self,
        error_w: float,
        f_now_mhz: np.ndarray,
        a_w_per_mhz: np.ndarray,
        r_weights: np.ndarray,
        floors_mhz: np.ndarray,
        f_max_mhz: np.ndarray,
    ) -> MpcSolution:
        n = self.n
        for name, arr in (
            ("f_now_mhz", f_now_mhz), ("a_w_per_mhz", a_w_per_mhz),
            ("r_weights", r_weights), ("floors_mhz", floors_mhz),
            ("f_max_mhz", f_max_mhz),
        ):
            if np.asarray(arr).shape != (n,):
                raise ConfigurationError(f"{name} must have shape ({n},)")
        if np.any(floors_mhz > f_max_mhz + 1e-9):
            raise ConfigurationError("floors exceed maxima — infeasible box")

        a = np.asarray(a_w_per_mhz, dtype=np.float64)
        r = np.asarray(r_weights, dtype=np.float64)
        f_now = np.asarray(f_now_mhz, dtype=np.float64)
        floors = np.asarray(floors_mhz, dtype=np.float64)
        f_max = np.asarray(f_max_mhz, dtype=np.float64)
        gains = presolved_gains(self, a, r)
        d = self._constrained_trajectories(
            np.array([float(error_w)]),
            f_now[None, :],
            gains,
            floors[None, :],
            f_max[None, :],
        )[0]
        b = error_w * gains.q_row + gains.p_map @ (f_now - floors)
        cost = float(d @ gains.h @ d + 2 * b @ d)
        return self._solution(d, cost, "fast-analytic", True, 0)

    def batch_first_moves(
        self,
        error_w: np.ndarray,
        f_now_mhz: np.ndarray,
        a_w_per_mhz: np.ndarray,
        r_weights: np.ndarray,
        floors_mhz: np.ndarray,
        f_max_mhz: np.ndarray,
    ) -> np.ndarray:
        """First moves ``d0`` for a whole fleet sharing one ``(a, r)`` pair.

        ``error_w`` has shape ``(S,)``, ``f_now_mhz`` shape ``(S, N)``;
        ``floors_mhz``/``f_max_mhz`` broadcast over servers (``(N,)`` or
        ``(S, N)``). Returns ``(S, N)``. One matmul evaluates the cached
        gains for every server; only servers whose unconstrained optimum
        leaves the box pay for the grouped active-set projection.
        """
        a = np.ascontiguousarray(a_w_per_mhz, dtype=np.float64)
        r = np.ascontiguousarray(r_weights, dtype=np.float64)
        gains = presolved_gains(self, a, r)
        errors = np.asarray(error_w, dtype=np.float64)
        f_now = np.asarray(f_now_mhz, dtype=np.float64)
        floors = np.broadcast_to(np.asarray(floors_mhz, dtype=np.float64), f_now.shape)
        f_max = np.broadcast_to(np.asarray(f_max_mhz, dtype=np.float64), f_now.shape)
        d = self._constrained_trajectories(errors, f_now, gains, floors, f_max)
        return d[:, : self.n]
