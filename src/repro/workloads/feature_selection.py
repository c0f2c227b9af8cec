"""Exhaustive feature selection — the paper's CPU-side workload.

Section 6.1: "we implement an exhaustive feature selection algorithm on the
Alibaba PAI dataset ... fit and test a model using every possible feature
subset, and choose the feature subset yielding the lowest cross-validation
(CV) Mean Squared Error."

Two layers:

* :func:`exhaustive_feature_selection` — a *real*, runnable implementation
  (vectorized k-fold CV of ordinary least squares over every non-empty
  feature subset). The examples and benchmarks execute it on the synthetic
  PAI trace; the throughput monitor abstraction counts "feature subsets
  evaluated per second" exactly as the paper's CPU monitor does.
* :class:`FeatureSelectionWorkload` — the analytic rate model used inside
  the simulator: evaluating one subset costs a fixed number of
  core-GHz-seconds, so the subset rate scales linearly with the controlled
  core clock and the per-subset latency (what Fig. 7(d) plots) is
  ``cost / f_ghz``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..rng import BlockSampler
from ..units import require_positive, sum_in_order

__all__ = [
    "cross_val_mse",
    "exhaustive_feature_selection",
    "FeatureSelectionResult",
    "FeatureSelectionWorkload",
]


def cross_val_mse(X: np.ndarray, y: np.ndarray, k_folds: int = 5) -> float:
    """k-fold cross-validated MSE of ordinary least squares on ``(X, y)``.

    Folds are contiguous blocks (deterministic — shuffling, if desired, is
    the caller's responsibility so results stay reproducible).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ConfigurationError("X must be (n, d) and y (n,) with matching n")
    n = X.shape[0]
    if not 2 <= k_folds <= n:
        raise ConfigurationError(f"k_folds must lie in [2, {n}]")
    # Augment with an intercept column.
    Xa = np.column_stack([X, np.ones(n)])
    bounds = np.linspace(0, n, k_folds + 1).astype(int)
    total_sq = 0.0
    for f in range(k_folds):
        lo, hi = bounds[f], bounds[f + 1]
        test = slice(lo, hi)
        train_idx = np.r_[0:lo, hi:n]
        coef, *_ = np.linalg.lstsq(Xa[train_idx], y[train_idx], rcond=None)
        resid = Xa[test] @ coef - y[test]
        total_sq += float(resid @ resid)
    return total_sq / n


@dataclass(frozen=True)
class FeatureSelectionResult:
    """Outcome of an exhaustive search."""

    best_subset: tuple[int, ...]
    best_mse: float
    n_subsets_evaluated: int
    mse_by_subset: dict


def exhaustive_feature_selection(
    X: np.ndarray,
    y: np.ndarray,
    k_folds: int = 5,
    max_subset_size: int | None = None,
    keep_scores: bool = False,
) -> FeatureSelectionResult:
    """Evaluate every non-empty feature subset; return the CV-MSE minimizer.

    Parameters
    ----------
    X, y:
        Design matrix and target.
    k_folds:
        CV folds per subset.
    max_subset_size:
        Optional cap on subset cardinality (the full search over ``d``
        features evaluates ``2^d - 1`` subsets).
    keep_scores:
        Retain the per-subset MSE map (memory grows as 2^d).
    """
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    if d > 20:
        raise ConfigurationError(
            f"exhaustive search over {d} features is 2^{d} subsets; cap the "
            "feature count or use max_subset_size"
        )
    limit = d if max_subset_size is None else min(max_subset_size, d)
    if limit < 1:
        raise ConfigurationError("max_subset_size must be >= 1")
    best_subset: tuple[int, ...] | None = None
    best_mse = np.inf
    scores: dict = {}
    n_eval = 0
    for size in range(1, limit + 1):
        for subset in itertools.combinations(range(d), size):
            mse = cross_val_mse(X[:, subset], y, k_folds=k_folds)
            n_eval += 1
            if keep_scores:
                scores[subset] = mse
            if mse < best_mse:
                best_mse = mse
                best_subset = subset
    assert best_subset is not None
    return FeatureSelectionResult(
        best_subset=best_subset,
        best_mse=best_mse,
        n_subsets_evaluated=n_eval,
        mse_by_subset=scores,
    )


class FeatureSelectionWorkload:
    """Analytic rate model of the exhaustive search, for the simulator.

    Evaluating one subset (fit + CV) costs ``cost_core_ghz_s`` core-GHz
    seconds, so ``n_cores`` cores at clock ``f`` GHz evaluate
    ``n_cores * f / cost`` subsets per second and each evaluation's
    wall-clock latency is ``cost / f`` (+ log-normal jitter). Fractional
    completions carry over between ticks, so long ticks and slow clocks
    lose no work.
    """

    def __init__(
        self,
        n_cores: int,
        cost_core_ghz_s: float = 0.8,
        jitter_sigma: float = 0.05,
        rng: np.random.Generator | None = None,
    ):
        if n_cores < 1:
            raise ConfigurationError("n_cores must be >= 1")
        self.n_cores = int(n_cores)
        self.cost_core_ghz_s = require_positive(cost_core_ghz_s, "cost_core_ghz_s")
        if jitter_sigma < 0:
            raise ConfigurationError("jitter_sigma must be >= 0")
        if jitter_sigma > 0 and rng is None:
            raise ConfigurationError("rng required when jitter_sigma > 0")
        self.jitter_sigma = float(jitter_sigma)
        self._rng = rng
        self._carry = 0.0
        self.completed_subsets = 0
        self._total_latency_s = 0.0
        # Hot-path memoization: the clock takes few distinct values (discrete
        # DVFS levels), so rate and base latency are cached on the exact
        # float frequency. Jitter draws are pre-drawn in blocks —
        # bit-identical to a per-tick ``size=done`` draw.
        self._rate_cache: dict[float, float] = {}
        self._latency_cache: dict[float, float] = {}
        self._jitter_sampler = (
            BlockSampler(rng, "lognormal", (0.0, self.jitter_sigma))
            if self.jitter_sigma > 0
            else None
        )

    def rate_subsets_s(self, f_ghz: float) -> float:
        """Aggregate evaluation rate at clock ``f_ghz``."""
        if f_ghz <= 0:
            raise ConfigurationError("f_ghz must be positive")
        return self.n_cores * f_ghz / self.cost_core_ghz_s

    def latency_s(self, f_ghz: float) -> float:
        """Deterministic per-subset wall-clock latency at clock ``f_ghz``."""
        if f_ghz <= 0:
            raise ConfigurationError("f_ghz must be positive")
        return self.cost_core_ghz_s / f_ghz

    def max_rate_subsets_s(self, f_max_ghz: float) -> float:
        """Normalizer for the throughput monitor (rate at the max clock)."""
        return self.rate_subsets_s(f_max_ghz)

    def step(self, dt_s: float, f_ghz: float) -> tuple[int, list[float]]:
        """Advance ``dt_s`` seconds at clock ``f_ghz``.

        Returns ``(completions, per-completion latencies)``.
        """
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        rate = self._rate_cache.get(f_ghz)
        if rate is None:
            rate = self._rate_cache[f_ghz] = self.rate_subsets_s(f_ghz)
        self._carry += rate * dt_s
        done = int(self._carry)
        self._carry -= done
        latencies: list[float] = []
        if done:
            base = self._latency_cache.get(f_ghz)
            if base is None:
                base = self._latency_cache[f_ghz] = self.latency_s(f_ghz)
            if self._jitter_sampler is not None:
                latencies = [base * j for j in self._jitter_sampler.take(done)]
            else:
                latencies = [base] * done
            self.completed_subsets += done
            self._total_latency_s += float(sum_in_order(latencies))
        return done, latencies

    def mean_latency_s(self) -> float:
        """Lifetime mean per-subset latency (NaN before any completion)."""
        if self.completed_subsets == 0:
            return float("nan")
        return self._total_latency_s / self.completed_subsets

    def reset(self) -> None:
        """Clear progress counters."""
        self._carry = 0.0
        self.completed_subsets = 0
        self._total_latency_s = 0.0
