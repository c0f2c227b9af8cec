"""Preallocated time-series recorder used by the simulator and experiments.

A :class:`Trace` is a set of named float channels sampled on a common index
(one row per control period, or per tick, depending on the producer). Storage
is a single preallocated 2-D ``numpy`` array that doubles on demand, so
recording inside the simulation loop costs one row assignment — no Python
list churn in the hot path (per the HPC guides: preallocate, use views).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from ..errors import ConfigurationError

__all__ = ["Trace"]


class Trace:
    """Append-only table of float channels with O(1) amortized row append.

    Parameters
    ----------
    channels:
        Ordered channel names. Names must be unique and non-empty.
    capacity:
        Initial row capacity (grows geometrically as needed).
    """

    def __init__(self, channels: Iterable[str], capacity: int = 256):
        names = list(channels)
        if not names:
            raise ConfigurationError("Trace requires at least one channel")
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate channel names in {names!r}")
        if any(not isinstance(n, str) or not n for n in names):
            raise ConfigurationError("channel names must be non-empty strings")
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self._names: tuple[str, ...] = tuple(names)
        self._index: dict[str, int] = {n: i for i, n in enumerate(names)}
        self._data = np.full((int(capacity), len(names)), np.nan, dtype=np.float64)
        self._len = 0

    @classmethod
    def from_array(cls, channels: Iterable[str], rows: np.ndarray) -> Trace:
        """Return a trace holding a copy of ``rows``, shape ``(n_rows, n_channels)``.

        The bulk counterpart of :meth:`append`: one array copy instead of one
        call per row. Column ``j`` of ``rows`` is channel ``j``; the trace can
        still be appended to.
        """
        names = tuple(channels)
        if rows.ndim != 2 or rows.shape[1] != len(names):
            raise ConfigurationError(
                f"rows must have shape (n_rows, {len(names)}), got {rows.shape}"
            )
        n_rows = rows.shape[0]
        trace = cls(names, capacity=max(n_rows, 1))
        trace._data[:n_rows] = rows
        trace._len = n_rows
        return trace

    # -- recording ---------------------------------------------------------

    def append(self, **values: float) -> None:
        """Append one row. Missing channels record as NaN; unknown names raise."""
        unknown = set(values) - set(self._names)
        if unknown:
            raise KeyError(f"unknown trace channels: {sorted(unknown)}")
        if self._len == self._data.shape[0]:
            self._grow()
        row = self._data[self._len]
        row[:] = np.nan
        for name, value in values.items():
            row[self._index[name]] = value
        self._len += 1

    def append_row(self, row: Mapping[str, float]) -> None:
        """Append one row from a mapping (same semantics as :meth:`append`)."""
        self.append(**row)

    def _grow(self) -> None:
        new = np.full((self._data.shape[0] * 2, self._data.shape[1]), np.nan)
        new[: self._len] = self._data[: self._len]
        self._data = new

    # -- access ------------------------------------------------------------

    @property
    def channels(self) -> tuple[str, ...]:
        """Ordered channel names."""
        return self._names

    def __len__(self) -> int:
        return self._len

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> np.ndarray:
        """Return a **view** of one channel's recorded samples."""
        try:
            col = self._index[name]
        except KeyError:
            raise KeyError(
                f"unknown channel {name!r}; available: {list(self._names)}"
            ) from None
        return self._data[: self._len, col]

    def column(self, name: str) -> np.ndarray:
        """Alias of ``trace[name]``."""
        return self[name]

    def tail(self, name: str, n: int) -> np.ndarray:
        """Return a view of the last ``n`` samples of ``name``."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return self[name][max(0, self._len - n):]

    def as_array(self) -> np.ndarray:
        """Return a copy of all recorded rows, shape ``(len, n_channels)``."""
        return self._data[: self._len].copy()

    def to_dict(self) -> dict[str, np.ndarray]:
        """Return ``{channel: copy-of-samples}`` for serialization/plotting."""
        return {n: self[n].copy() for n in self._names}

    def last(self, name: str) -> float:
        """Return the most recent sample of ``name``."""
        col = self[name]
        if col.size == 0:
            raise IndexError("trace is empty")
        return float(col[-1])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Trace(rows={self._len}, channels={list(self._names)})"
