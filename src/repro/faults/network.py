"""Deterministic seeded fault injection for the service ingest plane.

PR 1 gave meters and actuators a declarative, replayable fault taxonomy;
this module lifts the same discipline one layer up, to the network weather
the streaming service (:mod:`repro.service`) ingests through. Faults here
perturb the **line stream** — the LDJSON lines every ingest source
ultimately reduces to — so one plan drives replay, stdin, and TCP chaos
identically, and the perturbed stream is a pure function of
``(plan, seed, input lines)``: every chaos run is replayable.

Two fault families share the :class:`~repro.faults.models.FaultModel`
activation machinery (windows + per-decision-point probability, private
``repro.rng.spawn`` streams):

**Network faults** (:class:`NetFault`), windowed over *input line indices*,
applied by :class:`LineChaos`:

* :class:`NetDisconnect` — the transport drops and reconnects; the
  previous line is redelivered (at-least-once semantics), so downstream
  dedup is exercised.
* :class:`TornFrame` — the line is truncated at a seeded byte offset
  (a frame torn mid-flight; the fragment is not valid JSON).
* :class:`OversizedFrame` — the line is padded past any sane frame size,
  exercising the ingest max-line guard.
* :class:`SlowLoris` — the line's bytes dribble in tiny chunks. Purely
  temporal, so the line transform passes it through intact (and counts
  it); the TCP chaos feeder in the test layer honours ``chunk_bytes`` on
  the wire, where the per-connection read deadline is the defence.
* :class:`DuplicateStorm` — the line is re-sent ``copies`` extra times.
* :class:`ReorderStorm` — lines are buffered and released in a seeded
  permutation (bounded-depth reordering).
* :class:`LateStorm` — the line is held back ``hold_lines`` input lines
  before delivery (it may land behind the watermark and be dropped late).
* :class:`WatermarkStall` — heartbeat lines are swallowed while the fault
  is open, so the stream's watermark stalls and windows stop closing.

**Twin faults** (:class:`TwinFault`), windowed over *service window/event
indices*, armed through :class:`ServiceFaultBank` and checked by the
service core and supervisor:

* :class:`TwinCrash` — the twin task raises :class:`InjectedTwinCrash`
  while processing the matching closed window (``times`` limits how many
  attempts crash, so ``times=1`` models a transient crash the supervisor
  recovers from and ``times=None`` a hard crash loop).
* :class:`TwinStall` — the twin task hangs (cancellably) before
  processing the matching event, exercising the supervisor's
  watermark-stall detection.

The **surviving stream** of a chaos run — the transformed lines that still
parse as events and fit the frame-size guard — is itself deterministic;
:func:`surviving_lines` computes it, which is how tests and the CI drill
prove that a faulted service converges to digests bit-identical to a clean
run over the same surviving events.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError, ReproError
from ..rng import spawn
from .models import FaultModel, FaultWindow

__all__ = [
    "DEFAULT_MAX_LINE_BYTES",
    "NetFault",
    "NetDisconnect",
    "TornFrame",
    "OversizedFrame",
    "SlowLoris",
    "DuplicateStorm",
    "ReorderStorm",
    "LateStorm",
    "WatermarkStall",
    "TwinFault",
    "TwinCrash",
    "TwinStall",
    "InjectedTwinCrash",
    "NetworkFaultPlan",
    "load_network_fault_plan",
    "LineChaos",
    "ServiceFaultBank",
    "surviving_lines",
]

#: Frame-size guard shared by the ingest listener and the surviving-stream
#: computation; :class:`repro.service.resilience.ResilienceConfig` defaults
#: to the same value so both sides of the digest-equality invariant agree.
DEFAULT_MAX_LINE_BYTES = 64 * 1024


class InjectedTwinCrash(ReproError):
    """A :class:`TwinCrash` fault fired inside the twin task (drills only)."""


# -- network fault models --------------------------------------------------------


@dataclass(frozen=True)
class NetFault(FaultModel):
    """Marker base for line-stream faults; windows index *input lines*."""


@dataclass(frozen=True)
class NetDisconnect(NetFault):
    """The transport drops mid-stream and reconnects; at-least-once
    redelivery duplicates the line in flight (the previous input line)."""

    kind = "net-disconnect"


@dataclass(frozen=True)
class TornFrame(NetFault):
    """The frame tears at a seeded byte offset; the fragment is delivered
    (and is not valid JSON, so the ingest layer must reject, not die)."""

    kind = "net-torn-frame"


@dataclass(frozen=True)
class OversizedFrame(NetFault):
    """The line arrives padded ``pad_bytes`` past its real payload — the
    unbounded-readline attack the ingest max-line guard must bound."""

    pad_bytes: int = DEFAULT_MAX_LINE_BYTES

    kind = "net-oversized-frame"

    def __post_init__(self):
        super().__post_init__()
        if self.pad_bytes < 1:
            raise ConfigurationError("pad_bytes must be >= 1")


@dataclass(frozen=True)
class SlowLoris(NetFault):
    """The line's bytes dribble ``chunk_bytes`` at a time (wire-level only;
    the line transform passes the intact line through and counts it)."""

    chunk_bytes: int = 1

    kind = "net-slow-loris"

    def __post_init__(self):
        super().__post_init__()
        if self.chunk_bytes < 1:
            raise ConfigurationError("chunk_bytes must be >= 1")


@dataclass(frozen=True)
class DuplicateStorm(NetFault):
    """The line is delivered ``copies`` extra times back to back."""

    copies: int = 1

    kind = "net-duplicate-storm"

    def __post_init__(self):
        super().__post_init__()
        if self.copies < 1:
            raise ConfigurationError("copies must be >= 1")


@dataclass(frozen=True)
class ReorderStorm(NetFault):
    """Lines are buffered up to ``depth`` deep and released in a seeded
    permutation — bounded reordering, the event-time windowing stress."""

    depth: int = 4

    kind = "net-reorder-storm"

    def __post_init__(self):
        super().__post_init__()
        if self.depth < 2:
            raise ConfigurationError("depth must be >= 2")


@dataclass(frozen=True)
class LateStorm(NetFault):
    """The line is held ``hold_lines`` input lines before delivery, so it
    can land behind the watermark and be dropped as late."""

    hold_lines: int = 8

    kind = "net-late-storm"

    def __post_init__(self):
        super().__post_init__()
        if self.hold_lines < 1:
            raise ConfigurationError("hold_lines must be >= 1")


@dataclass(frozen=True)
class WatermarkStall(NetFault):
    """Heartbeat lines are swallowed while the window is open: the
    watermark stalls, windows stop closing, backlog builds."""

    kind = "net-watermark-stall"


# -- twin (service-plane) fault models -------------------------------------------


@dataclass(frozen=True)
class TwinFault(FaultModel):
    """Marker base for injected twin-task failures (supervisor drills).

    ``times`` caps how many *attempts* fire: a restarted twin task retries
    the same window/event, so ``times=1`` is a transient failure the
    supervisor recovers from and ``times=None`` a permanent crash loop.
    """

    times: int | None = 1

    def __post_init__(self):
        super().__post_init__()
        if self.times is not None and self.times < 1:
            raise ConfigurationError("times must be >= 1 (or None for always)")


@dataclass(frozen=True)
class TwinCrash(TwinFault):
    """The twin task raises while processing a closed window (windowed
    over *window indices*)."""

    kind = "twin-crash"


@dataclass(frozen=True)
class TwinStall(TwinFault):
    """The twin task hangs (cancellably) before processing an event
    (windowed over *consumer event indices*)."""

    kind = "twin-stall"


# -- the plan --------------------------------------------------------------------

# Keys must equal each class's ``kind`` attribute; the plan round-trip
# tests pin the correspondence for every entry.
_FAULT_KINDS: dict[str, type[FaultModel]] = {
    "net-disconnect": NetDisconnect,
    "net-torn-frame": TornFrame,
    "net-oversized-frame": OversizedFrame,
    "net-slow-loris": SlowLoris,
    "net-duplicate-storm": DuplicateStorm,
    "net-reorder-storm": ReorderStorm,
    "net-late-storm": LateStorm,
    "net-watermark-stall": WatermarkStall,
    "twin-crash": TwinCrash,
    "twin-stall": TwinStall,
}

_BASE_FIELDS = frozenset({"window", "probability", "kind"})


@dataclass(frozen=True)
class NetworkFaultPlan:
    """Declarative, seeded set of service-plane faults.

    Like :class:`~repro.faults.models.FaultPlan` the plan is immutable and
    reusable; unlike it the plan carries its own ``seed``, because the
    service CLI arms it directly from a JSON file (``repro serve
    --fault-plan plan.json``) with no simulation seed in scope.
    """

    faults: tuple[FaultModel, ...] = ()
    seed: int = 0

    def __post_init__(self):
        for f in self.faults:
            if not isinstance(f, (NetFault, TwinFault)):
                raise ConfigurationError(
                    f"not a network/twin fault model: {f!r}"
                )

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def network_faults(self) -> tuple[NetFault, ...]:
        return tuple(f for f in self.faults if isinstance(f, NetFault))

    @property
    def twin_faults(self) -> tuple[TwinFault, ...]:
        return tuple(f for f in self.faults if isinstance(f, TwinFault))

    # -- JSON round trip ---------------------------------------------------

    def to_dict(self) -> dict:
        out = []
        for f in self.faults:
            entry: dict = {"kind": f.kind}
            if f.window is not None:
                entry["start"] = f.window.start_period
                if f.window.n_periods is not None:
                    entry["count"] = f.window.n_periods
            if f.probability is not None:
                entry["probability"] = f.probability
            for fld in fields(f):
                if fld.name not in _BASE_FIELDS:
                    entry[fld.name] = getattr(f, fld.name)
            out.append(entry)
        return {"seed": self.seed, "faults": out}

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkFaultPlan":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"fault plan must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan keys: {sorted(unknown)}"
            )
        raw_faults = data.get("faults", [])
        if not isinstance(raw_faults, list):
            raise ConfigurationError("fault plan 'faults' must be a list")
        built: list[FaultModel] = []
        for i, raw in enumerate(raw_faults):
            if not isinstance(raw, dict):
                raise ConfigurationError(f"fault #{i} must be a JSON object")
            kind = raw.get("kind")
            fault_cls = (
                _FAULT_KINDS.get(kind) if isinstance(kind, str) else None
            )
            if fault_cls is None:
                raise ConfigurationError(
                    f"fault #{i}: unknown kind {kind!r} "
                    f"(have {', '.join(sorted(_FAULT_KINDS))})"
                )
            kwargs: dict = {}
            start = raw.get("start")
            count = raw.get("count")
            if start is not None or count is not None:
                kwargs["window"] = FaultWindow(
                    start_period=int(start) if start is not None else 0,
                    n_periods=int(count) if count is not None else None,
                )
            if raw.get("probability") is not None:
                kwargs["probability"] = float(raw["probability"])
            own_fields = {
                fld.name for fld in fields(fault_cls)
            } - _BASE_FIELDS
            extra = set(raw) - own_fields - {"kind", "start", "count", "probability"}
            if extra:
                raise ConfigurationError(
                    f"fault #{i} ({kind}): unknown keys {sorted(extra)}"
                )
            for name in sorted(own_fields):
                if name in raw:
                    kwargs[name] = raw[name]
            built.append(fault_cls(**kwargs))
        return cls(faults=tuple(built), seed=int(data.get("seed", 0)))


def load_network_fault_plan(path: str | Path) -> NetworkFaultPlan:
    """Load and validate a JSON fault plan file."""
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"fault plan not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigurationError(f"{p} is not valid JSON: {exc}") from None
    try:
        return NetworkFaultPlan.from_dict(data)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{p}: {exc}") from None


# -- line-level helpers ----------------------------------------------------------


def _line_kind(line: str) -> str | None:
    """The event kind of a line, or None when it does not parse."""
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, RecursionError):
        return None
    if not isinstance(payload, dict):
        return None
    kind = payload.get("kind")
    return kind if isinstance(kind, str) and kind else None


def line_survives(line: str, max_line_bytes: int = DEFAULT_MAX_LINE_BYTES) -> bool:
    """Would the ingest layer accept this line as an event?

    Mirrors the :func:`repro.service.events.parse_event` contract (object
    with a non-empty ``kind`` string and a finite non-negative numeric
    ``t``) plus the frame-size guard — without importing the service layer
    (faults sit below it in the architecture contract).
    """
    if len(line.encode("utf-8")) > max_line_bytes:
        return False
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, RecursionError):
        return False
    if not isinstance(payload, dict):
        return False
    kind = payload.get("kind")
    if not isinstance(kind, str) or not kind:
        return False
    t = payload.get("t")
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        return False
    return math.isfinite(float(t)) and float(t) >= 0.0


class _ArmedNetFault:
    """One armed network fault: the spec plus its private stream."""

    __slots__ = ("fault", "rng")

    def __init__(self, fault: NetFault, rng: np.random.Generator):
        self.fault = fault
        self.rng = rng


class LineChaos:
    """Deterministic line-stream perturbation driven by a seeded plan.

    Incremental API: :meth:`push` takes one input line and returns the
    lines delivered *now* (possibly none — held, swallowed, or buffered;
    possibly several — duplicates, redeliveries, released holds);
    :meth:`flush` drains every held/buffered line at end of stream.
    ``transform`` wraps both over an iterable. Output is a pure function
    of ``(plan, seed, input sequence)`` — the property the chaos tests pin.
    """

    def __init__(self, plan: NetworkFaultPlan, seed: int | None = None):
        root = plan.seed if seed is None else seed
        self._armed = [
            _ArmedNetFault(f, spawn(root, f"netfault-{i}-{f.kind}"))
            for i, f in enumerate(plan.network_faults)
        ]
        self._index = 0
        self._prev: str | None = None
        #: (release_at_input_index, line) held by LateStorm, FIFO per index.
        self._held: list[tuple[int, str]] = []
        self._reorder: list[str] = []
        self._reorder_depth = 0
        self.counters: dict[str, int] = {
            "lines_in": 0,
            "lines_out": 0,
            "disconnects": 0,
            "redelivered": 0,
            "torn": 0,
            "oversized": 0,
            "slow_loris": 0,
            "duplicated": 0,
            "reordered": 0,
            "held_late": 0,
            "stalled_heartbeats": 0,
        }

    # -- per-fault transforms ---------------------------------------------

    def _tear(self, line: str, rng: np.random.Generator) -> str:
        if len(line) < 2:
            return ""
        cut = int(rng.integers(1, len(line)))
        return line[:cut]

    def _apply(self, armed: _ArmedNetFault, emitted: list[str]) -> list[str]:
        fault = armed.fault
        if isinstance(fault, WatermarkStall):
            kept = [l for l in emitted if _line_kind(l) != "heartbeat"]
            self.counters["stalled_heartbeats"] += len(emitted) - len(kept)
            return kept
        if isinstance(fault, TornFrame):
            self.counters["torn"] += len(emitted)
            return [self._tear(l, armed.rng) for l in emitted]
        if isinstance(fault, OversizedFrame):
            self.counters["oversized"] += len(emitted)
            return [l + "#" * fault.pad_bytes for l in emitted]
        if isinstance(fault, DuplicateStorm):
            self.counters["duplicated"] += len(emitted) * fault.copies
            return [l for l in emitted for _ in range(fault.copies + 1)]
        if isinstance(fault, NetDisconnect):
            self.counters["disconnects"] += 1
            if self._prev is not None:
                self.counters["redelivered"] += 1
                return [self._prev, *emitted]
            return emitted
        if isinstance(fault, LateStorm):
            release = self._index + fault.hold_lines
            self._held.extend((release, l) for l in emitted)
            self.counters["held_late"] += len(emitted)
            return []
        if isinstance(fault, SlowLoris):
            # Purely temporal at this layer: the TCP feeder honours
            # chunk_bytes on the wire; the transform just counts it.
            self.counters["slow_loris"] += len(emitted)
            return emitted
        return emitted

    def _release_due(self, index: int) -> list[str]:
        if not self._held:
            return []
        due = [l for release, l in self._held if release <= index]
        self._held = [(r, l) for r, l in self._held if r > index]
        return due

    def _through_reorder(self, lines: list[str], fired_depth: int) -> list[str]:
        """Route lines through the bounded reorder buffer.

        While a ReorderStorm fires, lines accumulate; a full buffer is
        released in a seeded permutation. When no storm fires, any
        residue flushes (permuted) ahead of the current lines.
        """
        out: list[str] = []
        if fired_depth:
            self._reorder_depth = max(self._reorder_depth, fired_depth)
            self._reorder.extend(lines)
            if len(self._reorder) >= self._reorder_depth:
                out.extend(self._drain_reorder())
            return out
        if self._reorder:
            out.extend(self._drain_reorder())
        out.extend(lines)
        return out

    def _drain_reorder(self) -> list[str]:
        storm_rng = next(
            (
                a.rng
                for a in self._armed
                if isinstance(a.fault, ReorderStorm)
            ),
            None,
        )
        batch = self._reorder
        self._reorder = []
        self._reorder_depth = 0
        if storm_rng is None or len(batch) < 2:
            return batch
        order = storm_rng.permutation(len(batch))
        self.counters["reordered"] += len(batch)
        return [batch[int(i)] for i in order]

    # -- the incremental API ----------------------------------------------

    def push(self, line: str) -> list[str]:
        """Feed one input line; return the lines delivered now."""
        index = self._index
        self.counters["lines_in"] += 1
        delivered = self._release_due(index)
        emitted = [line]
        fired_reorder_depth = 0
        for armed in self._armed:
            fault = armed.fault
            if not fault.fires(index, armed.rng):
                continue
            if isinstance(fault, ReorderStorm):
                fired_reorder_depth = max(fired_reorder_depth, fault.depth)
                continue
            emitted = self._apply(armed, emitted)
            if not emitted:
                break
        delivered.extend(self._through_reorder(emitted, fired_reorder_depth))
        self._prev = line
        self._index = index + 1
        self.counters["lines_out"] += len(delivered)
        return delivered

    def flush(self) -> list[str]:
        """End of stream: drain held and buffered lines deterministically."""
        out = [l for _, l in self._held]
        self._held = []
        out.extend(self._drain_reorder())
        self.counters["lines_out"] += len(out)
        return out

    def transform(self, lines: Iterable[str]) -> Iterator[str]:
        """Convenience generator over a whole stream (push* + flush)."""
        for line in lines:
            yield from self.push(line)
        yield from self.flush()


def surviving_lines(
    plan: NetworkFaultPlan,
    lines: Iterable[str],
    seed: int | None = None,
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
) -> Iterator[str]:
    """The deterministic surviving stream of a chaos run.

    Applies :class:`LineChaos` and keeps only lines the ingest layer would
    accept (valid events within the frame-size guard). A clean service fed
    this stream closes windows with digests bit-identical to a faulted
    service fed the raw chaos output — the invariant the chaos suite and
    the CI drill enforce.
    """
    chaos = LineChaos(plan, seed)
    for out in chaos.transform(lines):
        if line_survives(out, max_line_bytes):
            yield out


# -- twin-fault arming -----------------------------------------------------------


class _ArmedTwinFault:
    """One armed twin fault, with its attempt budget."""

    __slots__ = ("fault", "rng", "fired")

    def __init__(self, fault: TwinFault, rng: np.random.Generator):
        self.fault = fault
        self.rng = rng
        self.fired = 0

    def fires(self, index: int) -> bool:
        if self.fault.times is not None and self.fired >= self.fault.times:
            return False
        if not self.fault.fires(index, self.rng):
            return False
        self.fired += 1
        return True


class ServiceFaultBank:
    """Armed twin faults for one service run (crash/stall drill hooks).

    The service core asks :meth:`crash_fires` per closed-window processing
    attempt; the supervisor's consumer asks :meth:`stall_fires` per event.
    Streams are spawn-derived exactly like :class:`LineChaos`, keyed on
    the fault's position in the *whole* plan so network and twin faults
    never share a stream.
    """

    def __init__(self, plan: NetworkFaultPlan, seed: int | None = None):
        root = plan.seed if seed is None else seed
        self._crash: list[_ArmedTwinFault] = []
        self._stall: list[_ArmedTwinFault] = []
        for i, fault in enumerate(plan.faults):
            if not isinstance(fault, TwinFault):
                continue
            armed = _ArmedTwinFault(fault, spawn(root, f"twinfault-{i}-{fault.kind}"))
            if isinstance(fault, TwinCrash):
                self._crash.append(armed)
            else:
                self._stall.append(armed)
        self.crashes_fired = 0
        self.stalls_fired = 0

    def __bool__(self) -> bool:
        return bool(self._crash or self._stall)

    def crash_fires(self, window_index: int) -> bool:
        """Should this closed-window processing attempt crash?"""
        fired = any([a.fires(window_index) for a in self._crash])
        if fired:
            self.crashes_fired += 1
        return fired

    def stall_fires(self, event_index: int) -> bool:
        """Should the consumer hang before this event?"""
        fired = any([a.fires(event_index) for a in self._stall])
        if fired:
            self.stalls_fired += 1
        return fired
