"""Event model of the streaming service: canonical LDJSON telemetry.

One event is one JSON object on one line. Two fields are structural:

``kind``
    ``"heartbeat"`` events carry the stream's watermark — they advance
    event time and close windows, but hold no payload. Every other kind
    (``"telemetry"`` by convention) is a data event aggregated into the
    window its timestamp falls in.
``t``
    Event time in seconds (float, finite, non-negative). Windowing is
    driven entirely by this field — never by arrival order or wall clock —
    which is what makes the closed-window digests replayable.

Everything else in the object is opaque payload. Events canonicalize to
sorted-key JSON so that identity (duplicate detection) and digests are
byte-stable regardless of producer key order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = [
    "HEARTBEAT_KIND",
    "Event",
    "make_event",
    "parse_event",
    "event_digest",
    "heartbeat",
]

#: The reserved kind that carries the watermark.
HEARTBEAT_KIND = "heartbeat"


@dataclass(frozen=True)
class Event:
    """One parsed stream event.

    ``canonical`` is the event's whole JSON object re-serialized with
    sorted keys and tight separators; it is the event's identity (dedup
    compares it) and the input to :func:`event_digest`.
    """

    kind: str
    t: float
    canonical: str

    @property
    def is_heartbeat(self) -> bool:
        return self.kind == HEARTBEAT_KIND


def _canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def make_event(payload: dict) -> Event:
    """Build an :class:`Event` from an already-parsed JSON object."""
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"event must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if not isinstance(kind, str) or not kind:
        raise ConfigurationError("event has no 'kind' string")
    t = payload.get("t")
    if isinstance(t, bool) or not isinstance(t, (int, float)):
        raise ConfigurationError(f"event 't' must be a number, got {t!r}")
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ConfigurationError(f"event 't' must be finite and >= 0, got {t!r}")
    return Event(kind=kind, t=t, canonical=_canonical_json(payload))


def parse_event(line: str) -> Event:
    """Parse one LDJSON line into an :class:`Event` (strict, no coercion)."""
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigurationError(f"event line is not valid JSON: {exc}") from None
    return make_event(payload)


def event_digest(event: Event) -> str:
    """sha256 hex digest of the event's canonical encoding."""
    return hashlib.sha256(event.canonical.encode("utf-8")).hexdigest()


def heartbeat(t: float) -> Event:
    """A heartbeat event at time ``t`` (the watermark carrier)."""
    return make_event({"kind": HEARTBEAT_KIND, "t": t})
