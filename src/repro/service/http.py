"""Stdlib HTTP read surface for the digital-twin service.

A :class:`~http.server.ThreadingHTTPServer` on a daemon thread serves
four GET endpoints off the live service object:

``/healthz``
    Liveness + identity: deployed scenario, window/watermark position,
    chain head, configured shadows.
``/windows``
    The verified closed-window ledger (``?limit=N`` for the tail).
``/whatif``
    Without a query: the configured shadows' latest cumulative answers.
    With ``?spec=cap=90``: an on-demand what-if computed (and cached) at
    the current window position.
``/metrics``
    Prometheus text exposition of the ingestion, window, cache, twin-power,
    health, and resilience counters.

The server only *reads* service state (the service's read surface is
thread-safe), so it cannot perturb the deterministic window/journal path
— a service with and without HTTP attached produces identical WALs.

Degraded-mode contract (see ``docs/service.md``): while the health state
machine reports ``degraded`` or worse, the query endpoints (``/windows``,
``/whatif``) answer **503 with a Retry-After header** — their answers
could be behind the stream or intentionally shed. ``/healthz`` keeps
answering 200 with the state in the body (503 only once ``failed``), and
``/metrics`` always answers 200 so the ladder stays observable.
"""

from __future__ import annotations

import json
import math
import threading
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..errors import ConfigurationError
from .core import DigitalTwinService
from .resilience.health import HealthState

__all__ = ["ServiceHTTPServer", "render_metrics"]

_PROM_PREFIX = "repro_service"

#: (counter key, metric suffix, prometheus type, help text)
_SCALAR_METRICS = (
    ("windows_closed", "windows_closed_total", "counter", "Windows closed since genesis"),
    ("watermark_s", "watermark_seconds", "gauge", "Event-time watermark"),
    ("events_total", "events_total", "counter", "Data events ingested"),
    ("heartbeats_total", "heartbeats_total", "counter", "Heartbeats ingested"),
    ("late_events", "late_events_total", "counter", "Events dropped as late"),
    ("duplicate_events", "duplicate_events_total", "counter", "Duplicate events collapsed"),
    ("cache_hits", "cache_hits_total", "counter", "What-if cache hits"),
    ("cache_misses", "cache_misses_total", "counter", "What-if cache misses"),
    ("cache_entries", "cache_entries", "gauge", "What-if cache size"),
    ("deployed_power_w", "deployed_power_watts", "gauge", "Deployed twin fleet power"),
    ("deployed_budget_w", "deployed_budget_watts", "gauge", "Deployed twin fleet budget"),
    ("windows_shed_shadows", "windows_shed_shadows_total", "counter", "Windows committed with shadow deltas shed"),
    ("windows_deployed_only", "windows_deployed_only_total", "counter", "Windows committed deployed-only"),
    ("twin_rebuilds", "twin_rebuilds_total", "counter", "Twin rebuilds after crash or stall"),
)


def _escape_label(value: str) -> str:
    """Prometheus label-value escaping (backslash, quote, newline)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_metrics(
    service: DigitalTwinService, extra: dict[str, object] | None = None
) -> str:
    """The /metrics body: Prometheus text exposition format.

    ``extra`` carries the resilience layer's flat counter dict (queue,
    shed ladder, supervisor, breaker, ingest, chaos); scalar values
    become ``repro_service_<key>`` gauges and dict values become one
    labelled series per entry.
    """
    counters = service.metrics_counters()
    lines: list[str] = []
    for key, suffix, kind, help_text in _SCALAR_METRICS:
        value = counters.get(key)
        if value is None:
            continue
        name = f"{_PROM_PREFIX}_{suffix}"
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name} {float(value):g}")
    shadow_power = counters.get("shadow_power_w") or {}
    if shadow_power:
        name = f"{_PROM_PREFIX}_shadow_power_watts"
        lines.append(f"# HELP {name} Shadow twin fleet power")
        lines.append(f"# TYPE {name} gauge")
        for shadow, value in sorted(shadow_power.items()):
            if value is None:
                continue
            lines.append(f'{name}{{shadow="{_escape_label(shadow)}"}} {float(value):g}')
    health = counters.get("health") or {}
    if health:
        name = f"{_PROM_PREFIX}_health_rank"
        lines.append(f"# HELP {name} Health state rank (0 ok … 3 failed)")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {float(health['rank']):g}")
        name = f"{_PROM_PREFIX}_health_state"
        lines.append(f"# HELP {name} One-hot current health state")
        lines.append(f"# TYPE {name} gauge")
        for state in HealthState:
            flag = 1.0 if state.value == health["state"] else 0.0
            lines.append(f'{name}{{state="{_escape_label(state.value)}"}} {flag:g}')
        name = f"{_PROM_PREFIX}_health_transitions_total"
        lines.append(f"# HELP {name} Transitions into each health state")
        lines.append(f"# TYPE {name} counter")
        for state, count in sorted((health.get("transitions") or {}).items()):
            lines.append(
                f'{name}{{state="{_escape_label(str(state))}"}} {float(count):g}'
            )
    for key in sorted(extra or {}):
        value = (extra or {})[key]
        name = f"{_PROM_PREFIX}_{key}"
        if isinstance(value, dict):
            if not value:
                continue
            lines.append(f"# HELP {name} Resilience counter {key} (labelled)")
            lines.append(f"# TYPE {name} gauge")
            for label, labelled in sorted(value.items(), key=lambda kv: str(kv[0])):
                if labelled is None:
                    continue
                lines.append(
                    f'{name}{{key="{_escape_label(str(label))}"}} '
                    f"{float(labelled):g}"
                )
        elif isinstance(value, (int, float)):
            lines.append(f"# HELP {name} Resilience counter {key}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {float(value):g}")
    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """GET-only JSON/metrics handler bound to one service instance."""

    service: DigitalTwinService  # set by the subclass ServiceHTTPServer builds
    #: Callable returning the resilience layer's flat metric dict (or None).
    extra_metrics: Callable[[], dict[str, object]] | None = None
    #: Retry-After hint (seconds) served with degraded-mode 503s.
    retry_after_s: float = 1.0

    # The service is a long-lived process; access-log chatter belongs to
    # the operator's proxy, not stderr.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        split = urlsplit(self.path)
        # '+' is literal, not a form-encoded space: it joins shadow-spec
        # keys (``cap=60+engine=fast``), and no parameter holds spaces.
        query = parse_qs(split.query.replace("+", "%2B"))
        state = self.service.health.state
        try:
            if split.path == "/healthz":
                # Health stays readable while degraded; 503 only once the
                # plane has terminally failed (the body carries the state).
                status = 503 if state is HealthState.FAILED else 200
                self._send_json(status, self.service.snapshot())
            elif split.path == "/windows":
                if state is not HealthState.OK:
                    self._send_unavailable(state)
                    return
                limit = self._int_param(query, "limit")
                self._send_json(200, self.service.windows_payload(limit))
            elif split.path == "/whatif":
                if state is not HealthState.OK:
                    self._send_unavailable(state)
                    return
                spec = query.get("spec", [None])[0]
                self._send_json(200, self.service.whatif_payload(spec))
            elif split.path == "/metrics":
                extra = self.extra_metrics() if self.extra_metrics else None
                body = render_metrics(self.service, extra).encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            else:
                self._send_json(404, {"error": f"no such endpoint: {split.path}"})
        except ConfigurationError as exc:
            self._send_json(400, {"error": str(exc)})

    def _send_unavailable(self, state: HealthState) -> None:
        """The degraded-mode 503 + Retry-After contract for query reads."""
        self._send_json(
            503,
            {
                "error": f"service is {state.value}; query reads are paused",
                "status": state.value,
                "retry_after_s": self.retry_after_s,
            },
            extra_headers={"Retry-After": str(math.ceil(self.retry_after_s))},
        )

    @staticmethod
    def _int_param(query: dict[str, list[str]], name: str) -> int | None:
        raw = query.get(name, [None])[0]
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError:
            raise ConfigurationError(
                f"query parameter {name} must be an integer, got {raw!r}"
            ) from None

    def _send_json(
        self,
        status: int,
        payload: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


class ServiceHTTPServer:
    """The service's HTTP front end, served from a daemon thread."""

    def __init__(
        self,
        service: DigitalTwinService,
        host: str = "127.0.0.1",
        port: int = 0,
        extra_metrics: Callable[[], dict[str, object]] | None = None,
        retry_after_s: float = 1.0,
    ):
        handler = type(
            "BoundHandler",
            (_Handler,),
            {
                "service": service,
                "extra_metrics": staticmethod(extra_metrics) if extra_metrics else None,
                "retry_after_s": float(retry_after_s),
            },
        )
        self._server = ThreadingHTTPServer((host, port), handler)
        self.host = self._server.server_address[0]
        self.port = int(self._server.server_address[1])
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()
        self._thread = None

    def __enter__(self) -> "ServiceHTTPServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
