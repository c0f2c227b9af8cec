"""Event model: strict parsing, canonicalization, digests."""

import pytest

from repro.errors import ConfigurationError
from repro.service.events import (
    Event,
    event_digest,
    heartbeat,
    make_event,
    parse_event,
)


class TestMakeEvent:
    def test_basic_telemetry_event(self):
        e = make_event({"kind": "telemetry", "t": 1.5, "power_w": 800.0})
        assert e.kind == "telemetry"
        assert e.t == 1.5
        assert not e.is_heartbeat

    def test_canonical_is_key_order_independent(self):
        a = make_event({"kind": "telemetry", "t": 1.0, "a": 1, "b": 2})
        b = make_event({"b": 2, "a": 1, "t": 1.0, "kind": "telemetry"})
        assert a.canonical == b.canonical
        assert event_digest(a) == event_digest(b)

    def test_heartbeat_helper(self):
        e = heartbeat(3.0)
        assert e.is_heartbeat
        assert e.t == 3.0

    def test_integer_t_coerces_to_float(self):
        assert make_event({"kind": "x", "t": 2}).t == 2.0

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"t": 1.0},
            {"kind": "", "t": 1.0},
            {"kind": 3, "t": 1.0},
            {"kind": "x"},
            {"kind": "x", "t": "soon"},
            {"kind": "x", "t": True},
            {"kind": "x", "t": float("nan")},
            {"kind": "x", "t": float("inf")},
            {"kind": "x", "t": -0.5},
        ],
    )
    def test_rejects_malformed_payloads(self, payload):
        with pytest.raises(ConfigurationError):
            make_event(payload)


class TestParseEvent:
    def test_roundtrip(self):
        e = parse_event('{"kind": "telemetry", "t": 0.5, "power_w": 10}')
        assert isinstance(e, Event)
        assert e.t == 0.5

    def test_rejects_invalid_json(self):
        # Nesting past the decoder's recursion limit (10000 levels on Python
        # 3.13, fewer before) is refused like a syntax error.
        for line in ("{nope", "[" * 20000 + "]" * 20000):
            with pytest.raises(ConfigurationError, match="not valid JSON"):
                parse_event(line)

    def test_rejects_non_object(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            parse_event("[1, 2]")
