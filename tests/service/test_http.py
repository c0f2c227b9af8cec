"""The HTTP read surface, served on an ephemeral port."""

import json
import urllib.error
import urllib.request
import warnings

import pytest

from repro.service import DigitalTwinService, ServiceConfig, parse_shadow_specs
from repro.service.events import heartbeat, make_event
from repro.service.http import ServiceHTTPServer, render_metrics

SCENARIO = "tree-static"
N = 4


@pytest.fixture(scope="module")
def served():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # cap=80 shortfall is intended
        service = DigitalTwinService(
            ServiceConfig(
                scenario=SCENARIO, n_servers=N,
                shadows=parse_shadow_specs("cap=80"),
            )
        )
        for k in range(2):
            service.feed_event(
                make_event({"kind": "telemetry", "t": k + 0.5, "power_w": 100.0})
            )
            service.feed_event(heartbeat(float(k + 1)))
    server = ServiceHTTPServer(service, "127.0.0.1", 0)
    server.start()
    yield service, server
    server.stop()
    service.close()


def fetch(server, path):
    with urllib.request.urlopen(
        f"http://{server.host}:{server.port}{path}"
    ) as response:
        return response.status, response.read().decode("utf-8")


class TestEndpoints:
    def test_healthz(self, served):
        service, server = served
        status, body = fetch(server, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["windows_closed"] == 2
        assert payload["shadows"] == ["cap=80"]

    def test_windows_with_limit(self, served):
        _, server = served
        _, body = fetch(server, "/windows?limit=1")
        payload = json.loads(body)
        assert payload["count"] == 2
        assert len(payload["windows"]) == 1
        assert payload["windows"][0]["window"]["index"] == 1

    def test_windows_rejects_bad_limit(self, served):
        _, server = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(server, "/windows?limit=soon")
        assert exc.value.code == 400
        assert "limit" in json.loads(exc.value.read().decode("utf-8"))["error"]

    def test_whatif_default_returns_configured_shadows(self, served):
        _, server = served
        _, body = fetch(server, "/whatif")
        payload = json.loads(body)
        assert payload["windows"] == 2
        assert "cap=80" in payload["shadows"]

    def test_whatif_with_spec_matches_journaled_shadow(self, served):
        """An on-demand spec equal to a configured shadow reproduces the
        journaled answer digest for digest (and lands in the cache)."""
        service, server = served
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, body = fetch(server, "/whatif?spec=cap=80")
        payload = json.loads(body)
        journaled = service.records[-1]["shadows"]["cap=80"]
        assert payload["shadows"]["cap=80"]["digest"] == journaled["digest"]

    def test_whatif_spec_plus_is_literal(self, served):
        """A raw '+' joins spec keys exactly as its percent-encoding does."""
        _, server = served
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            raw = fetch(server, "/whatif?spec=cap=60+engine=fast")
            encoded = fetch(server, "/whatif?spec=cap%3D60%2Bengine%3Dfast")
        assert raw[0] == encoded[0] == 200
        assert raw[1] == encoded[1]
        assert "cap=60+engine=fast" in json.loads(raw[1])["shadows"]

    def test_whatif_rejects_bad_spec(self, served):
        _, server = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(server, "/whatif?spec=color%3Dred")
        assert exc.value.code == 400

    def test_metrics_exposition(self, served):
        _, server = served
        status, body = fetch(server, "/metrics")
        assert status == 200
        assert "repro_service_windows_closed_total 2" in body
        assert 'repro_service_shadow_power_watts{shadow="cap=80"}' in body
        assert "# TYPE repro_service_watermark_seconds gauge" in body

    def test_unknown_path_is_404(self, served):
        _, server = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(server, "/nope")
        assert exc.value.code == 404


@pytest.fixture()
def degradable():
    """A served twin whose health the test flips directly."""
    service = DigitalTwinService(
        ServiceConfig(scenario=SCENARIO, n_servers=N)
    )
    service.feed_event(
        make_event({"kind": "telemetry", "t": 0.5, "power_w": 100.0})
    )
    service.feed_event(heartbeat(1.0))
    server = ServiceHTTPServer(
        service,
        "127.0.0.1",
        0,
        extra_metrics=lambda: {"supervisor_restarts_total": 3},
        retry_after_s=2.5,
    )
    server.start()
    yield service, server
    server.stop()
    service.close()


class TestDegradedContract:
    @pytest.mark.parametrize("path", ["/windows", "/whatif"])
    def test_query_endpoints_503_while_degraded(self, degradable, path):
        service, server = degradable
        service.health.note_shed_level(1)
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(server, path)
        assert exc.value.code == 503
        # Retry-After is integral seconds, rounded up from 2.5.
        assert exc.value.headers["Retry-After"] == "3"
        payload = json.loads(exc.value.read().decode("utf-8"))
        assert payload["status"] == "degraded"
        assert payload["retry_after_s"] == 2.5
        # Recovery restores the endpoint without a restart.
        service.health.note_shed_level(0)
        status, _ = fetch(server, path)
        assert status == 200

    def test_healthz_stays_200_while_degraded(self, degradable):
        service, server = degradable
        service.health.note_shed_level(2)
        status, body = fetch(server, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "shedding"
        service.health.note_shed_level(0)

    def test_healthz_503_when_failed(self, degradable):
        service, server = degradable
        service.health.note_failed()
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(server, "/healthz")
        assert exc.value.code == 503
        assert json.loads(exc.value.read().decode("utf-8"))["status"] == "failed"

    def test_metrics_always_200_with_health_series(self, degradable):
        service, server = degradable
        service.health.note_failed()
        status, body = fetch(server, "/metrics")
        assert status == 200
        assert "repro_service_health_rank 3" in body
        assert 'repro_service_health_state{state="failed"} 1' in body
        assert 'repro_service_health_state{state="ok"} 0' in body
        assert "repro_service_supervisor_restarts_total 3" in body


class TestRenderMetrics:
    def test_escapes_label_values(self):
        class FakeService:
            def metrics_counters(self):
                return {
                    "windows_closed": 1,
                    "shadow_power_w": {'a"b\\c\nd': 5.0},
                }

        text = render_metrics(FakeService())
        assert '{shadow="a\\"b\\\\c\\nd"}' in text

    def test_skips_absent_counters(self):
        class FakeService:
            def metrics_counters(self):
                return {"windows_closed": 0}

        text = render_metrics(FakeService())
        assert "deployed_power_watts" not in text
        assert text.endswith("\n")
