"""Twins that step as banks: what a twin answers does not depend on the
twins banked with it, a bank builds one SoA for all its members, and
shedding never leaves a bank member behind."""

import warnings

import pytest

from repro.errors import ConfigurationError
from repro.fleet.soa import SoaFleetBackend
from repro.service import DigitalTwinService, ServiceConfig, offline_whatif, parse_shadow_specs
from repro.service.events import heartbeat, make_event
from repro.service.shadow import TwinBank, TwinSpec

SCENARIO = "tree-static"
N = 4
WINDOWS = 3

SHADOW_SETS = {
    "none": "",
    "two-caps": "cap=80,cap=120",
    "eight-caps": ",".join(f"cap={c}" for c in (60, 70, 80, 90, 110, 120, 130, 140)),
    "mixed": "cap=80,scenario=demand-static,scenario=mpc-static,cap=60+engine=fast",
}


@pytest.fixture(autouse=True)
def _quiet_shortfall():
    # Low caps push the fleet budget under the sum of server minimums by
    # design; the shortfall warning is the expected behavior.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def service_with(shadows):
    parsed = parse_shadow_specs(shadows) if shadows else ()
    return DigitalTwinService(ServiceConfig(scenario=SCENARIO, n_servers=N, shadows=parsed))


def feed_window(service, k, shed_level=0):
    service.feed_event_sheddable(
        make_event({"kind": "telemetry", "t": k + 0.5, "power_w": 100.0 + k}), shed_level
    )
    service.feed_event_sheddable(heartbeat(float(k + 1)), shed_level)


@pytest.mark.parametrize("shadows", list(SHADOW_SETS))
def test_digests_equal_one_twin_at_a_time(shadows):
    """Each twin's committed digest equals ``offline_whatif`` with that
    shadow alone (a bank of two), and the deployed digest equals the
    deployed twin alone (a bank of one)."""
    service = service_with(SHADOW_SETS[shadows])
    for k in range(WINDOWS):
        feed_window(service, k)
    latest = service.records[-1]
    alone = offline_whatif(SCENARIO, N, WINDOWS)["deployed"]["digest"]
    assert latest["deployed"]["digest"] == alone
    for spec in service.config.shadows:
        offline = offline_whatif(SCENARIO, N, WINDOWS, shadows=(spec,))
        assert latest["shadows"][spec.name]["digest"] == offline["shadows"][spec.name]["digest"]
    service.close()


def test_bank_membership_follows_engine_and_scenario():
    service = service_with(SHADOW_SETS["mixed"])
    members = [[twin.spec.engine for twin in bank.twins] for bank in service.banks]
    assert members == [["reference"] * 4, ["fast"]]
    assert service.banks[0].twins[0] is service.deployed
    service.close()


@pytest.fixture
def soa_builds(monkeypatch):
    """How many ``SoaFleetBackend``s (fast ones included) get built."""
    built = []
    init = SoaFleetBackend.__init__

    def counting_init(self, *args, **kwargs):
        built.append(len(args[0]))
        init(self, *args, **kwargs)

    monkeypatch.setattr(SoaFleetBackend, "__init__", counting_init)
    return built


@pytest.mark.parametrize(
    ("shadows", "servers"), [("none", N), ("two-caps", 3 * N), ("eight-caps", 9 * N)]
)
def test_a_service_builds_one_soa(soa_builds, shadows, servers):
    """Every reference twin's servers are built once, into the bank's SoA;
    no twin builds a backend of its own that the bank then drops."""
    service_with(SHADOW_SETS[shadows]).close()
    assert soa_builds == [servers]


def test_a_cold_whatif_builds_one_soa(soa_builds):
    offline_whatif(SCENARIO, N, 1, shadows=parse_shadow_specs("cap=80"))
    assert soa_builds == [2 * N]


@pytest.mark.parametrize("shadow", ["cap=60+engine=fast", "scenario=paper-rack"])
def test_a_bank_of_several_refuses_a_twin_it_cannot_step_exactly(shadow):
    """A fast twin's MPC batch moves bits with its shape and a
    reference-only scenario has no SoA rows, so neither joins a bank of
    several; alone, each builds its own backend."""
    deployed = TwinSpec(SCENARIO, N)
    other = deployed.shadow(parse_shadow_specs(shadow)[0])
    with pytest.raises(ConfigurationError, match="a bank of several twins"):
        TwinBank([deployed, other])
    TwinBank([other]).close()


def test_rung_3_sheds_the_answers_and_keeps_stepping_the_shadows():
    shadows = "cap=80,cap=60+engine=fast"
    unshed = service_with(shadows)
    shed = service_with(shadows)
    for k in range(3):
        feed_window(unshed, k)
        feed_window(shed, k, shed_level=3 if k == 1 else 0)

    # The rung-3 window journals the body it always has: no shadows.
    body = {key: value for key, value in shed.records[1].items() if key != "chain"}
    assert body == {
        "kind": "window_closed",
        "window": unshed.records[1]["window"],
        "deployed": unshed.records[1]["deployed"],
        "shed_level": 3,
        "shadows": {},
    }
    # No member lagged, so the next unshed window answers as if nothing
    # had been shed.
    assert [bank.windows_advanced for bank in shed.banks] == [3, 3]
    for name, answer in unshed.records[2]["shadows"].items():
        assert shed.records[2]["shadows"][name]["digest"] == answer["digest"]
    assert shed.metrics_counters()["windows_deployed_only"] == 1
    assert "shadow_lag" not in shed.metrics_counters()
    unshed.close()
    shed.close()
