"""The service core: streaming vs offline equality, durability, resume."""

import warnings

import pytest

from repro.errors import CheckpointError, ConfigurationError
from repro.service import (
    DigitalTwinService,
    ServiceConfig,
    ServiceJournal,
    offline_whatif,
    parse_shadow_specs,
)
from repro.service.events import heartbeat, make_event

SCENARIO = "tree-static"
N = 4


@pytest.fixture(autouse=True)
def _quiet_shortfall():
    # cap=80 shadows push the fleet budget under the sum of server
    # minimums by design; the shortfall warning is the expected behavior.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def config(shadows="cap=80"):
    parsed = parse_shadow_specs(shadows) if shadows else ()
    return ServiceConfig(scenario=SCENARIO, n_servers=N, shadows=parsed)


def feed_windows(service, n, start=0):
    for k in range(start, start + n):
        service.feed_event(
            make_event({"kind": "telemetry", "t": k + 0.5, "power_w": 100.0 + k})
        )
        service.feed_event(heartbeat(float(k + 1)))


class TestServiceConfig:
    def test_dict_roundtrip(self):
        cfg = config()
        assert ServiceConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_checks_topology_hash(self):
        data = config().to_dict()
        data["topology_hash"] = "stale"
        with pytest.raises(CheckpointError, match="topology hash"):
            ServiceConfig.from_dict(data)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_servers": 0},
            {"window_s": 0.0},
            {"periods_per_window": 0},
            {"window_s": float("nan")},
            {"window_s": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServiceConfig(scenario=SCENARIO, **kwargs)

    def test_rejects_a_repeated_shadow(self):
        [spec] = parse_shadow_specs("cap=80")
        with pytest.raises(ConfigurationError, match="duplicate shadow specs"):
            ServiceConfig(scenario=SCENARIO, shadows=(spec, spec))
        with pytest.raises(ConfigurationError, match="duplicate shadow specs"):
            offline_whatif(SCENARIO, N, 1, shadows=(spec, spec))


class TestStreaming:
    def test_windows_advance_twins(self):
        service = DigitalTwinService(config())
        feed_windows(service, 2)
        assert service.windows_closed == 2
        assert service.deployed.windows_advanced == 2
        assert service.records[-1]["window"]["index"] == 1
        service.close()

    def test_served_equals_offline_digest(self):
        """The whole point of the cumulative discipline: the streamed path
        (events -> windows -> per-window advance) lands on the same digests
        as the one-shot offline twin."""
        service = DigitalTwinService(config())
        feed_windows(service, 3)
        offline = offline_whatif(
            SCENARIO, N, 3, shadows=config().shadows
        )
        last = service.records[-1]
        assert last["deployed"]["digest"] == offline["deployed"]["digest"]
        assert (
            last["shadows"]["cap=80"]["digest"]
            == offline["shadows"]["cap=80"]["digest"]
        )
        service.close()

    def test_shadow_answers_carry_equiv_deltas(self):
        service = DigitalTwinService(config())
        feed_windows(service, 1)
        answer = service.records[-1]["shadows"]["cap=80"]
        assert "equiv_vs_deployed" in answer
        assert {row["metric"] for row in answer["equiv_vs_deployed"]["rows"]}
        service.close()

    def test_chain_links_forward(self):
        service = DigitalTwinService(config(shadows=None))
        feed_windows(service, 2)
        first, second = service.records
        assert second["chain"] != first["chain"]
        assert service.chain == second["chain"]
        service.close()

    def test_whatif_payload_on_demand_spec_uses_cache(self):
        service = DigitalTwinService(config(shadows=None))
        feed_windows(service, 2)
        first = service.whatif_payload("cap=90")
        again = service.whatif_payload("cap=90")
        assert first["shadows"]["cap=90"]["digest"] == again["shadows"]["cap=90"]["digest"]
        assert service.cache.hits >= 1
        service.close()

    def test_whatif_payload_refuses_an_infinite_cap_before_any_twin(self):
        service = DigitalTwinService(config(shadows=None))
        feed_windows(service, 2)
        with pytest.raises(ConfigurationError, match="finite number > 0, got 'inf'"):
            service.whatif_payload("cap=inf")
        assert service.cache.counters()["misses"] == 0
        service.close()

    def test_whatif_payload_without_records(self):
        service = DigitalTwinService(config(shadows=None))
        assert service.whatif_payload()["windows"] == 0
        service.close()

    def test_windows_payload_limit(self):
        service = DigitalTwinService(config(shadows=None))
        feed_windows(service, 3)
        assert len(service.windows_payload()["windows"]) == 3
        assert len(service.windows_payload(limit=2)["windows"]) == 2
        assert service.windows_payload(limit=0)["windows"] == []
        assert service.windows_payload(limit=2)["count"] == 3
        service.close()

    def test_flush_closes_open_windows(self):
        service = DigitalTwinService(config(shadows=None))
        service.feed_event(make_event({"kind": "telemetry", "t": 0.5}))
        assert service.windows_closed == 0
        service.flush()
        assert service.windows_closed == 1
        service.close()


class TestDurability:
    def make_journalled(self, tmp_path, n_windows=2, shadows="cap=80"):
        cfg = config(shadows)
        journal = ServiceJournal.create(tmp_path / "svc", cfg.to_dict())
        service = DigitalTwinService(cfg, journal=journal)
        feed_windows(service, n_windows)
        state = (service.chain, service.records[-1]["deployed"]["digest"])
        service.close()
        return cfg, state

    def resume(self, tmp_path):
        journal = ServiceJournal.open(tmp_path / "svc")
        cfg = ServiceConfig.from_dict(journal.manifest())
        return DigitalTwinService(cfg, journal=journal, resume=True)

    def test_resume_from_blob_is_bit_identical(self, tmp_path):
        _, (chain, digest) = self.make_journalled(tmp_path)
        service = self.resume(tmp_path)
        assert service.windows_closed == 2
        assert service.chain == chain
        assert service.deployed.digest() == digest
        service.close()

    def test_resume_without_blob_resimulates(self, tmp_path):
        _, (chain, digest) = self.make_journalled(tmp_path)
        (tmp_path / "svc" / "twin.ckpt").unlink()
        service = self.resume(tmp_path)
        assert service.chain == chain
        assert service.deployed.digest() == digest
        service.close()

    def test_resumed_continuation_matches_uninterrupted_run(self, tmp_path):
        self.make_journalled(tmp_path, n_windows=2)
        resumed = self.resume(tmp_path)
        feed_windows(resumed, 2, start=2)
        continued_digest = resumed.records[-1]["deployed"]["digest"]
        resumed.close()

        straight = DigitalTwinService(config())
        feed_windows(straight, 4)
        assert straight.records[-1]["deployed"]["digest"] == continued_digest
        assert resumed.chain == straight.chain
        straight.close()

    def test_refeeding_the_stream_after_resume_converges(self, tmp_path):
        """Re-feeding the same replay drops everything behind the watermark
        as late — the resumed service does not double-advance."""
        _, (chain, _) = self.make_journalled(tmp_path)
        service = self.resume(tmp_path)
        feed_windows(service, 2, start=0)  # same events again
        assert service.windows_closed == 2
        assert service.chain == chain
        service.close()

    def test_resume_requires_journal(self):
        with pytest.raises(ConfigurationError):
            DigitalTwinService(config(), journal=None, resume=True)

    def test_resume_cross_checks_journaled_digests(self, tmp_path):
        """A WAL whose chain verifies but whose recorded digests disagree
        with what this build re-simulates must refuse — the code or the
        scenario changed under the journal."""
        import json

        from repro.service.journal import chain_digest

        cfg = config(shadows=None)
        journal = ServiceJournal.create(tmp_path / "svc", cfg.to_dict())
        service = DigitalTwinService(cfg, journal=journal)
        feed_windows(service, 1)
        service.close()
        # Rewrite the WAL with a forged deployed digest and a *recomputed*
        # valid chain, so only the digest cross-check can catch it.
        wal = tmp_path / "svc" / "windows.jsonl"
        entry = json.loads(wal.read_text().splitlines()[0])
        body = {k: v for k, v in entry.items() if k != "chain"}
        body["deployed"]["digest"] = "0" * 64
        forged = {**body, "chain": chain_digest("genesis", body)}
        wal.write_text(json.dumps(forged, sort_keys=True) + "\n")
        (tmp_path / "svc" / "twin.ckpt").unlink()
        with pytest.raises(CheckpointError, match="not bit-identical"):
            self.resume(tmp_path)


class TestOfflineWhatif:
    def test_rejects_zero_windows(self):
        with pytest.raises(ConfigurationError):
            offline_whatif(SCENARIO, N, 0)

    def test_shadow_answers_present(self):
        answers = offline_whatif(
            SCENARIO, N, 1, shadows=parse_shadow_specs("cap=120")
        )
        assert answers["windows"] == 1
        assert answers["shadows"]["cap=120"]["budget_frac"] == pytest.approx(1.2)
