"""Shadow specs and cumulative twins."""

import dataclasses
import re

import pytest

from repro.errors import ConfigurationError
from repro.service.shadow import (
    ShadowSpec,
    TwinSet,
    TwinSpec,
    parse_shadow_spec,
    parse_shadow_specs,
)

SCENARIO = "tree-static"
N = 4


def twin(**fields):
    """A twin of ``SCENARIO`` built, as every twin is, by a set (of one)."""
    return TwinSet({"deployed": TwinSpec(SCENARIO, N, **fields)}).deployed


class TestParseShadowSpec:
    def test_cap_percent(self):
        spec = parse_shadow_spec("cap=80")
        assert spec == ShadowSpec(name="cap=80", budget_frac=0.8)

    def test_combined_keys(self):
        spec = parse_shadow_spec("cap=60+engine=fast")
        assert spec.budget_frac == pytest.approx(0.6)
        assert spec.engine == "fast"

    def test_scenario_key_validates_name(self):
        assert parse_shadow_spec("scenario=fair-static").scenario == "fair-static"
        with pytest.raises(ConfigurationError):
            parse_shadow_spec("scenario=nope")

    @pytest.mark.parametrize(
        "spec",
        ["", "cap", "cap=", "=80", "cap=abc", "cap=0", "cap=-5",
         "engine=turbo", "color=red", "cap=80+cap=90"],
    )
    def test_rejects_malformed(self, spec):
        with pytest.raises(ConfigurationError):
            parse_shadow_spec(spec)

    @pytest.mark.parametrize("cap", ["inf", "-inf", "1e400", "nan", "0", "-5"])
    def test_refuses_a_cap_that_is_not_finite_and_positive(self, cap):
        message = f"shadow cap must be a finite number > 0, got '{cap}'"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            parse_shadow_spec(f"cap={cap}")

    def test_specs_list(self):
        specs = parse_shadow_specs("cap=80, cap=120")
        assert [s.name for s in specs] == ["cap=80", "cap=120"]

    def test_specs_list_rejects_duplicates_and_empty(self):
        with pytest.raises(ConfigurationError):
            parse_shadow_specs("cap=80,cap=80")
        with pytest.raises(ConfigurationError):
            parse_shadow_specs(" , ")


class TestTopologyHash:
    def test_sensitive_to_every_field(self):
        base = TwinSpec(SCENARIO, N, 1, 0).topology_hash
        assert TwinSpec("fair-static", N, 1, 0).topology_hash != base
        assert TwinSpec(SCENARIO, N + 1, 1, 0).topology_hash != base
        assert TwinSpec(SCENARIO, N, 2, 0).topology_hash != base
        assert TwinSpec(SCENARIO, N, 1, 1).topology_hash != base
        assert TwinSpec(SCENARIO, N, 1, 0, budget_frac=0.8).topology_hash != base
        assert TwinSpec(SCENARIO, N, 1, 0, engine="fast").topology_hash != base

    def test_stable(self):
        assert TwinSpec(SCENARIO, N, 1, 0).topology_hash == TwinSpec(SCENARIO, N).topology_hash
        # A journal's manifest records the deployed hash and resume
        # compares it, so the hash of a spec must never move.
        assert TwinSpec(SCENARIO, N).topology_hash == (
            "fb3486648d6a3a234cd0cc6fd7a821a3e6899f2eb3bc99bb18ee14b288d92337"
        )


class TestTwinSpec:
    def test_shadow_applies_deltas(self):
        deployed = TwinSpec(SCENARIO, N, 2, 3)
        assert deployed.shadow(parse_shadow_spec("cap=80")) == TwinSpec(
            SCENARIO, N, 2, 3, budget_frac=0.8
        )
        assert deployed.shadow(
            parse_shadow_spec("scenario=mpc-static+engine=fast")
        ) == TwinSpec("mpc-static", N, 2, 3, engine="fast")

    @pytest.mark.parametrize(
        ("scenario", "engine", "backend"),
        [
            ("tree-static", "reference", "soa"),
            ("mpc-static", "reference", "soa"),
            ("tree-static", "fast", "fast"),
            ("paper-rack", "reference", "reference"),
        ],
    )
    def test_backend_and_bankable(self, scenario, engine, backend):
        spec = TwinSpec(scenario, 2, engine=engine)
        assert spec.backend == backend
        assert spec.bankable == (backend == "soa")


class TestTwinRunner:
    def test_advance_is_chunking_invariant(self):
        one_shot = twin()
        one_shot.advance(3)
        stepped = twin()
        for _ in range(3):
            stepped.advance(1)
        assert one_shot.digest() == stepped.digest()
        assert one_shot.summary() == stepped.summary()

    def test_seed_changes_trajectory(self):
        a = twin(seed=0)
        b = twin(seed=1)
        a.advance(2)
        b.advance(2)
        assert a.digest() != b.digest()

    def test_budget_frac_scales_budget(self):
        full = twin()
        capped = twin(budget_frac=0.8)
        assert capped.fleet.budget_w == pytest.approx(full.fleet.budget_w * 0.8)

    def test_summary_before_advance_has_no_power(self):
        summary = twin().summary()
        assert summary["windows"] == 0
        assert "total_power_w" not in summary

    def test_summary_carries_digest_and_hash(self):
        runner = twin(periods_per_window=2)
        runner.advance(1)
        summary = runner.summary()
        assert summary["digest"] == runner.digest()
        assert summary["topology_hash"] == runner.spec.topology_hash
        assert (summary["windows"], summary["rack_periods"]) == (1, 2)
        assert summary["tracking_err_w"] == pytest.approx(
            summary["total_power_w"] - summary["budget_w"]
        )

    def test_equiv_vs_self_is_ok(self):
        a = twin()
        b = twin()
        a.advance(2)
        b.advance(2)
        report = a.equiv_vs(b)
        assert report.ok

    def test_rejects_bad_configuration(self):
        """A twin's configuration is its spec, refused before any fleet is
        built."""
        for fields in (
            {"periods_per_window": 0},
            {"budget_frac": 0.0},
            {"engine": "turbo"},
            {"n_servers": 0},
            {"scenario": "nope"},
        ):
            with pytest.raises(ConfigurationError):
                TwinSpec(**{"scenario": SCENARIO, "n_servers": N, **fields})

    def test_shadow_spec_dataclass_is_frozen(self):
        spec = parse_shadow_spec("cap=80")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.budget_frac = 0.5
