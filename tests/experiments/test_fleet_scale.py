"""The fig9-scale experiment: hierarchical reallocation at fleet scale."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.fleet_scale import CURTAIL_FRACTION, run_fig9_scale


class TestFig9Scale:
    def test_registered(self):
        result = run_experiment("fig9-scale", n_servers=4, n_rack_periods=2)
        assert result.experiment_id == "fig9-scale"

    def test_curtailment_shows_in_trace_and_report(self):
        result = run_fig9_scale(seed=0, n_servers=4, n_rack_periods=4)
        trace = result.data["trace"]
        assert len(trace) == 4
        full = trace["budget_w"][0]
        cut = trace["budget_w"][-1]
        assert cut == pytest.approx(full * (1.0 - CURTAIL_FRACTION))
        assert result.data["n_servers"] == 4
        assert np.isfinite(result.data["final_powers_w"]).all()
        text = result.render()
        assert "fig9-scale" in text and "datacenter" in text

    def test_backends_bit_identical(self):
        soa = run_fig9_scale(seed=3, n_servers=4, backend="soa", n_rack_periods=2)
        ref = run_fig9_scale(seed=3, n_servers=4, backend="reference", n_rack_periods=2)
        for channel in soa.data["trace"].channels:
            if channel == "alloc_ms":  # timing telemetry, not physics
                continue
            assert soa.data["trace"][channel].tolist() == ref.data["trace"][channel].tolist()
        assert soa.data["final_powers_w"].tolist() == ref.data["final_powers_w"].tolist()

    def test_seed_shifts_noise_not_topology(self):
        a = run_fig9_scale(seed=0, n_servers=4, n_rack_periods=2)
        b = run_fig9_scale(seed=1, n_servers=4, n_rack_periods=2)
        assert a.data["trace"]["budget_w"].tolist() == b.data["trace"]["budget_w"].tolist()
        assert (
            a.data["trace"]["total_power_w"].tolist()
            != b.data["trace"]["total_power_w"].tolist()
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_fig9_scale(n_rack_periods=1)
        with pytest.raises(ConfigurationError):
            run_fig9_scale(n_servers=4, backend="gpu")
        with pytest.raises(ConfigurationError):
            run_fig9_scale(n_servers=2, scenario="paper-rack")
