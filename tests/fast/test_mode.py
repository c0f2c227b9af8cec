"""Engine mode switch: default, env var, programmatic override, context."""

import pytest

from repro.errors import ConfigurationError
from repro.enginemode import (
    ENGINES,
    engine_name,
    fast_enabled,
    fast_engine,
    set_engine,
)


@pytest.fixture(autouse=True)
def _clean_mode(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    set_engine(None)
    yield
    set_engine(None)


class TestEngineName:
    def test_default_is_reference(self):
        assert engine_name() == "reference"
        assert not fast_enabled()

    def test_env_var_selects_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        assert engine_name() == "fast"
        assert fast_enabled()

    def test_env_var_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp")
        with pytest.raises(ConfigurationError):
            engine_name()

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fast")
        set_engine("reference")
        assert engine_name() == "reference"

    def test_set_engine_validated(self):
        with pytest.raises(ConfigurationError):
            set_engine("warp")

    def test_engines_tuple(self):
        assert ENGINES == ("reference", "fast")


class TestContext:
    def test_fast_engine_scopes_the_switch(self):
        assert not fast_enabled()
        with fast_engine():
            assert fast_enabled()
        assert not fast_enabled()

    def test_restores_prior_override(self):
        set_engine("reference")
        with fast_engine():
            assert fast_enabled()
        assert engine_name() == "reference"


class TestConstructionTimeSwitch:
    def test_capgpu_picks_solver_at_construction(self):
        from repro.core.controller import CapGpuController
        from repro.core.mpc import MimoPowerMpc
        from repro.experiments.common import identified_model
        from repro.fast.mpc import FastMimoPowerMpc

        model = identified_model(0)
        with fast_engine():
            fast_ctl = CapGpuController(model=model)
        ref_ctl = CapGpuController(model=model)
        assert isinstance(fast_ctl.mpc, FastMimoPowerMpc)
        assert type(ref_ctl.mpc) is MimoPowerMpc
