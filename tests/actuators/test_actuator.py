"""Channel/server actuation: staging, tick application, applied averages."""

from dataclasses import replace

import numpy as np
import pytest

from repro.actuators import (
    ChannelActuator,
    DeltaSigmaModulator,
    NearestLevelModulator,
    ServerActuator,
)
from repro.errors import ActuationError, ConfigurationError
from repro.hardware import CpuModel, GpuModel, GpuServer, v100_server
from repro.hardware.presets import TESLA_V100_16GB, XEON_GOLD_5215
from repro.rng import spawn


class TestChannelActuator:
    def test_command_latency_one_tick(self, quiet_server):
        chan = ChannelActuator(quiet_server.gpus[0])
        chan.set_target(900.0)
        # The pending target takes effect at the next tick, not before.
        assert chan.target_mhz == 435.0
        chan.tick()
        assert chan.target_mhz == 900.0
        assert quiet_server.gpus[0].frequency_mhz == 900.0

    def test_rejects_non_finite(self, quiet_server):
        chan = ChannelActuator(quiet_server.gpus[0])
        with pytest.raises(ActuationError):
            chan.set_target(float("nan"))

    def test_clamps_target(self, quiet_server):
        chan = ChannelActuator(quiet_server.gpus[0])
        chan.set_target(10_000.0)
        chan.tick()
        assert chan.target_mhz == 1350.0

    def test_reset(self, quiet_server):
        chan = ChannelActuator(quiet_server.gpus[0])
        chan.set_target(900.0)
        chan.reset()
        chan.tick()
        assert quiet_server.gpus[0].frequency_mhz == 435.0


class TestServerActuator:
    def test_vector_roundtrip(self, quiet_server):
        act = ServerActuator(quiet_server)
        act.set_targets([1600.0, 900.0, 750.0, 600.0])
        act.tick()
        assert np.array_equal(
            quiet_server.frequency_vector(), [1600.0, 900.0, 750.0, 600.0]
        )

    def test_shape_checked(self, quiet_server):
        act = ServerActuator(quiet_server)
        with pytest.raises(ActuationError):
            act.set_targets([1600.0, 900.0])

    def test_single_channel_set(self, quiet_server):
        act = ServerActuator(quiet_server)
        act.set_target(1, 900.0)
        act.tick()
        assert quiet_server.gpus[0].frequency_mhz == 900.0
        assert quiet_server.cpus[0].frequency_mhz == 1000.0

    def test_applied_average_tracks_fractional_targets(self, quiet_server):
        act = ServerActuator(quiet_server)
        act.set_targets([1650.0, 742.5, 742.5, 742.5])
        for _ in range(200):
            act.tick()
        avg = act.applied_average_and_reset()
        assert avg[0] == pytest.approx(1650.0, abs=1.0)
        assert avg[1] == pytest.approx(742.5, abs=1.0)

    def test_applied_average_resets_window(self, quiet_server):
        act = ServerActuator(quiet_server)
        act.set_targets(quiet_server.f_max_vector())
        for _ in range(10):
            act.tick()
        act.applied_average_and_reset()
        act.set_targets(quiet_server.f_min_vector())
        for _ in range(10):
            act.tick()
        avg = act.applied_average_and_reset()
        assert np.array_equal(avg, quiet_server.f_min_vector())

    def test_applied_average_before_any_tick_returns_targets(self, quiet_server):
        act = ServerActuator(quiet_server)
        assert np.array_equal(act.applied_average_and_reset(), act.targets())

    def test_custom_modulator_factory(self, quiet_server):
        act = ServerActuator(quiet_server, modulator_factory=NearestLevelModulator)
        act.set_targets([1650.0, 742.0, 742.0, 742.0])
        for _ in range(50):
            act.tick()
        avg = act.applied_average_and_reset()
        # Nearest-level rounding: constant 735, never averaging to 742.
        assert avg[1] == pytest.approx(735.0)

    def test_default_is_delta_sigma(self, quiet_server):
        act = ServerActuator(quiet_server)
        assert isinstance(act.channels[0].modulator, DeltaSigmaModulator)

    def test_reset(self, quiet_server):
        act = ServerActuator(quiet_server)
        act.set_targets(quiet_server.f_max_vector())
        act.tick()
        act.reset()
        assert np.array_equal(act.targets(), quiet_server.frequency_vector())

    def test_other_modulator_factory_rejected(self, quiet_server):
        class Custom(NearestLevelModulator):
            pass

        def wrapped(domain):
            return DeltaSigmaModulator(domain)

        for factory in (Custom, wrapped):
            with pytest.raises(ConfigurationError, match="DeltaSigmaModulator"):
                ServerActuator(quiet_server, modulator_factory=factory)


def irregular_server():
    """A server whose CPU and one GPU have non-uniform level grids."""
    cpu = replace(XEON_GOLD_5215, levels_mhz=(1000.0, 1200.0, 1300.0, 1500.0, 1800.0, 2400.0))
    odd_gpu = replace(
        TESLA_V100_16GB, core_levels_mhz=tuple(435.0 + 7.3 * i for i in range(126))
    )
    server = GpuServer(
        cpus=[CpuModel(cpu)], gpus=[GpuModel(TESLA_V100_16GB), GpuModel(odd_gpu)], seed=None
    )
    assert [d.domain.uniform_pitch_mhz for d in server.devices] == [None, 15.0, None]
    return server


class TestBatchedRollout:
    """One ServerActuator reproduces independent ChannelActuators bit for bit."""

    @staticmethod
    def targets(server):
        rng = spawn(11, "actuator-rollout-test")
        lo, hi = server.f_min_vector(), server.f_max_vector()
        out = [rng.uniform(lo - 50.0, hi + 50.0) for _ in range(6)]
        # Exact midpoints between neighbouring levels exercise the
        # resolve-ties-down rule on every channel.
        levels = [d.domain.levels for d in server.devices]
        out.append(np.array([(lv[2] + lv[3]) / 2.0 for lv in levels]))
        return out

    @pytest.mark.parametrize(
        "factory", [DeltaSigmaModulator, NearestLevelModulator], ids=["delta-sigma", "nearest"]
    )
    @pytest.mark.parametrize(
        "build", [lambda: v100_server(seed=None), irregular_server], ids=["v100", "irregular"]
    )
    def test_bitwise_equal(self, factory, build):
        batched_server, channel_server = build(), build()
        act = ServerActuator(batched_server, factory)
        chans = [ChannelActuator(d, factory(d.domain)) for d in channel_server.devices]
        n_ticks = 40
        for tgt in self.targets(batched_server):
            act.set_targets(tgt)
            for chan, f in zip(chans, tgt):
                chan.set_target(float(f))
            total = np.zeros(len(chans))
            for _ in range(n_ticks):
                act.tick()
                total += [chan.tick() for chan in chans]
                # Exact float equality, not allclose: the rollout must be bitwise.
                assert np.array_equal(
                    batched_server.frequency_vector(), channel_server.frequency_vector()
                )
            assert np.array_equal(act.applied_average_and_reset(), total / n_ticks)
