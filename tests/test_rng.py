"""Deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.rng import BlockSampler, make_rng, spawn


class TestMakeRng:
    def test_int_seed_reproducible(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(5), make_rng(2).random(5))


class TestSpawn:
    def test_same_seed_and_name_reproducible(self):
        a = spawn(7, "meter").random(8)
        b = spawn(7, "meter").random(8)
        assert np.array_equal(a, b)

    def test_different_names_decorrelated(self):
        a = spawn(7, "meter").random(8)
        b = spawn(7, "nvml").random(8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = spawn(7, "meter").random(8)
        b = spawn(8, "meter").random(8)
        assert not np.array_equal(a, b)

    def test_none_seed_defaults_to_zero(self):
        a = spawn(None, "x").random(4)
        b = spawn(0, "x").random(4)
        assert np.array_equal(a, b)

    def test_component_streams_stable_under_new_components(self):
        # Drawing from one named stream must not perturb another.
        a1 = spawn(3, "a").random(4)
        _ = spawn(3, "new-component").random(100)
        a2 = spawn(3, "a").random(4)
        assert np.array_equal(a1, a2)


class TestBlockSampler:
    """Pre-drawing blocks must not perturb the underlying bit stream.

    Every noise stream in the simulator is block-drawn, so this equality is
    what makes its digests those of one scalar draw per sample.
    """

    def test_chunked_take_equals_scalar_draws(self):
        sampler = BlockSampler(spawn(3, "bs-test"), "lognormal", (0.0, 0.3))
        reference = spawn(3, "bs-test")
        drawn = []
        for n in (1, 5, 0, 64, 7, 200, 1):
            drawn.extend(sampler.take(n))
        expected = [float(reference.lognormal(0.0, 0.3)) for _ in range(len(drawn))]
        assert drawn == expected

    @pytest.mark.parametrize(
        ("dist", "args"),
        [("normal", (0.0, 3.5)), ("lognormal", (0.0, 0.06)), ("poisson", (4.2,))],
    )
    def test_next_equals_scalar_draws(self, dist, args):
        sampler = BlockSampler(spawn(5, "bs-next"), dist, args, block=16)
        reference = spawn(5, "bs-next")
        drawn = [sampler.next() for _ in range(40)]
        expected = [float(getattr(reference, dist)(*args)) for _ in range(40)]
        assert drawn == expected

    def test_take_rejects_negative(self):
        sampler = BlockSampler(spawn(3, "bs-test"), "normal", (0.0, 1.0))
        with pytest.raises(ValueError):
            sampler.take(-1)
