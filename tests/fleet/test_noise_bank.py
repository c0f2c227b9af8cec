"""The SoA's noise bank against one :class:`BlockSampler` per row.

A bank of N rows must hand every row exactly the samples a per-server
sampler over the same generator hands out, take after take: takes of
nothing, of part of a block, of exactly one block and of several, and
takes that cross a refill. A small block makes refills frequent. A bank
captured and restored into fresh generators part-way through continues
identically, and its buffer holds only the latest refill.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import capture, restore
from repro.fleet.soa import _NoiseBank
from repro.rng import BlockSampler, spawn


def take_sizes(block):
    return st.one_of(
        st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block, 3 * block + 1]),
        st.integers(0, 3 * block + 2),
    )


@st.composite
def bank_runs(draw):
    block = draw(st.sampled_from([4, 16]))
    rows = draw(st.integers(1, 5))
    sigma = draw(st.sampled_from([1.0, 0.25, 3.0]))
    takes = draw(st.lists(take_sizes(block), min_size=1, max_size=25))
    split = draw(st.integers(0, len(takes)))
    return block, rows, sigma, takes, split


def oracle(rows, sigma, block, name="bank-test"):
    return [BlockSampler(spawn(i, name), "normal", (0.0, sigma), block=block) for i in range(rows)]


def check_take(bank, samplers, k):
    got = bank.take(k)
    assert got.shape == (len(samplers), k)
    for i, sampler in enumerate(samplers):
        want = np.array(sampler.take(k), dtype=np.float64)
        assert got[i].tobytes() == want.tobytes(), (i, k)


@settings(max_examples=60, deadline=None)
@given(bank_runs())
def test_bank_equals_one_sampler_per_row(run):
    block, rows, sigma, takes, _ = run
    bank = _NoiseBank([spawn(i, "bank-test") for i in range(rows)], sigma, block=block)
    samplers = oracle(rows, sigma, block)
    for k in takes:
        check_take(bank, samplers, k)
        # Only the latest refill is kept: a whole number of blocks, and no
        # more than the take that triggered it needed.
        width = bank._buf.shape[1]
        assert width % block == 0 and width <= max(takes) + block


@settings(max_examples=40, deadline=None)
@given(bank_runs())
def test_restored_bank_continues_identically(run):
    block, rows, sigma, takes, split = run
    bank = _NoiseBank([spawn(i, "bank-test") for i in range(rows)], sigma, block=block)
    samplers = oracle(rows, sigma, block)
    for k in takes[:split]:
        check_take(bank, samplers, k)
    [tag] = capture(bank)
    fresh = _NoiseBank([spawn(100 + i, "other") for i in range(rows)], sigma, block=block)
    [restored] = restore([tag], [fresh])
    assert restored is fresh
    twin = oracle(rows, sigma, block)  # the restored bank's own oracle
    for k in takes[:split]:
        for sampler in twin:
            sampler.take(k)
    for k in takes[split:]:
        check_take(restored, twin, k)
        check_take(bank, samplers, k)  # capturing did not disturb the original


def test_bank_of_the_soa_backend_holds_one_buffer_per_stream():
    from repro.fleet import SoaFleetBackend, SoaServerSpec

    backend = SoaFleetBackend([SoaServerSpec(name=f"s{i}", seed=i) for i in range(3)])
    backend.run_periods(2)
    for bank in (backend._wall_noise, backend._meter_noise, backend._nvml_noise):
        assert isinstance(bank, _NoiseBank)
        assert bank._buf.shape == (3, 256)
