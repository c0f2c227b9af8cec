"""The SoA's fixed-step bank against one controller object per row.

Each row of the bank must command exactly what a
:class:`FixedStepController` (or :class:`SafeFixedStepController`) fed that
row's :class:`ControlObservation` commands, and keep the same round-robin
cursor, period after period. Inputs are drawn to reach every branch:
utilizations tied exactly and within the tie tolerance, targets at and
near the frequency bounds, errors on the deadband's edge, NaN power.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.base import ControlObservation
from repro.control.fixed_step import _UTIL_TIE_TOL
from repro.fleet import SoaFleetBackend, SoaServerSpec

N_CHANNELS = 4  # the default fleet server: one CPU, three GPUs

rows = st.lists(
    st.tuples(
        st.sampled_from(["fixed-step", "safe-fixed-step"]),
        st.sampled_from([1, 5]),  # step size
        st.sampled_from([0.0, 5.0]),  # deadband
        st.sampled_from([10.0, 25.0, 0.1, 17.3]),  # safety margin
        st.floats(600.0, 1200.0),  # set point
    ),
    min_size=1,
    max_size=5,
)
# Utilizations: a shared base value plus offsets that tie it exactly, sit
# just inside or outside the tie tolerance, or land anywhere in [0, 1].
utilization = st.one_of(
    st.sampled_from(
        [0.0, 0.0, _UTIL_TIE_TOL, 2 * _UTIL_TIE_TOL, np.nextafter(_UTIL_TIE_TOL, 1.0)]
    ),
    st.floats(0.0, 1.0),
)
# Power as an offset from the row's effective set point: on the deadband's
# edges, either side of zero, far off, or NaN.
power_offset = st.one_of(
    st.sampled_from([0.0, 5.0, -5.0, np.nextafter(5.0, 6.0), 4.999, -60.0, 60.0]),
    st.floats(-80.0, 80.0),
    st.just(float("nan")),
)
# Target overrides per channel: keep the bank's last command, or pin the
# channel at a bound or within the movability slack of one.
target = st.sampled_from(["keep", "keep", "keep", "min", "max", "near-min", "near-max"])


def period(n):
    return st.tuples(
        st.lists(st.lists(utilization, min_size=N_CHANNELS, max_size=N_CHANNELS),
                 min_size=n, max_size=n),
        st.floats(0.0, 0.9),  # utilization base
        st.lists(power_offset, min_size=n, max_size=n),
        st.lists(st.lists(target, min_size=N_CHANNELS, max_size=N_CHANNELS),
                 min_size=n, max_size=n),
    )


@st.composite
def bank_runs(draw):
    kinds = draw(rows)
    periods = draw(st.lists(period(len(kinds)), min_size=20, max_size=30))
    return kinds, periods


def observation(backend, k, i, power, util):
    return ControlObservation(
        period_index=k,
        time_s=float(k),
        power_w=power,
        power_samples_w=np.empty(0),
        set_point_w=float(backend._set_point[i]),
        f_targets_mhz=backend._tgt[i].copy(),
        f_applied_mhz=backend._tgt[i].copy(),
        f_min_mhz=backend._f_min.copy(),
        f_max_mhz=backend._f_max.copy(),
        utilization=util,
        throughput_norm=np.zeros(N_CHANNELS),
        throughput_raw=np.zeros(N_CHANNELS),
        cpu_channels=(0,),
        gpu_channels=tuple(range(1, N_CHANNELS)),
    )


@settings(max_examples=40, deadline=None)
@given(bank_runs())
def test_bank_equals_one_controller_per_row(run):
    kinds, periods = run
    specs = [
        SoaServerSpec(
            name=f"s{i}", seed=i, set_point_w=set_point, controller=kind,
            step_size=step, deadband_w=deadband, safety_margin_w=margin,
        )
        for i, (kind, step, deadband, margin, set_point) in enumerate(kinds)
    ]
    backend = SoaFleetBackend(specs)
    assert backend.n_channels == N_CHANNELS
    controllers = [s.build_controller() for s in specs]
    f_min, f_max = backend._f_min, backend._f_max
    pinned = {
        "min": f_min, "max": f_max, "near-min": f_min + 5e-10, "near-max": f_max - 5e-10,
    }
    for k, (utils, base, offsets, overrides) in enumerate(periods):
        for i, row in enumerate(overrides):
            for c, how in enumerate(row):
                if how != "keep":
                    backend._tgt[i, c] = pinned[how][c]
        util = np.clip(base + np.array(utils, dtype=np.float64), 0.0, 1.0)
        effective = backend._set_point - backend._fs_margin
        power = effective + np.array(offsets, dtype=np.float64)
        observations = [
            observation(backend, k, i, float(power[i]), util[i]) for i in range(len(specs))
        ]
        got = backend._fixed_step_targets(power, util)
        for i, (controller, obs) in enumerate(zip(controllers, observations)):
            want = np.asarray(controller.step(obs), dtype=np.float64)
            assert got[i].tobytes() == want.tobytes(), (k, i, got[i], want)
            assert backend._fs_rr[i] == controller._rr, (k, i)
        backend._tgt = got
