"""ParallelFleetBackend: shared-memory workers vs the single-process fast path.

The parallel backend is a *distribution* of FastFleetBackend over worker
processes — same arrays, same RNG streams. Fixed-step fleets equal the
single-process fast backend exactly (``tests/golden/test_fast_backends.py``
pins their digests). MPC fleets are exact only where the batched MPC bank
rounds alike for a worker's slice and the whole fleet, as on the fleet
below; in general they agree within the ``repro.equiv`` tolerances, which
``test_parallel_backend_equivalence`` gates.
"""

import dataclasses

import numpy as np
import pytest

from repro.fast.fleet import FastFleetBackend
from repro.fast.parallel import ParallelFleetBackend
from repro.fleet import FleetSimulation, SoaServerSpec
from repro.fleet.scenarios import fleet_scenario


def specs(n, controller="fixed-step"):
    return [
        SoaServerSpec(
            name=f"p{i}", seed=1300 + i, set_point_w=725.0 + 5.0 * i,
            demand_scale=0.7 + 0.04 * (i % 4), controller=controller,
        )
        for i in range(n)
    ]


def drive(backend, n_rounds=4):
    fleet = FleetSimulation(
        backend,
        budget_w=730.0 * len(backend.specs),
        allocation=fleet_scenario("fair-static").allocation(len(backend.specs)),
    )
    fleet.run(n_rounds // 2)
    fleet.set_budget(fleet.budget_w * 0.97)
    fleet.run(n_rounds - n_rounds // 2)
    return fleet


@pytest.mark.parametrize("controller", ["fixed-step", "mpc"])
def test_matches_single_process_fast(controller):
    s = specs(5, controller=controller)
    single = drive(FastFleetBackend([dataclasses.replace(x) for x in s]))
    with ParallelFleetBackend(
        [dataclasses.replace(x) for x in s], n_workers=2
    ) as par_be:
        par = drive(par_be)
        np.testing.assert_array_equal(
            np.asarray(par.backend.last_powers()),
            np.asarray(single.backend.last_powers()),
        )
        for i in range(len(s)):
            t_single = single.backend.server_trace(i)
            t_par = par.backend.server_trace(i)
            for chan in ("power_w", "f_tgt_0", "power_max_w"):
                np.testing.assert_array_equal(t_par[chan], t_single[chan])


def test_close_is_idempotent():
    be = ParallelFleetBackend(specs(3), n_workers=2)
    drive(be, n_rounds=2)
    be.close()
    be.close()


def test_worker_count_capped_by_fleet_size():
    with ParallelFleetBackend(specs(2), n_workers=8) as be:
        assert be.n_workers <= 2
        drive(be, n_rounds=2)
