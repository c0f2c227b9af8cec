"""Seeded fleet runs keep their recorded digests.

The corpus pins seed 0 only, and at seed 0 the per-server RNG shift a fleet
seed applies is a no-op. These cases pin the seeded construction path at
seed 3: the ``fig9-scale`` experiment, and five twins of

    repro twin --scenario tree-static --servers 8 --windows 6 --seed 3

the ``deployed`` twin and the shadows ``cap=80``, ``cap=60+engine=fast``,
``scenario=demand-static`` and ``scenario=mpc-static``, each reported as
``repro twin`` reports it with that one ``--shadow``. The two ``scenario=``
shadows share one SoA with the ``tree-static`` deployed twin, each with its
own allocator, and ``mpc-static`` adds MPC rows to it.

The digests were recorded in the BLAS-pinned child of ``tests/golden``,
the first four before the fleet construction was folded into
``FleetScenario.build_fleet`` and the ``scenario=`` ones before a twin bank
built its members' fleets itself, and are computed in that same child.
"""

import pytest

from tests.golden import digests

SEEDED_DIGESTS = {
    "experiment/fig9-scale@3": "449bd2be819bd4258a51650028b1dad58381393befd5e8ca53afd09366f1937a",
    "twin/tree-static@3/deployed": "98335455b92dbe17235e8267e232de6cf0f56485b9dd3d2c0be09a90f51b2c30",
    "twin/tree-static@3/cap=80": "41ccccb0893a748d406d1d0e0dead9a3126b5e0e15973bb7ae3808fbafdbd879",
    "twin/tree-static@3/cap=60+engine=fast": "57d8c028b060d61a460ee33a17e97befa92ee156757baa66da09d6340ff0eb27",
    "twin/tree-static@3/scenario=demand-static": "6dd7687783a68dbc606f5a574a929614fd0e3f1e4f8f942a3f41c4c476cb7b6a",
    "twin/tree-static@3/scenario=mpc-static": "de5a047523bb18c040b9ceab9c8522b255ed3b876a7ba3a613c4c3257f6e7e97",
}

PINNABLE, NOT_PINNABLE = digests.pinnable()


@pytest.fixture(scope="module")
def computed() -> dict[str, str]:
    return digests.compute(list(SEEDED_DIGESTS))["digests"]


@pytest.mark.skipif(not PINNABLE, reason=NOT_PINNABLE)
@pytest.mark.parametrize("name", list(SEEDED_DIGESTS))
def test_seeded_digest(computed, name):
    assert computed[name] == SEEDED_DIGESTS[name]

