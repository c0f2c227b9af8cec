"""The fast-engine fleet backend keeps its recorded digests.

The corpus pins every SoA-capable scenario on ``soa`` only. These cases run
the same fleets on ``fast`` in the BLAS-pinned child of ``tests/golden``:

* a fixed-step fleet reproduces its corpus ``soa`` digest exactly;
* the MPC fleet runs the fast engine's pre-solved-gain bank, whose per-row
  results depend on how many rows it solves at once, so it has a digest of
  its own.
"""

import json

import pytest

from tests.golden import digests

CORPUS = json.loads(digests.CORPUS.read_text())["digests"]
FIXED_STEP_SCENARIOS = ("demand-static", "fair-static", "priority-static", "tree-static")

FAST_DIGESTS = {
    f"fleet/{scenario}/{backend}": CORPUS[f"fleet/{scenario}/soa"]
    for scenario in FIXED_STEP_SCENARIOS
    for backend in digests.FAST_BACKENDS
}
FAST_DIGESTS["fleet/mpc-static/fast"] = (
    "9a2768fe9db9bb10ceb6c27ea333401d27ec4eeb4068b353b1f7447ca623a279"
)

PINNABLE, NOT_PINNABLE = digests.pinnable()


@pytest.fixture(scope="module")
def computed() -> dict[str, str]:
    return digests.compute(list(FAST_DIGESTS))["digests"]


def test_every_soa_capable_scenario_is_pinned():
    from repro.fleet.scenarios import FLEET_SCENARIOS

    capable = sorted(name for name, s in FLEET_SCENARIOS.items() if s.soa_capable)
    assert sorted({name.split("/")[1] for name in FAST_DIGESTS}) == capable


@pytest.mark.skipif(not PINNABLE, reason=NOT_PINNABLE)
@pytest.mark.parametrize("name", list(FAST_DIGESTS))
def test_fast_backend_digest(computed, name):
    assert computed[name] == FAST_DIGESTS[name]
