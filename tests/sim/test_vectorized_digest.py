"""The one hot path still produces the digests of the deleted scalar path.

The simulator used to keep a legacy per-device scalar path next to the
vectorized one, and these cases ran each experiment under both and compared
the canonical-JSON sha256 of the result data, the digest the sweep checksum
is built from. The scalar path is gone. Its digests for the same cases are
recorded below: they were computed on the last revision that still had it,
with that path switched on, in the BLAS-pinned child of ``tests/golden``
(a digest holds only under one OpenBLAS kernel and thread count). The
remaining path is computed in that same child.
"""

import pytest

from tests.golden import digests

#: sha256 of the scalar path's result data, per (experiment, seed).
SCALAR_DIGESTS = {
    # delta-sigma rollout + pipeline workload
    ("fig3", 0): "38909c35761aec35b0595e0e1059e9decdd5008ed0d3ebe503cad5fddf62be89",
    ("fig3", 7): "469077a637fb2b394e712a8e4315d14b3138754e2637d020eaf402c041cbec92",
    # nearest-level rollout too
    ("ablation-modulator", 0): "27303deac77a56c1f58be8b1bf0b638094e42fca95fff8420da9696d630d5304",
    ("ablation-solver", 3): "8b9666f6851570f05bc509f66fe13e0a04785b6475700995595837d630687341",
}

PINNABLE, NOT_PINNABLE = digests.pinnable()


def entry(experiment_id: str, seed: int) -> str:
    return f"experiment/{experiment_id}@{seed}"


@pytest.fixture(scope="module")
def computed() -> dict[str, str]:
    return digests.compute([entry(*case) for case in SCALAR_DIGESTS])["digests"]


@pytest.mark.skipif(not PINNABLE, reason=NOT_PINNABLE)
class TestExperimentDigests:
    """Same experiment, the recorded scalar digest, identical checksums."""

    @pytest.mark.parametrize(("experiment_id", "seed"), list(SCALAR_DIGESTS))
    def test_digest_matches_scalar_path(self, computed, experiment_id, seed):
        assert computed[entry(experiment_id, seed)] == SCALAR_DIGESTS[experiment_id, seed]
