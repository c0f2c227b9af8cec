"""Digests do not depend on how the interpreter's builtin ``sum`` rounds.

These corpus entries once summed floats with builtin ``sum()``, whose last
bit changed in CPython 3.12. They are recomputed in the pinned child with
``builtins.sum`` replaced by 3.12's compensated summation and must still
equal the corpus, which an interpreter that adds left to right recorded.
"""

import json
import random
import sys

import pytest

from repro.units import sum_in_order
from tests.golden import digests
from tests.golden.compensated_sum import neumaier_sum

ENTRIES = [
    "experiment/batching",
    "fleet/priority-static/reference",
    "fleet/priority-static/soa",
]
CORPUS = json.loads(digests.CORPUS.read_text())
PINNABLE, NOT_PINNABLE = digests.pinnable()


@pytest.mark.skipif(not PINNABLE, reason=NOT_PINNABLE)
def test_digests_hold_under_compensated_builtin_sum():
    computed = digests.compute(ENTRIES, module="tests.golden.compensated_sum")
    report = digests.mismatch_report(CORPUS, computed)
    assert not report, report


def test_neumaier_sum_rounds_unlike_left_to_right():
    tenths = [0.1] * 10
    assert neumaier_sum(tenths) == 1.0
    assert sum_in_order(tenths) == 0.9999999999999999
    assert neumaier_sum([1, 2, 3]) == 6
    assert neumaier_sum([[1], [2]], []) == [1, 2]


@pytest.mark.skipif(sys.version_info < (3, 12), reason="builtin sum is left to right")
def test_neumaier_sum_matches_the_builtin():
    rng = random.Random(0)
    for _ in range(200):
        values = [rng.uniform(-1e3, 1e3) for _ in range(rng.randrange(1, 20))]
        assert neumaier_sum(values) == sum(values)
