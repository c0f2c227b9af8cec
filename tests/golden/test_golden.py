"""The simulator reproduces the golden digest corpus exactly.

``corpus.json`` is an absolute oracle: one sha256 per experiment, fleet
scenario and backend, and service run (see ``digests.py``). The digests are
recomputed in one BLAS-pinned child process per test. A version difference
between this host and the corpus header is printed in the failure message;
it never skips the test. The only skip is a host where the pins cannot
apply at all.
"""

import json
import shutil
import subprocess
import sys

import pytest

from tests.golden import digests

CORPUS = json.loads(digests.CORPUS.read_text())
PINNABLE, NOT_PINNABLE = digests.pinnable()
pinned = pytest.mark.skipif(not PINNABLE, reason=NOT_PINNABLE)


def check(names: list[str]) -> None:
    report = digests.mismatch_report(CORPUS, digests.compute(names))
    assert not report, report


@pinned
def test_corpus_matches():
    check([name for name in digests.entries() if name not in digests.CHAOS_ENTRIES])


@pinned
@pytest.mark.chaos
def test_corpus_matches_chaos():
    check(sorted(digests.CHAOS_ENTRIES))


def test_corpus_covers_every_entry():
    assert sorted(CORPUS["digests"]) == sorted(digests.entries())
    assert CORPUS["header"]["pins"] == digests.PINS
    assert digests.CHAOS_ENTRIES <= set(CORPUS["digests"])


def test_corpus_file_is_canonical():
    assert digests.CORPUS.read_text() == digests.dump(CORPUS)


def test_regenerate_without_write_exits_2():
    before = digests.CORPUS.read_bytes()
    proc = subprocess.run(
        [sys.executable, "-m", "tests.golden.regenerate"],
        cwd=digests.ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 2
    assert "--write" in proc.stderr
    assert digests.CORPUS.read_bytes() == before


def test_report_names_each_mismatched_entry(tmp_path):
    copy = tmp_path / "corpus.json"
    shutil.copy(digests.CORPUS, copy)
    altered = json.loads(copy.read_text())
    changed = ["experiment/fig3", "fleet/tree-static/soa", "service/wal-chain-head"]
    for name in changed:
        altered["digests"][name] = "0" * 64
    altered["header"]["numpy"] = "0.0.0"
    copy.write_text(digests.dump(altered))

    report = digests.mismatch_report(json.loads(copy.read_text()), CORPUS)
    assert report.startswith(f"{len(changed)} golden digest(s) differ:")
    named = [line.split(":")[0].strip() for line in report.splitlines() if "computed" in line]
    assert named == sorted(changed)
    assert "numpy: corpus '0.0.0'" in report
    assert "regenerate --write" in report


def test_report_is_empty_when_digests_match_despite_header():
    other_env = {**CORPUS, "header": {**CORPUS["header"], "python": "0.0"}}
    assert digests.mismatch_report(CORPUS, other_env) == ""
