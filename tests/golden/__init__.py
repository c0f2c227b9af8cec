"""Golden digest corpus: absolute expected digests for the whole simulator.

``corpus.json`` pins one sha256 per case: every registered experiment at
seed 0, every fleet scenario on each reference-semantics backend, and the
WAL chain head and deployed digest of a journalled service. The digests
are computed in one child process whose BLAS is pinned (``digests.PINS``)
before numpy loads; ``test_golden.py`` compares them against the corpus,
and ``python -m tests.golden.regenerate --write`` rewrites it.
"""
