"""Rewrite the golden corpus.

From the repository root::

    python -m tests.golden.regenerate --write

computes every entry in one BLAS-pinned child process (see ``digests.py``)
and rewrites ``corpus.json``. Without ``--write`` it changes nothing and
exits 2: the corpus is the oracle, so it is rewritten only on purpose, and
the diff of a rewrite is what gets reviewed. It also exits 2 on a host where
the pins cannot apply.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .digests import CORPUS, compute, dump, pinnable


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.golden.regenerate",
        description="Recompute every golden digest and rewrite corpus.json.",
    )
    parser.add_argument("--write", action="store_true", help="rewrite corpus.json")
    args = parser.parse_args(argv)
    if not args.write:
        print("refusing to rewrite the golden corpus without --write", file=sys.stderr)
        return 2
    ok, why = pinnable()
    if not ok:
        print(f"cannot pin the BLAS here: {why}", file=sys.stderr)
        return 2
    corpus = compute()
    CORPUS.write_text(dump(corpus))
    print(f"wrote {len(corpus['digests'])} digests to {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
