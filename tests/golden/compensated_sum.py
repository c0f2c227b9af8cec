"""Golden digests computed with builtin ``sum`` rounding as CPython 3.12 does.

From the repository root::

    python -m tests.golden.compensated_sum ENTRY ...

replaces ``builtins.sum`` with :func:`neumaier_sum`, then runs the pinned
child of :mod:`tests.golden.digests` for the named entries. CPython 3.12
made ``sum()`` over floats Neumaier-compensated, where earlier interpreters
add left to right, so a digest that matches the corpus both here and under
the plain child does not depend on the interpreter's ``sum``.
"""

from __future__ import annotations

import builtins
import math
import sys

from tests.golden import digests

_builtin_sum = builtins.sum


def neumaier_sum(iterable, /, start=0):
    """``sum(iterable, start)`` as CPython 3.12 computes it.

    Exact ints add exactly until the first other item. A result that is
    then an exact float accumulates exact-float items with Neumaier's
    compensation and ints without it, and adds the compensation when the
    items run out or a third type arrives. Anything else is left to the
    interpreter's own ``sum``.
    """
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            result = result + item
            if type(item) not in (int, bool):
                break
    if type(result) is not float:
        return _builtin_sum(it, result)
    total, comp = result, 0.0
    for item in it:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                comp += (total - t) + item
            else:
                comp += (item - t) + total
            total = t
        elif type(item) in (int, bool):
            total += float(item)
        else:
            if comp and math.isfinite(comp):
                total += comp
            return _builtin_sum(it, total + item)
    if comp and math.isfinite(comp):
        total += comp
    return total


if __name__ == "__main__":
    builtins.sum = neumaier_sum
    sys.exit(digests.main(sys.argv[1:]))
