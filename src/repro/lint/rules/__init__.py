"""Rule registry: every ``repro lint`` rule, grouped by family.

Each rule is a singleton with an ``id`` (``REP101``), a one-line ``title``,
a ``hint`` describing the idiomatic fix, and a ``check(ctx)`` generator
yielding :class:`~repro.lint.findings.Finding` records for one module. The
rule's docstring is its catalogue entry (rendered by ``repro lint
--list-rules`` and mirrored in ``docs/static-analysis.md``).
"""

from __future__ import annotations

from .api import ControllerConformanceRule, RegistryConformanceRule
from .architecture import (
    ImportCycleRule,
    LayerViolationRule,
    StdlibOnlyRule,
)
from .artifacts import AtomicWriteRule
from .base import Rule
from .concurrency import (
    AsyncBlockingCallRule,
    FireAndForgetTaskRule,
    LockAcrossAwaitRule,
    SharedMemoryLifecycleRule,
    UnlockedSharedStateRule,
    UnpicklableSubmitRule,
)
from .determinism import (
    AmbientEntropyRule,
    HashOrderMaterializationRule,
    NumpyGlobalRngRule,
    StdlibRandomRule,
    UnorderedIterationRule,
    WallClockRule,
)
from .floats import (
    FloatEqualityRule,
    UnorderedAccumulationRule,
    UnorderedReductionRule,
)
from .units_rules import (
    CallUnitMismatchRule,
    ManualConversionRule,
    MixedUnitArithmeticRule,
)

__all__ = ["ALL_RULES", "Rule"]

ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    StdlibRandomRule(),
    NumpyGlobalRngRule(),
    AmbientEntropyRule(),
    UnorderedIterationRule(),
    HashOrderMaterializationRule(),
    AtomicWriteRule(),
    FloatEqualityRule(),
    UnorderedReductionRule(),
    UnorderedAccumulationRule(),
    MixedUnitArithmeticRule(),
    CallUnitMismatchRule(),
    ManualConversionRule(),
    ControllerConformanceRule(),
    RegistryConformanceRule(),
    AsyncBlockingCallRule(),
    UnlockedSharedStateRule(),
    LockAcrossAwaitRule(),
    FireAndForgetTaskRule(),
    SharedMemoryLifecycleRule(),
    UnpicklableSubmitRule(),
    LayerViolationRule(),
    ImportCycleRule(),
    StdlibOnlyRule(),
)
