"""The engine-mode switch: reference (default) vs relaxed-semantics fast.

This is the library's one engine switch. It lives at the kernel layer so
that the engine layer (``repro.sim``, ``repro.core``) can consult it without
importing upward into ``repro.fast`` — the fast engine *implements* the
mode, it does not own the flag.

Precedence:

* the programmatic override (:func:`set_engine`) wins,
* else the ``REPRO_ENGINE`` environment variable,
* else the default, ``"reference"``.

Components consult :func:`fast_enabled` / :func:`engine_name` **at
construction time** and never mid-run, so a built simulation keeps its
semantics for its whole life regardless of later switch flips.

The environment variable is the cross-process channel: ``repro sweep
--engine fast`` sets ``REPRO_ENGINE`` in the parent before the worker pool
exists, and both fork- and spawn-started workers inherit it — a module
global would silently reset under the spawn start method.

The fast engine changes float semantics and is therefore strictly opt-in:
nothing enables it implicitly, and every artifact produced under it is
comparable to the reference only through the tolerance-based
:mod:`repro.equiv` layer, never through digests (the reference engine's
digests are pinned by the golden corpus under ``tests/golden/``).
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager

from .errors import ConfigurationError

__all__ = ["ENGINES", "engine_name", "fast_enabled", "set_engine", "fast_engine"]

#: Recognized engine names, in trust order.
ENGINES = ("reference", "fast")

_ENV_VAR = "REPRO_ENGINE"

#: Programmatic override; ``None`` defers to the environment.
_override: str | None = None


def _validated(name: str, source: str) -> str:
    lowered = name.strip().lower()
    if lowered not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {name!r} from {source}; valid engines: {', '.join(ENGINES)}"
        )
    return lowered


def engine_name() -> str:
    """The engine new components should build for: ``"reference"`` or ``"fast"``."""
    if _override is not None:
        return _override
    env = os.environ.get(_ENV_VAR)
    if env is None or not env.strip():
        return "reference"
    return _validated(env, f"${_ENV_VAR}")


def fast_enabled() -> bool:
    """True when newly constructed components should use the fast engine."""
    return engine_name() == "fast"


def set_engine(name: str | None) -> None:
    """Override the engine mode (``None`` restores environment control)."""
    global _override  # noqa: PLW0603 -- the module-level engine switch
    _override = None if name is None else _validated(name, "set_engine()")


@contextmanager
def fast_engine() -> Iterator[None]:
    """Construct components under the fast engine within the block."""
    global _override  # noqa: PLW0603 -- paired save/restore of the module switch
    previous = _override
    _override = "fast"
    try:
        yield
    finally:
        _override = previous
