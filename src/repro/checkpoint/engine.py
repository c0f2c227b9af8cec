"""Capture/restore glue between the simulation engine and checkpoint blobs.

The three live roots of a run — the :class:`~repro.sim.engine.ServerSimulation`,
the controller stack (possibly a watchdog wrapping the real controller), and
the :class:`~repro.sim.events.EventSchedule` — are captured into **one**
tagged tree with a shared alias memo. That single-memo property is load
bearing: the event schedule's fired-set, a controller's view of model
arrays, and the actuator's and sensors' references to the server's devices
must all land back on the *same* objects after restore, or a resumed run
would silently diverge (events re-firing, controllers mutating copies).

``capture_run_state`` also distills a human-inspectable ``summary`` —
degradation-ladder freshness, actuator targets, safe-mode status, MPC
matrix-cache keys, RNG stream count — so ``repro`` tooling (and a worried
operator with ``python -m pickle``) can see what a checkpoint contains
without reconstructing a run.
"""

from __future__ import annotations

from ..errors import CheckpointError
from .blob import build_blob, validate_blob
from .state import capture, count_rng_streams, restore

__all__ = ["capture_run_state", "restore_run_state"]


def _unwrap_controller(controller):
    """The innermost controller of a (possibly watchdog-wrapped) stack."""
    seen = set()
    while controller is not None and id(controller) not in seen:
        seen.add(id(controller))
        inner = getattr(controller, "inner", None)
        if inner is None:
            return controller
        controller = inner
    return controller


def _mpc_cache_keys(controller) -> list[str]:
    inner = _unwrap_controller(controller)
    mpc = getattr(inner, "mpc", None)
    cache = getattr(mpc, "_cache", None)
    if not cache:
        return []
    return [f"{ka.hex()}:{kr.hex()}" for ka, kr in cache]


def _summary(sim, controller, events) -> dict:
    actuator = getattr(sim, "actuator", None)
    targets = actuator.targets() if hasattr(actuator, "targets") else None
    summary = {
        "period_index": int(sim.period_index),
        "time_s": float(sim.time_s),
        "stale_periods": int(getattr(sim, "_stale_periods", 0)),
        "last_good_power_w": getattr(sim, "_last_good_power_w", None),
        "freeze_run": int(getattr(sim, "_freeze_run", 0)),
        "last_meter_seq": getattr(sim, "_last_meter_seq", None),
        "safe_mode": bool(getattr(sim, "_safe_mode_flag", False)),
        "actuator_targets_mhz": (
            None if targets is None else [float(t) for t in targets]
        ),
        "mpc_cache_keys": _mpc_cache_keys(controller),
        "has_controller": controller is not None,
        "has_events": events is not None,
    }
    if controller is not None and hasattr(controller, "in_safe_mode"):
        summary["watchdog_safe_mode"] = bool(controller.in_safe_mode)
    return summary


def capture_run_state(sim, controller=None, events=None) -> dict:
    """Freeze a run into a schema-complete checkpoint blob.

    ``controller`` and ``events`` must be the exact objects the run loop is
    using (pass ``None`` for whichever does not exist); they are captured in
    the same alias memo as the engine so shared state restores shared.
    """
    tags = capture(sim, controller, events)
    state = {"engine": tags[0], "controller": tags[1], "events": tags[2]}
    summary = _summary(sim, controller, events)
    summary["rng_streams"] = count_rng_streams(state)
    created = {"period_index": int(sim.period_index), "time_s": float(sim.time_s)}
    return build_blob(state, created, summary)


def restore_run_state(blob: dict, sim, controller=None, events=None):
    """Load a blob into freshly constructed run objects, in place.

    The targets must be built the same way as the checkpointed run (same
    scenario, same controller factory, same event list) — restore then
    overwrites their state so the run continues bit-identically. Presence
    must match: a blob captured with a controller cannot be restored
    without one, and vice versa.
    """
    validate_blob(blob)
    state = blob["state"]
    for name, target in (("controller", controller), ("events", events)):
        captured = state[name] is not None
        if captured != (target is not None):
            raise CheckpointError(
                f"checkpoint was taken {'with' if captured else 'without'} a "
                f"{name} but restore was called {'without' if captured else 'with'} one"
            )
    tags = [state["engine"]]
    targets = [sim]
    if controller is not None:
        tags.append(state["controller"])
        targets.append(controller)
    if events is not None:
        tags.append(state["events"])
        targets.append(events)
    restored = restore(tags, targets)
    if restored[0] is not sim:
        raise CheckpointError(
            "engine state did not restore in place — the target simulation "
            "does not match the checkpointed run"
        )
    return sim
