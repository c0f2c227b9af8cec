"""Generic object-graph capture and in-place restore.

The checkpoint subsystem needs to freeze a live simulation — engine,
controller, event schedule and everything they transitively own — and later
rebuild *exactly* that state inside freshly constructed objects, such that
resuming the run produces bit-identical results. Pickling the objects
wholesale would fail on the callables they hold (strategy factories,
callback events) and would silently break the aliasing invariants the
engine depends on (actuators and sensors holding the server's own devices,
samplers sharing their owner's generator). Instead, state is captured as a
*tagged tree* of pure data and restored **in place**:

* every mutable node (ndarray, generator, list, dict, set, deque, object)
  is assigned a node id on first visit; later visits capture as
  ``{"__ref__": id}`` so aliasing is preserved exactly;
* restore walks the same tree against an existing object graph (the freshly
  constructed run) and mutates it in place — ``arr[...] = data`` for
  same-shape arrays, ``list[:] = items``, recursion into attribute values —
  building fresh containers only where the counterpart is None and falling
  back to reconstruction via ``cls.__new__`` where no same-class object
  exists;
* callables, modules and classes are captured as ``__skip__`` markers and
  left untouched on restore (fresh construction supplies them);
* a ``numpy.random.Generator`` is one node holding
  :func:`repro.rng.generator_state` (not walked) and restores through
  :func:`repro.rng.set_generator_state`, so random streams continue as if
  never interrupted.

Classes may customize their captured state with the
``__repro_getstate__()`` / ``__repro_setstate__(state)`` protocol (the MPC
uses it to snapshot matrix-cache *keys* and replay the assembly on
restore instead of serializing the read-only cached matrices).

A caller that stores some arrays elsewhere passes them as ``tables``, a
mapping of names to arrays: each is captured as ``{"__table__": name}``,
and restore puts back the array the caller supplies under that name (the
digital-twin service keeps its twins' history in an append-only file this
way, so its state blob stays fixed-size). A capture without tables is the
plain tree above.

Attribute and set iteration orders are made deterministic (sorted), so
capturing the same state twice yields equal trees — the property the
snapshot/restore round-trip tests are built on.

Restore refuses a stale layout with :class:`~repro.errors.CheckpointError`:

* an object or frozen-dataclass node that lacks an attribute its
  same-class target has (naming the class and the attributes), because
  that attribute would silently keep its construction value. Attributes
  the node has and the target lacks still restore, so a blob written
  before a class dropped some state resumes;
* an array, list, dict, deque, set or generator node whose target is
  another kind (naming the class and attribute when the node is an
  attribute's value). A target that is None restores as any kind, and an
  array of another shape or dtype replaces its target (growable buffers
  restore at the capacity they were captured at).
"""

from __future__ import annotations

import importlib
from collections import deque
from collections.abc import Mapping
from enum import Enum
from types import BuiltinFunctionType, FunctionType, MethodType, ModuleType

import numpy as np

from ..errors import CheckpointError
from ..rng import generator_state, set_generator_state

__all__ = ["capture", "restore", "count_rng_streams"]

_PRIMITIVES = (type(None), bool, int, float, str, bytes)


def _qualify(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve_class(name: str) -> type:
    module_name, _, qualname = name.partition(":")
    try:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise CheckpointError(f"cannot resolve checkpointed class {name!r}: {exc}") from exc
    if not isinstance(obj, type):
        raise CheckpointError(f"checkpointed class {name!r} resolved to a non-class")
    return obj


def _is_frozen_dataclass(obj) -> bool:
    params = getattr(type(obj), "__dataclass_params__", None)
    return params is not None and params.frozen


def _state_items(obj) -> list[tuple[str, object]]:
    """The (attr, value) storage of ``obj``: ``__slots__`` plus ``__dict__``.

    Sorted by attribute name so capture order — and therefore the placement
    of ``__ref__`` nodes — is deterministic.
    """
    items: dict[str, object] = {}
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name in ("__dict__", "__weakref__"):
                continue
            if hasattr(obj, name):
                items[name] = getattr(obj, name)
    items.update(getattr(obj, "__dict__", {}))
    return sorted(items.items())


class _Capture:
    """One capture pass: node-id assignment plus alias memoization."""

    def __init__(self, tables: Mapping[str, np.ndarray] | None = None):
        self._ids: dict[int, int] = {}
        self._keepalive: list[object] = []
        self._counter = 0
        self._tables = {id(arr): name for name, arr in (tables or {}).items()}
        self._dtype_names: dict[np.dtype, str] = {}

    def _node_id(self, obj) -> tuple[int, bool]:
        """(node id, first visit?) for an aliasable object."""
        key = id(obj)
        known = self._ids.get(key)
        if known is not None:
            return known, False
        self._counter += 1
        self._ids[key] = self._counter
        self._keepalive.append(obj)
        return self._counter, True

    def capture(self, obj):
        if isinstance(obj, _PRIMITIVES):
            return obj
        if isinstance(obj, np.generic):
            return {"__npval__": [str(obj.dtype), obj.tobytes()]}
        if isinstance(obj, np.ndarray):
            table = self._tables.get(id(obj))
            if table is not None:
                return {"__table__": table}
            nid, first = self._node_id(obj)
            if not first:
                return {"__ref__": nid}
            dtype = self._dtype_names.get(obj.dtype)
            if dtype is None:
                dtype = self._dtype_names[obj.dtype] = str(obj.dtype)
            return {
                "__nd__": {
                    "#": nid,
                    "dtype": dtype,
                    "shape": list(obj.shape),
                    "data": obj.tobytes(),
                }
            }
        if isinstance(obj, np.random.Generator):
            nid, first = self._node_id(obj)
            if not first:
                return {"__ref__": nid}
            return {"__rng__": {"#": nid, "state": generator_state(obj)}}
        if isinstance(obj, tuple):
            return {"__tuple__": [self.capture(v) for v in obj]}
        if isinstance(obj, list):
            nid, first = self._node_id(obj)
            if not first:
                return {"__ref__": nid}
            return {"__list__": {"#": nid, "items": [self.capture(v) for v in obj]}}
        if isinstance(obj, dict):
            nid, first = self._node_id(obj)
            if not first:
                return {"__ref__": nid}
            return {
                "__dict__": {
                    "#": nid,
                    "items": [[self.capture(k), self.capture(v)] for k, v in obj.items()],
                }
            }
        if isinstance(obj, deque):
            nid, first = self._node_id(obj)
            if not first:
                return {"__ref__": nid}
            return {
                "__deque__": {
                    "#": nid,
                    "maxlen": obj.maxlen,
                    "items": [self.capture(v) for v in obj],
                }
            }
        if isinstance(obj, (set, frozenset)):
            nid, first = self._node_id(obj)
            if not first:
                return {"__ref__": nid}
            try:
                ordered = sorted(obj)
            except TypeError:
                ordered = sorted(obj, key=repr)
            return {
                "__set__": {
                    "#": nid,
                    "frozen": isinstance(obj, frozenset),
                    "items": [self.capture(v) for v in ordered],
                }
            }
        if isinstance(obj, Enum):
            return {"__enum__": {"cls": _qualify(type(obj)), "name": obj.name}}
        if isinstance(
            obj, (FunctionType, BuiltinFunctionType, MethodType, ModuleType, type)
        ):
            return {"__skip__": getattr(obj, "__qualname__", None) or repr(obj)}
        if _is_frozen_dataclass(obj):
            # Immutable value objects (configs): captured by fields,
            # reconstructed fresh on restore — no aliasing to preserve.
            return {
                "__frozen__": {
                    "cls": _qualify(type(obj)),
                    "state": [[k, self.capture(v)] for k, v in _state_items(obj)],
                }
            }
        nid, first = self._node_id(obj)
        if not first:
            return {"__ref__": nid}
        node: dict = {"#": nid, "cls": _qualify(type(obj))}
        getstate = getattr(obj, "__repro_getstate__", None)
        if getstate is not None:
            node["custom"] = self.capture(getstate())
        else:
            node["state"] = [[k, self.capture(v)] for k, v in _state_items(obj)]
        return {"__obj__": node}


def capture(*objects, tables: Mapping[str, np.ndarray] | None = None):
    """Capture one shared-memo tagged tree per object; returns a list.

    All objects share a single alias memo, so cross-object references (a
    controller holding the engine's model arrays) restore to the *same*
    object on the other side. An array that is one of ``tables``' values
    (by identity) is captured as a ``__table__`` node naming it.
    """
    cap = _Capture(tables)
    return [cap.capture(obj) for obj in objects]


def _require_state(node, target) -> None:
    """Refuse a node that lacks state its same-class ``target`` has."""
    missing = {name for name, _ in _state_items(target)}
    missing.difference_update(attr for attr, _ in node["state"])
    if missing:
        raise CheckpointError(
            f"checkpointed {node['cls']} lacks attribute(s) {sorted(missing)} "
            "that its restore target has (state layout changed since the "
            "checkpoint was written)"
        )


#: The kind of target each mutable node restores into (a None target
#: takes any kind), and the kind's name for a refusal.
_TARGET_KINDS: dict[str, tuple[str, type | tuple[type, ...]]] = {
    "__nd__": ("an array", np.ndarray),
    "__rng__": ("a generator", np.random.Generator),
    "__list__": ("a list", list),
    "__dict__": ("a dict", dict),
    "__deque__": ("a deque", deque),
    "__set__": ("a set", (set, frozenset)),
}


def _require_kind(tag: dict, existing, where: tuple[str, str] | None) -> None:
    """Refuse a node whose non-None ``existing`` target is another kind;
    ``where`` is the (class, attribute) the node is the value of."""
    kind = _TARGET_KINDS.get(next(iter(tag), ""))
    if existing is None or kind is None or isinstance(existing, kind[1]):
        return
    what = ".".join(where) if where else "node"
    raise CheckpointError(
        f"checkpointed {what} holds {kind[0]} where its restore target holds "
        f"{type(existing).__name__} (state layout changed since the "
        "checkpoint was written)"
    )


class _Restore:
    """One restore pass: node-id -> restored-object memo."""

    def __init__(self, tables: Mapping[str, np.ndarray] | None = None):
        self._memo: dict[int, object] = {}
        self._tables = tables or {}

    def restore(self, tag, existing, where: tuple[str, str] | None = None):
        if isinstance(tag, _PRIMITIVES):
            return tag
        if not isinstance(tag, dict):
            raise CheckpointError(f"malformed checkpoint node: {tag!r}")
        _require_kind(tag, existing, where)
        if "__ref__" in tag:
            nid = tag["__ref__"]
            if nid not in self._memo:
                raise CheckpointError(f"dangling checkpoint reference #{nid}")
            return self._memo[nid]
        if "__npval__" in tag:
            dtype, data = tag["__npval__"]
            return np.frombuffer(data, dtype=np.dtype(dtype))[0]
        if "__nd__" in tag:
            return self._restore_array(tag["__nd__"], existing)
        if "__table__" in tag:
            name = tag["__table__"]
            if name not in self._tables:
                raise CheckpointError(f"checkpoint table {name!r} was not supplied")
            return self._tables[name]
        if "__rng__" in tag:
            return self._restore_rng(tag["__rng__"], existing)
        if "__tuple__" in tag:
            return self._restore_tuple(tag["__tuple__"], existing)
        if "__list__" in tag:
            return self._restore_list(tag["__list__"], existing)
        if "__dict__" in tag:
            return self._restore_dict(tag["__dict__"], existing)
        if "__deque__" in tag:
            return self._restore_deque(tag["__deque__"], existing)
        if "__set__" in tag:
            return self._restore_set(tag["__set__"], existing)
        if "__enum__" in tag:
            info = tag["__enum__"]
            cls = _resolve_class(info["cls"])
            return cls[info["name"]]
        if "__skip__" in tag:
            return existing
        if "__frozen__" in tag:
            return self._restore_frozen(tag["__frozen__"], existing)
        if "__obj__" in tag:
            return self._restore_object(tag["__obj__"], existing)
        raise CheckpointError(f"unknown checkpoint tag: {sorted(tag)!r}")

    def _restore_array(self, node, existing):
        data = np.frombuffer(node["data"], dtype=np.dtype(node["dtype"]))
        arr = data.reshape(tuple(node["shape"]))
        if (
            isinstance(existing, np.ndarray)
            and existing.shape == arr.shape
            and existing.dtype == arr.dtype
            and existing.flags.writeable
        ):
            existing[...] = arr
            self._memo[node["#"]] = existing
            return existing
        fresh = arr.copy()
        self._memo[node["#"]] = fresh
        return fresh

    def _restore_rng(self, node, existing):
        try:
            gen = set_generator_state(existing, node["state"])
        except ValueError as exc:
            raise CheckpointError(f"checkpointed generator: {exc}") from exc
        self._memo[node["#"]] = gen
        return gen

    def _restore_tuple(self, items, existing):
        counterparts: tuple = ()
        if isinstance(existing, tuple) and len(existing) == len(items):
            counterparts = existing
        restored = [
            self.restore(t, counterparts[i] if counterparts else None)
            for i, t in enumerate(items)
        ]
        if counterparts and all(r is e for r, e in zip(restored, counterparts)):
            return existing
        return tuple(restored)

    def _restore_list(self, node, existing):
        items = node["items"]
        target = existing if existing is not None else []
        self._memo[node["#"]] = target
        paired = len(target) == len(items)
        restored = [
            self.restore(t, target[i] if paired else None)
            for i, t in enumerate(items)
        ]
        target[:] = restored
        return target

    def _restore_dict(self, node, existing):
        target = existing if existing is not None else {}
        self._memo[node["#"]] = target
        pairs = []
        for k_tag, v_tag in node["items"]:
            key = self.restore(k_tag, None)
            pairs.append((key, self.restore(v_tag, target.get(key))))
        target.clear()
        target.update(pairs)
        return target

    def _restore_deque(self, node, existing):
        items = node["items"]
        if isinstance(existing, deque) and existing.maxlen == node["maxlen"]:
            target = existing
        else:
            target = deque(maxlen=node["maxlen"])
        self._memo[node["#"]] = target
        paired = len(target) == len(items)
        restored = [
            self.restore(t, target[i] if paired else None)
            for i, t in enumerate(items)
        ]
        target.clear()
        target.extend(restored)
        return target

    def _restore_set(self, node, existing):
        items = [self.restore(t, None) for t in node["items"]]
        if node["frozen"]:
            fresh = frozenset(items)
            self._memo[node["#"]] = fresh
            return fresh
        target = existing if isinstance(existing, set) else set()
        self._memo[node["#"]] = target
        target.clear()
        target.update(items)
        return target

    def _restore_frozen(self, node, existing):
        cls = _resolve_class(node["cls"])
        if type(existing) is cls:
            _require_state(node, existing)
        inst = cls.__new__(cls)
        for attr, tag in node["state"]:
            value = self.restore(tag, getattr(existing, attr, None), (node["cls"], attr))
            object.__setattr__(inst, attr, value)
        return inst

    def _restore_object(self, node, existing):
        cls = _resolve_class(node["cls"])
        if type(existing) is cls:
            target = existing
        else:
            target = cls.__new__(cls)
        self._memo[node["#"]] = target
        if "custom" in node:
            setstate = getattr(target, "__repro_setstate__", None)
            if setstate is None:
                raise CheckpointError(
                    f"{node['cls']} was checkpointed with __repro_getstate__ but "
                    "has no __repro_setstate__"
                )
            setstate(self.restore(node["custom"], None))
            return target
        _require_state(node, target)
        for attr, tag in node["state"]:
            current = getattr(target, attr, None)
            value = self.restore(tag, current, (node["cls"], attr))
            if value is not current or not hasattr(target, attr):
                setattr(target, attr, value)
        return target


def restore(tags, existing_objects, tables: Mapping[str, np.ndarray] | None = None):
    """Restore trees from :func:`capture` into ``existing_objects`` in place.

    ``tags`` and ``existing_objects`` must align pairwise with the capture
    call; ``tables`` supplies, by name, the array each ``__table__`` node
    restores to (used as given, not copied). Returns the restored objects
    (identical to the existing ones wherever types matched — which they
    always do for a correctly reconstructed run).
    """
    if len(tags) != len(existing_objects):
        raise CheckpointError(
            f"{len(tags)} state trees but {len(existing_objects)} target objects"
        )
    rest = _Restore(tables)
    return [rest.restore(tag, obj) for tag, obj in zip(tags, existing_objects)]


def count_rng_streams(tag) -> int:
    """Number of distinct random-generator states inside a captured tree."""
    count = 0
    stack = [tag]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if "__rng__" in node:
                count += 1
            else:
                stack.extend(node.values())
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
    return count
