"""Tagged-tree capture/restore: round trips, aliasing, error paths."""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest

from repro.checkpoint import capture, restore
from repro.checkpoint.state import count_rng_streams
from repro.errors import CheckpointError
from repro.rng import generator_state


class Widget:
    """Plain object with nested state, used as a capture target."""

    def __init__(self, values, tag="w"):
        self.values = values
        self.tag = tag


class Slotted:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


@dataclass(frozen=True)
class FrozenCfg:
    gain: float
    steps: int


class Mode(enum.Enum):
    FAST = "fast"
    SAFE = "safe"


class Custom:
    """Object opting into the custom checkpoint protocol."""

    def __init__(self):
        self.rebuilt = False
        self.payload = {}

    def __repro_getstate__(self):
        return {"payload": dict(self.payload)}

    def __repro_setstate__(self, state):
        self.payload = dict(state["payload"])
        self.rebuilt = True


def roundtrip(obj, existing):
    [tag] = capture(obj)
    [out] = restore([tag], [existing])
    return out


class TestRoundTrip:
    def test_containers_restore_in_place(self):
        src = {"xs": [1, 2.5, "s"], "d": deque([1, 2], maxlen=4), "t": (1, (2, 3))}
        dst = {"xs": [0], "d": deque(maxlen=4), "t": (0, (0, 0))}
        out = roundtrip(src, dst)
        assert out is dst
        assert out["xs"] == [1, 2.5, "s"]
        assert out["d"] == deque([1, 2]) and out["d"].maxlen == 4
        assert out["t"] == (1, (2, 3))

    def test_arrays_fill_existing_buffers(self):
        src = Widget({"w": np.arange(6.0).reshape(2, 3)})
        dst = Widget({"w": np.zeros((2, 3))})
        buffer = dst.values["w"]
        out = roundtrip(src, dst)
        assert out is dst
        assert out.values["w"] is buffer  # filled in place, not replaced
        np.testing.assert_array_equal(buffer, np.arange(6.0).reshape(2, 3))

    def test_aliasing_is_preserved(self):
        shared = np.arange(4.0)
        src = {"x": shared, "y": shared}
        dst = {"x": np.zeros(4), "y": np.zeros(4)}  # distinct buffers
        out = roundtrip(src, dst)
        assert out["x"] is out["y"]  # the alias survives restore

    def test_shared_memo_across_roots(self):
        # capture(*objects) shares one memo: state shared between the engine
        # and a controller must re-alias after restore, or a resumed run
        # silently mutates copies.
        shared = [1, 2, 3]
        a, b = Widget(shared), Widget(shared)
        tags = capture(a, b)
        ra, rb = restore(tags, [Widget([0]), Widget([0])])
        assert ra.values is rb.values

    def test_rng_stream_continues_identically(self):
        rng = np.random.default_rng(5)
        rng.standard_normal(10)  # advance past the seed state
        [tag] = capture(rng)
        expect = rng.standard_normal(8)
        [restored] = restore([tag], [np.random.default_rng(0)])
        np.testing.assert_array_equal(restored.standard_normal(8), expect)

    def test_frozen_dataclass_enum_and_slots(self):
        src = Widget({"cfg": FrozenCfg(1.5, 3), "mode": Mode.SAFE, "s": Slotted(1, [2])})
        dst = Widget({"cfg": FrozenCfg(0.0, 0), "mode": Mode.FAST, "s": Slotted(0, [])})
        out = roundtrip(src, dst)
        assert out.values["cfg"] == FrozenCfg(1.5, 3)
        assert out.values["mode"] is Mode.SAFE
        assert out.values["s"].a == 1 and out.values["s"].b == [2]

    def test_sets_roundtrip(self):
        src = {"s": {3, 1, 2}, "f": frozenset({"a", "b"})}
        dst = {"s": set(), "f": frozenset()}
        out = roundtrip(src, dst)
        assert out["s"] == {1, 2, 3}
        assert out["f"] == frozenset({"a", "b"})

    def test_custom_protocol_drives_restore(self):
        src = Custom()
        src.payload = {"k": 7}
        dst = Custom()
        out = roundtrip(src, dst)
        assert out is dst and out.rebuilt and out.payload == {"k": 7}


def strip(tag, kind, attr):
    """``tag`` (a captured object or frozen node) without ``attr``."""
    node = tag[kind]
    node["state"] = [[k, v] for k, v in node["state"] if k != attr]
    return tag


class TestStrictLayout:
    """A node that lacks state its same-class target has is refused; a node
    with extra state restores."""

    def test_object_missing_attribute_refused(self):
        [tag] = capture(Widget([1, 2], tag="src"))
        with pytest.raises(CheckpointError, match=r"Widget lacks attribute\(s\) \['tag'\]"):
            restore([strip(tag, "__obj__", "tag")], [Widget([0])])

    def test_frozen_missing_field_refused(self):
        [tag] = capture(FrozenCfg(1.5, 3))
        with pytest.raises(CheckpointError, match=r"FrozenCfg lacks attribute\(s\) \['steps'\]"):
            restore([strip(tag, "__frozen__", "steps")], [FrozenCfg(0.0, 0)])

    def test_extra_attribute_restores(self):
        src = Widget([1, 2], tag="src")
        src.extra = {"k": 1}
        dst = Widget([0])
        out = roundtrip(src, dst)
        assert out is dst and out.values == [1, 2] and out.tag == "src"
        assert out.extra == {"k": 1}

    def test_fresh_reconstruction_is_not_checked(self):
        # No same-class counterpart: the node builds a new object from
        # whatever state it holds.
        [tag] = capture({"w": Widget([1], tag="src")})
        strip(tag["__dict__"]["items"][0][1], "__obj__", "tag")
        [out] = restore([tag], [{}])
        assert out["w"].values == [1] and not hasattr(out["w"], "tag")


class TestGenerators:
    def test_a_generator_is_one_node(self):
        rng = np.random.default_rng(5)
        rng.standard_normal(3)
        [tag] = capture(rng)
        # The node holds the generator_state snapshot as is, not a walked tree.
        assert tag == {"__rng__": {"#": 1, "state": generator_state(rng)}}
        assert count_rng_streams(tag) == 1

    def test_shared_generator_restores_to_one_object(self):
        # A sampler shares its owner's generator: both must keep drawing
        # from one stream after a restore.
        rng = np.random.default_rng(1)
        src = {"owner": Widget(rng), "sampler": Widget(rng)}
        dst = {"owner": Widget(np.random.default_rng(8)), "sampler": Widget(None)}
        out = roundtrip(src, dst)
        assert out["owner"].values is out["sampler"].values
        np.testing.assert_array_equal(out["sampler"].values.random(4), rng.random(4))

    def test_missing_target_gets_a_fresh_generator(self):
        rng = np.random.default_rng(3)
        out = roundtrip(Widget(rng), Widget(None))
        assert out.values is not rng
        np.testing.assert_array_equal(out.values.random(4), rng.random(4))

    def test_other_bit_generator_refused(self):
        [tag] = capture(Widget(np.random.Generator(np.random.Philox(2))))
        with pytest.raises(CheckpointError, match="bit generator mismatch"):
            restore([tag], [Widget(np.random.default_rng(0))])


class TestNodeKinds:
    """A node restores over a target of its own kind or over None only."""

    def test_list_over_array_refused(self):
        [tag] = capture(Widget([1.0, 2.0]))
        with pytest.raises(
            CheckpointError, match=r"Widget\.values holds a list where its restore target holds ndarray"
        ):
            restore([tag], [Widget(np.zeros(2))])

    def test_array_over_list_refused(self):
        [tag] = capture(Widget(np.zeros(2)))
        with pytest.raises(
            CheckpointError, match=r"Widget\.values holds an array where its restore target holds list"
        ):
            restore([tag], [Widget([0.0, 0.0])])

    def test_frozen_field_of_another_kind_refused(self):
        [tag] = capture(FrozenCfg(1.5, [3]))
        with pytest.raises(CheckpointError, match=r"FrozenCfg\.steps holds a list"):
            restore([tag], [FrozenCfg(0.0, {"k": 1})])

    def test_position_without_an_attribute_is_named_as_a_node(self):
        [tag] = capture({"k": {"a": 1}})
        with pytest.raises(CheckpointError, match="checkpointed node holds a dict"):
            restore([tag], [{"k": [1]}])

    def test_none_target_restores_as_any_kind(self):
        src = Widget(np.arange(3.0), tag={"k": [1]})
        out = roundtrip(src, Widget(None, tag=None))
        np.testing.assert_array_equal(out.values, np.arange(3.0))
        assert out.tag == {"k": [1]}


class TestErrors:
    def test_root_count_mismatch_raises(self):
        tags = capture([1])
        with pytest.raises(CheckpointError):
            restore(tags, [[], []])

    def test_dangling_ref_raises(self):
        with pytest.raises(CheckpointError):
            restore([{"__ref__": 999}], [None])


def test_count_rng_streams_walks_the_tree():
    [tag] = capture({"a": np.random.default_rng(1), "b": [np.random.default_rng(2)]})
    assert count_rng_streams(tag) == 2
