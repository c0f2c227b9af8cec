"""Trace recorder: append semantics, growth, views, property-based round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.telemetry import Trace


class TestConstruction:
    def test_requires_channels(self):
        with pytest.raises(ConfigurationError):
            Trace([])

    def test_rejects_duplicate_channels(self):
        with pytest.raises(ConfigurationError):
            Trace(["a", "a"])

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            Trace(["a", ""])

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            Trace(["a"], capacity=0)


class TestAppendAndRead:
    def test_round_trip(self):
        t = Trace(["x", "y"])
        t.append(x=1.0, y=2.0)
        t.append(x=3.0, y=4.0)
        assert np.array_equal(t["x"], [1.0, 3.0])
        assert np.array_equal(t["y"], [2.0, 4.0])

    def test_missing_channel_is_nan(self):
        t = Trace(["x", "y"])
        t.append(x=1.0)
        assert np.isnan(t["y"][0])

    def test_unknown_channel_raises(self):
        t = Trace(["x"])
        with pytest.raises(KeyError, match="unknown trace channels"):
            t.append(z=1.0)

    def test_read_unknown_channel_raises_with_available(self):
        t = Trace(["x"])
        with pytest.raises(KeyError, match="available"):
            t["nope"]

    def test_growth_beyond_capacity(self):
        t = Trace(["x"], capacity=2)
        for i in range(100):
            t.append(x=float(i))
        assert len(t) == 100
        assert t["x"][99] == 99.0
        assert np.array_equal(t["x"], np.arange(100.0))

    def test_len_and_contains(self):
        t = Trace(["x", "y"])
        assert len(t) == 0
        assert "x" in t and "z" not in t

    def test_last(self):
        t = Trace(["x"])
        t.append(x=5.0)
        t.append(x=7.0)
        assert t.last("x") == 7.0

    def test_last_on_empty_raises(self):
        with pytest.raises(IndexError):
            Trace(["x"]).last("x")

    def test_tail(self):
        t = Trace(["x"])
        for i in range(10):
            t.append(x=float(i))
        assert np.array_equal(t.tail("x", 3), [7.0, 8.0, 9.0])
        assert np.array_equal(t.tail("x", 99), np.arange(10.0))

    def test_tail_rejects_negative(self):
        with pytest.raises(ValueError):
            Trace(["x"]).tail("x", -1)

    def test_getitem_returns_view(self):
        t = Trace(["x"])
        t.append(x=1.0)
        view = t["x"]
        view[0] = 42.0
        assert t["x"][0] == 42.0  # documented view semantics

    def test_to_dict_returns_copies(self):
        t = Trace(["x"])
        t.append(x=1.0)
        d = t.to_dict()
        d["x"][0] = 9.0
        assert t["x"][0] == 1.0

    def test_as_array_shape(self):
        t = Trace(["x", "y", "z"])
        t.append(x=1.0, y=2.0, z=3.0)
        assert t.as_array().shape == (1, 3)

    def test_append_row_mapping(self):
        t = Trace(["x", "y"])
        t.append_row({"x": 1.0, "y": 2.0})
        assert t.last("y") == 2.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60))
    @settings(max_examples=40)
    def test_property_round_trip_any_floats(self, values):
        t = Trace(["v"], capacity=1)
        for v in values:
            t.append(v=v)
        assert np.array_equal(t["v"], np.asarray(values))


class TestFromArray:
    def test_copies_rows(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = Trace.from_array(["x", "y"], rows)
        rows[0, 0] = 99.0
        assert np.array_equal(t.as_array(), [[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_one_dimensional_rows(self):
        with pytest.raises(ConfigurationError):
            Trace.from_array(["x", "y"], np.array([1.0, 2.0]))

    def test_rejects_wrong_column_count(self):
        with pytest.raises(ConfigurationError):
            Trace.from_array(["x", "y"], np.zeros((3, 3)))

    def test_zero_rows_give_empty_trace(self):
        t = Trace.from_array(["x", "y"], np.empty((0, 2)))
        assert len(t) == 0
        assert t.channels == ("x", "y")
        assert t["y"].size == 0

    def test_nan_cells_stay_nan(self):
        t = Trace.from_array(["x", "y"], np.array([[np.nan, 1.0], [2.0, np.nan]]))
        assert np.isnan(t["x"][0]) and np.isnan(t["y"][1])
        assert t["x"][1] == 2.0

    def test_append_grows_past_adopted_rows(self):
        t = Trace.from_array(["x"], np.arange(3.0).reshape(3, 1))
        for i in range(3, 10):
            t.append(x=float(i))
        assert np.array_equal(t["x"], np.arange(10.0))
