"""Network/twin fault models, the line chaos transform, surviving streams."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults.network import (
    DEFAULT_MAX_LINE_BYTES,
    DuplicateStorm,
    LateStorm,
    LineChaos,
    NetDisconnect,
    NetworkFaultPlan,
    OversizedFrame,
    ReorderStorm,
    ServiceFaultBank,
    TornFrame,
    TwinCrash,
    TwinStall,
    WatermarkStall,
    line_survives,
    load_network_fault_plan,
    surviving_lines,
)
from repro.faults.models import FaultWindow


def hb(t):
    return json.dumps({"kind": "heartbeat", "t": float(t)})


def ev(t, **extra):
    return json.dumps({"kind": "telemetry", "t": float(t), **extra})


def stream(n_rounds=6, per_round=2):
    lines = []
    for k in range(n_rounds):
        for j in range(per_round):
            lines.append(ev(k + 0.1 + 0.2 * j, row=k, j=j))
        lines.append(hb(k + 1))
    return lines


ALL_NET = (
    NetDisconnect(window=FaultWindow(1, 6), probability=0.5),
    TornFrame(window=FaultWindow(3, 6), probability=0.5),
    DuplicateStorm(window=FaultWindow(5, 6), probability=0.5, copies=2),
    ReorderStorm(window=FaultWindow(7, 6), probability=0.7, depth=3),
    LateStorm(window=FaultWindow(9, 6), probability=0.5, hold_lines=3),
    WatermarkStall(window=FaultWindow(11, 4), probability=1.0),
)


class TestPlanRoundTrip:
    def test_to_dict_from_dict_is_identity(self):
        plan = NetworkFaultPlan(
            faults=(*ALL_NET, TwinCrash(window=FaultWindow(2, 1), times=2)),
            seed=7,
        )
        again = NetworkFaultPlan.from_dict(plan.to_dict())
        assert again == plan

    def test_unknown_kind_refused(self):
        with pytest.raises(ConfigurationError, match="unknown kind"):
            NetworkFaultPlan.from_dict(
                {"faults": [{"kind": "net-gremlin"}]}
            )

    def test_unknown_field_refused(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            NetworkFaultPlan.from_dict(
                {"faults": [{"kind": "net-torn-frame", "copies": 3}]}
            )

    def test_loader_wraps_path_in_errors(self, tmp_path):
        path = tmp_path / "plan.json"
        for text in ("{not json", "[" * 20000 + "]" * 20000):
            path.write_text(text)
            with pytest.raises(ConfigurationError, match="plan.json"):
                load_network_fault_plan(path)

    def test_loader_round_trips_file(self, tmp_path):
        plan = NetworkFaultPlan(faults=ALL_NET, seed=3)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert load_network_fault_plan(path) == plan


class TestLineChaosDeterminism:
    def test_same_plan_seed_input_same_output(self):
        plan = NetworkFaultPlan(faults=ALL_NET, seed=11)
        lines = stream(8)
        out1 = list(LineChaos(plan).transform(lines))
        out2 = list(LineChaos(plan).transform(lines))
        assert out1 == out2

    def test_seed_override_changes_output(self):
        plan = NetworkFaultPlan(faults=ALL_NET, seed=11)
        lines = stream(8)
        base = list(LineChaos(plan).transform(lines))
        other = list(LineChaos(plan, seed=999).transform(lines))
        assert base != other

    def test_push_flush_equals_transform(self):
        plan = NetworkFaultPlan(faults=ALL_NET, seed=5)
        lines = stream(8)
        chaos = LineChaos(plan)
        incremental = []
        for line in lines:
            incremental.extend(chaos.push(line))
        incremental.extend(chaos.flush())
        assert incremental == list(LineChaos(plan).transform(lines))

    def test_counters_account_for_perturbations(self):
        plan = NetworkFaultPlan(faults=ALL_NET, seed=11)
        chaos = LineChaos(plan)
        out = list(chaos.transform(stream(8)))
        c = chaos.counters
        assert c["lines_in"] == len(stream(8))
        assert c["lines_out"] == len(out)
        # The windows are wide enough that every family fires at least once
        # under this seed; if a seed change breaks this, widen the windows.
        assert c["torn"] > 0
        assert c["duplicated"] > 0
        assert c["held_late"] > 0
        assert c["stalled_heartbeats"] > 0


class TestFaultSemantics:
    def test_duplicate_storm_duplicates(self):
        plan = NetworkFaultPlan(
            faults=(DuplicateStorm(window=FaultWindow(0, 1), probability=1.0, copies=2),)
        )
        out = list(LineChaos(plan).transform([ev(0.5), hb(1)]))
        assert out == [ev(0.5)] * 3 + [hb(1)]

    def test_disconnect_redelivers_previous_line(self):
        plan = NetworkFaultPlan(
            faults=(NetDisconnect(window=FaultWindow(1, 1), probability=1.0),)
        )
        out = list(LineChaos(plan).transform([ev(0.5), hb(1)]))
        assert out == [ev(0.5), ev(0.5), hb(1)]

    def test_torn_frame_does_not_survive(self):
        plan = NetworkFaultPlan(
            faults=(TornFrame(window=FaultWindow(0, 1), probability=1.0),)
        )
        out = list(LineChaos(plan).transform([ev(0.5, pad="x" * 40), hb(1)]))
        assert not line_survives(out[0])
        assert line_survives(out[1])

    def test_oversized_frame_exceeds_guard(self):
        plan = NetworkFaultPlan(
            faults=(
                OversizedFrame(
                    window=FaultWindow(0, 1), probability=1.0, pad_bytes=64
                ),
            )
        )
        out = list(LineChaos(plan).transform([ev(0.5)]))
        assert not line_survives(out[0], max_line_bytes=64)

    def test_watermark_stall_swallows_heartbeats_only(self):
        plan = NetworkFaultPlan(
            faults=(WatermarkStall(window=FaultWindow(0, None), probability=1.0),)
        )
        out = list(LineChaos(plan).transform([ev(0.5), hb(1), ev(1.5), hb(2)]))
        assert out == [ev(0.5), ev(1.5)]

    def test_late_storm_releases_after_hold(self):
        plan = NetworkFaultPlan(
            faults=(
                LateStorm(window=FaultWindow(0, 1), probability=1.0, hold_lines=2),
            )
        )
        lines = [ev(0.5), hb(1), hb(2), hb(3)]
        out = list(LineChaos(plan).transform(lines))
        # The first line is held two input lines, released ahead of hb(2).
        assert out == [hb(1), ev(0.5), hb(2), hb(3)]

    def test_reorder_storm_permutes_within_depth(self):
        plan = NetworkFaultPlan(
            faults=(
                ReorderStorm(window=FaultWindow(0, 4), probability=1.0, depth=4),
            ),
            seed=1,
        )
        lines = [ev(0.1), ev(0.2), ev(0.3), ev(0.4)]
        out = list(LineChaos(plan).transform(lines))
        assert sorted(out) == sorted(lines)
        assert out != lines  # seed 1 permutes this batch


class TestSurvivingLines:
    def test_surviving_lines_parse_and_fit(self):
        plan = NetworkFaultPlan(faults=ALL_NET, seed=11)
        surv = list(surviving_lines(plan, stream(8)))
        assert surv
        assert all(line_survives(l) for l in surv)

    def test_surviving_stream_deterministic(self):
        plan = NetworkFaultPlan(faults=ALL_NET, seed=11)
        a = list(surviving_lines(plan, stream(8)))
        b = list(surviving_lines(plan, stream(8)))
        assert a == b


class TestLineSurvives:
    @pytest.mark.parametrize(
        "line",
        [
            "{broken",
            "[1, 2]",
            json.dumps({"kind": "", "t": 1.0}),
            json.dumps({"kind": "x"}),
            json.dumps({"kind": "x", "t": True}),
            json.dumps({"kind": "x", "t": -1.0}),
            json.dumps({"kind": "x", "t": float("inf")}),
        ],
    )
    def test_rejects(self, line):
        assert not line_survives(line)

    def test_respects_frame_guard(self):
        line = ev(0.5, pad="x" * 100)
        assert line_survives(line)
        assert not line_survives(line, max_line_bytes=32)
        assert line_survives("x" * DEFAULT_MAX_LINE_BYTES) is False


class TestServiceFaultBank:
    def test_times_budget_limits_attempts(self):
        plan = NetworkFaultPlan(
            faults=(TwinCrash(window=FaultWindow(3, 1), probability=1.0, times=2),)
        )
        bank = ServiceFaultBank(plan)
        # The same window retried: fires twice, then the budget is spent.
        assert bank.crash_fires(3)
        assert bank.crash_fires(3)
        assert not bank.crash_fires(3)
        assert bank.crashes_fired == 2

    def test_times_none_fires_forever(self):
        plan = NetworkFaultPlan(
            faults=(TwinCrash(window=FaultWindow(0, None), probability=1.0, times=None),)
        )
        bank = ServiceFaultBank(plan)
        assert all(bank.crash_fires(0) for _ in range(10))

    def test_stall_and_crash_streams_are_separate(self):
        plan = NetworkFaultPlan(
            faults=(
                TwinCrash(window=FaultWindow(1, 1), probability=1.0, times=1),
                TwinStall(window=FaultWindow(2, 1), probability=1.0, times=1),
            )
        )
        bank = ServiceFaultBank(plan)
        assert bool(bank)
        assert not bank.crash_fires(0)
        assert bank.crash_fires(1)
        assert bank.stall_fires(2)
        assert not bank.stall_fires(2)

    def test_empty_bank_is_falsy(self):
        assert not ServiceFaultBank(NetworkFaultPlan())
