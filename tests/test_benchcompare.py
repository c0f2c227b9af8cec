"""Bench regression harness: schema, comparison thresholds, CLI exit codes."""

from __future__ import annotations

import json

import pytest

from repro.benchcompare import (
    BENCH_SCHEMA,
    bench_payload,
    compare_bench,
    load_bench,
    resolve_bench_path,
    write_bench_json,
)
from repro.cli import main
from repro.errors import ExperimentError


def entries(wall_s: float = 10.0, r2: float = 0.98) -> dict:
    return {
        "benchmarks/test_bench_fig2.py::test_bench_fig2": {
            "wall_s": wall_s,
            "metrics": {"power_r2": r2, "latency_gamma": 0.91},
        },
        "benchmarks/test_bench_table1.py::test_bench_table1": {
            "wall_s": 4.0,
            "metrics": {"CapGPU/tput_img_s": 6.4},
        },
    }


class TestSchema:
    def test_payload_shape(self):
        payload = bench_payload("abc123", entries())
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["sha"] == "abc123"
        assert set(payload["engines"]) == {"reference"}
        assert set(payload["engines"]["reference"]["entries"]) == set(entries())

    def test_payload_engines_shape(self):
        fast = {"benchmarks/test_bench_fast.py::test_x": {"wall_s": 1.0, "metrics": {}}}
        payload = bench_payload("abc123", engines={"reference": entries(), "fast": fast})
        assert set(payload["engines"]) == {"reference", "fast"}
        assert set(payload["engines"]["fast"]["entries"]) == set(fast)

    def test_payload_rejects_both_and_neither(self):
        with pytest.raises(ExperimentError, match="exactly one"):
            bench_payload("a", entries(), engines={"reference": entries()})
        with pytest.raises(ExperimentError, match="exactly one"):
            bench_payload("a")

    def test_write_and_load_roundtrip(self, tmp_path):
        path = write_bench_json(tmp_path, "abc123", entries())
        assert path.name == "BENCH_abc123.json"
        loaded = load_bench(path)
        expected = bench_payload("abc123", entries())["engines"]
        assert loaded["engines"] == expected

    def test_schema1_file_loads_as_reference_namespace(self, tmp_path):
        legacy = tmp_path / "BENCH_old.json"
        legacy.write_text(json.dumps(
            {"schema": 1, "sha": "old", "created_unix": 0.0, "entries": entries()}
        ))
        loaded = load_bench(legacy)
        assert loaded["schema"] == BENCH_SCHEMA
        assert set(loaded["engines"]) == {"reference"}
        assert loaded["engines"]["reference"]["entries"] == entries()

    def test_schema1_and_schema2_files_compare(self, tmp_path):
        legacy = tmp_path / "BENCH_old.json"
        legacy.write_text(json.dumps(
            {"schema": 1, "sha": "old", "entries": entries()}
        ))
        modern = write_bench_json(tmp_path, "new0000", entries())
        cmp = compare_bench(load_bench(legacy), load_bench(modern))
        assert cmp.ok and cmp.rows

    def test_resolve_directory_picks_newest(self, tmp_path):
        import os

        old = write_bench_json(tmp_path, "old0000", entries())
        new = write_bench_json(tmp_path, "new0000", entries())
        past = old.stat().st_mtime - 100
        os.utime(old, (past, past))
        assert resolve_bench_path(tmp_path) == new

    def test_resolve_empty_directory_raises(self, tmp_path):
        with pytest.raises(ExperimentError, match="no BENCH_"):
            resolve_bench_path(tmp_path)

    def test_load_rejects_bad_schema(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text(json.dumps({"schema": 99, "entries": {}}))
        with pytest.raises(ExperimentError, match="unsupported schema"):
            load_bench(bad)

    def test_load_rejects_invalid_json(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        for text in ("{nope", "[" * 20000 + "]" * 20000):
            bad.write_text(text)
            with pytest.raises(ExperimentError, match="not valid JSON"):
                load_bench(bad)


class TestCompare:
    def test_identical_payloads_pass(self):
        base = bench_payload("a", entries())
        cmp = compare_bench(base, bench_payload("b", entries()))
        assert cmp.ok
        assert "PASS" in cmp.render()

    def test_wall_time_regression_past_threshold_fails(self):
        # The acceptance case: a >20% wall-time regression must fail.
        base = bench_payload("a", entries(wall_s=10.0))
        cand = bench_payload("b", entries(wall_s=12.5))  # +25%
        cmp = compare_bench(base, cand, wall_threshold=0.20)
        assert not cmp.ok
        (reg,) = cmp.regressions
        assert reg.quantity == "wall_s"
        assert reg.rel_change == pytest.approx(0.25)

    def test_wall_time_within_threshold_passes(self):
        base = bench_payload("a", entries(wall_s=10.0))
        cand = bench_payload("b", entries(wall_s=11.5))  # +15%
        assert compare_bench(base, cand, wall_threshold=0.20).ok

    def test_getting_faster_never_fails(self):
        base = bench_payload("a", entries(wall_s=10.0))
        cand = bench_payload("b", entries(wall_s=2.0))
        assert compare_bench(base, cand, wall_threshold=0.20).ok

    def test_metric_drift_fails_in_both_directions(self):
        base = bench_payload("a", entries(r2=0.98))
        for drifted in (0.90, 1.06):  # -8% and +8%
            cand = bench_payload("b", entries(r2=drifted))
            cmp = compare_bench(base, cand, metric_threshold=0.05)
            assert not cmp.ok
            assert any(r.quantity == "metric:power_r2" for r in cmp.regressions)

    def test_zero_baseline_metric(self):
        base = bench_payload("a", {"t": {"wall_s": 1.0, "metrics": {"miss": 0.0}}})
        same = bench_payload("b", {"t": {"wall_s": 1.0, "metrics": {"miss": 0.0}}})
        worse = bench_payload("c", {"t": {"wall_s": 1.0, "metrics": {"miss": 0.2}}})
        assert compare_bench(base, same).ok
        assert not compare_bench(base, worse).ok

    def test_missing_entries_reported_not_failed(self):
        base = bench_payload("a", entries())
        cand_entries = dict(entries())
        cand_entries.pop("benchmarks/test_bench_table1.py::test_bench_table1")
        cmp = compare_bench(base, bench_payload("b", cand_entries))
        assert cmp.ok
        assert cmp.missing_in_candidate == [
            "benchmarks/test_bench_table1.py::test_bench_table1"
        ]

    def test_negative_threshold_rejected(self):
        base = bench_payload("a", entries())
        with pytest.raises(ExperimentError, match="thresholds"):
            compare_bench(base, base, wall_threshold=-1.0)


class TestCli:
    def write(self, tmp_path, name, wall_s=10.0, r2=0.98):
        path = tmp_path / name
        path.write_text(json.dumps(bench_payload(name, entries(wall_s, r2))))
        return str(path)

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        base = self.write(tmp_path, "BENCH_a.json")
        cand = self.write(tmp_path, "BENCH_b.json")
        assert main(["bench-compare", base, cand]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_nonzero_on_injected_wall_regression(self, tmp_path, capsys):
        base = self.write(tmp_path, "BENCH_a.json", wall_s=10.0)
        cand = self.write(tmp_path, "BENCH_b.json", wall_s=12.5)  # +25% > 20%
        assert main(["bench-compare", base, cand]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_flags(self, tmp_path):
        base = self.write(tmp_path, "BENCH_a.json", wall_s=10.0)
        cand = self.write(tmp_path, "BENCH_b.json", wall_s=12.5)
        assert main(
            ["bench-compare", base, cand, "--wall-threshold", "0.30"]
        ) == 0

    def test_fail_on_missing_flag(self, tmp_path):
        base = self.write(tmp_path, "BENCH_a.json")
        only_one = {
            "benchmarks/test_bench_fig2.py::test_bench_fig2": {
                "wall_s": 10.0,
                "metrics": {"power_r2": 0.98, "latency_gamma": 0.91},
            }
        }
        cand = tmp_path / "BENCH_c.json"
        cand.write_text(json.dumps(bench_payload("c", only_one)))
        assert main(["bench-compare", base, str(cand)]) == 0
        assert main(["bench-compare", base, str(cand), "--fail-on-missing"]) == 1


class TestUnusableInputs:
    """Inputs that make the comparison meaningless must fail loudly (and via
    the CLI with exit code 2, distinct from a genuine regression's 1)."""

    def disjoint(self):
        base = bench_payload("a", entries())
        cand = bench_payload(
            "b", {"benchmarks/test_other.py::test_other": {"wall_s": 1.0, "metrics": {}}}
        )
        return base, cand

    def test_disjoint_key_sets_raise(self):
        base, cand = self.disjoint()
        with pytest.raises(ExperimentError, match="no bench keys"):
            compare_bench(base, cand)

    def test_disjoint_error_names_both_key_sets(self):
        base, cand = self.disjoint()
        with pytest.raises(ExperimentError, match="test_bench_fig2"):
            compare_bench(base, cand)

    def test_entry_without_wall_raises(self):
        base = bench_payload("a", entries())
        # Hand-rolled payload (bench_payload would refuse it): an entry that
        # lost its wall_s, e.g. a file not written by the bench conftest.
        broken = bench_payload("b", entries())
        ref = broken["engines"]["reference"]["entries"]
        del ref["benchmarks/test_bench_fig2.py::test_bench_fig2"]["wall_s"]
        with pytest.raises(ExperimentError, match="wall_s"):
            compare_bench(base, broken)

    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_cli_exit_2_on_missing_file(self, tmp_path, capsys):
        base = self.write(tmp_path, "BENCH_a.json", bench_payload("a", entries()))
        missing = str(tmp_path / "BENCH_nope.json")
        assert main(["bench-compare", base, missing]) == 2
        err = capsys.readouterr().err
        assert "bench-compare:" in err

    def test_cli_exit_2_on_disjoint_keys(self, tmp_path, capsys):
        base_payload, cand_payload = self.disjoint()
        base = self.write(tmp_path, "BENCH_a.json", base_payload)
        cand = self.write(tmp_path, "BENCH_b.json", cand_payload)
        assert main(["bench-compare", base, cand]) == 2
        err = capsys.readouterr().err
        assert "no bench keys" in err

    def test_cli_exit_2_on_invalid_json(self, tmp_path, capsys):
        base = self.write(tmp_path, "BENCH_a.json", bench_payload("a", entries()))
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        assert main(["bench-compare", base, str(bad)]) == 2
        assert "bench-compare:" in capsys.readouterr().err


class TestEngineNamespaces:
    """Schema 2: per-engine entry sets, compared and gated independently."""

    def fast_entries(self, wall_s: float = 2.0) -> dict:
        return {
            "benchmarks/test_bench_fast.py::test_bench_fast_rack_speedup": {
                "wall_s": wall_s,
                "metrics": {"speedup": 6.0},
            }
        }

    def dual(self, ref_wall=10.0, fast_wall=2.0):
        return bench_payload(
            "x",
            engines={"reference": entries(ref_wall), "fast": self.fast_entries(fast_wall)},
        )

    def test_fast_regression_detected_independently(self):
        cmp = compare_bench(self.dual(), self.dual(fast_wall=3.0), wall_threshold=0.20)
        assert not cmp.ok
        (reg,) = cmp.regressions
        assert reg.bench.startswith("fast::")
        assert reg.quantity == "wall_s"

    def test_fast_speedup_cannot_mask_reference_regression(self):
        cmp = compare_bench(
            self.dual(ref_wall=10.0, fast_wall=2.0),
            self.dual(ref_wall=13.0, fast_wall=0.5),
            wall_threshold=0.20,
        )
        assert not cmp.ok
        assert all(not r.bench.startswith("fast::") for r in cmp.regressions)

    def test_engine_selector_restricts_comparison(self):
        cmp = compare_bench(
            self.dual(), self.dual(fast_wall=9.0), wall_threshold=0.20,
            engine="reference",
        )
        assert cmp.ok  # the fast regression is outside the selected namespace
        assert all(not r.bench.startswith("fast::") for r in cmp.rows)

    def test_engine_selector_missing_namespace_raises(self):
        ref_only = bench_payload("a", entries())
        with pytest.raises(ExperimentError, match="'fast' missing from the baseline"):
            compare_bench(ref_only, self.dual(), engine="fast")

    def test_missing_fast_namespace_lands_in_missing_lists(self):
        cmp = compare_bench(self.dual(), bench_payload("b", entries()))
        assert cmp.ok
        assert cmp.missing_in_candidate == [
            "fast::benchmarks/test_bench_fast.py::test_bench_fast_rack_speedup"
        ]

    def test_disjoint_message_names_keys_per_engine_namespace(self):
        base = self.dual()
        cand = bench_payload(
            "b",
            engines={
                "reference": {"benchmarks/test_other.py::test_other": {"wall_s": 1.0}},
                "fast": {"benchmarks/test_bench_fast.py::test_renamed": {"wall_s": 1.0}},
            },
        )
        with pytest.raises(ExperimentError) as exc:
            compare_bench(base, cand)
        message = str(exc.value)
        assert "no bench keys" in message
        assert "[reference]" in message and "[fast]" in message
        assert "test_bench_fig2" in message and "test_other" in message
        assert "test_bench_fast_rack_speedup" in message and "test_renamed" in message

    def test_cli_engine_flag(self, tmp_path, capsys):
        base = tmp_path / "BENCH_a.json"
        base.write_text(json.dumps(self.dual()))
        cand = tmp_path / "BENCH_b.json"
        cand.write_text(json.dumps(self.dual(fast_wall=9.0)))
        assert main(["bench-compare", str(base), str(cand), "--engine", "reference"]) == 0
        capsys.readouterr()
        assert main(["bench-compare", str(base), str(cand), "--engine", "fast"]) == 1
        assert "fast::" in capsys.readouterr().out

    def test_cli_engine_flag_missing_namespace_exit_2(self, tmp_path, capsys):
        ref_only = tmp_path / "BENCH_a.json"
        ref_only.write_text(json.dumps(bench_payload("a", entries())))
        dual = tmp_path / "BENCH_b.json"
        dual.write_text(json.dumps(self.dual()))
        assert main(["bench-compare", str(ref_only), str(dual), "--engine", "fast"]) == 2
        assert "missing from the baseline" in capsys.readouterr().err


class TestDisjointMessageRendering:
    """The disjoint-keys message lists keys as prose, not raw list reprs."""

    def test_no_raw_list_reprs(self):
        base = bench_payload("a", entries())
        cand = bench_payload("b", {"benchmarks/test_other.py::test_other": {"wall_s": 1.0}})
        with pytest.raises(ExperimentError) as exc:
            compare_bench(base, cand)
        message = str(exc.value)
        assert "['" not in message and "']" not in message
        assert "benchmarks/test_other.py::test_other" in message

    def test_empty_side_reads_none(self):
        base = bench_payload("a", entries())
        cand = bench_payload("b", engines={"reference": {}})
        with pytest.raises(ExperimentError) as exc:
            compare_bench(base, cand)
        assert "(none)" in str(exc.value)


class TestRenderMarkdown:
    def test_pass_report_has_table_and_verdict(self):
        cmp = compare_bench(bench_payload("a", entries()), bench_payload("b", entries()))
        md = cmp.render_markdown()
        assert md.startswith("### bench-compare")
        assert "**PASS**" in md
        assert "| status | bench | quantity | baseline | candidate | change |" in md
        assert "| ok | " in md
        assert "REGRESSION" not in md

    def test_fail_report_marks_regressed_rows(self):
        cmp = compare_bench(
            bench_payload("a", entries(wall_s=10.0)),
            bench_payload("b", entries(wall_s=14.0)),
            wall_threshold=0.20,
        )
        md = cmp.render_markdown()
        assert "**FAIL**" in md
        assert "| REGRESSION | " in md
        assert "+40.0%" in md

    def test_missing_benches_listed(self):
        base = bench_payload("a", entries())
        extra = dict(entries())
        extra["benchmarks/test_new.py::test_new"] = {"wall_s": 1.0, "metrics": {}}
        cmp = compare_bench(bench_payload("a", extra), base)
        assert "Missing in candidate:" in cmp.render_markdown()
        cmp = compare_bench(base, bench_payload("b", extra))
        assert "New benches (not in baseline):" in cmp.render_markdown()

    def test_summary_md_flag_appends_report(self, tmp_path, capsys):
        base = tmp_path / "BENCH_a.json"
        base.write_text(json.dumps(bench_payload("a", entries())))
        cand = tmp_path / "BENCH_b.json"
        cand.write_text(json.dumps(bench_payload("b", entries())))
        summary = tmp_path / "summary.md"
        summary.write_text("prior content\n")
        assert main(["bench-compare", str(base), str(cand), "--summary-md", str(summary)]) == 0
        text = summary.read_text()
        assert text.startswith("prior content\n")
        assert "### bench-compare" in text
        assert "**PASS**" in text
