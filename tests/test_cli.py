"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig3"])
        assert args.experiment == "fig3"
        assert args.seed == 0

    def test_run_seed(self):
        args = build_parser().parse_args(["run", "fig3", "--seed", "7"])
        assert args.seed == 7

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "table1", "fig3"])
        assert args.experiments == ["table1", "fig3"]
        assert args.jobs == 0  # auto: one worker per core
        assert args.replicates == 1
        assert args.set_points is None

    def test_sweep_flags(self):
        args = build_parser().parse_args([
            "sweep", "all", "--jobs", "4", "--replicates", "2",
            "--set-points", "850", "950", "--out", "r.json",
        ])
        assert args.jobs == 4
        assert args.set_points == [850.0, 950.0]
        assert args.out == "r.json"

    def test_bench_compare_defaults(self):
        args = build_parser().parse_args(["bench-compare", "a.json", "b.json"])
        assert args.wall_threshold == pytest.approx(0.20)
        assert args.metric_threshold == pytest.approx(0.05)
        assert not args.fail_on_missing

    #: One invocation of each subcommand that takes ``--seed``.
    SEEDED = (
        ["run", "fig9"], ["sweep", "fig2"], ["profile", "fig2"], ["stability"],
        ["identify"], ["faults"], ["report"], ["serve", "--stdin", "--oneshot"],
        ["twin", "--windows", "1"],
    )

    @pytest.mark.parametrize(
        "argv",
        [
            *([*command, "--seed", "-1"] for command in SEEDED),
            ["serve", "--stdin", "--oneshot", "--fault-plan", "plan.json", "--fault-seed", "-1"],
            ["run", "fig9-scale", "--fleet-servers", "0"],
            ["sweep", "fig9-scale", "--fleet-servers", "0"],
            ["run", "fig9-scale", "--fleet-servers", "two"],
            ["run", "fig9-scale", "--engine", "fast", "--fleet-backend", "fast-parallel"],
            ["sweep", "fig2", "--replicates", "0"],
            ["sweep", "fig2", "--replicates", "-2"],
            *(["serve", "--stdin", "--oneshot", "--ingest-port", port]
              for port in ("70000", "65536", "-1")),
            ["serve", "--stdin", "--oneshot", "--max-windows", "0"],
            ["serve", "--stdin", "--oneshot", "--max-windows", "-1"],
            ["run", "fig9", "--checkpoint-file", "F", "--checkpoint-every", "0"],
            ["run", "fig9", "--checkpoint-file", "F", "--checkpoint-every", "-5"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_refuses_a_bad_value_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"error: argument {argv[-2]}: " in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert out[:10] == ["table1", "fig2", "fig3", "fig4", "fig5",
                            "fig6", "fig7", "fig8", "fig9", "fig10"]
        assert "robustness" in out and "batching" in out
        assert "ablation-weights" in out

    def test_run_unknown_experiment(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            main(["run", "fig99"])

    def test_run_fig2(self, capsys):
        assert main(["run", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "R^2" in out

    def test_profile_fig2(self, capsys, tmp_path):
        prof = tmp_path / "fig2.prof"
        assert main(["profile", "fig2", "--top", "5", "--out", str(prof)]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "cumtime" in out  # the pstats listing made it into the render
        assert prof.exists()

    def test_profile_parser_defaults(self):
        args = build_parser().parse_args(["profile", "fig3"])
        assert args.sort == "cumulative"
        assert args.top == 25
        assert args.out is None

    def test_run_with_save_dir(self, capsys, tmp_path):
        from repro.telemetry import load_trace_npz

        assert main(["run", "fig4", "--save-dir", str(tmp_path)]) == 0
        saved = sorted(tmp_path.glob("fig4_*.npz"))
        assert len(saved) == 2
        trace = load_trace_npz(saved[0])
        assert "power_w" in trace

    def test_stability(self, capsys):
        assert main(["stability"]) == 0
        out = capsys.readouterr().out
        assert "stable for uniform gain variation" in out

    def test_identify_command(self, capsys):
        assert main(["identify", "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "identified model" in out
        assert "CV R^2" in out
        assert "looks white" in out


class TestSweepCommand:
    def test_sweep_runs_and_writes_report(self, capsys, tmp_path):
        import json

        out = tmp_path / "sweep.json"
        events = tmp_path / "events.jsonl"
        code = main([
            "sweep", "table1", "--jobs", "1", "--quiet",
            "--out", str(out), "--events", str(events),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["records"][0]["status"] == "ok"
        assert payload["checksum"]
        lines = [json.loads(l) for l in events.read_text().splitlines()]
        assert [e["kind"] for e in lines] == ["job-start", "job-done"]
        assert "Sweep: 1 jobs" in capsys.readouterr().out

    def test_sweep_ablation_meta_id(self):
        from repro.cli import _expand_sweep_ids

        ids = _expand_sweep_ids(["ablation"])
        assert ids == [
            "ablation-weights", "ablation-modulator",
            "ablation-solver", "ablation-horizon",
        ]
        assert _expand_sweep_ids(["table1", "table1"]) == ["table1"]

    def test_sweep_unknown_id_fails_before_running(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="unknown experiment ids"):
            main(["sweep", "fig99", "--jobs", "1"])


@pytest.fixture
def preserve_signal_handlers():
    """Checkpointed commands install SIGINT/SIGTERM handlers; undo after."""
    import signal

    saved = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
    yield
    for signum, handler in saved.items():
        signal.signal(signum, handler)


class TestCheckpointedRunCli:
    def test_checkpoint_flags_parse(self):
        args = build_parser().parse_args([
            "run", "fig9", "--checkpoint-every", "5",
            "--checkpoint-file", "ck", "--resume",
        ])
        assert args.checkpoint_every == 5
        assert args.checkpoint_file == "ck"
        assert args.resume

    def test_checkpointing_requires_a_file(self):
        with pytest.raises(SystemExit, match="--checkpoint-file"):
            main(["run", "fig9", "--checkpoint-every", "5"])

    def test_checkpointing_rejects_run_all(self):
        with pytest.raises(SystemExit, match="single experiment"):
            main([
                "run", "all", "--checkpoint-every", "5", "--checkpoint-file", "x",
            ])

    def test_checkpointing_rejects_unsupported_experiment(self):
        with pytest.raises(SystemExit, match="does not support"):
            main([
                "run", "fig3", "--checkpoint-every", "5", "--checkpoint-file", "x",
            ])

    def test_checkpointed_run_and_noop_resume(
        self, tmp_path, capsys, preserve_signal_handlers
    ):
        ckpt = tmp_path / "fig9.ckpt"
        code = main([
            "run", "fig9", "--checkpoint-every", "20",
            "--checkpoint-file", str(ckpt),
        ])
        assert code == 0 and ckpt.exists()
        first = capsys.readouterr().out
        code = main([
            "run", "fig9", "--checkpoint-every", "20",
            "--checkpoint-file", str(ckpt), "--resume",
        ])
        assert code == 0
        assert capsys.readouterr().out == first  # resume of a done run: no-op

    def resume_refused(self, ckpt, capsys):
        code = main([
            "run", "fig9", "--checkpoint-every", "20",
            "--checkpoint-file", str(ckpt), "--resume",
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        return line

    def test_garbage_checkpoint_refused(self, tmp_path, capsys, preserve_signal_handlers):
        ckpt = tmp_path / "fig9.ckpt"
        ckpt.write_bytes(b"not a checkpoint\n" * 4)
        assert self.resume_refused(ckpt, capsys).startswith(
            f"run: {ckpt}: not a repro checkpoint file"
        )

    def test_stale_layout_checkpoint_refused(
        self, tmp_path, capsys, preserve_signal_handlers
    ):
        from repro.checkpoint.blob import build_blob, load_blob, save_blob

        ckpt = tmp_path / "fig9.ckpt"
        assert main([
            "run", "fig9", "--checkpoint-every", "20",
            "--checkpoint-file", str(ckpt),
        ]) == 0
        capsys.readouterr()
        blob = load_blob(ckpt)
        engine = blob["state"]["engine"]["__obj__"]
        engine["state"] = [[k, v] for k, v in engine["state"] if k != "_stale_periods"]
        save_blob(ckpt, build_blob(blob["state"], blob["created"], blob["summary"]))
        line = self.resume_refused(ckpt, capsys)
        assert line.startswith("run: checkpointed repro.sim.engine:ServerSimulation")
        assert "['_stale_periods']" in line

    def test_schema_1_checkpoint_refused(self, tmp_path, capsys, preserve_signal_handlers):
        import hashlib
        import pickle

        from repro.checkpoint.blob import MAGIC, load_blob

        ckpt = tmp_path / "fig9.ckpt"
        assert main([
            "run", "fig9", "--checkpoint-every", "20",
            "--checkpoint-file", str(ckpt),
        ]) == 0
        capsys.readouterr()
        blob = load_blob(ckpt)
        blob["schema_version"] = 1  # by hand: save_blob refuses schema 1
        body = pickle.dumps(blob)
        digest = hashlib.sha256(body).hexdigest().encode("ascii")
        ckpt.write_bytes(MAGIC + b"\n" + digest + b"\n" + body)
        assert self.resume_refused(ckpt, capsys) == (
            "run: unsupported checkpoint schema version 1 (this build reads version 2)"
        )


class TestFleetCli:
    def test_fleet_flags_parse(self):
        args = build_parser().parse_args([
            "run", "--fleet", "--fleet-servers", "128",
            "--fleet-backend", "reference", "--fleet-scenario", "fair-static",
        ])
        assert args.experiment is None and args.fleet
        assert args.fleet_servers == 128
        assert args.fleet_backend == "reference"
        assert args.fleet_scenario == "fair-static"

    def test_run_requires_experiment_or_fleet(self):
        with pytest.raises(SystemExit, match="--fleet"):
            main(["run"])

    def test_fleet_options_reject_non_fleet_experiment(self):
        with pytest.raises(SystemExit, match="not a fleet experiment"):
            main(["run", "fig3", "--fleet-servers", "8"])

    def test_fleet_options_reject_run_all(self):
        with pytest.raises(SystemExit, match="single experiment"):
            main(["run", "all", "--fleet-servers", "8"])

    def test_fleet_run_defaults_to_fig9_scale(self, capsys):
        assert main(["run", "--fleet", "--fleet-servers", "4"]) == 0
        out = capsys.readouterr().out
        assert "fig9-scale" in out
        assert "4 servers" in out
        assert "datacenter" in out  # the rendered budget hierarchy

    def test_fleet_backends_agree(self, capsys):
        """The CLI surfaces both backends; same fleet, same report."""
        assert main([
            "run", "fig9-scale", "--fleet-servers", "2",
            "--fleet-backend", "soa", "--fleet-scenario", "fair-static",
        ]) == 0
        soa_out = capsys.readouterr().out
        assert main([
            "run", "fig9-scale", "--fleet-servers", "2",
            "--fleet-backend", "reference", "--fleet-scenario", "fair-static",
        ]) == 0
        ref_out = capsys.readouterr().out
        assert soa_out.replace("soa backend", "reference backend") == ref_out

    def test_sweep_fleet_params_reach_jobs(self, capsys):
        assert main([
            "sweep", "fig9-scale", "--jobs", "1", "--quiet",
            "--fleet-servers", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "fig9-scale[seed=0,n_servers=4]" in out
        assert "ok" in out


class TestJournalledSweepCli:
    def test_resume_rejects_extra_arguments(self, tmp_path):
        with pytest.raises(SystemExit, match="--resume takes its experiments"):
            main(["sweep", "table1", "--resume", str(tmp_path)])

    def test_fresh_sweep_requires_experiment_ids(self):
        with pytest.raises(SystemExit, match="experiment ids required"):
            main(["sweep", "--jobs", "1"])

    def test_resume_detects_manifest_drift(self, tmp_path, capsys):
        from repro.checkpoint import SweepJournal

        SweepJournal.create(
            tmp_path / "j",
            experiments=["table1"], seed=0, replicates=1,
            set_points_w=None, extra_params={},
            job_keys=["table1[seed=999]"],  # not what build_jobs derives
        )
        assert main(["sweep", "--resume", str(tmp_path / "j"), "--jobs", "1"]) == 2
        assert "does not match the manifest" in capsys.readouterr().err

    def test_journalled_sweep_then_resume(
        self, tmp_path, capsys, preserve_signal_handlers
    ):
        import json

        journal = tmp_path / "j"
        out_first = tmp_path / "first.json"
        code = main([
            "sweep", "table1", "--jobs", "1", "--quiet",
            "--journal-dir", str(journal), "--out", str(out_first),
        ])
        assert code == 0
        capsys.readouterr()

        # A fresh sweep must not clobber the finished journal.
        code = main([
            "sweep", "table1", "--jobs", "1", "--quiet",
            "--journal-dir", str(journal),
        ])
        assert code == 2
        assert "already exists" in capsys.readouterr().err

        # Resuming the finished sweep re-runs nothing and matches bit-for-bit.
        out_resumed = tmp_path / "resumed.json"
        code = main([
            "sweep", "--resume", str(journal), "--jobs", "1", "--quiet",
            "--out", str(out_resumed),
        ])
        assert code == 0
        assert "resume: 1/1 jobs already complete" in capsys.readouterr().err
        first = json.loads(out_first.read_text())
        resumed = json.loads(out_resumed.read_text())
        assert resumed["checksum"] == first["checksum"]
        assert resumed["interrupted"] is False

    def test_resume_without_manifest_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--resume", str(tmp_path / "missing"), "--jobs", "1"]) == 2
        manifest = tmp_path / "missing" / "manifest.json"
        assert capsys.readouterr().err.splitlines() == [f"sweep: no sweep manifest at {manifest}"]

    #: A wrong-typed value for each field of a sweep manifest; list fields
    #: also get a list holding a wrong-typed item.
    MANIFEST_FIELDS = {
        "experiments": ("table1", ["table1", 3]),
        "seed": ("zero", 0.0),
        "replicates": ("1",),
        "set_points_w": ("900", ["900"]),
        "extra_params": ([],),
        "job_keys": ("table1[seed=0]", [None]),
    }

    @pytest.mark.parametrize("damage", ["missing", "wrong-type"])
    @pytest.mark.parametrize("field", sorted(MANIFEST_FIELDS))
    def test_resume_refuses_a_malformed_manifest(self, tmp_path, capsys, field, damage):
        import json

        from repro.checkpoint import SweepJournal

        journal = tmp_path / "j"
        SweepJournal.create(
            journal, experiments=["table1"], seed=0, replicates=1,
            set_points_w=None, extra_params={}, job_keys=["table1[seed=0]"],
        )
        manifest = journal / "manifest.json"
        intact = json.loads(manifest.read_text())
        values = (None,) if damage == "missing" else self.MANIFEST_FIELDS[field]
        for value in values:
            data = dict(intact)
            if damage == "missing":
                del data[field]
            else:
                data[field] = value
            manifest.write_text(json.dumps(data))
            assert main(["sweep", "--resume", str(journal), "--jobs", "1", "--quiet"]) == 2
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith("sweep: journal manifest "), line
            assert f"'{field}'" in line, line

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("extra_params", {"engine": 5}, "field 'extra_params.engine' has the wrong type"),
            ("extra_params", {"engine": "turbo"}, "unknown engine 'turbo'"),
            ("experiments", ["no-such-experiment"], "unknown experiment ids"),
            ("extra_params", {"backend": "fast-parallel"}, "unknown fleet backend 'fast-parallel'"),
            ("replicates", 0, "replicates must be >= 1, got 0"),
        ],
        ids=[
            "engine-type", "unknown-engine", "unknown-experiment", "unknown-fleet-backend",
            "zero-replicates",
        ],
    )
    def test_resume_refuses_what_this_build_does_not_know(
        self, tmp_path, capsys, monkeypatch, field, value, message
    ):
        import json
        import os

        from repro.checkpoint import SweepJournal

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        journal = tmp_path / "j"
        SweepJournal.create(
            journal, experiments=["table1"], seed=0, replicates=1,
            set_points_w=None, extra_params={}, job_keys=["table1[seed=0]"],
        )
        manifest = journal / "manifest.json"
        data = json.loads(manifest.read_text())
        data[field] = value
        manifest.write_text(json.dumps(data))
        assert main(["sweep", "--resume", str(journal), "--jobs", "1", "--quiet"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("sweep: ") and message in line, line
        assert "REPRO_ENGINE" not in os.environ  # no engine was half-activated

    @pytest.mark.parametrize(
        ("damage", "message"),
        [("interior-torn-line", "undecodable interior"), ("edited-record", "hash chain mismatch")],
        ids=["interior-torn-line", "edited-record"],
    )
    def test_resume_refuses_a_corrupt_journal(
        self, tmp_path, capsys, preserve_signal_handlers, damage, message
    ):
        import json

        journal = tmp_path / "j"
        assert main([
            "sweep", "table1", "--replicates", "2", "--jobs", "1", "--quiet",
            "--journal-dir", str(journal),
        ]) == 0
        capsys.readouterr()
        wal = journal / "journal.jsonl"
        lines = wal.read_text().splitlines()
        if damage == "interior-torn-line":
            lines[1] = lines[1][: len(lines[1]) // 2]  # the first job_done
        else:
            entry = json.loads(lines[-1])
            entry["record"]["digest"] = "0" * 64  # still valid JSON
            lines[-1] = json.dumps(entry, sort_keys=True)
        wal.write_text("\n".join(lines) + "\n")

        code = main(["sweep", "--resume", str(journal), "--jobs", "1", "--quiet"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("sweep: ") and message in err[0]
