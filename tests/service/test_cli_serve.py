"""The ``repro serve`` and ``repro twin`` command-line surface."""

import json
import warnings

import pytest

from repro.cli import build_parser, main
from repro.telemetry.serialize import save_trace_npz
from repro.telemetry.trace import Trace


@pytest.fixture(autouse=True)
def _quiet_shortfall():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture
def trace_path(tmp_path):
    trace = Trace(["power_w"])
    for k in range(2):
        trace.append_row({"power_w": 100.0 + k})
    path = tmp_path / "trace.npz"
    save_trace_npz(trace, path)
    return path


class TestParser:
    def test_serve_defaults(self):
        # Topology flags parse to None ("not given") so --resume can tell
        # typed flags from defaults; effective defaults live in _cmd_serve.
        args = build_parser().parse_args(["serve", "--replay", "x.npz"])
        assert args.scenario is None
        assert args.servers is None
        assert args.window_s is None
        assert args.journal_dir is None
        assert not args.oneshot

    def test_serve_resilience_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--replay", "x.npz",
                "--fault-plan", "plan.json", "--fault-seed", "7",
                "--queue-size", "32", "--max-restarts", "2",
                "--idle-timeout-s", "0", "--max-line-bytes", "4096",
            ]
        )
        assert args.fault_plan == "plan.json"
        assert args.fault_seed == 7
        assert args.queue_size == 32
        assert args.max_restarts == 2
        assert args.idle_timeout_s == 0.0
        assert args.max_line_bytes == 4096

    def test_twin_requires_windows(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["twin"])

    def test_twin_repeatable_shadow(self):
        args = build_parser().parse_args(
            ["twin", "--windows", "2", "--shadow", "cap=80", "--shadow", "cap=120"]
        )
        assert args.shadow == ["cap=80", "cap=120"]


class TestTwinCommand:
    def test_prints_digest_summary(self, capsys):
        assert main(
            ["twin", "--servers", "4", "--windows", "1", "--shadow", "cap=120"]
        ) == 0
        out = capsys.readouterr().out
        assert "deployed: scenario=tree-static" in out
        assert "shadow cap=120: digest=" in out

    def test_json_output_parses(self, capsys):
        assert main(["twin", "--servers", "4", "--windows", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["windows"] == 1
        assert "digest" in payload["deployed"]

    def test_bad_shadow_spec_is_exit_2(self, capsys):
        assert main(
            ["twin", "--servers", "4", "--windows", "1", "--shadow", "color=red"]
        ) == 2
        assert "twin:" in capsys.readouterr().err

    def test_infinite_cap_is_exit_2_with_the_parse_message(self, capsys):
        assert main(
            ["twin", "--servers", "4", "--windows", "1", "--shadow", "cap=inf"]
        ) == 2
        err = capsys.readouterr().err
        assert "twin: shadow cap must be a finite number > 0, got 'inf'" in err

    def test_duplicate_shadows_are_exit_2(self):
        assert main(
            ["twin", "--servers", "4", "--windows", "1",
             "--shadow", "cap=80", "--shadow", "cap=80"]
        ) == 2

    def test_zero_windows_is_exit_2(self):
        assert main(["twin", "--servers", "4", "--windows", "0"]) == 2


class TestServeCommand:
    def serve_args(self, trace_path, *extra):
        return [
            "serve", "--replay", str(trace_path), "--servers", "4",
            "--oneshot", *extra,
        ]

    def test_oneshot_replay_prints_snapshot(self, trace_path, capsys):
        assert main(self.serve_args(trace_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["windows_closed"] == 2
        assert payload["status"] == "ok"

    def test_stdin_skips_a_too_deeply_nested_line(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                '{"kind": "telemetry", "t": 0.5, "power_w": 101.0}\n'
                + "[" * 20000 + "]" * 20000 + "\n"
                + '{"kind": "heartbeat", "t": 1.0}\n'
            ),
        )
        assert main(["serve", "--stdin", "--servers", "4", "--oneshot"]) == 0
        assert json.loads(capsys.readouterr().out)["windows_closed"] == 1

    @pytest.mark.parametrize("width", ["nan", "inf"])
    def test_non_finite_window_is_exit_2_before_the_journal(
        self, tmp_path, trace_path, width, capsys
    ):
        journal_dir = tmp_path / "svc"
        assert main(
            self.serve_args(
                trace_path, "--window-s", width, "--journal", str(journal_dir)
            )
        ) == 2
        assert "window_s" in capsys.readouterr().err
        assert not journal_dir.exists()

    @pytest.mark.parametrize("timeout, code", [("nan", 2), ("-1", 2), ("0", 0)])
    def test_only_zero_idle_timeout_disables_the_deadline(
        self, monkeypatch, capsys, timeout, code
    ):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(
            ["serve", "--stdin", "--servers", "4", "--oneshot",
             "--idle-timeout-s", timeout]
        ) == code
        if code:
            assert "idle_timeout_s" in capsys.readouterr().err

    def test_requires_an_event_source(self, capsys):
        assert main(["serve", "--servers", "4", "--oneshot"]) == 2
        assert "no event source" in capsys.readouterr().err

    def test_journal_and_resume_roundtrip(self, tmp_path, trace_path, capsys):
        journal_dir = tmp_path / "svc"
        assert main(self.serve_args(trace_path, "--journal", str(journal_dir))) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(
            ["serve", "--resume", str(journal_dir), "--replay", str(trace_path),
             "--oneshot"]
        ) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["windows_closed"] == first["windows_closed"] == 2
        assert resumed["chain"] == first["chain"]

    def test_resume_says_how_it_rebuilt_the_twins(self, tmp_path, trace_path, capsys):
        journal_dir = tmp_path / "svc"
        assert main(self.serve_args(trace_path, "--journal", str(journal_dir))) == 0
        chain = json.loads(capsys.readouterr().out)["chain"]
        resume = ["serve", "--resume", str(journal_dir), "--replay", str(trace_path),
                  "--oneshot"]
        assert main(resume) == 0
        out, err = capsys.readouterr()
        assert "restored_from=blob resimulated_windows=0" in err
        assert json.loads(out)["chain"] == chain

        history = journal_dir / "history.bin"
        data = bytearray(history.read_bytes())
        data[len(data) // 2] ^= 0xFF
        history.write_bytes(bytes(data))
        assert main(resume) == 0
        out, err = capsys.readouterr()
        assert "restored_from=wal resimulated_windows=2" in err
        assert json.loads(out)["chain"] == chain

    def test_existing_journal_is_exit_2(self, tmp_path, trace_path, capsys):
        journal_dir = tmp_path / "svc"
        assert main(self.serve_args(trace_path, "--journal", str(journal_dir))) == 0
        capsys.readouterr()
        assert main(self.serve_args(trace_path, "--journal", str(journal_dir))) == 2
        assert "already exists" in capsys.readouterr().err

    def test_resume_refuses_topology_flags(self, tmp_path, capsys):
        assert main(
            ["serve", "--resume", str(tmp_path / "svc"), "--replay", "x.npz",
             "--servers", "16"]
        ) == 2
        assert "--servers" in capsys.readouterr().err

    def test_resume_refuses_journal_flag(self, tmp_path, capsys):
        assert main(
            ["serve", "--resume", str(tmp_path / "a"), "--journal",
             str(tmp_path / "b"), "--replay", "x.npz"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_corrupt_wal_is_exit_2(self, tmp_path, trace_path, capsys):
        journal_dir = tmp_path / "svc"
        assert main(self.serve_args(trace_path, "--journal", str(journal_dir))) == 0
        capsys.readouterr()
        wal = journal_dir / "windows.jsonl"
        lines = wal.read_text().splitlines()
        entry = json.loads(lines[-1])
        entry["deployed"]["total_power_w"] = 1.0
        lines[-1] = json.dumps(entry, sort_keys=True)
        wal.write_text("\n".join(lines) + "\n")
        assert main(
            ["serve", "--resume", str(journal_dir), "--replay", str(trace_path),
             "--oneshot"]
        ) == 2
        assert "hash chain mismatch" in capsys.readouterr().err

    def test_bad_listen_spec_is_exit_2(self, trace_path, capsys):
        assert main(self.serve_args(trace_path, "--listen", "8080")) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["70000", "65536", "-1"])
    def test_out_of_range_listen_port_is_exit_2_before_the_journal(
        self, tmp_path, trace_path, capsys, port
    ):
        journal_dir = tmp_path / "svc"
        assert main(
            self.serve_args(
                trace_path, "--journal", str(journal_dir), "--listen", f"127.0.0.1:{port}"
            )
        ) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"serve: --listen port must be 0-65535, got {port}"
        ]
        assert not journal_dir.exists()

    def test_bad_shadow_spec_is_exit_2(self, trace_path):
        assert main(self.serve_args(trace_path, "--shadows", "cap=nope")) == 2

    def test_fault_plan_smoke_matches_clean_run(self, tmp_path, trace_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "faults": [
                        {
                            "kind": "net-duplicate-storm",
                            "start": 0,
                            "count": 4,
                            "probability": 1.0,
                            "copies": 2,
                        }
                    ],
                }
            )
        )
        assert main(
            self.serve_args(
                trace_path, "--fault-plan", str(plan),
                "--journal", str(tmp_path / "faulted"),
            )
        ) == 0
        faulted = json.loads(capsys.readouterr().out)
        assert main(
            self.serve_args(trace_path, "--journal", str(tmp_path / "clean"))
        ) == 0
        clean = json.loads(capsys.readouterr().out)
        assert faulted["windows_closed"] == clean["windows_closed"] == 2

        def digests(journal_dir):
            out = []
            for line in (journal_dir / "windows.jsonl").read_text().splitlines():
                entry = json.loads(line)
                out.append(
                    (entry["window"]["digest"], entry["deployed"]["digest"])
                )
            return out

        # Pure duplication dedups away: the duplicated events are counted
        # (n_duplicates, hence a different chain) but every window digest
        # and every deployed digest is bit-identical to the clean run.
        assert digests(tmp_path / "faulted") == digests(tmp_path / "clean")

    def test_crash_loop_is_exit_2(self, tmp_path, trace_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "faults": [
                        {
                            "kind": "twin-crash",
                            "start": 0,
                            "count": 1,
                            "probability": 1.0,
                            "times": None,
                        }
                    ]
                }
            )
        )
        assert main(
            self.serve_args(
                trace_path, "--fault-plan", str(plan), "--max-restarts", "1"
            )
        ) == 2
        err = capsys.readouterr().err
        assert "failed 2 consecutive times" in err

    def test_missing_fault_plan_is_exit_2(self, trace_path, capsys):
        assert main(
            self.serve_args(trace_path, "--fault-plan", "/nonexistent/plan.json")
        ) == 2
        assert "plan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("plan", "message"),
        [
            ({"seed": -1}, "'seed' must be >= 0, got -1"),
            ({"seed": "x"}, "'seed' must be an integer, got 'x'"),
            ({"seed": 1.5}, "'seed' must be an integer, got 1.5"),
            ({"seed": True}, "'seed' must be an integer, got True"),
            ({"faults": [{"kind": "net-disconnect", "start": "x"}]}, "'start' must be an integer"),
            ({"faults": [{"kind": "net-disconnect", "count": 2.5}]}, "'count' must be an integer"),
            (
                {"faults": [{"kind": "net-disconnect", "probability": "x"}]},
                "'probability' must be a number",
            ),
            (
                {"faults": [{"kind": "net-duplicate-storm", "copies": "2"}]},
                "'copies' must be an integer",
            ),
            ({"faults": [{"kind": "twin-crash", "times": "x"}]}, "'times' must be an integer"),
        ],
        ids=[
            "negative-seed", "string-seed", "fractional-seed", "bool-seed", "string-start",
            "fractional-count", "string-probability", "string-copies", "string-times",
        ],
    )
    def test_wrong_typed_fault_plan_field_is_exit_2(
        self, tmp_path, trace_path, capsys, plan, message
    ):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main(self.serve_args(trace_path, "--fault-plan", str(path))) == 2
        [line] = [
            line for line in capsys.readouterr().err.splitlines() if line.startswith("serve: ")
        ]
        assert line.startswith(f"serve: {path}: ") and message in line, line


#: A wrong-typed value for each field of a service manifest's config;
#: list fields also get a list holding a wrong-typed item.
MANIFEST_FIELDS = {
    "scenario": (5,),
    "n_servers": ("four", True),
    "window_s": ("1s",),
    "periods_per_window": (1.5,),
    "seed": ("zero",),
    "shadows": ("cap=80", [80]),
    "topology_hash": (7,),
}


class TestMalformedManifest:
    """``serve --resume`` on a manifest with a missing or wrong-typed config
    field is exit 2 with one stderr line naming the field."""

    @pytest.mark.parametrize("damage", ["missing", "wrong-type"])
    @pytest.mark.parametrize("field", sorted(MANIFEST_FIELDS))
    def test_refused_naming_the_field(self, tmp_path, trace_path, capsys, field, damage):
        from repro.service import ServiceConfig, ServiceJournal

        journal_dir = tmp_path / "svc"
        ServiceJournal.create(journal_dir, ServiceConfig(n_servers=2).to_dict())
        manifest = journal_dir / "manifest.json"
        intact = json.loads(manifest.read_text())
        values = (None,) if damage == "missing" else MANIFEST_FIELDS[field]
        for value in values:
            data = json.loads(json.dumps(intact))
            if damage == "missing":
                del data["config"][field]
            else:
                data["config"][field] = value
            manifest.write_text(json.dumps(data))
            code = main(
                ["serve", "--resume", str(journal_dir), "--replay", str(trace_path),
                 "--oneshot"]
            )
            out, err = capsys.readouterr()
            assert (code, out) == (2, ""), value
            [line] = err.splitlines()
            assert line.startswith("serve: journal manifest "), line
            assert f"'config.{field}'" in line, line

    def test_repeated_shadow_is_refused_before_any_twin(
        self, tmp_path, trace_path, capsys, monkeypatch
    ):
        from repro.service import ServiceConfig, ServiceJournal
        from repro.service.shadow import TwinSet, parse_shadow_specs

        journal_dir = tmp_path / "svc"
        config = ServiceConfig(n_servers=2, shadows=parse_shadow_specs("cap=80"))
        ServiceJournal.create(journal_dir, config.to_dict())
        manifest = journal_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        data["config"]["shadows"] = ["cap=80", "cap=80"]
        manifest.write_text(json.dumps(data))
        built = []
        monkeypatch.setattr(TwinSet, "__init__", lambda self, specs: built.append(specs))
        code = main(
            ["serve", "--resume", str(journal_dir), "--replay", str(trace_path), "--oneshot"]
        )
        out, err = capsys.readouterr()
        assert (code, out, built) == (2, "", [])
        assert err.splitlines() == ["serve: duplicate shadow specs: ['cap=80', 'cap=80']"]


@pytest.mark.chaos
class TestSignalExitCodes:
    def test_double_sigint_is_exit_130(self, tmp_path):
        """End to end through a real process: a stalled consumer plus two
        SIGINTs must exit 130, not hang the drain."""
        import os
        import signal
        import subprocess
        import sys
        import time

        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "faults": [
                        {
                            "kind": "twin-stall",
                            "start": 0,
                            "count": 1,
                            "probability": 1.0,
                            "times": None,
                        }
                    ]
                }
            )
        )
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve", "--stdin",
                "--servers", "4", "--fault-plan", str(plan),
                "--max-restarts", "1000",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            proc.stdin.write(
                b'{"kind": "telemetry", "t": 0.5, "power_w": 100.0}\n'
                b'{"kind": "heartbeat", "t": 1.0}\n'
            )
            proc.stdin.flush()
            # Wait for the supervisor to announce the (repeating) stall on
            # stderr: proof the loop is up and signal handlers installed.
            seen = []
            while True:
                line = proc.stderr.readline()
                assert line, f"serve exited before detecting the stall: {seen}"
                seen.append(line)
                if b"supervisor:" in line and b"stalled" in line:
                    break
            proc.send_signal(signal.SIGINT)
            time.sleep(0.5)
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdin.close()
        stderr = b"".join(seen) + proc.stderr.read()
        proc.stderr.close()
        proc.stdout.close()
        assert proc.returncode == 130, stderr.decode()
        assert "second SIGINT" in stderr.decode()
