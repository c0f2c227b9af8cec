"""Command-line interface: run paper experiments and print their reports.

Usage::

    repro list                      # show available experiment ids
    repro run fig3 --seed 1         # run one experiment
    repro run all                   # run everything (slow)
    repro sweep all --jobs 4        # run everything in parallel workers
    repro sweep table1 fig3 fig7 --set-points 850 900 1000
    repro bench-compare benchmarks/BASELINE.json bench-out/
    repro profile fig3              # cProfile one experiment, show hot spots
    repro lint src/repro            # determinism/units/API static analysis
    repro stability                 # print the Section 4.4 gain bound
    repro faults                    # fault-injection / degradation study

Installed both as ``repro`` and (for backwards compatibility) ``capgpu``;
also runnable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ._version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CapGPU reproduction — run paper experiments on the simulated testbed",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run_p = sub.add_parser("run", help="run an experiment (or 'all')")
    run_p.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment id from 'capgpu list', or 'all' "
             "(defaults to fig9-scale with --fleet)",
    )
    run_p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    run_p.add_argument(
        "--fleet", action="store_true",
        help="fleet mode: default the experiment to fig9-scale (hierarchical "
             "budget reallocation over many servers)",
    )
    run_p.add_argument(
        "--fleet-servers", type=int, default=None, metavar="N",
        help="fleet size for fleet-capable experiments (e.g. fig9-scale; "
             "default 64)",
    )
    run_p.add_argument(
        "--fleet-backend",
        choices=("soa", "reference", "fast", "fast-parallel"),
        default=None,
        help="fleet stepping backend: 'soa' (vectorized, default) or "
             "'reference' (N scalar engines, bit-identical); 'fast' / "
             "'fast-parallel' require --engine fast",
    )
    run_p.add_argument(
        "--engine", choices=("reference", "fast"), default=None,
        help="execution engine: 'reference' (bit-identical ground truth, "
             "default) or 'fast' (relaxed float semantics, statistically "
             "equivalent per repro.equiv — see docs/simulator.md)",
    )
    run_p.add_argument(
        "--fleet-scenario", default=None, metavar="NAME",
        help="registered fleet scenario to build (default tree-static; "
             "see repro.fleet.scenarios)",
    )
    run_p.add_argument(
        "--save-dir", default=None,
        help="directory to write every result trace as <experiment>_<name>.npz",
    )
    run_p.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint the run every N engine periods (crash-safe, "
             "bit-identical; supported by checkpointable experiments "
             "such as fig9)",
    )
    run_p.add_argument(
        "--checkpoint-file", default=None, metavar="FILE",
        help="checkpoint blob path (required with --checkpoint-every/--resume)",
    )
    run_p.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint-file if it exists",
    )

    sweep_p = sub.add_parser(
        "sweep",
        help="run many experiments in parallel worker processes "
             "(bit-for-bit identical to sequential execution)",
    )
    sweep_p.add_argument(
        "experiments", nargs="*",
        help="experiment ids, 'all', or 'ablation' (expands to ablation-*); "
             "omitted when resuming (ids come from the journal manifest)",
    )
    sweep_p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    sweep_p.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes (default 0 = one per CPU core; 1 = run inline)",
    )
    sweep_p.add_argument(
        "--replicates", type=int, default=1, metavar="R",
        help="repetitions per experiment; replicate seeds derive from --seed "
             "via repro.rng.spawn (default 1)",
    )
    sweep_p.add_argument(
        "--set-points", type=float, nargs="*", default=None, metavar="W",
        help="power caps to sweep (applied to experiments that accept "
             "set_point_w; others run once)",
    )
    sweep_p.add_argument(
        "--fleet-servers", type=int, default=None, metavar="N",
        help="fleet size for fleet-capable experiments in the sweep "
             "(e.g. fig9-scale; others ignore it)",
    )
    sweep_p.add_argument(
        "--fleet-backend",
        choices=("soa", "reference", "fast", "fast-parallel"),
        default=None,
        help="fleet stepping backend for fleet-capable experiments",
    )
    sweep_p.add_argument(
        "--engine", choices=("reference", "fast"), default=None,
        help="execution engine for every job in the sweep (exported as "
             "REPRO_ENGINE so spawn- and fork-started workers agree)",
    )
    sweep_p.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the full sweep report (renders + data + timings) as JSON",
    )
    sweep_p.add_argument(
        "--events", default=None, metavar="FILE",
        help="append structured per-job events as JSON lines",
    )
    sweep_p.add_argument(
        "--quiet", action="store_true",
        help="suppress per-job rendered reports (summary table only)",
    )
    sweep_p.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="journal per-job completion to DIR (manifest.json + append-only "
             "journal.jsonl) so a killed sweep can be resumed with --resume",
    )
    sweep_p.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume a journalled sweep: replay DIR's journal, skip completed "
             "jobs, re-run only the remainder with their original seeds",
    )

    bench_p = sub.add_parser(
        "bench-compare",
        help="diff two BENCH_*.json files and fail past regression thresholds",
    )
    bench_p.add_argument("baseline", help="baseline BENCH_*.json file (or directory)")
    bench_p.add_argument("candidate", help="candidate BENCH_*.json file (or directory)")
    bench_p.add_argument(
        "--wall-threshold", type=float, default=0.20, metavar="FRAC",
        help="fail if a bench is slower than baseline by more than this "
             "fraction (default 0.20; loosen across machines)",
    )
    bench_p.add_argument(
        "--metric-threshold", type=float, default=0.05, metavar="FRAC",
        help="fail if a headline metric drifts by more than this fraction "
             "in either direction (default 0.05)",
    )
    bench_p.add_argument(
        "--fail-on-missing", action="store_true",
        help="also fail when a baseline bench is missing from the candidate",
    )
    bench_p.add_argument(
        "--engine", choices=("reference", "fast"), default=None,
        help="compare only this engine's baseline namespace (default: every "
             "namespace present in either file); CI runs one gate per "
             "engine with separate wall thresholds",
    )
    bench_p.add_argument(
        "--summary-md", default=None, metavar="FILE",
        help="also write the comparison as a markdown table (append mode; "
             "point it at $GITHUB_STEP_SUMMARY in CI)",
    )

    prof_p = sub.add_parser(
        "profile",
        help="run one experiment under cProfile and print the hot functions "
             "plus per-phase wall times",
    )
    prof_p.add_argument("experiment", help="experiment id from 'repro list'")
    prof_p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    prof_p.add_argument(
        "--sort", default="cumulative", metavar="KEY",
        help="pstats sort key: cumulative, tottime, calls, ... "
             "(default cumulative)",
    )
    prof_p.add_argument(
        "--top", type=int, default=25, metavar="N",
        help="number of functions to list (default 25)",
    )
    prof_p.add_argument(
        "--out", default=None, metavar="FILE",
        help="also dump the raw profile (for snakeviz / pstats)",
    )

    stab_p = sub.add_parser(
        "stability", help="print the Section 4.4 stable gain-variation range"
    )
    stab_p.add_argument("--seed", type=int, default=0)

    ident_p = sub.add_parser(
        "identify", help="run system identification and print the model + validation"
    )
    ident_p.add_argument("--seed", type=int, default=0)
    ident_p.add_argument("--points", type=int, default=8,
                         help="excitation points per channel")

    faults_p = sub.add_parser(
        "faults",
        help="run the fault-injection study (settling time and cap-violation "
             "rate per fault class; see docs/robustness.md)",
    )
    faults_p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    faults_p.add_argument(
        "--set-point", type=float, default=900.0, dest="set_point_w",
        help="power budget in watts (default 900)",
    )
    faults_p.add_argument(
        "--n-periods", type=int, default=60,
        help="control periods per run (default 60)",
    )
    faults_p.add_argument(
        "--fault-start", type=int, default=30,
        help="control period at which the fault window opens (default 30)",
    )
    faults_p.add_argument(
        "--fault-periods", type=int, default=10,
        help="length of the fault window in periods (default 10)",
    )
    faults_p.add_argument(
        "--classes", nargs="*", default=None, metavar="FAULT",
        help="fault classes to run (default: the whole catalog; "
             "see 'capgpu faults --list-classes')",
    )
    faults_p.add_argument(
        "--list-classes", action="store_true",
        help="print the fault-class catalog and exit",
    )
    faults_p.add_argument(
        "--no-watchdog", action="store_true",
        help="disable the safe-mode watchdog (shows the unguarded failure modes)",
    )
    faults_p.add_argument(
        "--save-dir", default=None,
        help="directory to write each run's trace as fault-tolerance_<class>.npz",
    )

    lint_p = sub.add_parser(
        "lint",
        help="run the determinism/units/API static-analysis rules "
             "(REP1xx-REP4xx; see docs/static-analysis.md)",
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(lint_p)

    rep_p = sub.add_parser(
        "report", help="run experiments and write a markdown reproduction report"
    )
    rep_p.add_argument("-o", "--output", default="report.md")
    rep_p.add_argument("--seed", type=int, default=0)
    rep_p.add_argument(
        "--ids", nargs="*", default=None,
        help="experiment ids to include (default: all)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the streaming digital-twin service: ingest a telemetry "
             "stream, close event-time windows, simulate deployed + shadow "
             "what-ifs, answer over HTTP (see docs/service.md)",
    )
    serve_p.add_argument(
        "--replay", default=None, metavar="PATH",
        help="stream a recorded artifact as the event source: a .npz trace "
             "(repro run --save-dir output, file or directory) or a .jsonl "
             "event log",
    )
    serve_p.add_argument(
        "--stdin", action="store_true", dest="use_stdin",
        help="read line-delimited JSON events from stdin until EOF",
    )
    serve_p.add_argument(
        "--ingest-port", type=int, default=None, metavar="PORT",
        help="also listen for line-delimited JSON producers on TCP PORT "
             "(0 = ephemeral)",
    )
    serve_p.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve the HTTP API (/healthz /windows /whatif /metrics) on "
             "HOST:PORT (PORT 0 = ephemeral; default: no HTTP)",
    )
    # Topology flags default to None (not their effective values) so that
    # --resume can refuse any flag the user actually typed; the effective
    # defaults are applied in _cmd_serve when building a fresh config.
    serve_p.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="deployed fleet scenario (default tree-static; "
             "see repro.fleet.scenarios)",
    )
    serve_p.add_argument(
        "--servers", type=int, default=None, metavar="N",
        help="deployed fleet size (default 8)",
    )
    serve_p.add_argument(
        "--window-s", type=float, default=None, metavar="SEC",
        help="event-time window width in seconds (default 1.0)",
    )
    serve_p.add_argument(
        "--periods-per-window", type=int, default=None, metavar="N",
        help="rack periods the twins advance per closed window (default 1)",
    )
    serve_p.add_argument(
        "--seed", type=int, default=None, help="twin seed (default 0)"
    )
    serve_p.add_argument(
        "--shadows", default=None, metavar="SPECS",
        help="comma-separated shadow what-ifs simulated alongside the "
             "deployed twin, e.g. 'cap=80,cap=120,cap=60+engine=fast' "
             "(keys: cap=<percent>, scenario=<name>, engine=reference|fast)",
    )
    serve_p.add_argument(
        "--journal", default=None, metavar="DIR", dest="journal_dir",
        help="journal closed windows to DIR (manifest.json + hash-chained "
             "windows.jsonl WAL + twin.ckpt) so a killed service resumes "
             "bit-identically with --resume",
    )
    serve_p.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume a journalled service from DIR (configuration comes "
             "from its manifest; topology flags are refused)",
    )
    serve_p.add_argument(
        "--oneshot", action="store_true",
        help="exit after the replay source is exhausted instead of staying "
             "up for live ingestion",
    )
    serve_p.add_argument(
        "--max-windows", type=int, default=None, metavar="N",
        help="stop after closing N windows (counts resumed windows)",
    )
    serve_p.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="arm a seeded network/twin fault plan (JSON; see "
             "docs/robustness.md) — deterministic, replayable chaos on "
             "every ingest source",
    )
    serve_p.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="override the fault plan's own seed",
    )
    serve_p.add_argument(
        "--queue-size", type=int, default=None, metavar="N",
        help="bounded ingest queue capacity before the load-shedding "
             "ladder engages (default 256)",
    )
    serve_p.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help="consecutive twin crash/stall restarts before the service "
             "gives up with exit 2 (default 5)",
    )
    serve_p.add_argument(
        "--idle-timeout-s", type=float, default=None, metavar="SEC",
        help="per-connection TCP read deadline (default 30; 0 disables)",
    )
    serve_p.add_argument(
        "--max-line-bytes", type=int, default=None, metavar="BYTES",
        help="largest accepted LDJSON frame on any source (default 65536)",
    )

    twin_p = sub.add_parser(
        "twin",
        help="offline one-shot digital twin: advance the deployed + shadow "
             "simulations N windows and print their cumulative answers "
             "(digest-comparable to a served /whatif at window N)",
    )
    twin_p.add_argument(
        "--scenario", default="tree-static", metavar="NAME",
        help="deployed fleet scenario (default tree-static)",
    )
    twin_p.add_argument(
        "--servers", type=int, default=8, metavar="N",
        help="deployed fleet size (default 8)",
    )
    twin_p.add_argument(
        "--windows", type=int, required=True, metavar="N",
        help="number of windows to advance",
    )
    twin_p.add_argument(
        "--periods-per-window", type=int, default=1, metavar="N",
        help="rack periods per window (default 1)",
    )
    twin_p.add_argument("--seed", type=int, default=0, help="twin seed (default 0)")
    twin_p.add_argument(
        "--shadow", action="append", default=None, metavar="SPEC",
        help="shadow what-if spec (repeatable), e.g. --shadow cap=80",
    )
    twin_p.add_argument(
        "--json", action="store_true",
        help="print the full answer object as JSON instead of the summary",
    )
    return parser


def _cmd_list() -> int:
    from .experiments import experiment_ids

    for eid in experiment_ids():
        print(eid)
    return 0


def _checkpoint_kwargs(args: argparse.Namespace, stop_flag) -> dict:
    """Checkpoint kwargs for ``run_experiment``, validated against the
    experiment's signature (not every experiment is checkpointable)."""
    import inspect

    from .experiments import EXPERIMENTS

    if args.checkpoint_file is None:
        raise SystemExit(
            "repro run: --checkpoint-every/--resume require --checkpoint-file"
        )
    if args.experiment == "all":
        raise SystemExit("repro run: checkpointing requires a single experiment id")
    runner = EXPERIMENTS.get(args.experiment)
    accepted = (
        frozenset(inspect.signature(runner).parameters) if runner is not None else frozenset()
    )
    if runner is not None and "checkpoint_path" not in accepted:
        raise SystemExit(
            f"repro run: experiment {args.experiment!r} does not support "
            "checkpointing (no checkpoint_path parameter)"
        )
    kwargs = {
        "checkpoint_path": args.checkpoint_file,
        "checkpoint_every": args.checkpoint_every,
        "resume": args.resume,
        "stop_flag": stop_flag,
    }
    return {k: v for k, v in kwargs.items() if k in accepted}


def _fleet_kwargs(args: argparse.Namespace) -> dict:
    """Fleet kwargs for ``run_experiment``, validated against the
    experiment's signature (only fleet-capable experiments take them)."""
    import inspect

    from .experiments import EXPERIMENTS

    opts = {
        "n_servers": args.fleet_servers,
        "backend": args.fleet_backend,
        "scenario": args.fleet_scenario,
    }
    opts = {k: v for k, v in opts.items() if v is not None}
    if not opts:
        return {}
    if args.experiment == "all":
        raise SystemExit("repro run: fleet options require a single experiment id")
    runner = EXPERIMENTS.get(args.experiment)
    if runner is not None:
        accepted = frozenset(inspect.signature(runner).parameters)
        rejected = sorted(set(opts) - accepted)
        if rejected:
            raise SystemExit(
                f"repro run: experiment {args.experiment!r} does not take "
                f"fleet option(s) {rejected} (not a fleet experiment)"
            )
    return opts


def _activate_engine(engine: str | None) -> None:
    """Select the execution engine for this process and its children.

    Sets both the programmatic override and ``REPRO_ENGINE`` so worker
    processes — fork- or spawn-started — build under the same engine.
    """
    if engine is None:
        return
    import os

    from .enginemode import set_engine

    set_engine(engine)  # validates before the environment is touched
    os.environ["REPRO_ENGINE"] = engine


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments import experiment_ids, run_experiment

    if args.fleet_backend in ("fast", "fast-parallel") and args.engine != "fast":
        raise SystemExit(
            f"repro run: --fleet-backend {args.fleet_backend} changes float "
            "semantics; opt in explicitly with --engine fast"
        )
    _activate_engine(args.engine)
    if args.experiment is None:
        if not args.fleet:
            raise SystemExit(
                "repro run: an experiment id is required (or pass --fleet "
                "for the fleet-scale default)"
            )
        args.experiment = "fig9-scale"
    checkpointing = (
        args.checkpoint_every is not None
        or args.checkpoint_file is not None
        or args.resume
    )
    kwargs: dict = {}
    if checkpointing:
        from .checkpoint import (
            CheckpointInterrupt,
            ShutdownFlag,
            install_signal_handlers,
            shutdown_event,
        )
        from .errors import CheckpointError

        flag = ShutdownFlag()
        kwargs = _checkpoint_kwargs(args, flag)
        install_signal_handlers(flag)
    kwargs.update(_fleet_kwargs(args))
    ids = experiment_ids() if args.experiment == "all" else [args.experiment]
    for eid in ids:
        if checkpointing:
            try:
                result = run_experiment(eid, seed=args.seed, **kwargs)
            except CheckpointInterrupt as stop:
                import json

                event = shutdown_event(
                    stop.signum, checkpoint=str(stop.checkpoint_path)
                )
                print(json.dumps(event, sort_keys=True), file=sys.stderr)
                return stop.exit_code
            except CheckpointError as err:
                # A corrupt or stale blob exits 2, as in sweep and serve.
                print(f"run: {err}", file=sys.stderr)
                return 2
        else:
            result = run_experiment(eid, seed=args.seed, **kwargs)
        print(result.render())
        print()
        if args.save_dir is not None:
            _save_traces(result, args.save_dir)
    return 0


def _save_traces(result, save_dir: str) -> None:
    """Persist every Trace found in the result's data as NPZ."""
    import re
    from pathlib import Path

    from .telemetry import Trace, save_trace_npz

    out = Path(save_dir)
    out.mkdir(parents=True, exist_ok=True)

    def walk(obj, label):
        if isinstance(obj, Trace):
            slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", str(label)).strip("-")
            path = out / f"{result.experiment_id}_{slug}.npz"
            save_trace_npz(obj, path)
            print(f"saved {path}")
        elif isinstance(obj, dict):
            for key, value in obj.items():
                walk(value, f"{label}-{key}" if label else str(key))

    walk(result.data, "")


def _expand_sweep_ids(tokens: list[str]) -> list[str]:
    """Expand 'all' / 'ablation' meta-ids into concrete experiment ids."""
    from .experiments import experiment_ids

    ids: list[str] = []
    for token in tokens:
        if token == "all":
            ids.extend(experiment_ids())
        elif token == "ablation":
            ids.extend(e for e in experiment_ids() if e.startswith("ablation-"))
        else:
            ids.append(token)
    seen: set[str] = set()
    return [e for e in ids if not (e in seen or seen.add(e))]


def _sweep_jobs_and_journal(args: argparse.Namespace):
    """Build (jobs, journal, completed-records) for a sweep invocation.

    Fresh sweeps derive jobs from the CLI arguments (and optionally start a
    journal); ``--resume`` rebuilds the identical job list from the journal
    manifest — per-job seeds are a pure function of the manifest arguments —
    and pre-fills records replayed from the WAL.
    """
    from .checkpoint import SweepJournal
    from .checkpoint.wal import manifest_field
    from .errors import CheckpointError, ConfigurationError, ExperimentError
    from .runner import JobRecord, build_jobs

    if args.resume:
        if args.experiments or args.journal_dir or args.engine:
            raise SystemExit(
                "repro sweep: --resume takes its experiments, journal "
                "directory and engine from the manifest; drop the extra "
                "arguments"
            )
        journal = SweepJournal.open(args.resume)
        manifest = journal.manifest()
        extra = manifest_field(manifest, "extra_params", dict)
        if "engine" in extra:
            manifest_field(extra, "engine", str, section="extra_params.")
        experiments = manifest_field(manifest, "experiments", list, str)
        seed = manifest_field(manifest, "seed", int)
        replicates = manifest_field(manifest, "replicates", int)
        set_points_w = manifest_field(
            manifest, "set_points_w", (list, type(None)), (int, float)
        )
        try:
            # Re-apply the recorded engine so resumed jobs build under the
            # same semantics the sweep started with.
            _activate_engine(extra.get("engine"))
            jobs = build_jobs(
                experiments,
                seed=seed,
                replicates=replicates,
                set_points_w=set_points_w,
                extra_params=extra or None,
            )
        except (ConfigurationError, ExperimentError) as exc:
            # An engine or experiment id this build does not know.
            raise CheckpointError(
                f"{journal.manifest_path}: {exc} — resume would not be bit-identical"
            ) from exc
        if [job.key for job in jobs] != manifest_field(manifest, "job_keys", list, str):
            raise CheckpointError(
                f"{journal.manifest_path}: rebuilt job list does not match the "
                "manifest (code or experiment registry changed since the sweep "
                "started) — resume would not be bit-identical"
            )
        replay = journal.replay()
        completed = {
            key: JobRecord.from_dict(rec) for key, rec in replay.completed.items()
        }
        print(
            f"[sweep] resume: {len(completed)}/{len(jobs)} jobs already "
            f"complete, {len(replay.in_flight)} crashed in flight, "
            f"{len(jobs) - len(completed)} to run",
            file=sys.stderr,
        )
        return jobs, journal, completed

    if not args.experiments:
        raise SystemExit("repro sweep: experiment ids required (or --resume DIR)")
    if args.fleet_backend in ("fast", "fast-parallel") and args.engine != "fast":
        raise SystemExit(
            f"repro sweep: --fleet-backend {args.fleet_backend} changes float "
            "semantics; opt in explicitly with --engine fast"
        )
    _activate_engine(args.engine)
    ids = _expand_sweep_ids(args.experiments)
    # Fleet knobs ride as extra params: build_jobs filters them per
    # experiment against the runner's signature, so a mixed sweep simply
    # applies them to the fleet-capable ids. The engine is not a runner
    # kwarg (no runner takes it) — it rides here purely so the journal
    # manifest records it and --resume re-activates it.
    extra = {
        k: v
        for k, v in {
            "n_servers": args.fleet_servers,
            "backend": args.fleet_backend,
            "engine": args.engine,
        }.items()
        if v is not None
    }
    jobs = build_jobs(
        ids,
        seed=args.seed,
        replicates=args.replicates,
        set_points_w=args.set_points,
        extra_params=extra or None,
    )
    journal = None
    if args.journal_dir:
        journal = SweepJournal.create(
            args.journal_dir,
            experiments=ids,
            seed=args.seed,
            replicates=args.replicates,
            set_points_w=args.set_points,
            extra_params=extra,
            job_keys=[job.key for job in jobs],
        )
    return jobs, journal, None


def _cmd_sweep(args: argparse.Namespace) -> int:
    import contextlib
    import os

    from .checkpoint import ShutdownFlag, install_signal_handlers, shutdown_event
    from .errors import CheckpointError
    from .runner import run_sweep

    try:
        jobs, journal, completed = _sweep_jobs_and_journal(args)
    except CheckpointError as err:
        # Journal refusals (bad manifest, drift, corrupt WAL) exit 2, as in serve.
        print(f"sweep: {err}", file=sys.stderr)
        return 2
    n_jobs = args.jobs if args.jobs >= 1 else (os.cpu_count() or 1)
    stop_flag = None
    if journal is not None:
        # Journalled sweeps wind down gracefully: finish in-flight jobs,
        # journal them, and exit 130/143 so --resume picks up the rest.
        stop_flag = ShutdownFlag()
        install_signal_handlers(stop_flag)

    with contextlib.ExitStack() as stack:
        if journal is not None:
            stack.enter_context(journal)
        events_fh = (
            stack.enter_context(open(args.events, "a", encoding="utf-8"))
            if args.events
            else None
        )

        def on_event(event):
            line = f"[sweep] {event.kind} {event.job_key} (attempt {event.attempt}"
            if event.wall_s is not None:
                line += f", {event.wall_s:.2f} s"
            if event.error:
                line += f", {event.error}"
            print(line + ")", file=sys.stderr)
            if events_fh is not None:
                import json

                events_fh.write(json.dumps(event.to_dict()) + "\n")
                events_fh.flush()

        report = run_sweep(
            jobs,
            n_jobs=n_jobs,
            on_event=on_event,
            journal=journal,
            completed=completed,
            stop_flag=stop_flag,
        )
        if stop_flag:
            event = shutdown_event(
                stop_flag.signum,
                checkpoint=str(journal.directory) if journal is not None else None,
            )
            if journal is not None:
                journal.shutdown(event)
            import json

            print(json.dumps(event, sort_keys=True), file=sys.stderr)
    if not args.quiet:
        for rec in report.records:
            if rec.render:
                print(rec.render)
                print()
    print(report.render_summary())
    if args.out:
        path = report.write_json(args.out)
        print(f"wrote {path}")
    if stop_flag:
        return stop_flag.exit_code
    return 0 if report.ok else 1


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from .benchcompare import compare_bench, load_bench
    from .errors import ExperimentError

    try:
        comparison = compare_bench(
            load_bench(args.baseline),
            load_bench(args.candidate),
            wall_threshold=args.wall_threshold,
            metric_threshold=args.metric_threshold,
            engine=args.engine,
        )
    except ExperimentError as err:
        # Unusable inputs (missing file, invalid JSON, disjoint bench keys)
        # are exit code 2 so CI can tell "comparison impossible" apart from
        # "comparison ran and found a regression" (exit 1).
        print(f"bench-compare: {err}", file=sys.stderr)
        return 2
    print(comparison.render())
    if args.summary_md:
        # Append: $GITHUB_STEP_SUMMARY accumulates across steps.
        with open(args.summary_md, "a", encoding="utf-8") as fh:
            fh.write(comparison.render_markdown() + "\n")
    if args.fail_on_missing and comparison.missing_in_candidate:
        print("FAIL: baseline benches missing from candidate")
        return 1
    return 0 if comparison.ok else 1


def _parse_host_port(text: str, flag: str) -> tuple[str, int]:
    from .errors import ConfigurationError

    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(f"{flag} takes HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ConfigurationError(
            f"{flag} port must be an integer, got {port!r}"
        ) from None


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .errors import (
        CheckpointError,
        ConfigurationError,
        ForcedShutdown,
        ServiceFailedError,
    )
    from .service import ServeOptions, ServiceConfig, parse_shadow_specs, serve
    from .service.resilience import ResilienceConfig

    def announce(message: str) -> None:
        print(f"[serve] {message}", file=sys.stderr, flush=True)

    try:
        resume = args.resume is not None
        if resume:
            if args.journal_dir is not None:
                raise ConfigurationError(
                    "--resume and --journal are mutually exclusive (resume "
                    "reuses the journal directory it is given)"
                )
            overridden = [
                flag
                for flag, value in (
                    ("--scenario", args.scenario),
                    ("--servers", args.servers),
                    ("--window-s", args.window_s),
                    ("--periods-per-window", args.periods_per_window),
                    ("--seed", args.seed),
                    ("--shadows", args.shadows),
                )
                if value is not None
            ]
            if overridden:
                raise ConfigurationError(
                    f"{', '.join(overridden)} come from the journal manifest "
                    "on --resume; drop them"
                )
        if not (args.replay or args.use_stdin or args.ingest_port is not None):
            raise ConfigurationError(
                "no event source: give --replay, --stdin, or --ingest-port"
            )
        listen_host, listen_port = ("127.0.0.1", None)
        if args.listen is not None:
            listen_host, listen_port = _parse_host_port(args.listen, "--listen")
        config = None
        if not resume:
            shadows = (
                parse_shadow_specs(args.shadows) if args.shadows is not None else ()
            )
            config = ServiceConfig(
                scenario=args.scenario if args.scenario is not None else "tree-static",
                n_servers=args.servers if args.servers is not None else 8,
                window_s=args.window_s if args.window_s is not None else 1.0,
                periods_per_window=(
                    args.periods_per_window
                    if args.periods_per_window is not None
                    else 1
                ),
                seed=args.seed if args.seed is not None else 0,
                shadows=shadows,
            )
        defaults = ResilienceConfig()
        resilience = ResilienceConfig(
            queue_size=(
                args.queue_size
                if args.queue_size is not None
                else defaults.queue_size
            ),
            max_line_bytes=(
                args.max_line_bytes
                if args.max_line_bytes is not None
                else defaults.max_line_bytes
            ),
            idle_timeout_s=(
                (None if args.idle_timeout_s == 0 else args.idle_timeout_s)
                if args.idle_timeout_s is not None
                else defaults.idle_timeout_s
            ),
            max_restarts=(
                args.max_restarts
                if args.max_restarts is not None
                else defaults.max_restarts
            ),
            seed=args.seed if args.seed is not None else defaults.seed,
        )
        options = ServeOptions(
            journal_dir=Path(args.resume) if resume else (
                Path(args.journal_dir) if args.journal_dir is not None else None
            ),
            resume=resume,
            replay=Path(args.replay) if args.replay is not None else None,
            use_stdin=args.use_stdin,
            ingest_port=args.ingest_port,
            listen_host=listen_host,
            listen_port=listen_port,
            oneshot=args.oneshot,
            max_windows=args.max_windows,
            fault_plan=Path(args.fault_plan) if args.fault_plan is not None else None,
            fault_seed=args.fault_seed,
            resilience=resilience,
        )
        service = serve(config, options, announce=announce)
    except ServiceFailedError as err:
        # The supervisor exhausted its restart budget: the crash-loop
        # give-up contract is exit 2 (docs/robustness.md).
        print(f"serve: {err}", file=sys.stderr)
        return 2
    except ForcedShutdown as err:
        # Second SIGINT: conventional SIGINT exit status.
        print(f"serve: {err}", file=sys.stderr)
        return 130
    except (CheckpointError, ConfigurationError) as err:
        # Setup/durability refusals (journal exists, corrupt WAL, bad spec)
        # are exit 2, like every other "could not even start" CLI path.
        print(f"serve: {err}", file=sys.stderr)
        return 2
    try:
        print(json.dumps(service.snapshot(), sort_keys=True))
    finally:
        service.close()
    return 0


def _cmd_twin(args: argparse.Namespace) -> int:
    import json

    from .errors import ConfigurationError
    from .service import offline_whatif
    from .service.shadow import parse_shadow_spec

    try:
        shadows = tuple(parse_shadow_spec(s) for s in (args.shadow or ()))
        answers = offline_whatif(
            args.scenario,
            args.servers,
            args.windows,
            periods_per_window=args.periods_per_window,
            seed=args.seed,
            shadows=shadows,
        )
    except ConfigurationError as err:
        print(f"twin: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(answers, sort_keys=True, indent=2))
        return 0
    deployed = answers["deployed"]
    print(
        f"deployed: scenario={deployed['scenario']} "
        f"servers={deployed['n_servers']} windows={deployed['windows']} "
        f"digest={deployed['digest']}"
    )
    if "total_power_w" in deployed:
        print(
            f"  power {deployed['total_power_w']:.1f} W / "
            f"budget {deployed['budget_w']:.1f} W "
            f"(err {deployed['tracking_err_w']:+.1f} W)"
        )
    for name in sorted(answers["shadows"]):
        answer = answers["shadows"][name]
        line = f"shadow {name}: digest={answer['digest']}"
        if "total_power_w" in answer:
            line += (
                f" power={answer['total_power_w']:.1f}W"
                f" budget={answer['budget_w']:.1f}W"
            )
        line += f" equiv_ok={answer['equiv_vs_deployed']['ok']}"
        print(line)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .profiling import profile_experiment

    report = profile_experiment(
        args.experiment,
        seed=args.seed,
        sort=args.sort,
        top=args.top,
        prof_out=args.out,
    )
    print(report.render())
    return 0


def _cmd_identify(seed: int, points: int) -> int:
    from .sim import paper_scenario
    from .sysid import (
        cross_validate_power_model,
        identify_power_model,
        residual_summary,
    )

    sim = paper_scenario(seed=seed)
    ds = identify_power_model(sim, points_per_channel=points)
    fit = ds.fit
    print("identified model p = A.F + C")
    for ref, gain in zip(sim.server.channels, fit.a_w_per_mhz):
        print(f"  A[{ref.name}] = {gain:.4f} W/MHz")
    print(f"  C = {fit.c_w:.1f} W")
    print(f"  training R^2 = {fit.r2:.4f}, RMSE = {fit.rmse_w:.2f} W "
          f"({fit.n_samples} points)")
    scores = cross_validate_power_model(ds.f_mhz, ds.power_w, k_folds=4)
    print(f"  4-fold CV R^2 = {min(scores):.4f} .. {max(scores):.4f}")
    summary = residual_summary(fit, ds.f_mhz, ds.power_w)
    print(f"  residuals: std {summary.std_w:.2f} W, max |r| "
          f"{summary.max_abs_w:.2f} W, lag-1 autocorr "
          f"{summary.lag1_autocorr:+.2f}, looks white: {summary.looks_white}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .experiments.fault_tolerance import fault_catalog, run_fault_tolerance

    if args.list_classes:
        for name in fault_catalog(args.fault_start, args.fault_periods):
            print(name)
        return 0
    result = run_fault_tolerance(
        seed=args.seed,
        set_point_w=args.set_point_w,
        n_periods=args.n_periods,
        fault_start=args.fault_start,
        fault_periods=args.fault_periods,
        classes=tuple(args.classes) if args.classes is not None else None,
        watchdog=not args.no_watchdog,
    )
    print(result.render())
    if args.save_dir is not None:
        _save_traces(result, args.save_dir)
    return 0


def _cmd_stability(seed: int) -> int:
    from .core import stable_gain_range
    from .experiments import identified_model

    model = identified_model(seed)
    r = np.full(model.n_channels, 5e-5)
    sweep = stable_gain_range(model.a_w_per_mhz, r)
    lo, hi = sweep.stable_interval()
    print(f"identified gains A = {np.round(model.a_w_per_mhz, 4)} (W/MHz)")
    print(
        "closed loop remains stable for uniform gain variation "
        f"g in [{lo:.2f}, {hi:.2f}] (A' = g*A)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "bench-compare":
        return _cmd_bench_compare(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "stability":
        return _cmd_stability(args.seed)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "identify":
        return _cmd_identify(args.seed, args.points)
    if args.command == "lint":
        from .lint.cli import run_lint_cli

        return run_lint_cli(args)
    if args.command == "report":
        from .report import write_report

        path = write_report(args.output, seed=args.seed, ids=args.ids)
        print(f"wrote {path}")
        return 0
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "twin":
        return _cmd_twin(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
