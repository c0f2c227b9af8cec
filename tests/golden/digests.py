"""Compute the golden digests in a child process with BLAS pinned.

From the repository root::

    python -m tests.golden.digests [ENTRY ...]

prints ``{"header": ..., "digests": {entry: sha256}}`` as one JSON object on
stdout, for the named entries or, with none named, for all of them.
:func:`compute` starts that child from another process. The child is needed
because numpy reads the pins only when it loads, and a pytest process has
loaded numpy while collecting.

Why the BLAS is pinned: the MPC's default solver, scipy's SLSQP, returns
different trajectories at 1 and 2 OpenBLAS threads, and OpenBLAS picks its
kernels per CPU. On an x86-64 host with OpenBLAS 0.3.31, 3 of the 20
experiment digests changed between 1 and 2 threads, and 9 of the 20
changed under ``OPENBLAS_CORETYPE=Haswell`` against the default ``SkylakeX``
kernels. So the digests hold only under the same kernel and thread count,
and :data:`PINS` fixes both.

Entries:

``experiment/<id>``
    ``canonical_json(result.data)`` of every registered experiment at seed
    0, the digest the sweep checksum is built from.
``fleet/<scenario>/<backend>``
    every fleet scenario on ``reference``, and on ``soa`` where the scenario
    supports it: at most 8 servers, two rounds, a 3% budget cut, two more
    rounds; the fleet trace and every server trace, timing channels
    excluded.
``service/wal-chain-head``, ``service/deployed``
    a journalled ``tree-static`` service (8 servers, shadows
    ``cap=80,cap=120``) fed a seeded event stream: the chain head replayed
    from its WAL and the deployed twin's digest at the last window.

The child also accepts three names that are not corpus entries; tests that
pin a digest outside the corpus use them:

``experiment/<id>@<seed>``
    a registered experiment at any seed;
``twin/<scenario>@<seed>/<twin>``
    the digest one ``repro twin --scenario <scenario> --servers 8
    --windows 6 --seed <seed>`` reports for ``<twin>``: ``deployed`` or a
    shadow spec such as ``cap=60+engine=fast``;
``fleet/<scenario>/fast``, ``fleet/<scenario>/fast-parallel``
    a scenario that supports the SoA backend, run as its corpus entry is,
    on a fast-engine backend.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import warnings
from collections.abc import Callable, Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("corpus.json")

#: Set in the child's environment before numpy loads.
PINS = {
    "MKL_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_CORETYPE": "Haswell",
    "OPENBLAS_NUM_THREADS": "1",
}
SEED = 0

#: Entries slow enough to run under ``pytest -m chaos`` only.
CHAOS_ENTRIES = frozenset(
    f"experiment/{eid}" for eid in ("fig6", "robustness", "fault-tolerance")
)

FLEET_MAX_SERVERS = 8
FAST_BACKENDS = ("fast", "fast-parallel")
SERVICE_SCENARIO = "tree-static"
SERVICE_SERVERS = 8
SERVICE_SHADOWS = "cap=80,cap=120"
SERVICE_WINDOWS = 8
EVENTS_PER_WINDOW = 12
TWIN_SERVERS = 8
TWIN_WINDOWS = 6


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def experiment_digest(experiment_id: str, seed: int = SEED) -> str:
    from repro.experiments import run_experiment
    from repro.runner import canonical_json

    return sha256(canonical_json(run_experiment(experiment_id, seed=seed).data))


def fleet_digest(scenario_name: str, backend: str) -> str:
    from repro.fleet.scenarios import fleet_scenario
    from repro.runner import canonical_json

    scenario = fleet_scenario(scenario_name)
    fleet = scenario.build_fleet(
        backend, n_servers=min(scenario.n_servers, FLEET_MAX_SERVERS)
    )
    try:
        fleet.run(2)
        fleet.set_budget(fleet.budget_w * 0.97)
        fleet.run(2)
        traces = [fleet.trace]
        traces += [fleet.backend.server_trace(i) for i in range(fleet.n_servers)]
    finally:
        fleet.backend.close()
    return sha256(canonical_json(traces))


def twin_digest(scenario: str, seed: int, twin: str) -> str:
    from repro.service import offline_whatif
    from repro.service.shadow import parse_shadow_spec

    shadows = () if twin == "deployed" else (parse_shadow_spec(twin),)
    answers = offline_whatif(
        scenario, TWIN_SERVERS, TWIN_WINDOWS, seed=seed, shadows=shadows
    )
    if twin == "deployed":
        return answers["deployed"]["digest"]
    return answers["shadows"][twin]["digest"]


def event_lines(seed: int) -> list[str]:
    """Seeded LDJSON telemetry for :data:`SERVICE_WINDOWS` one-second windows.

    Each window holds its events, one duplicate of them and a closing
    heartbeat; the middle window also carries a late event for the window
    before it.
    """
    rng = random.Random(seed)
    seq = 0

    def event(t: float) -> str:
        nonlocal seq
        seq += 1
        payload = {
            "kind": "telemetry",
            "t": t,
            "seq": seq,
            "server": rng.randrange(SERVICE_SERVERS),
            "power_w": round(rng.uniform(550.0, 800.0), 3),
        }
        return json.dumps(payload, sort_keys=True)

    lines: list[str] = []
    for k in range(SERVICE_WINDOWS):
        window = [event(k + rng.randrange(1000) / 1000) for _ in range(EVENTS_PER_WINDOW)]
        window.insert(rng.randrange(len(window) + 1), rng.choice(window))
        if k == SERVICE_WINDOWS // 2:
            window.append(event(k - 1 + rng.randrange(1000) / 1000))
        lines += window
        lines.append(json.dumps({"kind": "heartbeat", "t": float(k + 1)}))
    return lines


@functools.lru_cache(maxsize=None)
def service_digests() -> dict[str, str]:
    from repro.service import (
        DigitalTwinService,
        ServiceConfig,
        ServiceJournal,
        parse_shadow_specs,
    )

    config = ServiceConfig(
        scenario=SERVICE_SCENARIO,
        n_servers=SERVICE_SERVERS,
        seed=SEED,
        shadows=parse_shadow_specs(SERVICE_SHADOWS),
    )
    with tempfile.TemporaryDirectory() as tmp:
        service = DigitalTwinService(
            config, journal=ServiceJournal.create(tmp, config.to_dict())
        )
        try:
            for line in event_lines(SEED):
                service.feed_line(line)
            deployed = service.records[-1]["deployed"]["digest"]
        finally:
            service.close()
        with ServiceJournal.open(tmp) as journal:
            entries = journal.replay()
    if len(entries) != SERVICE_WINDOWS:
        raise RuntimeError(f"WAL holds {len(entries)} windows, expected {SERVICE_WINDOWS}")
    return {"service/wal-chain-head": entries[-1]["chain"], "service/deployed": deployed}


def entries() -> dict[str, Callable[[], str]]:
    """Every corpus entry, by name, with the thunk that computes its digest."""
    from repro.experiments import experiment_ids
    from repro.fleet.scenarios import FLEET_SCENARIOS

    table: dict[str, Callable[[], str]] = {}
    for eid in experiment_ids():
        table[f"experiment/{eid}"] = functools.partial(experiment_digest, eid)
    for name, scenario in FLEET_SCENARIOS.items():
        backends = ("reference", "soa") if scenario.soa_capable else ("reference",)
        for backend in backends:
            table[f"fleet/{name}/{backend}"] = functools.partial(fleet_digest, name, backend)
    for key in ("service/wal-chain-head", "service/deployed"):
        table[key] = lambda key=key: service_digests()[key]
    return table


def extra(name: str) -> Callable[[], str] | None:
    """The thunk for a name outside the corpus, or None if ``name`` is not one."""
    from repro.experiments import experiment_ids
    from repro.fleet.scenarios import FLEET_SCENARIOS

    kind, _, rest = name.partition("/")
    if kind == "fleet":
        scenario, _, backend = rest.partition("/")
        recipe = FLEET_SCENARIOS.get(scenario)
        if backend in FAST_BACKENDS and recipe is not None and recipe.soa_capable:
            return functools.partial(fleet_digest, scenario, backend)
        return None
    twin = ""
    if kind == "twin":
        rest, _, twin = rest.partition("/")
    target, at, seed = rest.rpartition("@")
    if not at or not seed.isdigit():
        return None
    if kind == "experiment" and target in experiment_ids():
        return functools.partial(experiment_digest, target, int(seed))
    if kind == "twin" and target in FLEET_SCENARIOS and twin:
        return functools.partial(twin_digest, target, int(seed), twin)
    return None


def header() -> dict:
    """The environment a set of digests was computed in."""
    import numpy as np
    import scipy

    return {
        "numpy": np.__version__,
        "pins": dict(PINS),
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "seed": SEED,
    }


def pinnable() -> tuple[bool, str]:
    """Whether :data:`PINS` can apply here: x86-64 and numpy on OpenBLAS."""
    import numpy as np

    machine = platform.machine().lower()
    if machine not in ("x86_64", "amd64"):
        return False, f"OPENBLAS_CORETYPE=Haswell needs x86-64, this host is {machine}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False, "cannot tell which BLAS numpy is linked against"
    if "openblas" not in str(blas).lower():
        return False, f"numpy is linked against {blas}, not OpenBLAS"
    return True, ""


def compute(
    names: Sequence[str] | None = None, module: str = "tests.golden.digests"
) -> dict:
    """Run the pinned child; returns its ``{"header", "digests"}`` object.

    ``module`` is the child's entry point: this module, or one that wraps
    :func:`main` (``tests.golden.compensated_sum``).
    """
    env = {**os.environ, **PINS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-m", module, *(names or ())],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"golden digest child exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout)


def dump(corpus: dict) -> str:
    """The corpus file's text: one canonical rendering, so rewrites diff cleanly."""
    return json.dumps(corpus, indent=2, sort_keys=True) + "\n"


def mismatch_report(corpus: dict, computed: dict) -> str:
    """Empty when every computed digest matches the corpus, else the failure text.

    Names each entry that differs or is missing from the corpus, then any
    header field (interpreter, library versions, pins) that differs from the
    environment the corpus was generated in.
    """
    want = corpus["digests"]
    lines = []
    for name, got in sorted(computed["digests"].items()):
        if name not in want:
            lines.append(f"  {name}: missing from the corpus (computed {got})")
        elif want[name] != got:
            lines.append(f"  {name}: corpus {want[name]}, computed {got}")
    if not lines:
        return ""
    report = [f"{len(lines)} golden digest(s) differ:", *lines]
    env = [
        f"  {key}: corpus {corpus['header'].get(key)!r}, this run {value!r}"
        for key, value in sorted(computed["header"].items())
        if corpus["header"].get(key) != value
    ]
    if env:
        report += ["the corpus was generated in a different environment:", *env]
    report.append("if the change is intended: python -m tests.golden.regenerate --write")
    return "\n".join(report)


def main(argv: Sequence[str]) -> int:
    if "numpy" in sys.modules or any(os.environ.get(k) != v for k, v in PINS.items()):
        print(f"digests need {PINS} in the environment before numpy loads", file=sys.stderr)
        return 2
    table = entries()
    for name in argv:
        thunk = extra(name)
        if name not in table and thunk is not None:
            table[name] = thunk
    unknown = sorted(set(argv) - set(table))
    if unknown:
        print(f"unknown golden entries: {unknown}", file=sys.stderr)
        return 2
    names = list(argv) or list(table)
    warnings.simplefilter("ignore")  # shortfall warnings from the cap=80 shadow
    with contextlib.redirect_stdout(sys.stderr):
        digests = {name: table[name]() for name in names}
    print(json.dumps({"header": header(), "digests": digests}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
