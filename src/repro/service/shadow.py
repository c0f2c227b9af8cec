"""Cumulative deployed/shadow twins over the fleet engine.

Each twin is one long-lived :class:`~repro.fleet.engine.FleetSimulation`
advanced a fixed number of rack periods per closed window — the opendt
"cumulative simulation" discipline: the twin's state after window ``k`` is
the state of one uninterrupted run of ``(k+1) * periods_per_window`` rack
periods, which is exactly what makes a ``/whatif`` answer comparable,
digest for digest, to an offline ``repro twin`` run of the same length.

A **shadow** is a twin built from the deployed configuration with deltas
applied — an alternative cap (``cap=<percent>`` of the deployed fleet
budget), an alternative topology (``scenario=<name>``), or the
relaxed-semantics engine (``engine=fast``). Shadow answers carry their
paired deltas against the deployed twin through the :mod:`repro.equiv`
tolerance metrics, so an operator reading ``/whatif`` sees not only "what
would cap=80 have cost" but whether the shadow's engine is still inside
the trust envelope of ``docs/simulator.md``.

A :class:`TwinSpec` holds the six fields that fix a twin's trajectory,
validated once; its :attr:`~TwinSpec.topology_hash` names the twin in the
what-if cache and the WAL, and :meth:`TwinSpec.shadow` derives a shadow's
spec from the deployed one. Twins advance in **banks** (:class:`TwinBank`),
and a bank builds its twins' fleets from their specs: every reference-engine
twin of an SoA-capable scenario steps through one shared SoA, built once,
one ``run_periods`` call per budget round for all of them, and each keeps
the digest it has on its own. A twin is constructed only by its bank.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..checkpoint.state import capture, restore
from ..equiv import EquivReport, compare_metrics, fleet_server_metrics
from ..errors import ConfigurationError
from ..fleet.engine import FleetBank, FleetSimulation
from ..fleet.scenarios import fleet_scenario, soa_bank
from ..runner import TIMING_KEYS
from ..telemetry.trace import Trace

__all__ = [
    "ShadowSpec",
    "parse_shadow_spec",
    "parse_shadow_specs",
    "check_shadow_names",
    "TwinSpec",
    "TwinRunner",
    "TwinBank",
    "bank_twins",
    "snapshot_twins",
    "restore_twins",
]


@dataclass(frozen=True)
class ShadowSpec:
    """One what-if configuration, relative to the deployed one.

    ``name`` is the spec string itself (``cap=80``,
    ``cap=60+engine=fast``, ``scenario=mpc-static``) — the key the HTTP
    API and the journal file it under.
    """

    name: str
    budget_frac: float = 1.0
    scenario: str | None = None
    engine: str = "reference"


def parse_shadow_spec(spec: str) -> ShadowSpec:
    """Parse one ``key=value[+key=value...]`` shadow spec.

    Keys: ``cap`` (percent of the deployed fleet budget, finite and > 0),
    ``scenario`` (a registered fleet scenario name), ``engine``
    (``reference`` or ``fast``).
    """
    text = spec.strip()
    if not text:
        raise ConfigurationError("empty shadow spec")
    budget_frac = 1.0
    scenario: str | None = None
    engine = "reference"
    seen: set[str] = set()
    for part in text.split("+"):
        key, sep, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigurationError(
                f"shadow spec part {part!r} is not key=value (in {spec!r})"
            )
        if key in seen:
            raise ConfigurationError(f"duplicate key {key!r} in shadow spec {spec!r}")
        seen.add(key)
        if key == "cap":
            try:
                percent = float(value)
            except ValueError:
                raise ConfigurationError(
                    f"shadow cap must be a number (percent), got {value!r}"
                ) from None
            if not (percent > 0.0 and math.isfinite(percent)):
                raise ConfigurationError(
                    f"shadow cap must be a finite number > 0, got {value!r}"
                )
            budget_frac = percent / 100.0
        elif key == "scenario":
            fleet_scenario(value)  # validates the name
            scenario = value
        elif key == "engine":
            if value not in ("reference", "fast"):
                raise ConfigurationError(
                    f"shadow engine must be reference or fast, got {value!r}"
                )
            engine = value
        else:
            raise ConfigurationError(
                f"unknown shadow spec key {key!r} (have cap, scenario, engine)"
            )
    return ShadowSpec(
        name=text, budget_frac=budget_frac, scenario=scenario, engine=engine
    )


def parse_shadow_specs(specs: str) -> tuple[ShadowSpec, ...]:
    """Parse a comma-separated shadow list (``cap=80,cap=120``)."""
    parsed = tuple(parse_shadow_spec(s) for s in specs.split(",") if s.strip())
    if not parsed:
        raise ConfigurationError(f"no shadow specs in {specs!r}")
    check_shadow_names(parsed)
    return parsed


def check_shadow_names(shadows: tuple[ShadowSpec, ...]) -> None:
    """Refuse a shadow list that names one shadow twice: a twin is filed
    under its name, so a repeat would be one twin under two names."""
    names = [s.name for s in shadows]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate shadow specs: {names}")


@dataclass(frozen=True)
class TwinSpec:
    """Everything that determines a twin's trajectory: two twins of equal
    specs advanced the same number of windows produce identical traces."""

    scenario: str
    n_servers: int
    periods_per_window: int = 1
    seed: int = 0
    budget_frac: float = 1.0
    engine: str = "reference"

    def __post_init__(self) -> None:
        fleet_scenario(self.scenario)  # validates the name
        if self.n_servers < 1:
            raise ConfigurationError("n_servers must be >= 1")
        if self.periods_per_window < 1:
            raise ConfigurationError("periods_per_window must be >= 1")
        if not self.budget_frac > 0.0:
            raise ConfigurationError("budget_frac must be > 0")
        if self.engine not in ("reference", "fast"):
            raise ConfigurationError(f"unknown twin engine {self.engine!r}")

    @property
    def topology_hash(self) -> str:
        """sha256 of the spec's canonical JSON: the what-if cache key's
        first half (the second is the closed-window chain position)."""
        fields = {**vars(self), "budget_frac": float(self.budget_frac)}
        body = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    @property
    def backend(self) -> str:
        """The fleet backend the twin steps on: ``fast`` for the fast
        engine, else the SoA (bit-identical to the scalar reference) where
        the scenario has one."""
        if self.engine == "fast":
            return "fast"
        return "soa" if fleet_scenario(self.scenario).soa_capable else "reference"

    @property
    def bankable(self) -> bool:
        """True when the twin steps on the exact SoA backend, so it may
        share a :class:`TwinBank` with other such twins."""
        return self.backend == "soa"

    def shadow(self, spec: ShadowSpec) -> "TwinSpec":
        """A shadow's spec: this (deployed) spec with the shadow's deltas."""
        return dataclasses.replace(
            self,
            scenario=spec.scenario or self.scenario,
            budget_frac=spec.budget_frac,
            engine=spec.engine,
        )


class _TraceDigest:
    """``sha256(canonical_json(trace))`` of a growing trace, formatting each
    row once: the JSON text of every channel's rows already seen is kept,
    and only new rows are encoded. Rows of a trace are never rewritten, so
    the text stays valid until the trace is replaced (:meth:`reset`)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._rows = 0
        self._text: dict[str, bytearray] = {}

    def hexdigest(self, trace: Trace) -> str:
        n = len(trace)
        if n < self._rows:
            self.reset()
        names = sorted(c for c in trace.channels if c not in TIMING_KEYS)
        digest = hashlib.sha256(b'{"__trace__":{')
        for k, name in enumerate(names):
            text = self._text.setdefault(name, bytearray())
            if n > self._rows:
                new = json.dumps(trace[name][self._rows : n].tolist(), separators=(",", ":"))
                if text:
                    text += b","
                text += new[1:-1].encode("ascii")
            digest.update(f'{"," if k else ""}{json.dumps(name)}:['.encode("ascii"))
            digest.update(text)
            digest.update(b"]")
        digest.update(b"}}")
        self._rows = n
        return digest.hexdigest()


class TwinRunner:
    """One cumulative twin: the fleet its :class:`TwinBank` built from
    ``spec``, advanced window by window."""

    def __init__(self, spec: TwinSpec, fleet: FleetSimulation):
        self.spec = spec
        self.fleet = fleet
        # Derived from the fleet's history, never checkpointed: the digest's
        # canonical text, and the equivalence metrics at a trace length.
        self._digest = _TraceDigest()
        self._metrics: tuple[int, list[dict[str, float]]] | None = None

    @property
    def windows_advanced(self) -> int:
        return len(self.fleet.trace) // self.spec.periods_per_window

    def advance(self, n_windows: int = 1) -> None:
        """Advance a twin that is a bank of one by ``n_windows`` windows
        (a member of a larger bank steps only through its bank)."""
        if n_windows:
            self.fleet.run(n_windows * self.spec.periods_per_window)

    def digest(self) -> str:
        """Canonical digest of the twin's full trace (timing excluded):
        ``sha256(canonical_json(trace))``."""
        return self._digest.hexdigest(self.fleet.trace)

    def summary(self) -> dict:
        """The JSON-able cumulative answer for this twin."""
        trace, spec = self.fleet.trace, self.spec
        out = {
            "scenario": spec.scenario,
            "n_servers": spec.n_servers,
            "engine": spec.engine,
            "budget_frac": spec.budget_frac,
            "windows": self.windows_advanced,
            "rack_periods": len(trace),
            "topology_hash": spec.topology_hash,
            "digest": self.digest(),
        }
        if len(trace) > 0:
            budget = trace.last("budget_w")
            power = trace.last("total_power_w")
            out["budget_w"] = budget
            out["total_power_w"] = power
            out["tracking_err_w"] = power - budget
        return out

    def equiv_vs(self, deployed: "TwinRunner") -> EquivReport:
        """Paired shadow-vs-deployed deltas through the equiv tolerances.

        Reuses the fast-engine trust machinery: per-server traces of both
        twins compared metric by metric (power error, violation rate,
        settle periods) against the committed :data:`repro.equiv.TOLERANCES`
        envelopes. A shadow whose report is not ``ok`` diverges from the
        deployed trajectory by more than the fast engine is ever allowed
        to — a signal to the operator that the what-if is a genuinely
        different operating point, not noise.
        """
        n = min(self.fleet.n_servers, deployed.fleet.n_servers)
        return compare_metrics(
            deployed.server_metrics()[:n],
            self.server_metrics()[:n],
            scenario=f"shadow:{self.spec.scenario}",
        )

    def server_metrics(self) -> list[dict[str, float]]:
        """:func:`repro.equiv.server_metrics` of every server, computed
        once per committed trace length (the deployed twin's serve every
        shadow's comparison)."""
        rows = len(self.fleet.trace)
        if self._metrics is None or self._metrics[0] != rows:
            columns = self.fleet.backend.server_columns(
                ("power_w", "set_point_w", "power_max_w")
            )
            self._metrics = (rows, fleet_server_metrics(*columns))
        return self._metrics[1]


class TwinBank:
    """Twins built from their specs and advanced in lockstep, their fleets
    stepped as one :class:`~repro.fleet.engine.FleetBank`.

    A bank of several twins builds all their servers into one SoA
    (:func:`repro.fleet.scenarios.soa_bank`), so each budget round is one
    ``run_periods`` call for every member; each twin keeps its own budget
    tree, trace, summary, digest and equivalence. A bank of several refuses
    a spec that is not :attr:`~TwinSpec.bankable`. A bank of one builds its
    twin's fleet on the twin's own backend. :func:`bank_twins` decides the
    membership.
    """

    def __init__(self, specs: list[TwinSpec]):
        if len({spec.periods_per_window for spec in specs}) != 1:
            raise ConfigurationError("bank members must share periods_per_window")
        if len(specs) == 1:
            [spec] = specs
            scenario = fleet_scenario(spec.scenario)
            self.fleets = FleetBank([scenario.build_fleet(spec.backend, spec.n_servers, spec.seed)])
        else:
            for spec in specs:
                if not spec.bankable:
                    raise ConfigurationError(
                        "a bank of several twins holds reference-engine twins of "
                        f"SoA-capable scenarios only, got {spec}"
                    )
            self.fleets = soa_bank([(spec.scenario, spec.n_servers, spec.seed) for spec in specs])
        for spec, fleet in zip(specs, self.fleets.fleets):
            fleet.set_budget(fleet.budget_w * spec.budget_frac)
        self.twins = [TwinRunner(spec, fleet) for spec, fleet in zip(specs, self.fleets.fleets)]
        self.periods_per_window = specs[0].periods_per_window

    @property
    def windows_advanced(self) -> int:
        return self.twins[0].windows_advanced

    def advance(self, n_windows: int = 1) -> None:
        """Advance every member by ``n_windows`` windows."""
        if n_windows < 0:
            raise ConfigurationError("n_windows must be >= 0")
        if n_windows:
            self.fleets.run(n_windows * self.periods_per_window)

    def close(self) -> None:
        self.fleets.backend.close()


def bank_twins(specs: Mapping[str, TwinSpec]) -> tuple[dict[str, TwinRunner], list[TwinBank]]:
    """The twins of ``specs``, by name, and the banks that built them: every
    :attr:`~TwinSpec.bankable` spec in one bank, each other spec in a bank
    of its own, in the order of their first members. ``engine=fast`` twins
    stay alone, because a fast MPC batch moves bits with its shape
    (:mod:`repro.fleet.soa`), and reference-only scenarios have no SoA to
    share."""
    shared = [name for name, spec in specs.items() if spec.bankable]
    groups = []
    for name, spec in specs.items():
        if not spec.bankable:
            groups.append([name])
        elif name == shared[0]:
            groups.append(shared)
    banks = [TwinBank([specs[name] for name in group]) for group in groups]
    twins = {
        name: twin for group, bank in zip(groups, banks) for name, twin in zip(group, bank.twins)
    }
    return {name: twins[name] for name in specs}, banks


def snapshot_twins(
    twins: Mapping[str, TwinRunner], tables: Mapping[str, np.ndarray]
) -> dict[str, object]:
    """Every twin's fleet, by name, captured in one pass: a bank's shared
    backend is one subtree (under its first member), which the other
    members reference. ``tables`` maps names to history arrays kept
    elsewhere (each captured as a reference by name, see
    :func:`repro.checkpoint.state.capture`)."""
    return dict(zip(twins, capture(*(twin.fleet for twin in twins.values()), tables=tables)))


def restore_twins(
    nodes: Mapping[str, object],
    twins: Mapping[str, TwinRunner],
    tables: Mapping[str, np.ndarray],
) -> None:
    """Load :func:`snapshot_twins` nodes in one pass into the same twins
    (same names, same order) freshly built by their banks; each twin's
    window count follows from its restored trace."""
    restore(list(nodes.values()), [twin.fleet for twin in twins.values()], tables=tables)
