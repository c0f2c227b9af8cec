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
relaxed-semantics engine (``engine=fast``, for wide shadow banks). Shadow
answers carry their paired deltas against the deployed twin through the
:mod:`repro.equiv` tolerance metrics, so an operator reading ``/whatif``
sees not only "what would cap=80 have cost" but whether the shadow's
engine is still inside the trust envelope of ``docs/simulator.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..equiv import EquivReport, compare_traces
from ..errors import ConfigurationError
from ..fleet.scenarios import fleet_scenario
from ..runner import canonical_json

__all__ = [
    "ShadowSpec",
    "parse_shadow_spec",
    "parse_shadow_specs",
    "TwinRunner",
    "topology_hash",
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

    Keys: ``cap`` (percent of the deployed fleet budget, > 0),
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
            if not percent > 0.0:
                raise ConfigurationError(f"shadow cap must be > 0, got {value!r}")
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
    parsed = [parse_shadow_spec(s) for s in specs.split(",") if s.strip()]
    if not parsed:
        raise ConfigurationError(f"no shadow specs in {specs!r}")
    names = [s.name for s in parsed]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate shadow specs: {names}")
    return tuple(parsed)


def topology_hash(
    scenario: str,
    n_servers: int,
    periods_per_window: int,
    seed: int,
    budget_frac: float = 1.0,
    engine: str = "reference",
) -> str:
    """Digest of everything that determines a twin's trajectory.

    Two twins with equal topology hashes advanced the same number of
    windows produce identical traces — this is the cache key's first half
    (the second is the closed-window chain position).
    """
    body = json.dumps(
        {
            "scenario": scenario,
            "n_servers": int(n_servers),
            "periods_per_window": int(periods_per_window),
            "seed": int(seed),
            "budget_frac": float(budget_frac),
            "engine": engine,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class TwinRunner:
    """One cumulative twin: a fleet simulation advanced window by window."""

    def __init__(
        self,
        scenario: str,
        n_servers: int,
        periods_per_window: int = 1,
        seed: int = 0,
        budget_frac: float = 1.0,
        engine: str = "reference",
    ):
        if periods_per_window < 1:
            raise ConfigurationError("periods_per_window must be >= 1")
        if not budget_frac > 0.0:
            raise ConfigurationError("budget_frac must be > 0")
        if engine not in ("reference", "fast"):
            raise ConfigurationError(f"unknown twin engine {engine!r}")
        sc = fleet_scenario(scenario)
        if engine == "fast":
            backend = "fast"
        else:  # the SoA backend is bit-identical to the scalar reference
            backend = "soa" if sc.soa_capable else "reference"
        self.scenario = scenario
        self.n_servers = int(n_servers)
        self.periods_per_window = int(periods_per_window)
        self.seed = int(seed)
        self.budget_frac = float(budget_frac)
        self.engine = engine
        self.fleet = sc.build_fleet(backend, n_servers, seed)
        self.fleet.set_budget(self.fleet.budget_w * budget_frac)
        self.windows_advanced = 0

    @classmethod
    def for_shadow(
        cls,
        spec: ShadowSpec,
        deployed_scenario: str,
        n_servers: int,
        periods_per_window: int,
        seed: int,
    ) -> "TwinRunner":
        """A shadow twin: the deployed config with the spec's deltas."""
        return cls(
            scenario=spec.scenario or deployed_scenario,
            n_servers=n_servers,
            periods_per_window=periods_per_window,
            seed=seed,
            budget_frac=spec.budget_frac,
            engine=spec.engine,
        )

    @property
    def topology_hash(self) -> str:
        return topology_hash(
            self.scenario,
            self.n_servers,
            self.periods_per_window,
            self.seed,
            budget_frac=self.budget_frac,
            engine=self.engine,
        )

    def advance(self, n_windows: int = 1) -> None:
        """Advance the cumulative simulation by ``n_windows`` windows."""
        if n_windows < 0:
            raise ConfigurationError("n_windows must be >= 0")
        if n_windows == 0:
            return
        self.fleet.run(n_windows * self.periods_per_window)
        self.windows_advanced += n_windows

    def digest(self) -> str:
        """Canonical digest of the twin's full trace (timing excluded)."""
        return hashlib.sha256(
            canonical_json(self.fleet.trace).encode("utf-8")
        ).hexdigest()

    def summary(self) -> dict:
        """The JSON-able cumulative answer for this twin."""
        trace = self.fleet.trace
        out = {
            "scenario": self.scenario,
            "n_servers": self.n_servers,
            "engine": self.engine,
            "budget_frac": self.budget_frac,
            "windows": self.windows_advanced,
            "rack_periods": len(trace),
            "topology_hash": self.topology_hash,
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
        return compare_traces(
            [deployed.fleet.backend.server_trace(i) for i in range(n)],
            [self.fleet.backend.server_trace(i) for i in range(n)],
            scenario=f"shadow:{self.scenario}",
        )

    def close(self) -> None:
        self.fleet.backend.close()
