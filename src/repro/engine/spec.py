"""Declarative scenario description: one simulator run as data.

A :class:`ScenarioSpec` captures everything a run needs -- tier mix,
workload (plus a size scale), policy and its knobs, telemetry backend,
window count and seeds -- and round-trips through plain dicts, JSON and
TOML.  Every layer above the engine speaks this type: the bench drivers
expand each figure into specs, the fleet expands each node into a spec,
and the CLI runs a spec straight from a file
(``python -m repro run scenario.json``).

Unknown workload / policy / telemetry / mix / solver-backend names are
rejected at construction with a :class:`ValueError` naming the valid
options, so a bad scenario file fails before any simulation state is
built.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.engine.build import MIXES
from repro.mem.page import PAGES_PER_REGION
from repro.policies import validate_policy
from repro.solver import SOLVERS
from repro.telemetry import PROFILER_KINDS
from repro.workloads.registry import WORKLOADS

try:  # Python 3.11+
    import tomllib

    HAS_TOML = True
except ImportError:  # pragma: no cover - exercised only on 3.10
    tomllib = None
    HAS_TOML = False

#: Workload-factory kwargs that scale with a scenario's size factor.
SCALABLE_KEYS = ("num_pages", "ops_per_window")


def scale_workload_kwargs(kwargs: dict, scale: float) -> dict:
    """Apply a size factor to the scalable workload-template keys.

    ``num_pages`` stays region-aligned (and non-empty) so the scaled
    address space still decomposes into whole 2 MB regions.
    """
    scaled = dict(kwargs)
    for key in SCALABLE_KEYS:
        if key not in scaled:
            continue
        value = int(round(scaled[key] * scale))
        if key == "num_pages":
            regions = max(1, value // PAGES_PER_REGION)
            value = regions * PAGES_PER_REGION
        scaled[key] = max(1, value)
    return scaled


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully specified engine run, serializable to dict/JSON/TOML.

    Attributes:
        name: Optional human label (report headers, export rows).
        workload: Registry workload name (see ``repro workloads``).
        workload_kwargs: Extra workload-factory arguments.
        scale: Size factor applied to the scalable workload kwargs
            (``num_pages`` region-aligned; see
            :func:`scale_workload_kwargs`).
        mix: Tier-mix name (:data:`repro.engine.build.MIXES`).
        policy: Policy name (the :mod:`repro.policies` registry).
        percentile: Hotness threshold for threshold-based policies.
        alpha: Analytical knob; required when ``policy == "am"``.
        solver_backend: ILP backend for analytical policies: a
            :data:`repro.solver.SOLVERS` name or ``"auto"``.
        telemetry: Telemetry backend (:data:`repro.telemetry.PROFILER_KINDS`).
        sampling_rate: PEBS period; must be >= 1.
        cooling: Hotness EWMA cooling per window; must be in ``[0, 1]``.
        push_threads: Migration parallelism.
        fast_same_algo_migration: Enable the §7.1 compressed-object copy
            path between same-algorithm compressed tiers.
        recency_windows: Demotions skip pages accessed this recently.
        prefetch_degree: Spatial-prefetcher degree; ``None`` disables.
        windows: Profile windows to run.
        seed: Base RNG seed (workload, data placement).
        daemon_seed: Telemetry RNG seed; ``None`` derives ``seed + 1``
            (the single-node harness convention -- the fleet sets an
            explicitly spawned seed instead).
        faults: Optional chaos schedule as a
            :class:`~repro.chaos.faults.FaultPlan` dict (``events`` list
            plus retry/recovery parameters); ``None`` runs fault-free.
            Validated and normalized eagerly, like every other field.
        adaptive: Optional adaptive-controller knob block as an
            :class:`~repro.adaptive.controller.AdaptiveConfig` dict
            (targets, hysteresis, forecast knobs); ``None`` leaves the
            policy's defaults.  Only policies with a
            ``configure_from_spec`` hook (the ``adaptive`` backend)
            consume it.  Validated and normalized eagerly.
        check_invariants: Run :func:`repro.chaos.invariants.check_capacity`
            every this many windows, counting checks and violations
            (``repro_invariant_checks_total`` /
            ``repro_invariant_violations_total``); 0 (the default) never
            checks and leaves the key out of :meth:`to_dict`.
    """

    name: str = ""
    workload: str = "memcached-ycsb"
    workload_kwargs: dict = field(default_factory=dict)
    scale: float = 1.0
    mix: str = "standard"
    policy: str = "am-tco"
    percentile: float = 25.0
    alpha: float | None = None
    solver_backend: str = "auto"
    telemetry: str = "pebs"
    sampling_rate: int = 100
    cooling: float = 0.5
    push_threads: int = 2
    fast_same_algo_migration: bool = False
    recency_windows: int = 1
    prefetch_degree: int | None = None
    windows: int = 10
    seed: int = 0
    daemon_seed: int | None = None
    faults: dict | None = None
    adaptive: dict | None = None
    check_invariants: int = 0

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"available: {sorted(WORKLOADS)}"
            )
        if self.mix not in MIXES:
            raise ValueError(
                f"unknown mix {self.mix!r}; available: {sorted(MIXES)}"
            )
        # Consult the live policy registry (not an import-time snapshot)
        # so late-registered backends validate while typos still fail
        # before any simulation state is built.
        policy_info = validate_policy(self.policy)
        if self.telemetry not in PROFILER_KINDS:
            raise ValueError(
                f"unknown telemetry {self.telemetry!r}; "
                f"available: {', '.join(PROFILER_KINDS)}"
            )
        if self.solver_backend != "auto" and self.solver_backend not in SOLVERS:
            raise ValueError(
                f"unknown solver backend {self.solver_backend!r}; "
                f"available: auto, {', '.join(sorted(SOLVERS))}"
            )
        if policy_info.requires_alpha and self.alpha is None:
            raise ValueError(
                f"policy {self.policy!r} requires an alpha value"
            )
        if self.windows < 1:
            raise ValueError("windows must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")
        if self.sampling_rate < 1:
            raise ValueError(
                f"sampling_rate must be >= 1, got {self.sampling_rate}"
            )
        if not 0.0 <= self.cooling <= 1.0:
            raise ValueError(
                f"cooling must be in [0, 1], got {self.cooling}"
            )
        if self.check_invariants < 0:
            raise ValueError(
                "check_invariants must be >= 0 (windows between checks; "
                f"0 disables them), got {self.check_invariants}"
            )
        if self.faults is not None:
            from repro.chaos.faults import FaultPlan

            if not isinstance(self.faults, dict):
                raise ValueError(
                    "faults must be a fault-plan object (events + "
                    "retry/recovery parameters)"
                )
            # Validate eagerly and store the normalized dict so equal
            # plans serialize identically.
            object.__setattr__(
                self, "faults", FaultPlan.from_dict(self.faults).to_dict()
            )
        if self.adaptive is not None:
            from repro.adaptive import AdaptiveConfig

            if not isinstance(self.adaptive, dict):
                raise ValueError(
                    "adaptive must be a controller-config object "
                    "(targets, hysteresis, forecast knobs)"
                )
            object.__setattr__(
                self,
                "adaptive",
                AdaptiveConfig.from_dict(self.adaptive).to_dict(),
            )

    # -- derived values ------------------------------------------------------

    def scaled_workload_kwargs(self) -> dict:
        """Workload kwargs with the size factor applied."""
        return scale_workload_kwargs(self.workload_kwargs, self.scale)

    def resolved_daemon_seed(self) -> int:
        """The telemetry seed the session will use."""
        return self.seed + 1 if self.daemon_seed is None else self.daemon_seed

    def fault_plan(self):
        """The scenario's :class:`~repro.chaos.faults.FaultPlan`, if any."""
        if self.faults is None:
            return None
        from repro.chaos.faults import FaultPlan

        return FaultPlan.from_dict(self.faults)

    @property
    def label(self) -> str:
        """Report label: the explicit name, else workload/policy."""
        return self.name or f"{self.workload}/{self.policy}"

    def with_(self, **changes) -> "ScenarioSpec":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        data["workload_kwargs"] = dict(data["workload_kwargs"])
        if not self.check_invariants:
            # Off by default; absent so existing serialized specs (and
            # every digest of them) are unchanged.
            del data["check_invariants"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a scenario file must hold one JSON object")
        return cls.from_dict(data)

    def to_toml(self) -> str:
        """Serialize to TOML (``None`` fields are omitted, TOML has no
        null; :meth:`from_dict` restores their defaults)."""
        lines = []
        tables = []
        for key, value in self.to_dict().items():
            if value is None:
                continue
            if isinstance(value, dict):
                tables.append((key, value))
                continue
            lines.append(f"{key} = {_toml_value(value)}")
        for key, value in tables:
            lines.append("")
            lines.append(f"[{key}]")
            # Lists of dicts become arrays of tables ([[faults.events]]),
            # after the table's scalar keys (TOML requires that order).
            array_tables = []
            for sub_key, sub_value in value.items():
                if isinstance(sub_value, list) and all(
                    isinstance(item, dict) for item in sub_value
                ):
                    array_tables.append((sub_key, sub_value))
                    continue
                lines.append(f"{sub_key} = {_toml_value(sub_value)}")
            for sub_key, items in array_tables:
                for item in items:
                    lines.append("")
                    lines.append(f"[[{key}.{sub_key}]]")
                    for k, v in item.items():
                        if v is None:
                            continue
                        lines.append(f"{k} = {_toml_value(v)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_toml(cls, text: str) -> "ScenarioSpec":
        if not HAS_TOML:
            raise RuntimeError(
                "TOML scenarios need Python >= 3.11 (tomllib); "
                "use JSON on this interpreter"
            )
        return cls.from_dict(tomllib.loads(text))

    def save(self, path) -> Path:
        """Write the spec to ``path`` (format by suffix: .json / .toml)."""
        path = Path(path)
        if path.suffix == ".toml":
            path.write_text(self.to_toml())
        else:
            path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        """Read a spec from a ``.json`` or ``.toml`` file."""
        path = Path(path)
        text = path.read_text()
        if path.suffix == ".toml":
            return cls.from_toml(text)
        return cls.from_json(text)


def _toml_value(value) -> str:
    """Render one scalar as TOML."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)  # TOML basic strings are JSON-compatible
    raise TypeError(f"cannot render {type(value).__name__} as TOML")
