"""Arena description: the policy x workload x α grid, expanded to cells.

An :class:`ArenaSpec` validates its axes eagerly (policy names against
the live :mod:`repro.policies` registry, workloads against the workload
registry) and expands into one :class:`ArenaCell` per grid point.  Only
α-requiring policies fan out over the α axis; the rest get a single
cell.  Every cell's seed is spawned from the arena seed with
``numpy.random.SeedSequence`` in expansion order, so the grid is
reproducible from ``(seed, axes)`` alone and independent of how many
worker processes run it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.seeding import spawn_seeds
from repro.engine.spec import ScenarioSpec
from repro.policies import validate_policy
from repro.workloads.registry import WORKLOADS

#: The default workload axis: a stable hot-set microbenchmark, a paper
#: Table 2 service, and the adversarial thrash stressor.
DEFAULT_WORKLOADS = ("masim", "memcached-ycsb", "pingpong")

#: The default policy axis of ``python -m repro arena``.
DEFAULT_POLICIES = ("waterfall", "am-tco", "tpp", "jenga", "obase")


@dataclass(frozen=True)
class ArenaCell:
    """One grid point: a policy (at one α) on one workload."""

    cell_id: str
    policy: str
    workload: str
    alpha: float | None
    seed: int
    scenario: ScenarioSpec


@dataclass(frozen=True)
class ArenaSpec:
    """Declarative description of one arena sweep.

    Attributes:
        policies: Policy axis (live-registry names).
        workloads: Workload axis (registry names).
        alphas: α axis; only policies with ``requires_alpha`` expand
            over it.
        mix: Tier mix every cell uses.
        windows: Profile windows per cell.
        scale: Size factor applied to each workload's scalable kwargs.
        percentile: Threshold knob for threshold-based policies.
        seed: Arena base seed; cell seeds are spawned from it.
        node_memory_gb: Modeled per-node memory for the dollar column.
        workload_kwargs: Extra factory kwargs applied to every cell
            (tests shrink cells with ``num_pages``/``ops_per_window``).
        target_slowdown: When set, every ``adaptive`` cell's scenario
            gets this p99 SLA budget (an ``adaptive`` knob block); other
            policies are unaffected.  ``None`` keeps the controller
            defaults.
        adaptive: Full adaptive knob block applied to ``adaptive``
            cells (an :class:`~repro.adaptive.controller.AdaptiveConfig`
            dict); overrides ``target_slowdown`` when both are given.
        check_invariants: Every cell's scenario runs the accounting
            invariants every this many windows (0: never); see
            :attr:`~repro.engine.spec.ScenarioSpec.check_invariants`.
    """

    policies: tuple[str, ...] = DEFAULT_POLICIES
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS
    alphas: tuple[float, ...] = (0.3, 0.7)
    mix: str = "standard"
    windows: int = 8
    scale: float = 0.25
    percentile: float = 25.0
    seed: int = 0
    node_memory_gb: float = 256.0
    workload_kwargs: dict = field(default_factory=dict)
    target_slowdown: float | None = None
    adaptive: dict | None = None
    check_invariants: int = 0

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("an arena needs at least one policy")
        if not self.workloads:
            raise ValueError("an arena needs at least one workload")
        for policy in self.policies:
            info = validate_policy(policy)
            if info.requires_alpha and not self.alphas:
                raise ValueError(
                    f"policy {policy!r} requires alphas, but none given"
                )
        for workload in self.workloads:
            if workload not in WORKLOADS:
                raise ValueError(
                    f"unknown workload {workload!r}; "
                    f"available: {sorted(WORKLOADS)}"
                )
        if self.windows < 1:
            raise ValueError("windows must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")
        if self.check_invariants < 0:
            raise ValueError("check_invariants must be >= 0")
        if self.target_slowdown is not None and self.target_slowdown <= 0:
            raise ValueError("target_slowdown must be > 0")
        if self.adaptive is not None:
            from repro.adaptive import AdaptiveConfig

            object.__setattr__(
                self,
                "adaptive",
                AdaptiveConfig.from_dict(self.adaptive).to_dict(),
            )

    def _adaptive_block(self) -> dict | None:
        """The adaptive knob block ``adaptive`` cells receive.

        ``target_slowdown`` selects the ``mean`` signal: the arena's
        ``sla_violations`` verdict is counted on mean window slowdown,
        and the controller must steer by the same signal it is judged
        on.
        """
        if self.adaptive is not None:
            return dict(self.adaptive)
        if self.target_slowdown is not None:
            return {
                "target_slowdown": self.target_slowdown,
                "signal": "mean",
            }
        return None

    def to_dict(self) -> dict:
        data = asdict(self)
        data["policies"] = list(self.policies)
        data["workloads"] = list(self.workloads)
        data["alphas"] = list(self.alphas)
        data["workload_kwargs"] = dict(self.workload_kwargs)
        if not self.check_invariants:
            # Off by default; absent so manifests and leaderboards of
            # arenas without it are unchanged.
            del data["check_invariants"]
        return data

    def grid(self) -> list[tuple[str, str, float | None]]:
        """The expansion order: policy-major, workload, then α."""
        points: list[tuple[str, str, float | None]] = []
        for policy in self.policies:
            info = validate_policy(policy)
            alphas = self.alphas if info.requires_alpha else (None,)
            for workload in self.workloads:
                for alpha in alphas:
                    points.append((policy, workload, alpha))
        return points

    def cells(self) -> list[ArenaCell]:
        """Expand into per-cell scenario specs with spawned seeds."""
        points = self.grid()
        seeds = spawn_seeds(self.seed, len(points))
        cells = []
        adaptive_block = self._adaptive_block()
        for (policy, workload, alpha), seed in zip(points, seeds):
            tag = f"{policy}@{alpha:g}" if alpha is not None else policy
            cell_id = f"{tag}/{workload}"
            scenario = ScenarioSpec(
                name=cell_id,
                workload=workload,
                workload_kwargs=dict(self.workload_kwargs),
                scale=self.scale,
                mix=self.mix,
                policy=policy,
                percentile=self.percentile,
                alpha=alpha,
                windows=self.windows,
                seed=seed,
                adaptive=adaptive_block if policy == "adaptive" else None,
                check_invariants=self.check_invariants,
            )
            cells.append(
                ArenaCell(
                    cell_id=cell_id,
                    policy=policy,
                    workload=workload,
                    alpha=alpha,
                    seed=seed,
                    scenario=scenario,
                )
            )
        return cells
