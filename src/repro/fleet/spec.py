"""Fleet description: which nodes run what, at which scale, with which seeds.

A :class:`FleetSpec` expands into one :class:`NodeSpec` per node:

* the workload comes from a named profile
  (:data:`repro.bench.configs.FLEET_PROFILES`), cycled across nodes;
* the address-space scale cycles through ``scales`` so the fleet mixes
  small, standard and large nodes (``num_pages`` is kept region-aligned);
* every node's seed is spawned with ``numpy.random.SeedSequence`` from
  the fleet seed, so node streams are mutually independent and the
  expansion is reproducible from ``(seed, nodes)`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.bench.configs import fleet_profile
from repro.core.seeding import child_seed, spawn_seeds
from repro.engine.spec import ScenarioSpec, scale_workload_kwargs
from repro.policies import validate_policy


@dataclass(frozen=True)
class NodeSpec:
    """One node of the fleet: a workload, a policy and a seed.

    Attributes:
        node_id: Position in the fleet (also the solver-service arrival
            order within each window batch).
        workload: Registry workload name.
        workload_kwargs: Factory kwargs (already scaled for this node).
        policy: Policy name (see :func:`repro.policies.make_policy`).
        mix: Tier-mix name (``standard`` / ``spectrum`` / ``single``).
        alpha: Knob override for analytical policies; ``None`` keeps the
            policy preset (set by the fleet scheduler).
        percentile: Threshold for threshold-based policies.
        windows: Profile windows to run.
        seed: Spawned node seed (workload + system streams).
        memory_gb: Modeled provisioned memory, for the dollar rollup.
        sampling_rate: PEBS period (dense, as in the single-node harness).
    """

    node_id: int
    workload: str
    workload_kwargs: dict = field(default_factory=dict)
    policy: str = "am-tco"
    mix: str = "standard"
    alpha: float | None = None
    percentile: float = 25.0
    windows: int = 8
    seed: int = 0
    memory_gb: float = 256.0
    sampling_rate: int = 100

    def with_alpha(self, alpha: float) -> "NodeSpec":
        """This node, retargeted to an explicit analytical knob."""
        return replace(self, policy="am", alpha=alpha)

    def to_scenario(self) -> ScenarioSpec:
        """This node as an engine scenario.

        The workload kwargs are already scaled (scale 1.0); the daemon
        seed is spawned from the node seed, preserving the fleet's
        historic seed derivation.
        """
        return ScenarioSpec(
            name=f"node-{self.node_id}",
            workload=self.workload,
            workload_kwargs=dict(self.workload_kwargs),
            mix=self.mix,
            policy=self.policy,
            percentile=self.percentile,
            alpha=self.alpha,
            windows=self.windows,
            seed=self.seed,
            sampling_rate=self.sampling_rate,
            daemon_seed=child_seed(self.seed, 1),
        )


@dataclass(frozen=True)
class FleetSpec:
    """Declarative description of a fleet run.

    Attributes:
        nodes: Node count.
        profile: Workload-profile name
            (:data:`repro.bench.configs.FLEET_PROFILES`).
        mix: Tier mix every node uses.
        policy: Placement policy every node uses (the scheduler may
            override analytical policies per node).
        policies: Optional per-node policy cycle; when given it
            overrides ``policy`` and is cycled across nodes like
            ``scales``, so a fleet can mix analytical and
            non-analytical nodes (only the former contact the solver
            service).
        windows: Profile windows per node.
        seed: Fleet base seed; node seeds are spawned from it.
        scales: Address-space scale factors, cycled across nodes.
        node_memory_gb: Modeled memory of a scale-1.0 node.
        percentile: Threshold for threshold-based policies.
        sampling_rate: PEBS period per node.
    """

    nodes: int
    profile: str = "standard"
    mix: str = "standard"
    policy: str = "am-tco"
    policies: tuple[str, ...] | None = None
    windows: int = 8
    seed: int = 0
    scales: tuple[float, ...] = (1.0, 0.5, 2.0)
    node_memory_gb: float = 256.0
    percentile: float = 25.0
    sampling_rate: int = 100

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("a fleet needs at least one node")
        if self.windows < 1:
            raise ValueError("windows must be >= 1")
        if not self.scales or any(s <= 0 for s in self.scales):
            raise ValueError("scales must be positive")
        if self.policies is not None and not self.policies:
            raise ValueError("policies, when given, must name at least one")
        fleet_profile(self.profile)  # validate the name eagerly
        # Policy names validate against the live registry, like
        # ScenarioSpec, so a typo fails before any node is built.
        for policy in self.policies or (self.policy,):
            validate_policy(policy)

    def build(self) -> list[NodeSpec]:
        """Expand into per-node specs with spawned, independent seeds."""
        templates = fleet_profile(self.profile)
        seeds = spawn_seeds(self.seed, self.nodes)
        specs = []
        for i in range(self.nodes):
            workload, kwargs = templates[i % len(templates)]
            scale = self.scales[i % len(self.scales)]
            policy = (
                self.policies[i % len(self.policies)]
                if self.policies
                else self.policy
            )
            specs.append(
                NodeSpec(
                    node_id=i,
                    workload=workload,
                    workload_kwargs=scale_workload_kwargs(kwargs, scale),
                    policy=policy,
                    mix=self.mix,
                    percentile=self.percentile,
                    windows=self.windows,
                    seed=seeds[i],
                    memory_gb=self.node_memory_gb * scale,
                    sampling_rate=self.sampling_rate,
                )
            )
        return specs
