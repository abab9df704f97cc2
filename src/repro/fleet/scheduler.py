"""Fleet scheduler: allocate the alpha knob per node under a DRAM budget.

A single node picks alpha for itself (§6.3); a fleet operator instead has
a *global* DRAM budget -- "across these N nodes, average at most
``budget_alpha`` worth of DRAM residency" -- and wants to spend it where
it buys the most performance.  :class:`FleetScheduler` water-fills the
budget across nodes:

* each node has a weight (its provisioned memory: big nodes move the
  fleet average more) and a priority (latency-sensitive service classes
  deserve DRAM more than batch jobs);
* the raw allocation is proportional to priority, then clamped into
  ``[min_alpha, max_alpha]`` with the clamp slack redistributed over the
  unclamped nodes until the memory-weighted mean hits the budget.

:meth:`rebalance` closes the loop across fleet runs by taking one step
of the single-node alpha controller per node -- an
:class:`~repro.adaptive.controller.AdaptiveController` running the
:data:`~repro.adaptive.controller.MIMD_CONFIG` preset (back off
violators sharply, harvest from comfortable nodes) -- then re-projecting
onto the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adaptive.controller import MIMD_CONFIG, AdaptiveController
from repro.core.knob import Knob
from repro.fleet.spec import NodeSpec

#: Default per-workload-class priorities: interactive KV serving ranks
#: above stores, which rank above batch analytics.
DEFAULT_PRIORITIES = {
    "memcached-ycsb": 2.0,
    "memcached-memtier": 2.0,
    "redis-ycsb": 1.5,
    "masim": 1.0,
    "xsbench": 0.75,
    "bfs": 0.5,
    "pagerank": 0.5,
    "graphsage": 0.75,
}


@dataclass
class FleetScheduler:
    """Water-filling alpha allocator for a fleet of nodes.

    Attributes:
        budget_alpha: Target memory-weighted mean alpha across the fleet
            (1.0 = everyone may stay in DRAM; small values force fleet-
            wide TCO harvesting).
        min_alpha / max_alpha: Per-node clamp range.
        priorities: Workload-name -> priority overrides (missing names
            fall back to :data:`DEFAULT_PRIORITIES`, then 1.0).
    """

    budget_alpha: float
    min_alpha: float = 0.05
    max_alpha: float = 1.0
    priorities: dict[str, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.budget_alpha <= 1.0:
            raise ValueError("budget_alpha must be in (0, 1]")
        if not 0.0 <= self.min_alpha <= self.max_alpha <= 1.0:
            raise ValueError("need 0 <= min_alpha <= max_alpha <= 1")
        if self.budget_alpha < self.min_alpha:
            raise ValueError("budget_alpha below min_alpha is infeasible")

    def _priority(self, spec: NodeSpec) -> float:
        table = self.priorities or {}
        if spec.workload in table:
            return table[spec.workload]
        return DEFAULT_PRIORITIES.get(spec.workload, 1.0)

    def _waterfill(
        self, base: dict[int, float], weights: dict[int, float]
    ) -> dict[int, float]:
        """Project ``base`` shapes onto the budget's weighted mean.

        Uniform multiplicative scaling preserves the relative shape of
        ``base``; nodes whose scaled value leaves ``[min_alpha,
        max_alpha]`` are clamped and removed from the pool, and the
        remaining budget mass is re-scaled over the free nodes --
        iterating until no node saturates.  Whenever the budget mean is
        reachable inside the clamp box (and some free node has positive
        base), the returned allocation's weighted mean over *these*
        nodes hits ``budget_alpha``.
        """
        total_weight = sum(weights.values())
        alphas = {nid: 0.0 for nid in base}
        free = set(base)
        mass = self.budget_alpha * total_weight
        for _ in range(len(base) + 1):
            if not free:
                break
            denom = sum(weights[n] * base[n] for n in sorted(free))
            scale = mass / denom if denom else 0.0
            clamped = []
            for nid in sorted(free):
                raw = base[nid] * scale
                if raw <= self.min_alpha or raw >= self.max_alpha:
                    alphas[nid] = min(
                        self.max_alpha, max(self.min_alpha, raw)
                    )
                    clamped.append(nid)
            if not clamped:
                for nid in free:
                    alphas[nid] = base[nid] * scale
                break
            for nid in clamped:
                free.discard(nid)
                mass -= alphas[nid] * weights[nid]
            mass = max(0.0, mass)
        return alphas

    def allocate(self, specs: list[NodeSpec]) -> dict[int, Knob]:
        """Per-node knobs whose weighted mean meets the budget.

        Returns:
            ``node_id -> Knob``; apply with :meth:`NodeSpec.with_alpha`.
        """
        if not specs:
            raise ValueError("need at least one node spec")
        weights = {s.node_id: s.memory_gb for s in specs}
        priorities = {s.node_id: self._priority(s) for s in specs}
        # Water-fill: proportional-to-priority shares, iteratively
        # clamping saturated nodes and re-scaling the free ones.
        alphas = self._waterfill(priorities, weights)
        return {nid: Knob.clamped(a) for nid, a in alphas.items()}

    def apply(self, specs: list[NodeSpec]) -> list[NodeSpec]:
        """Allocate and rewrite the specs to per-node analytical knobs."""
        knobs = self.allocate(specs)
        return [s.with_alpha(knobs[s.node_id].alpha) for s in specs]

    def rebalance(
        self,
        specs: list[NodeSpec],
        alphas: dict[int, float],
        slowdowns: dict[int, float],
        target_slowdown: float,
    ) -> dict[int, Knob]:
        """Shift alpha toward SLA violators, holding the fleet budget.

        Args:
            specs: The fleet's node specs (for weights).
            alphas: Current per-node alpha.
            slowdowns: Measured fractional slowdown per node.
            target_slowdown: The fleet-wide SLA.

        Returns:
            Re-projected ``node_id -> Knob`` allocation whose weighted
            mean over the rebalanced nodes meets ``budget_alpha``
            whenever that mean is reachable inside the clamp range.
        """
        fleet_weights = {s.node_id: s.memory_gb for s in specs}
        proposed = {}
        for nid in sorted(alphas):
            if nid not in fleet_weights:
                continue  # stale node: not part of this fleet anymore
            controller = AdaptiveController(
                MIMD_CONFIG.with_(
                    target_slowdown=target_slowdown,
                    start_alpha=min(
                        self.max_alpha, max(self.min_alpha, alphas[nid])
                    ),
                    min_alpha=self.min_alpha,
                    max_alpha=self.max_alpha,
                )
            )
            controller.observe(0.0, mean_slowdown=slowdowns.get(nid, 0.0))
            proposed[nid] = controller.alpha
        if not proposed:
            return {}
        # Project back onto the budget over the nodes actually being
        # rebalanced: normalizing by the full fleet's weight when only a
        # subset is present would skew the mean low and over-allocate,
        # and a single post-scale clamp would silently break the
        # projection whenever any node saturates -- so re-project
        # iteratively, clamping and re-scaling like `allocate`.
        weights = {nid: fleet_weights[nid] for nid in proposed}
        alphas_out = self._waterfill(proposed, weights)
        return {nid: Knob.clamped(a) for nid, a in alphas_out.items()}
