"""Co-located applications (paper §9, research direction v).

Production servers pack multiple tenants onto one machine; the paper
lists multi-tenant support as future work and motivates multiple
compressed tiers with exactly this scenario (§3.4: "multi-tenant cloud
systems host diverse workloads with varying compression ratios").

:class:`CompositeWorkload` co-locates any set of workload generators in
one address space: tenant ``i``'s pages are mapped at a region-aligned
offset, every window concatenates all tenants' per-page counts, and the
per-tenant page ranges are exposed so the harness can report per-tenant
TCO and placement (see ``repro.bench.experiments.exp_colocation``).

Per-tenant data diversity is preserved: :func:`composite_compressibility`
concatenates each tenant's compressibility profile so that, e.g., a
graph tenant's highly compressible pages and a KV tenant's mixed pages
coexist -- the situation where one fixed zswap algorithm is suboptimal.
"""

from __future__ import annotations

import numpy as np

from repro.compression.data import page_compressibilities
from repro.core.seeding import child_seed
from repro.workloads.base import Workload


class CompositeWorkload(Workload):
    """Several tenant workloads sharing one tiered memory system.

    Args:
        tenants: The co-located workload generators.  Each already spans a
            region-aligned number of pages; tenant ``i`` is mapped at the
            cumulative offset of its predecessors.
        name: Display name.
        seed: Accepted for symmetry with other workloads; every tenant
            keeps its own stream.
    """

    def __init__(
        self,
        tenants: list[Workload],
        name: str = "colocated",
        seed: int = 0,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        self.tenants = list(tenants)
        self.offsets: list[int] = []
        total = 0
        for tenant in self.tenants:
            self.offsets.append(total)
            total += tenant.num_pages
        ops = sum(t.ops_per_window for t in self.tenants)
        super().__init__(total, ops, seed)
        self.name = name
        total_ops = sum(t.ops_per_window for t in self.tenants)
        self.write_fraction = (
            sum(t.write_fraction * t.ops_per_window for t in self.tenants)
            / total_ops
        )

    def tenant_range(self, index: int) -> tuple[int, int]:
        """Page-id range ``[start, end)`` of tenant ``index``."""
        start = self.offsets[index]
        return start, start + self.tenants[index].num_pages

    def _generate_counts(self, rng: np.random.Generator) -> np.ndarray:
        # Tenant i's pages sit at offsets[i], right after its predecessors.
        return np.concatenate([tenant.next_window() for tenant in self.tenants])

    def reset(self) -> None:
        super().reset()
        for tenant in self.tenants:
            tenant.reset()


def tenant_placement_rows(
    system, workload: "CompositeWorkload", profiles: list[str]
) -> list[dict]:
    """Per-tenant placement and TCO rows for a finished co-located run.

    Compressed-tier cost is charged by the bytes each tenant actually
    stores there (diverse compressibility is the whole point), byte-
    addressable tiers by resident page count.
    """
    from repro.mem.page import PAGE_SIZE
    from repro.mem.tier import CompressedTier

    rows = []
    dram_cost_per_page = system.dram.media.cost_per_page
    for i, tenant in enumerate(workload.tenants):
        start, end = workload.tenant_range(i)
        locations = system.page_location[start:end]
        cost = 0.0
        row = {"tenant": tenant.name, "profile": profiles[i]}
        for t_idx, tier in enumerate(system.tiers):
            resident = int((locations == t_idx).sum())
            row[tier.name] = resident
            if isinstance(tier, CompressedTier):
                cost += (
                    tier.stored_bytes_in_range(start, end)
                    / PAGE_SIZE
                    * tier.media.cost_per_page
                )
            else:
                cost += resident * tier.media.cost_per_page
        tenant_max = tenant.num_pages * dram_cost_per_page
        row["tco_savings_pct"] = 100 * (1 - cost / tenant_max)
        rows.append(row)
    return rows


def composite_compressibility(
    tenants: list[Workload], profiles: list[str], seed: int = 0
) -> np.ndarray:
    """Concatenated per-tenant compressibility for the shared space.

    Args:
        tenants: The co-located workloads, in mapping order.
        profiles: One compressibility profile name per tenant.
        seed: Base RNG seed (each tenant draws an independent
            SeedSequence substream keyed by its index).
    """
    if len(tenants) != len(profiles):
        raise ValueError("need exactly one profile per tenant")
    parts = [
        page_compressibilities(
            profile, tenant.num_pages, seed=child_seed(seed, i)
        )
        for i, (tenant, profile) in enumerate(zip(tenants, profiles))
    ]
    return np.concatenate(parts)
