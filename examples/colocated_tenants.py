#!/usr/bin/env python3
"""Co-locate two tenants with different data on one tier spectrum.

The paper motivates multiple compressed tiers with multi-tenant diversity
(§3.4): a single zswap algorithm cannot serve a KV cache (mixed
compressibility) and a graph engine (highly compressible CSR data) well
at the same time.  This example co-locates both on the six-tier spectrum
and shows TierScape's analytical model placing each tenant's pages
according to its own data.

Run:
    python examples/colocated_tenants.py
"""

from repro.bench.configs import spectrum_mix
from repro.bench.reporting import format_table
from repro.core.knob import Knob
from repro.core.placement.analytical import AnalyticalModel
from repro.engine import ScenarioSpec, Session
from repro.mem.address_space import AddressSpace
from repro.mem.system import TieredMemorySystem
from repro.workloads import (
    CompositeWorkload,
    KVWorkload,
    PageRankWorkload,
    composite_compressibility,
)


def main() -> None:
    tenants = [
        KVWorkload.memcached_ycsb(num_pages=8192, seed=1),
        PageRankWorkload(scale=16, edge_factor=16, seed=2),
    ]
    profiles = ["mixed", "nci"]  # KV data vs highly compressible graph
    workload = CompositeWorkload(tenants, name="kv+graph", seed=0)
    space = AddressSpace(
        workload.num_pages,
        compressibility=composite_compressibility(tenants, profiles, seed=0),
    )
    system = TieredMemorySystem(spectrum_mix(space), space)
    spec = ScenarioSpec(windows=10, sampling_rate=100, daemon_seed=0)
    model = AnalyticalModel(Knob(0.35))
    session = Session(spec, workload=workload, system=system, policy=model)
    summary = session.run()

    print("Co-located tenants on DRAM + C1/C2/C4/C7/C12\n")
    rows = []
    for i, tenant in enumerate(tenants):
        start, end = workload.tenant_range(i)
        locations = system.page_location[start:end]
        row = {"tenant": tenant.name, "data": profiles[i]}
        for t_idx, tier in enumerate(system.tiers):
            row[tier.name] = int((locations == t_idx).sum())
        rows.append(row)
    print(format_table(rows, title="Per-tenant placement (pages)"))
    print(
        f"combined TCO savings {100 * summary.tco_savings:.1f} % at "
        f"{100 * summary.slowdown:.2f} % slowdown"
    )
    print(
        "\nThe graph tenant's highly compressible pages concentrate in the\n"
        "dense deflate tier; the KV tenant's mixed pages spread across\n"
        "lighter tiers -- per-tenant customization a single zswap pool\n"
        "cannot express."
    )


if __name__ == "__main__":
    main()
