#!/usr/bin/env python3
"""Quickstart: tier an application across DRAM, NVMM and two compressed
tiers with TierScape's analytical model.

Builds a small simulated application (a Memcached-like KV store), attaches
the paper's standard tier mix, runs the TS-Daemon for a few profile
windows, and prints what happened: where the pages went, how much memory
TCO was saved, and what it cost in performance.

Run:
    python examples/quickstart.py
"""

from repro.bench.configs import standard_mix
from repro.bench.reporting import format_table
from repro.core.knob import Knob
from repro.core.placement.analytical import AnalyticalModel
from repro.engine import ScenarioSpec, Session
from repro.mem.address_space import AddressSpace
from repro.mem.system import TieredMemorySystem
from repro.workloads.kv import KVWorkload


def main() -> None:
    # 1. The application: a 64 MB Memcached-like store under YCSB traffic.
    workload = KVWorkload.memcached_ycsb(num_pages=16384, seed=42)

    # 2. Its address space, with a per-page compressibility profile.
    space = AddressSpace(
        num_pages=workload.num_pages, compressibility_profile="mixed", seed=42
    )

    # 3. The paper's standard tier mix: DRAM + Optane NVMM + CT-1 (a fast,
    #    DRAM-backed lzo tier) + CT-2 (a dense, Optane-backed zstd tier).
    system = TieredMemorySystem(standard_mix(space), space)

    # 4. TierScape's analytical placement model with a mid-range knob.
    model = AnalyticalModel(Knob(0.5))

    # 5. Run ten profile windows: profile -> solve ILP -> filter -> migrate.
    #    The spec sets the loop (windows, PEBS sampling, daemon seed); the
    #    objects built above override its workload, system and policy.
    spec = ScenarioSpec(windows=10, sampling_rate=100, daemon_seed=7)
    session = Session(spec, workload=workload, system=system, policy=model)
    summary = session.run()

    print("TierScape quickstart")
    print("====================\n")
    rows = [
        {
            "tier": tier.name,
            "resident_pages": int(count),
            "pool_pages": tier.used_pages if tier.is_compressed else "-",
            "cost_share_pct": 100 * tier.cost() / system.tco_max(),
        }
        for tier, count in zip(system.tiers, system.placement_counts())
    ]
    print(format_table(rows, title="Final placement"))
    print(f"memory TCO savings : {100 * summary.tco_savings:6.2f} %")
    print(f"performance cost   : {100 * summary.slowdown:6.2f} % slowdown")
    print(f"compressed faults  : {summary.total_faults}")
    print(f"ILP solver time    : {summary.solver_ns / 1e6:.2f} ms total")
    print(
        "\nTry a different knob: Knob(0.9) favours performance, "
        "Knob(0.1) favours TCO savings."
    )


if __name__ == "__main__":
    main()
