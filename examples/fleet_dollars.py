#!/usr/bin/env python3
"""Translate policy results into fleet dollars.

"Performance per dollar" (the paper's abstract) made concrete: run the
standard-mix policy comparison on a Memcached-class workload, then
project what each policy's TCO savings are worth on a 100 TB fleet.

Run:
    python examples/fleet_dollars.py
"""

from repro.bench.reporting import format_bars, format_table
from repro.core.dollars import compare_policies
from repro.engine import ScenarioSpec, Session

FLEET_GB = 100_000  # 100 TB of Memcached-class memory
POLICIES = ["hemem", "tmo", "waterfall", "am-tco", "am-perf"]


def main() -> None:
    print(f"Fleet projection: {FLEET_GB / 1000:.0f} TB Memcached fleet, "
          "$0.35/GB/month amortized DRAM\n")
    summaries = [
        Session(
            ScenarioSpec(workload="memcached-ycsb", policy=policy,
                         windows=10, seed=0)
        ).run()
        for policy in POLICIES
    ]
    rows = compare_policies(summaries, fleet_memory_gb=FLEET_GB)
    print(format_table(rows, title="Dollars saved per policy"))
    print(format_bars(rows, "policy", "saved_per_month",
                      title="saved_per_month ($)"))
    best = max(rows, key=lambda r: r["saved_per_month"])
    print(
        f"{best['policy']} saves ${best['saved_per_month']:,.0f}/month "
        f"(${12 * best['saved_per_month']:,.0f}/year) at "
        f"{best['slowdown_pct']:.1f} % slowdown."
    )


if __name__ == "__main__":
    main()
