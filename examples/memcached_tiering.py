#!/usr/bin/env python3
"""Compare tiering policies on a Memcached workload (paper Figure 7 style).

Runs HeMem*, GSwap*, TMO*, Waterfall and both analytical-model presets on
the same Memcached/YCSB workload over the standard tier mix and prints the
savings/slowdown frontier.

Run:
    python examples/memcached_tiering.py
"""

from repro.bench.reporting import format_table
from repro.engine import ScenarioSpec, Session

POLICIES = ["hemem", "gswap", "tmo", "waterfall", "am-tco", "am-perf"]


def main() -> None:
    print("Tiering policy comparison: Memcached + YCSB, standard tier mix")
    print("(DRAM + Optane NVMM + CT-1 lzo/DRAM + CT-2 zstd/Optane)\n")
    rows = []
    for policy in POLICIES:
        spec = ScenarioSpec(
            workload="memcached-ycsb", policy=policy, mix="standard",
            windows=12, seed=0,
        )
        summary = Session(spec).run()
        rows.append(
            {
                "policy": summary.policy,
                "tco_savings_pct": 100 * summary.tco_savings,
                "slowdown_pct": 100 * summary.slowdown,
                "p999_latency_ns": summary.p999_latency_ns,
                "ct_faults": summary.total_faults,
            }
        )
    print(format_table(rows, title="Savings vs slowdown frontier"))

    best = max(rows, key=lambda r: r["tco_savings_pct"])
    print(
        f"Most TCO saved: {best['policy']} "
        f"({best['tco_savings_pct']:.1f} % at "
        f"{best['slowdown_pct']:.1f} % slowdown)"
    )
    cheapest = min(rows, key=lambda r: r["slowdown_pct"])
    print(
        f"Least slowdown: {cheapest['policy']} "
        f"({cheapest['slowdown_pct']:.2f} % at "
        f"{cheapest['tco_savings_pct']:.1f} % savings)"
    )


if __name__ == "__main__":
    main()
