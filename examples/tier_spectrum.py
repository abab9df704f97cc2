#!/usr/bin/env python3
"""Harness a spectrum of five compressed tiers (paper §8.3).

Runs the Waterfall and analytical models over the six-tier mix (DRAM plus
compressed tiers C1, C2, C4, C7, C12 from the paper's characterization)
at three aggressiveness levels and prints where every page ended up --
showing how multiple compressed tiers open placement options a single
zswap pool cannot express.

Run:
    python examples/tier_spectrum.py
"""

from repro.bench.experiments import AGGRESSIVENESS
from repro.bench.reporting import format_table
from repro.engine import ScenarioSpec, Session


def main() -> None:
    print("Spectrum of compressed tiers: Memcached + YCSB")
    print("Tiers: DRAM | C1 zbud/lz4/DRAM | C2 zbud/lz4/Optane "
          "| C4 zsmalloc/lz4/Optane | C7 zsmalloc/lzo/DRAM "
          "| C12 zsmalloc/deflate/Optane\n")
    rows = []
    for model, short in (("waterfall", "WF"), ("am", "AM")):
        for level, params in AGGRESSIVENESS.items():
            spec = ScenarioSpec(
                workload="memcached-ycsb",
                policy=model,
                mix="spectrum",
                windows=12,
                percentile=params["percentile"],
                alpha=params["alpha"],
                seed=0,
            )
            session = Session(spec)
            summary = session.run()
            placement = session.daemon.records[-1].placement
            row = {"config": f"{short}-{level}"}
            for tier, pages in zip(session.system.tiers, placement):
                row[tier.name] = int(pages)
            row["tco_savings_pct"] = 100 * summary.final_tco_savings
            row["slowdown_pct"] = 100 * summary.slowdown
            rows.append(row)
    print(format_table(rows, title="Final placement (pages) by configuration"))
    print(
        "C = conservative, M = moderate, A = aggressive.  The analytical\n"
        "model scatters pages across the spectrum by hotness and\n"
        "compressibility; Waterfall ages them down the ladder."
    )


if __name__ == "__main__":
    main()
