#!/usr/bin/env python3
"""Sweep TierScape's TCO/performance knob (paper §6.3, Figure 10).

The analytical model takes a single knob alpha in [0, 1]: 1 tunes for
maximum performance (zero savings), 0 for maximum TCO savings.  This
example sweeps it and prints the achievable frontier for a Redis-like
workload, demonstrating the paper's "calibrated maximization of
performance-per-dollar".

Run:
    python examples/knob_tuning.py
"""

from repro.bench.reporting import format_series, format_table
from repro.engine import ScenarioSpec, Session

ALPHAS = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0]


def main() -> None:
    print("Knob sweep: Redis + YCSB, standard tier mix\n")
    rows = []
    for alpha in ALPHAS:
        spec = ScenarioSpec(
            workload="redis-ycsb", policy="am", alpha=alpha, mix="standard",
            windows=10, seed=0,
        )
        summary = Session(spec).run()
        rows.append(
            {
                "alpha": alpha,
                "tco_savings_pct": 100 * summary.tco_savings,
                "slowdown_pct": 100 * summary.slowdown,
                "perf_per_dollar": summary.relative_performance
                / max(1e-9, 1.0 - summary.tco_savings),
            }
        )
    print(format_table(rows, title="Achievable spectrum"))
    print(
        format_series(
            "frontier",
            [r["tco_savings_pct"] for r in rows],
            [r["slowdown_pct"] for r in rows],
            "savings_pct",
            "slowdown_pct",
        )
    )
    best = max(rows, key=lambda r: r["perf_per_dollar"])
    print(
        f"Best performance-per-dollar at alpha={best['alpha']}: "
        f"{best['tco_savings_pct']:.1f} % savings, "
        f"{best['slowdown_pct']:.2f} % slowdown"
    )


if __name__ == "__main__":
    main()
