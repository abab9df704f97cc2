#!/usr/bin/env python3
"""SLA-aware knob auto-tuning.

The paper's abstract targets "the best SLA-aware performance per dollar";
this example closes the loop the paper leaves to the operator: the
``adaptive`` policy, run with its
:data:`~repro.adaptive.controller.MIMD_CONFIG` preset, watches each
window's measured slowdown and retunes the analytical model's alpha to
harvest as much TCO as the SLA tolerates.

Run:
    python examples/sla_autotune.py
"""

from repro.adaptive import MIMD_CONFIG
from repro.bench.configs import standard_mix
from repro.bench.reporting import format_series, format_table
from repro.engine import ScenarioSpec, Session
from repro.mem.address_space import AddressSpace
from repro.mem.system import TieredMemorySystem
from repro.workloads.kv import KVWorkload

SLA_TARGETS = [0.02, 0.05, 0.15]  # 2 %, 5 %, 15 % slowdown budgets


def main() -> None:
    print("SLA-aware auto-tuning: Memcached + YCSB, standard mix\n")
    rows = []
    for target in SLA_TARGETS:
        workload = KVWorkload.memcached_ycsb(num_pages=16384, seed=1)
        space = AddressSpace(workload.num_pages, "mixed", seed=1)
        system = TieredMemorySystem(standard_mix(space), space)
        session = Session(
            ScenarioSpec(
                policy="adaptive",
                adaptive=MIMD_CONFIG.with_(target_slowdown=target).to_dict(),
                windows=15,
                seed=2,
                daemon_seed=2,
            ),
            workload=workload,
            system=system,
        )
        summary = session.run()
        controller = session.policy.controller
        # history holds (alpha the window ran at, its slowdown).
        alphas = [alpha for alpha, _ in controller.history]
        rows.append(
            {
                "sla_slowdown_pct": 100 * target,
                "achieved_slowdown_pct": 100 * summary.slowdown,
                "tco_savings_pct": 100 * summary.tco_savings,
                "final_alpha": alphas[-1],
                "violations": controller.violations,
            }
        )
        if target == SLA_TARGETS[1]:
            print(
                format_series(
                    f"alpha trajectory (SLA {100 * target:.0f} %)",
                    range(len(alphas)),
                    alphas,
                    "window",
                    "alpha",
                )
            )
    print(format_table(rows, title="TCO harvested per SLA budget"))
    print(
        "A looser SLA lets the controller push alpha lower and harvest\n"
        "more TCO; a tight SLA keeps placement conservative automatically."
    )


if __name__ == "__main__":
    main()
