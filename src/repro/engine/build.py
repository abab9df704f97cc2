"""Canonical construction path: names -> simulator objects.

This module owns the mapping from declarative names (tier-mix, policy)
to built objects, so that the bench harness, the fleet runner and the
CLI all construct systems and policies through one seam
(:class:`~repro.engine.session.Session`).

Policy construction itself lives in the extensible :mod:`repro.policies`
registry -- :func:`make_policy` here is a re-export, and
:func:`repro.policies.policy_names` lists the registered names.
"""

from __future__ import annotations

from typing import Callable

from repro.bench import configs
from repro.mem.address_space import AddressSpace
from repro.mem.system import TieredMemorySystem
from repro.mem.tier import Tier
from repro.policies import make_policy
from repro.workloads.base import Workload
from repro.workloads.registry import WORKLOADS

__all__ = [
    "MIXES",
    "build_system",
    "make_policy",
]

#: Tier-mix factories by name.
MIXES: dict[str, Callable[[AddressSpace], list[Tier]]] = {
    "standard": configs.standard_mix,
    "spectrum": configs.spectrum_mix,
    "single": configs.single_ct_mix,
}


def build_system(
    workload: Workload,
    mix: str = "standard",
    seed: int = 0,
    fast_same_algo_migration: bool = False,
) -> TieredMemorySystem:
    """Build an address space + tier mix sized for ``workload``.

    The address-space compressibility profile comes from the workload's
    registry entry when it has one, otherwise ``"mixed"``.
    ``fast_same_algo_migration`` turns on the §7.1 compressed-object
    copy path on the built system.
    """
    profile = "mixed"
    for spec in WORKLOADS.values():
        if workload.name.startswith(spec.name.split("-")[0]):
            profile = spec.compressibility_profile
            break
    space = AddressSpace(
        num_pages=workload.num_pages,
        compressibility_profile=profile,
        seed=seed,
    )
    try:
        mix_factory = MIXES[mix]
    except KeyError:
        raise KeyError(
            f"unknown tier mix {mix!r}; available: {sorted(MIXES)}"
        ) from None
    return TieredMemorySystem(
        mix_factory(space),
        space,
        fast_same_algo_migration=fast_same_algo_migration,
    )
