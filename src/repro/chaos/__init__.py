"""repro.chaos -- deterministic fault injection and resilience.

Chaos for a *simulator* is only honest if it keeps the simulator's
determinism contract, so every piece of this package is seeded and
replayable:

* :mod:`repro.chaos.faults` -- :class:`FaultPlan` (scheduled faults +
  recovery parameters, declared under a scenario's ``faults`` key) and
  :class:`FaultInjector` (the per-node live state: seeded jitter
  substream, capacity-shock bookkeeping, buffered fault/recovery notes),
* :mod:`repro.chaos.policies` -- :class:`RetryPolicy` (exponential
  backoff charged to virtual solver time), :class:`DegradationController`
  (the ``primary -> waterfall -> greedy -> frozen`` ladder with
  hysteresis) and :class:`ResilientModel` (the placement-model wrapper
  the session installs when a plan is present),
* :mod:`repro.chaos.checkpoint` -- picklable node snapshots for fleet
  crash/resume,
* :mod:`repro.chaos.invariants` -- the capacity/accounting assertions
  every fault sequence must preserve.

Invariants (the package's determinism contract):

* **Bit-identical replay.** Same scenario + same :class:`FaultPlan` =>
  identical events, records and summaries, run to run and under any
  fleet ``jobs`` count.  All chaos randomness (retry jitter) draws from
  ``child_seed(plan.seed, node + 1)``; no wall-clock value ever feeds a
  decision.
* **Virtual-time charging.** Retry backoff and degraded solves charge
  the same virtual clocks (``solver_ns``) real solves do, so chaos
  changes *results*, never reproducibility.
* **Crash-transparency.** Resuming a node from its checkpoint yields
  the same records, summary and merged fleet rollup as never crashing:
  a crash discards work after the checkpoint, never state before it.
  Chaos-specific counters (checkpoints written, resumes) are the only
  metrics allowed to differ.
* **Capacity safety.** No fault sequence may corrupt accounting: failed
  stores are never charged, partial waves roll back, capacity shocks
  squeeze admission but never drop resident data
  (:func:`~repro.chaos.invariants.check_capacity`).
"""

from repro.chaos.checkpoint import (
    CheckpointError,
    capture_session,
    load_checkpoint,
    restore_session,
    save_checkpoint,
)
from repro.chaos.faults import FAULT_KINDS, FaultInjector, FaultPlan, FaultSpec
from repro.chaos.invariants import check_capacity
from repro.chaos.policies import (
    DEGRADATION_MODES,
    DegradationController,
    ResilientModel,
    RetryPolicy,
)

__all__ = [
    "DEGRADATION_MODES",
    "CheckpointError",
    "FAULT_KINDS",
    "DegradationController",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "ResilientModel",
    "RetryPolicy",
    "capture_session",
    "check_capacity",
    "load_checkpoint",
    "restore_session",
    "save_checkpoint",
]
