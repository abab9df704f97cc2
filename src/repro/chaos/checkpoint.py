"""Node checkpoint/resume: pickle the simulation, not the harness.

A checkpoint is one ``pickle.dumps`` of the session's *deterministic*
simulation state: workload stream (mid-RNG), tiered system, placement
model (with its injector), profiler, migration stats, window records and
a metrics snapshot.  Everything harness-shaped -- the observability
bundle, event hooks, the streaming sink -- is deliberately excluded:
those hold process-local resources (registries, open files, closures)
and are rebuilt fresh on restore.  A replayed trace workload is carried
by reference (path, fingerprint, cursor) rather than its windows, so
restoring it needs the unchanged trace file
(:class:`~repro.workloads.trace.TraceWorkload`).

The resume contract: a session restored from the window-``k`` checkpoint
and run to completion produces byte-identical records, summaries and
fault events to the uninterrupted run -- the crash only discards work
after ``k``, never state before it.  Metrics survive because the
checkpoint carries a registry *snapshot* which is merged into the fresh
registry on restore, so counters accumulated before the crash are not
double- or under-counted.

Format v2 (the array path): the columnar page table dominates a
checkpoint's bytes, and pushing megabyte ndarrays through pickle's memo
walk dominates its time.  A v2 blob is a small envelope ``{"version",
"graph", "columns"}`` where ``graph`` is the session graph pickled under
:class:`~repro.mem.pagetable.light_pickle` (every
:class:`~repro.mem.pagetable.PageTable` serialized shape-only) and
``columns`` carries each stripped table's columns as raw ``np.save``
buffers, re-attached in graph-traversal order on restore.  v1 blobs
(pre-SoA object graphs) still load through the legacy ``__setstate__``
converters on Region/RegionSet/AddressSpace/CompressedTier/Zsmalloc.
"""

from __future__ import annotations

import io
import pickle
from pathlib import Path

import numpy as np

from repro.mem.pagetable import light_pickle

CHECKPOINT_VERSION = 2


def _save_columns(table) -> dict[str, bytes]:
    """One table's columns as raw ``np.save`` buffers."""
    out = {}
    for name, arr in table.columns().items():
        buf = io.BytesIO()
        np.save(buf, arr, allow_pickle=False)
        out[name] = buf.getvalue()
    return out


def _load_columns(blobs: dict[str, bytes]) -> dict[str, np.ndarray]:
    return {
        name: np.load(io.BytesIO(buf), allow_pickle=False)
        for name, buf in blobs.items()
    }


def _wrapped_models(policy) -> list:
    """The policy plus any models a resilient wrapper delegates to."""
    models = [policy]
    primary = getattr(policy, "primary", None)
    if primary is not None:
        models.append(primary)
        models.extend(getattr(policy, "_fallbacks", {}).values())
    return models


def capture_session(session, rows=()) -> bytes:
    """Serialize a session's simulation state to one checkpoint blob.

    Args:
        session: A live :class:`~repro.engine.session.Session`.
        rows: Caller-accumulated per-window payloads to carry across the
            resume (the fleet worker's export rows).
    """
    models = _wrapped_models(session.policy)
    saved_obs = [(model, model.obs) for model in models]
    for model in models:
        model.obs = None
    try:
        state = {
            "spec": session.spec.to_dict(),
            "windows_done": len(session.daemon.records),
            "workload": session.workload,
            "system": session.system,
            "policy": session.policy,
            "profiler": session.daemon.profiler,
            "prefetcher": session.daemon.prefetcher,
            "engine_stats": session.daemon.engine.stats,
            "prev_faults": session.daemon._prev_faults,
            "latencies": session.daemon._latencies,
            "records": session.daemon.records,
            "fault_history": session._fault_history,
            "injector": session.injector,
            "metrics": session.obs.registry.snapshot(),
            "rows": list(rows),
        }
        with light_pickle() as lp:
            graph = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "version": CHECKPOINT_VERSION,
            "graph": graph,
            "columns": [_save_columns(table) for table in lp.tables],
        }
        return pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        for model, obs in saved_obs:
            model.obs = obs


def restore_session(blob: bytes, *, hooks=(), obs=None, sink=None):
    """Rebuild a runnable session from a checkpoint blob.

    The session is constructed through the normal
    :class:`~repro.engine.session.Session` path with the checkpointed
    objects passed as prebuilt overrides, then its daemon's mutable
    loop state (profiler, stats, records) is swapped for the
    checkpointed versions.  A fresh observability bundle absorbs the
    checkpoint's metrics snapshot.

    Returns:
        ``(session, rows, windows_done)`` -- the restored session, the
        caller rows captured with the checkpoint, and how many windows
        the checkpoint had completed.

    Raises:
        TraceMismatchError: The session replays a trace file (checkpointed
            by reference) that is gone or was re-recorded.
    """
    from repro.engine.session import Session
    from repro.engine.spec import ScenarioSpec

    state = pickle.loads(blob)
    version = state.get("version")
    if version == 2:
        with light_pickle() as lp:
            graph = pickle.loads(state["graph"])
        if len(lp.tables) != len(state["columns"]):
            raise ValueError(
                f"checkpoint carries {len(state['columns'])} column sets "
                f"but the graph holds {len(lp.tables)} page tables"
            )
        for table, blobs in zip(lp.tables, state["columns"]):
            table.attach_columns(_load_columns(blobs))
        state = graph
    elif version != 1:
        # v1 blobs are the bare state dict; the legacy ``__setstate__``
        # converters already rebuilt its object graph columnar by the
        # time pickle.loads returned.
        raise ValueError(
            f"checkpoint version {version!r} not in (1, {CHECKPOINT_VERSION})"
        )
    spec = ScenarioSpec.from_dict(state["spec"])
    session = Session(
        spec,
        workload=state["workload"],
        system=state["system"],
        policy=state["policy"],
        hooks=hooks,
        obs=obs,
        sink=sink,
        injector=state["injector"],
    )
    daemon = session.daemon
    daemon.profiler = state["profiler"]
    if state["prefetcher"] is not None:
        daemon.prefetcher = state["prefetcher"]
    daemon.engine.stats = state["engine_stats"]
    daemon._prev_faults = state["prev_faults"]
    daemon._latencies = state["latencies"]
    daemon.records = state["records"]
    session._fault_history = state["fault_history"]
    if session.obs.registry.enabled and state["metrics"]:
        session.obs.registry.merge_snapshot(state["metrics"])
    return session, list(state["rows"]), int(state["windows_done"])


def save_checkpoint(path, blob: bytes) -> Path:
    """Write a checkpoint blob to disk (atomic rename)."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(blob)
    tmp.replace(path)
    return path


def load_checkpoint(path) -> bytes:
    """Read a checkpoint blob from disk."""
    return Path(path).read_bytes()
