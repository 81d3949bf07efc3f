"""The event taxonomy of the simulation trace and the harness bus.

Every instrumented layer emits events of these types into the cell's
:class:`~repro.obs.export.JsonlTraceWriter`, and the sweep harness onto
the :class:`~repro.obs.bus.TraceBus`; exporters and the ``obs summarize``
rollups key on them.  Producers pass the type string plus flat,
JSON-serializable fields — the canonical field set per type is
documented here (and in DESIGN.md Sec. 8) so consumers can rely on it:

Request lifecycle (``disk``, ``file`` where applicable, ``internal``)
    * ``request.submit``   — a job entered a drive's queue
      (``disk``, ``size_mb``, ``internal``, ``file``)
    * ``request.dispatch`` — service started
      (``disk``, ``wait_s``, ``service_s``, ``internal``)
    * ``request.complete`` — service finished
      (``disk``, ``size_mb``, ``sojourn_s``, ``internal``)
    * ``request.fail``     — a job was failed (disk death / dead target)
      (``disk``, ``internal``, ``reason``)
    * ``request.redirect`` — degraded-mode redirect to an alternate copy
      (``file``, ``from``, ``to``)
    * ``request.retry``    — a failed user request was resubmitted
      (``file``, ``attempt``)
    * ``request.reconstruct`` — degraded k-of-n read fanned across a
      redundancy group's survivors (``file``, ``disk``, ``legs``)

Disk state (``disk`` always)
    * ``disk.transition.begin`` — spindle speed change started
      (``disk``, ``from``, ``to``)
    * ``disk.transition.end``   — speed change finished (``disk``, ``speed``)
    * ``disk.replace``          — replacement spindle installed
      (``disk``, ``speed``)

Fault lifecycle (``disk`` always)
    * ``fault.inject``           — a disk failed (``disk``, ``dropped_jobs``)
    * ``fault.data_loss``        — the failure caught files with no live
      copy (``disk``, ``files_lost``)
    * ``fault.rebuild.start``    — rebuild stream submitted
      (``disk``, ``size_mb``)
    * ``fault.rebuild.complete`` — disk back in service (``disk``)
    * ``fault.domain.outage``    — a whole fault domain failed at once
      (``domain``, ``disks_failed``)

Redundancy groups
    * ``redundancy.group.state`` — a group changed health class
      (``group``, ``from``, ``to`` over healthy/degraded/critical/lost)

Policy decisions
    * ``policy.spin_down``     — idleness threshold expired (``disk``)
    * ``policy.spin_up``       — demand spin-up triggered
      (``disk``, ``backlog``)
    * ``policy.cache.hit`` / ``policy.cache.miss`` — MAID cache outcome
      (``file``, ``disk``)
    * ``policy.cache.insert``  — MAID cache copy landed (``file``, ``disk``)
    * ``policy.epoch``         — PDC reorganization ran
      (``tick``, ``movers``, ``moved``)
    * ``policy.migrate``       — one file migration charged
      (``file``, ``src``, ``dst``, ``size_mb``)
    * ``policy.stripe.fanout`` — striped request fanned out
      (``file``, ``chunks``)

Engine lifecycle
    * ``engine.start`` — the run began (``policy``, ``n_disks``,
      ``n_requests``)
    * ``engine.stop``  — the run ended (``events``, ``duration_s``)

Harness faults (sweep-runner resilience; emitted at ``t=0.0`` because
they happen outside simulated time, ordered by ``seq``)
    * ``harness.checkpoint.hit`` — a cell was restored from a sweep
      checkpoint instead of re-running (``cell``)
    * ``harness.cell.retry``     — a failed/crashed cell was re-queued
      (``cell``, ``attempt``, ``reason``)
    * ``harness.cell.timeout``   — a cell exceeded its wall-clock limit
      and was killed (``cell``, ``timeout_s``)
    * ``harness.cell.salvage``   — an innocent in-flight cell was
      re-queued after a pool breakage, at the same attempt (``cell``)
    * ``harness.pool.respawn``   — the worker pool broke (or was killed
      on a timeout) and was recreated (``respawn``, ``requeued``)

Harness spans (sweep progress; also ``t=0.0``, ordered by ``seq`` —
the live status feed of ``repro sweep --status-out`` folds these)
    * ``harness.sweep.start``        — a sweep batch began
      (``cells``, ``jobs``)
    * ``harness.sweep.finish``       — the batch completed
      (``cells``, ``cells_run``)
    * ``harness.cell.start``         — one cell (or shard sub-cell) was
      dispatched to a worker (``cell``, ``index``, ``total``,
      ``attempt``)
    * ``harness.cell.finish``        — the cell's result landed
      (``cell``, ``index``, ``events``, ``wall_s``)
    * ``harness.checkpoint.publish`` — the checkpoint journal was
      atomically republished (``cells``)
    * ``harness.shard.merge``        — shard partials were merged into
      one result (``policy``, ``n_disks``, ``shards``, ``wall_s``)

The constants exist so consumers and tests never hard-code strings;
producers import them too, keeping the taxonomy single-sourced.  The
three hot request events — ``request.submit``, ``request.dispatch`` and
``request.complete``, nearly every record of a traced run — are written
through the typed :class:`~repro.obs.export.JsonlTraceWriter` methods
of the same names (``request_submit`` and so on), which take the fields
above positionally and write exactly the bytes ``emit`` would; every
other type goes through ``emit``.
"""

from __future__ import annotations

from typing import Any, NamedTuple

__all__ = [
    "ALL_EVENT_TYPES",
    "TraceEvent",
    "REQUEST_SUBMIT", "REQUEST_DISPATCH", "REQUEST_COMPLETE",
    "REQUEST_FAIL", "REQUEST_REDIRECT", "REQUEST_RETRY",
    "REQUEST_RECONSTRUCT",
    "DISK_TRANSITION_BEGIN", "DISK_TRANSITION_END", "DISK_REPLACE",
    "FAULT_INJECT", "FAULT_DATA_LOSS",
    "FAULT_REBUILD_START", "FAULT_REBUILD_COMPLETE",
    "FAULT_DOMAIN_OUTAGE", "REDUNDANCY_GROUP_STATE",
    "POLICY_SPIN_DOWN", "POLICY_SPIN_UP",
    "POLICY_CACHE_HIT", "POLICY_CACHE_MISS", "POLICY_CACHE_INSERT",
    "POLICY_EPOCH", "POLICY_MIGRATE", "POLICY_STRIPE_FANOUT",
    "ENGINE_START", "ENGINE_STOP",
    "HARNESS_CHECKPOINT_HIT", "HARNESS_CELL_RETRY", "HARNESS_CELL_TIMEOUT",
    "HARNESS_CELL_SALVAGE", "HARNESS_POOL_RESPAWN",
    "HARNESS_SWEEP_START", "HARNESS_SWEEP_FINISH",
    "HARNESS_CELL_START", "HARNESS_CELL_FINISH",
    "HARNESS_CHECKPOINT_PUBLISH", "HARNESS_SHARD_MERGE",
]

REQUEST_SUBMIT = "request.submit"
REQUEST_DISPATCH = "request.dispatch"
REQUEST_COMPLETE = "request.complete"
REQUEST_FAIL = "request.fail"
REQUEST_REDIRECT = "request.redirect"
REQUEST_RETRY = "request.retry"
REQUEST_RECONSTRUCT = "request.reconstruct"

DISK_TRANSITION_BEGIN = "disk.transition.begin"
DISK_TRANSITION_END = "disk.transition.end"
DISK_REPLACE = "disk.replace"

FAULT_INJECT = "fault.inject"
FAULT_DATA_LOSS = "fault.data_loss"
FAULT_REBUILD_START = "fault.rebuild.start"
FAULT_REBUILD_COMPLETE = "fault.rebuild.complete"
FAULT_DOMAIN_OUTAGE = "fault.domain.outage"

REDUNDANCY_GROUP_STATE = "redundancy.group.state"

POLICY_SPIN_DOWN = "policy.spin_down"
POLICY_SPIN_UP = "policy.spin_up"
POLICY_CACHE_HIT = "policy.cache.hit"
POLICY_CACHE_MISS = "policy.cache.miss"
POLICY_CACHE_INSERT = "policy.cache.insert"
POLICY_EPOCH = "policy.epoch"
POLICY_MIGRATE = "policy.migrate"
POLICY_STRIPE_FANOUT = "policy.stripe.fanout"

ENGINE_START = "engine.start"
ENGINE_STOP = "engine.stop"

HARNESS_CHECKPOINT_HIT = "harness.checkpoint.hit"
HARNESS_CELL_RETRY = "harness.cell.retry"
HARNESS_CELL_TIMEOUT = "harness.cell.timeout"
HARNESS_CELL_SALVAGE = "harness.cell.salvage"
HARNESS_POOL_RESPAWN = "harness.pool.respawn"

HARNESS_SWEEP_START = "harness.sweep.start"
HARNESS_SWEEP_FINISH = "harness.sweep.finish"
HARNESS_CELL_START = "harness.cell.start"
HARNESS_CELL_FINISH = "harness.cell.finish"
HARNESS_CHECKPOINT_PUBLISH = "harness.checkpoint.publish"
HARNESS_SHARD_MERGE = "harness.shard.merge"

#: Every event type the instrumented layers can emit.
ALL_EVENT_TYPES: frozenset[str] = frozenset({
    REQUEST_SUBMIT, REQUEST_DISPATCH, REQUEST_COMPLETE,
    REQUEST_FAIL, REQUEST_REDIRECT, REQUEST_RETRY,
    REQUEST_RECONSTRUCT,
    DISK_TRANSITION_BEGIN, DISK_TRANSITION_END, DISK_REPLACE,
    FAULT_INJECT, FAULT_DATA_LOSS,
    FAULT_REBUILD_START, FAULT_REBUILD_COMPLETE,
    FAULT_DOMAIN_OUTAGE, REDUNDANCY_GROUP_STATE,
    POLICY_SPIN_DOWN, POLICY_SPIN_UP,
    POLICY_CACHE_HIT, POLICY_CACHE_MISS, POLICY_CACHE_INSERT,
    POLICY_EPOCH, POLICY_MIGRATE, POLICY_STRIPE_FANOUT,
    ENGINE_START, ENGINE_STOP,
    HARNESS_CHECKPOINT_HIT, HARNESS_CELL_RETRY, HARNESS_CELL_TIMEOUT,
    HARNESS_CELL_SALVAGE, HARNESS_POOL_RESPAWN,
    HARNESS_SWEEP_START, HARNESS_SWEEP_FINISH,
    HARNESS_CELL_START, HARNESS_CELL_FINISH,
    HARNESS_CHECKPOINT_PUBLISH, HARNESS_SHARD_MERGE,
})


class TraceEvent(NamedTuple):
    """One structured trace record.

    The harness bus's record, and the input of :func:`~repro.obs.export.event_to_json`;
    a simulation cell's writer encodes its events without building one.
    A NamedTuple (not a dataclass): the cheapest structured record
    CPython offers.

    Attributes
    ----------
    seq:
        Monotone sequence number; with ``time`` it gives a
        total order identical to the kernel's dispatch order.
    time:
        Simulated seconds at emission.
    type:
        One of the taxonomy constants above.
    data:
        Flat JSON-serializable payload (see the module docstring for
        the canonical fields per type).
    """

    seq: int
    time: float
    type: str
    data: dict[str, Any]
