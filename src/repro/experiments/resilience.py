"""The sweep executor: fault domains, checkpointing, graceful drain.

Every batch of cells runs here — :func:`repro.experiments.parallel
.run_cells` is this engine minus its summary.  Each cell runs in its
own fault domain, the sweep-runner analogue of the degraded-mode
operation the simulated array gets from :mod:`repro.faults`:

* **bounded retries** (none by default) with exponential backoff and
  deterministic jitter (seeded from the *spec*, never from wall clock,
  so retry timing cannot leak into results and two hosts retry in the
  same pattern);
* **wall-clock timeouts** per cell (pool mode), optionally enforced
  inside the worker by a ``faulthandler`` watchdog that dumps every
  thread's stack before exiting — so a hung-cell report names the stuck
  frame instead of just the cell;
* **pool respawn**: a :class:`BrokenProcessPool` (worker SIGKILLed,
  OOM-killed, or watchdog-expired) recreates the pool and re-queues only
  the in-flight cells instead of aborting the sweep;
* **checkpointing**: every completed :class:`SimulationResult` is
  journaled to an on-disk :class:`SweepCheckpoint` (atomic tmp-file +
  ``os.replace``), content-keyed by :func:`spec_key` so a changed spec
  can never alias a stale result; a resumed sweep skips done cells;
* **graceful drain**: the first SIGINT/SIGTERM stops submitting and
  lets in-flight cells finish; the second kills them.  Either way the
  checkpoint is flushed and :class:`SweepInterrupted` carries a resume
  hint.

Determinism contract: a retried cell re-runs
:func:`~repro.experiments.parallel.run_cell` on the identical spec — the
simulation RNG is seeded solely by the spec, so a sweep that survived
three worker crashes and a resume is bit-identical to one that ran
clean.  The test suite asserts this end to end.
"""

from __future__ import annotations

import faulthandler
import hashlib
import multiprocessing
import pickle
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from pathlib import Path
from random import Random
from typing import Iterable, Optional, Sequence, Union

from repro.experiments import parallel
from repro.experiments.metrics import SimulationResult
from repro.experiments.parallel import CellExecutionError, RunSpec
from repro.obs import events as obs_events
from repro.obs.bus import TraceBus
from repro.obs.log import get_logger
from repro.util.atomicio import atomic_write_bytes, quarantine
from repro.util.validation import require
from repro.workload.cache import cached_generate, workload_key

__all__ = [
    "CellTimeoutError",
    "ResilienceConfig",
    "ResilienceSummary",
    "SweepCheckpoint",
    "SweepInterrupted",
    "run_cells_resilient",
    "spec_key",
]

_log = get_logger("sweep")

#: Seconds the pool loop blocks in ``wait`` before re-checking signals,
#: backoff eligibility, and timeout deadlines.
_POLL_INTERVAL_S = 0.05

#: Relative jitter on each retry backoff (see
#: :meth:`ResilienceConfig.backoff_s`).
_RETRY_JITTER = 0.5

#: On-disk checkpoint format version (bumped on incompatible layouts).
#: Version 2 dropped a field from the pickled result classes; slotted
#: dataclasses unpickle fields by position, so a version-1 file would
#: load with every later field shifted by one.  Version 3 reshaped the
#: shard partial result (per-disk used capacity in, two unread response
#: tallies out).  Version 4 untagged the trace segments a checkpointed
#: shard result points at: merging an older, tagged segment would copy
#: its ``"shard":N`` field into the merged trace.  Version 5 dropped the
#: registry snapshot from both result classes.
CHECKPOINT_VERSION = 5


# ----------------------------------------------------------------------
# spec identity
# ----------------------------------------------------------------------
def spec_key(spec: RunSpec) -> str:
    """Stable content digest of a :class:`RunSpec` (sha256 hex).

    Equal cell descriptions — not object identity — produce equal keys,
    so a checkpoint entry is valid exactly as long as the spec that
    produced it is unchanged.  ``policy_kwargs`` is normalized to sorted
    items so dict insertion order cannot split a key; the workload is
    folded in through its own content digest.
    """
    kwargs = tuple(sorted(dict(spec.policy_kwargs).items(),
                          key=lambda kv: str(kv[0])))
    payload: tuple = (
        spec.policy,
        spec.n_disks,
        kwargs,
        workload_key(spec.workload),
        spec.disk_params,
        spec.press,
        spec.initial_speed,
        spec.queue_discipline,
        spec.faults,
        spec.obs,
    )
    # Appended only when set so every pre-sharding checkpoint key is
    # unchanged.  A shard sub-cell keys on (plan, shard index) but *not*
    # on its chunk size: chunking changes iteration granularity, never
    # the produced result (same contract as the workload digest), so a
    # sweep resumed under a different --stream-chunk reuses its
    # checkpointed shards.
    if spec.shard is not None:
        payload = payload + (spec.shard.plan, spec.shard.index)
    # same append-only-when-set contract: redundancy-free specs keep
    # their pre-redundancy checkpoint keys
    if spec.redundancy is not None:
        payload = payload + (spec.redundancy,)
    return hashlib.sha256(pickle.dumps(payload, protocol=4)).hexdigest()


# ----------------------------------------------------------------------
# configuration and outcome records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResilienceConfig:
    """Per-cell fault-domain parameters for a resilient sweep.

    Attributes
    ----------
    max_retries:
        Re-queues allowed per cell beyond its first attempt (crashes,
        exceptions, and timeouts all consume the same budget).  The
        default 0 fails a sweep on its first cell error; ``repro sweep``
        passes ``--retries`` (default 2).
    retry_backoff_s:
        Backoff before attempt ``k`` retries is
        ``retry_backoff_s * 2**k * (1 + 0.5 * u)`` with ``u`` drawn from
        a :class:`random.Random` seeded by the spec key and attempt —
        deterministic, spec-local, and never touching the simulation
        RNG.
    cell_timeout_s:
        Wall-clock limit per cell attempt.  Enforced in pool mode (the
        serial path cannot preempt a running cell and ignores it).
    max_pool_respawns:
        Worker-pool recreations tolerated per sweep before giving up —
        the backstop against a cell that kills its worker every time.
    watchdog:
        Arm ``faulthandler.dump_traceback_later`` inside each worker for
        ``cell_timeout_s``: a hung cell dumps every thread's stack to
        stderr and exits, which the parent converts into a timeout +
        retry.  Off, the parent kills the pool at the deadline instead
        (no stacks, same recovery).
    """

    max_retries: int = 0
    retry_backoff_s: float = 0.25
    cell_timeout_s: Optional[float] = None
    max_pool_respawns: int = 3
    watchdog: bool = False

    def __post_init__(self) -> None:
        require(self.max_retries >= 0,
                f"max_retries must be >= 0, got {self.max_retries}")
        require(self.retry_backoff_s >= 0.0,
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}")
        require(self.cell_timeout_s is None or self.cell_timeout_s > 0.0,
                f"cell_timeout_s must be > 0, got {self.cell_timeout_s}")
        require(self.max_pool_respawns >= 0,
                f"max_pool_respawns must be >= 0, got {self.max_pool_respawns}")

    def backoff_s(self, key: str, attempt: int) -> float:
        """Deterministic backoff before re-queueing attempt ``attempt``."""
        base = self.retry_backoff_s * (2.0 ** attempt)
        jitter = _RETRY_JITTER * Random(f"{key}:{attempt}").random()
        return base * (1.0 + jitter)


@dataclass(frozen=True)
class ResilienceSummary:
    """What the harness survived while producing a sweep's results."""

    cells_total: int = 0
    #: Cells actually simulated in this invocation.
    cells_run: int = 0
    #: Cells restored from the checkpoint instead of re-run.
    checkpoint_hits: int = 0
    #: Re-queues after a failure/crash/timeout (attempts minus firsts).
    retries: int = 0
    #: Cell attempts killed for exceeding the wall-clock limit.
    timeouts: int = 0
    #: Worker-pool recreations after breakage or a timeout kill.
    pool_respawns: int = 0
    #: Innocent in-flight cells re-queued (at the same attempt) because
    #: the pool broke underneath them.
    cells_salvaged: int = 0

    @property
    def eventful(self) -> bool:
        """Whether the harness had to absorb any fault at all."""
        return bool(self.retries or self.timeouts or self.pool_respawns
                    or self.cells_salvaged or self.checkpoint_hits)

    def summary_row(self) -> dict[str, object]:
        """Flat dict for tabular reporting."""
        return dict(asdict(self))


class CellTimeoutError(CellExecutionError):
    """A cell exhausted its retry budget on wall-clock timeouts."""

    def __init__(self, spec: RunSpec, timeout_s: float) -> None:
        super().__init__(spec, TimeoutError(
            f"wall-clock limit {timeout_s:g}s exceeded"))
        self.timeout_s = timeout_s


class SweepInterrupted(RuntimeError):
    """The sweep was stopped by SIGINT/SIGTERM after a graceful drain.

    Carries enough context for the caller to print an actionable resume
    hint; completed cells are already flushed to the checkpoint (when
    one was configured) by the time this is raised.
    """

    def __init__(self, done: int, total: int,
                 checkpoint_path: Optional[Path]) -> None:
        self.done = done
        self.total = total
        self.checkpoint_path = checkpoint_path
        message = f"sweep interrupted with {done}/{total} cells completed"
        if checkpoint_path is not None:
            message += (f"; checkpoint flushed to {checkpoint_path} — "
                        f"resume with --resume {checkpoint_path}")
        else:
            message += " (no checkpoint configured; completed cells were lost)"
        super().__init__(message)

    @property
    def resume_hint(self) -> Optional[str]:
        """CLI flag that continues this sweep, or ``None``."""
        if self.checkpoint_path is None:
            return None
        return f"--resume {self.checkpoint_path}"


# ----------------------------------------------------------------------
# checkpoint journal
# ----------------------------------------------------------------------
class SweepCheckpoint:
    """On-disk journal of completed cells, keyed by :func:`spec_key`.

    The whole journal is one pickle ``{"version": 1, "cells": {key:
    SimulationResult}}`` republished atomically after every recorded
    cell, so a crash at any instant leaves either the previous or the
    new complete journal — never a torn file.  A journal that fails to
    unpickle (truncated by a dying filesystem, wrong version, foreign
    content) is quarantined aside as ``<name>.corrupt`` and the sweep
    starts fresh rather than aborting.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._cells: dict[str, SimulationResult] = {}
        #: Entries restored from disk at construction time.
        self.loaded = 0
        #: Quarantine path when the on-disk journal was damaged, else None.
        self.quarantined: Optional[Path] = None
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            with self.path.open("rb") as fh:
                doc = pickle.load(fh)
            if (not isinstance(doc, dict)
                    or doc.get("version") != CHECKPOINT_VERSION
                    or not isinstance(doc.get("cells"), dict)):
                raise ValueError(f"unrecognized checkpoint layout in {self.path}")
        except Exception as exc:  # unpickling garbage raises nearly anything
            self.quarantined = quarantine(self.path)
            _log.warning("checkpoint %s was corrupt (%r); quarantined to %s, "
                         "starting fresh", self.path, exc, self.quarantined)
            return
        self._cells = doc["cells"]
        self.loaded = len(self._cells)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, key: str) -> bool:
        return key in self._cells

    def get(self, key: str) -> Optional[SimulationResult]:
        """The journaled result for ``key``, or ``None``."""
        return self._cells.get(key)

    def record(self, key: str, result: SimulationResult, *,
               flush: bool = True) -> None:
        """Journal one completed cell (atomically republished by default)."""
        self._cells[key] = result
        if flush:
            self.flush()

    def flush(self) -> None:
        """Atomically publish the current journal to :attr:`path`."""
        blob = pickle.dumps({"version": CHECKPOINT_VERSION,
                             "cells": self._cells}, protocol=4)
        atomic_write_bytes(self.path, blob)


# ----------------------------------------------------------------------
# worker shim (module-level so it pickles)
# ----------------------------------------------------------------------
def _pool_worker(spec: RunSpec, timeout_s: Optional[float],
                 watchdog: bool) -> SimulationResult:
    """Run one cell in a pool worker, optionally under a stack-dumping
    watchdog that turns a hang into an actionable crash."""
    armed = watchdog and timeout_s is not None
    if armed:
        # exit=True: after dumping every thread's stack to stderr the
        # worker dies, which the parent sees as BrokenProcessPool and
        # converts into a timeout + retry.
        faulthandler.dump_traceback_later(timeout_s, exit=True)
    try:
        return parallel.run_cell(spec)
    finally:
        if armed:
            faulthandler.cancel_dump_traceback_later()


# ----------------------------------------------------------------------
# signal plumbing
# ----------------------------------------------------------------------
class _InterruptFlag:
    """Set by the first SIGINT/SIGTERM; the second escalates."""

    def __init__(self) -> None:
        self.tripped = False

    def __call__(self, signum, frame) -> None:  # signal handler
        if self.tripped:
            raise KeyboardInterrupt  # second signal: stop waiting politely
        self.tripped = True
        _log.warning("interrupt received: draining in-flight cells "
                     "(interrupt again to kill them)")


def _install_handlers(flag: _InterruptFlag):
    """Install drain handlers; returns the originals (or None off-main)."""
    if threading.current_thread() is not threading.main_thread():
        return None
    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, flag)
        except (ValueError, OSError):  # exotic embedding; stay uninstalled
            pass
    return previous


def _restore_handlers(previous) -> None:
    if not previous:
        return
    for sig, handler in previous.items():
        signal.signal(sig, handler)


# ----------------------------------------------------------------------
# the resilient sweep engine
# ----------------------------------------------------------------------
def _emit(bus: Optional[TraceBus], event_type: str, **data) -> None:
    if bus is not None:
        bus.emit(event_type, 0.0, **data)  # repro: allow[OBS001] forwarder: every caller passes a harness.* taxonomy constant


class _Sweep:
    """One resilient sweep invocation (parent-process state machine)."""

    def __init__(self, specs: Sequence[RunSpec], *, jobs: int,
                 config: ResilienceConfig,
                 checkpoint: Optional[SweepCheckpoint],
                 bus: Optional[TraceBus]) -> None:
        self.specs = specs
        self.jobs = jobs
        self.cfg = config
        self.ckpt = checkpoint
        self.bus = bus
        self.keys = [spec_key(s) for s in specs]
        self.results: list[Optional[SimulationResult]] = [None] * len(specs)
        #: (index, attempt, ready_at_monotonic) of cells awaiting a slot.
        self.pending: list[tuple[int, int, float]] = []
        self.flag = _InterruptFlag()
        self.cells_run = 0
        self.checkpoint_hits = 0
        self.retries = 0
        self.timeouts = 0
        self.pool_respawns = 0
        self.cells_salvaged = 0

    # -- shared bookkeeping -------------------------------------------
    def restore_from_checkpoint(self) -> None:
        total = len(self.specs)
        for i, (spec, key) in enumerate(zip(self.specs, self.keys)):
            hit = self.ckpt.get(key) if self.ckpt is not None else None
            if hit is not None:
                self.results[i] = hit
                self.checkpoint_hits += 1
                _emit(self.bus, obs_events.HARNESS_CHECKPOINT_HIT,
                      cell=spec.label())
                _log.info("cell %d/%d restored from checkpoint: %s",
                          i + 1, total, spec.label())
            else:
                self.pending.append((i, 0, 0.0))

    def record_success(self, index: int, result: SimulationResult) -> None:
        self.results[index] = result
        self.cells_run += 1
        _emit(self.bus, obs_events.HARNESS_CELL_FINISH,
              cell=self.specs[index].label(), index=index,
              events=result.events_executed, wall_s=result.wall_clock_s)
        if self.ckpt is not None:
            self.ckpt.record(self.keys[index], result)
            _emit(self.bus, obs_events.HARNESS_CHECKPOINT_PUBLISH,
                  cells=len(self.ckpt))
        _log.info("cell %d/%d finished: %s (%.2fs)", index + 1,
                  len(self.specs), self.specs[index].label(),
                  result.wall_clock_s)

    def requeue_or_raise(self, index: int, attempt: int,
                         exc: BaseException, *, timed_out: bool) -> None:
        """Charge one failed attempt; re-queue with backoff or give up."""
        spec = self.specs[index]
        if timed_out:
            self.timeouts += 1
            _emit(self.bus, obs_events.HARNESS_CELL_TIMEOUT,
                  cell=spec.label(), timeout_s=self.cfg.cell_timeout_s)
        if attempt >= self.cfg.max_retries:
            if timed_out:
                raise CellTimeoutError(spec, self.cfg.cell_timeout_s) from exc
            raise CellExecutionError(spec, exc) from exc
        self.retries += 1
        _emit(self.bus, obs_events.HARNESS_CELL_RETRY, cell=spec.label(),
              attempt=attempt + 1, reason=type(exc).__name__)
        delay = self.cfg.backoff_s(self.keys[index], attempt)
        _log.warning("cell %s %s (%r); retry %d/%d in %.2fs", spec.label(),
                     "timed out" if timed_out else "failed", exc,
                     attempt + 1, self.cfg.max_retries, delay)
        self.pending.append((index, attempt + 1, time.monotonic() + delay))

    def interrupt(self) -> None:
        """Flush the checkpoint and raise :class:`SweepInterrupted`."""
        path = None
        if self.ckpt is not None:
            self.ckpt.flush()  # even when empty: the resume hint must work
            path = self.ckpt.path
        done = sum(1 for r in self.results if r is not None)
        raise SweepInterrupted(done, len(self.specs), path)

    def summary(self) -> ResilienceSummary:
        return ResilienceSummary(
            cells_total=len(self.specs), cells_run=self.cells_run,
            checkpoint_hits=self.checkpoint_hits, retries=self.retries,
            timeouts=self.timeouts, pool_respawns=self.pool_respawns,
            cells_salvaged=self.cells_salvaged)

    # -- serial path ---------------------------------------------------
    def run_serial(self) -> None:
        total = len(self.specs)
        while self.pending:
            if self.flag.tripped:
                self.interrupt()
            self.pending.sort(key=lambda e: e[2])
            index, attempt, ready_at = self.pending.pop(0)
            delay = ready_at - time.monotonic()
            if delay > 0.0:
                time.sleep(delay)
            spec = self.specs[index]
            _emit(self.bus, obs_events.HARNESS_CELL_START, cell=spec.label(),
                  index=index, total=total, attempt=attempt + 1)
            _log.info("cell %d/%d started: %s", index + 1, total, spec.label())
            try:
                # looked up at call time: a profiler that rebinds
                # parallel.run_cell sees every cell
                result = parallel.run_cell(spec)
            except KeyboardInterrupt:
                self.interrupt()
            except Exception as exc:
                self.requeue_or_raise(index, attempt, exc, timed_out=False)
                continue
            self.record_success(index, result)

    # -- pool path -----------------------------------------------------
    def run_pool(self) -> None:
        # Materialize every distinct workload once pre-fork (CoW share).
        # Shard sub-cells stream their workload; materializing it here
        # would defeat their constant-memory contract, so skip them.
        distinct = {workload_key(self.specs[i].workload): self.specs[i].workload
                    for i, _, _ in self.pending
                    if self.specs[i].shard is None}
        for workload in distinct.values():
            cached_generate(workload)

        pool: Optional[ProcessPoolExecutor] = None
        in_flight: dict[Future, tuple[int, int, float]] = {}

        def make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context())

        def kill_pool() -> None:
            nonlocal pool
            if pool is None:
                return
            # There is no public "kill one worker": terminate them all and
            # respawn.  _processes is CPython internals, hence the getattr.
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.kill()
                except Exception:
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None

        def respawn(reason: str) -> None:
            """Tear the pool down and re-queue the in-flight cells."""
            nonlocal pool
            self.pool_respawns += 1
            if self.pool_respawns > self.cfg.max_pool_respawns:
                index = min(i for i, _, _ in in_flight.values()) \
                    if in_flight else 0
                raise CellExecutionError(self.specs[index], RuntimeError(
                    f"worker pool broke {self.pool_respawns} times "
                    f"(limit {self.cfg.max_pool_respawns}); last cause: {reason}"))
            salvaged = list(in_flight.values())
            in_flight.clear()
            for index, attempt, _submitted in salvaged:
                self.cells_salvaged += 1
                _emit(self.bus, obs_events.HARNESS_CELL_SALVAGE,
                      cell=self.specs[index].label())
                self.pending.append((index, attempt, 0.0))
            _emit(self.bus, obs_events.HARNESS_POOL_RESPAWN,
                  respawn=self.pool_respawns, requeued=len(salvaged))
            _log.warning("worker pool respawn %d/%d (%s); re-queued %d "
                         "in-flight cell(s)", self.pool_respawns,
                         self.cfg.max_pool_respawns, reason, len(salvaged))
            kill_pool()
            pool = make_pool()

        def elapsed_timeout(submitted: float) -> bool:
            return (self.cfg.cell_timeout_s is not None
                    and time.monotonic() - submitted >= self.cfg.cell_timeout_s)

        total = len(self.specs)
        pool = make_pool()
        try:
            while self.pending or in_flight:
                if self.flag.tripped:
                    # graceful drain: stop submitting, let in-flight finish
                    if not in_flight:
                        self.interrupt()
                else:
                    self.pending.sort(key=lambda e: e[2])
                    now = time.monotonic()
                    while (self.pending and self.pending[0][2] <= now
                           and len(in_flight) < 2 * self.jobs):
                        index, attempt, _ready = self.pending.pop(0)
                        spec = self.specs[index]
                        try:
                            future = pool.submit(_pool_worker, spec,
                                                 self.cfg.cell_timeout_s,
                                                 self.cfg.watchdog)
                        except (BrokenProcessPool, RuntimeError) as exc:
                            # pool broke between waits; put the cell back
                            # untouched and rebuild
                            self.pending.append((index, attempt, 0.0))
                            respawn(repr(exc))
                            break
                        in_flight[future] = (index, attempt, time.monotonic())
                        _emit(self.bus, obs_events.HARNESS_CELL_START,
                              cell=spec.label(), index=index, total=total,
                              attempt=attempt + 1)
                        _log.info("cell %d/%d started: %s%s", index + 1, total,
                                  spec.label(),
                                  f" (attempt {attempt + 1})" if attempt else "")

                if not in_flight:  # everything is backing off
                    time.sleep(_POLL_INTERVAL_S)
                    continue

                try:
                    done, _ = wait(set(in_flight), timeout=_POLL_INTERVAL_S,
                                   return_when=FIRST_COMPLETED)
                except KeyboardInterrupt:  # second signal while waiting
                    kill_pool()
                    self.interrupt()

                broken_reason: Optional[str] = None
                for future in done:
                    index, attempt, submitted = in_flight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool as exc:
                        # the worker died under this cell (or a sibling);
                        # classify by elapsed wall clock, charge the attempt
                        broken_reason = repr(exc)
                        self.requeue_or_raise(index, attempt, exc,
                                              timed_out=elapsed_timeout(submitted))
                    except KeyboardInterrupt:
                        kill_pool()
                        self.interrupt()
                    except Exception as exc:
                        self.requeue_or_raise(index, attempt, exc,
                                              timed_out=False)
                    else:
                        self.record_success(index, result)
                if broken_reason is not None:
                    respawn(broken_reason)
                    continue

                # parent-side timeout backstop (the watchdog usually wins)
                if self.cfg.cell_timeout_s is not None:
                    grace = (0.5 * self.cfg.cell_timeout_s + 5.0
                             if self.cfg.watchdog else 0.0)
                    now = time.monotonic()
                    expired = [f for f, (_i, _a, sub) in in_flight.items()
                               if now - sub >= self.cfg.cell_timeout_s + grace]
                    if expired:
                        for future in expired:
                            index, attempt, _sub = in_flight.pop(future)
                            self.requeue_or_raise(
                                index, attempt,
                                TimeoutError(f"no result after "
                                             f"{self.cfg.cell_timeout_s:g}s"),
                                timed_out=True)
                        # running workers cannot be preempted individually:
                        # kill the pool, salvaging the innocents
                        respawn(f"{len(expired)} cell(s) timed out")
        finally:
            kill_pool()


def run_cells_resilient(
    specs: Iterable[RunSpec], *, jobs: int = 1,
    config: ResilienceConfig | None = None,
    checkpoint: Union[SweepCheckpoint, str, Path, None] = None,
    bus: Optional[TraceBus] = None,
) -> tuple[list[SimulationResult], ResilienceSummary]:
    """Execute cells under fault domains; results come back in input order.

    Returns the results (identical under retries, respawns and resumes:
    the determinism contract) and a :class:`ResilienceSummary` of what
    the harness absorbed along the way.  ``jobs=1`` (or a single pending
    cell) runs serially in-process; otherwise a process pool runs them.
    ``config=None`` is ``ResilienceConfig()``: no retries, no timeout.

    ``checkpoint`` may be a path (opened/created as a
    :class:`SweepCheckpoint`) or an already-loaded instance; cells whose
    :func:`spec_key` is journaled are restored without re-running.
    ``bus`` receives the ``harness.*`` trace events: sweep start/finish,
    each cell's start/finish, and every absorbed fault.

    Raises :class:`SweepInterrupted` on SIGINT/SIGTERM after draining
    and flushing, :class:`CellExecutionError`/:class:`CellTimeoutError`
    when a cell exhausts its retry budget.
    """
    spec_list = list(specs)
    require(jobs >= 1, f"jobs must be >= 1, got {jobs}")
    for i, spec in enumerate(spec_list):
        require(isinstance(spec, RunSpec),
                f"specs[{i}] is not a RunSpec: {spec!r}")
    cfg = config or ResilienceConfig()
    ckpt: Optional[SweepCheckpoint]
    if checkpoint is None or isinstance(checkpoint, SweepCheckpoint):
        ckpt = checkpoint
    else:
        ckpt = SweepCheckpoint(checkpoint)

    sweep = _Sweep(spec_list, jobs=jobs, config=cfg, checkpoint=ckpt, bus=bus)
    _emit(bus, obs_events.HARNESS_SWEEP_START,
          cells=len(spec_list), jobs=jobs)
    sweep.restore_from_checkpoint()
    previous = _install_handlers(sweep.flag)
    try:
        if sweep.pending:
            if jobs == 1 or len(sweep.pending) <= 1:
                sweep.run_serial()
            else:
                sweep.run_pool()
    except KeyboardInterrupt:
        # escalated second signal (or an embedder's interrupt): flush
        # what we have and surface the resume hint anyway
        sweep.interrupt()
    finally:
        _restore_handlers(previous)
    results = sweep.results
    assert all(r is not None for r in results)
    _emit(bus, obs_events.HARNESS_SWEEP_FINISH,
          cells=len(spec_list), cells_run=sweep.cells_run)
    return list(results), sweep.summary()  # type: ignore[arg-type]
