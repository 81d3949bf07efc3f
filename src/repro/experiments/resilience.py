"""The sweep executor: fault domains, checkpointing, graceful drain.

Every batch of cells runs here — :func:`repro.experiments.parallel
.run_cells` is this engine minus its summary.  Each cell runs in its
own fault domain, the sweep-runner analogue of the degraded-mode
operation the simulated array gets from :mod:`repro.faults`:

* **fail once**: a cell is a pure function of its spec, so an exception
  raised inside it would recur on every attempt.  It fails the sweep at
  once as :class:`CellExecutionError`, chained to the original;
* **bounded re-queues** (``--jobs >= 2`` only, none by default) for the
  two faults of the *host* a second attempt can outlive: a cell lost
  with its worker, or one past its wall-clock deadline;
* **wall-clock timeouts** per cell (pool mode): the parent kills the
  pool at a cell's deadline;
* **pool respawn**: a :class:`BrokenProcessPool` (worker SIGKILLed or
  OOM-killed) recreates the pool and re-queues only the in-flight cells
  instead of aborting the sweep;
* **checkpointing**: every completed :class:`SimulationResult` is
  journaled to an on-disk :class:`SweepCheckpoint` (atomic tmp-file +
  ``os.replace``), content-keyed by :func:`spec_key` so a changed spec
  can never alias a stale result; a resumed sweep skips done cells;
* **graceful drain**: the first SIGINT/SIGTERM stops submitting and
  lets in-flight cells finish; the second kills them.  Either way the
  checkpoint is flushed and :class:`SweepInterrupted` carries a resume
  hint.

The executor's own fields — results, attempts, pending cells and
counters — are the one harness ledger: :meth:`_Sweep.summary` returns
it as a :class:`ResilienceSummary`, and :meth:`_Sweep.status_document`
renders it for the live status feed (:mod:`repro.obs.status`).

Determinism contract: a re-queued cell re-runs
:func:`~repro.experiments.parallel.run_cell` on the identical spec — the
simulation RNG is seeded solely by the spec, so a sweep that survived
three worker crashes and a resume is bit-identical to one that ran
clean.  The test suite asserts this end to end.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import multiprocessing
import pickle
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union, get_args, get_type_hints

from repro.experiments import parallel
from repro.experiments.metrics import SimulationResult
from repro.experiments.parallel import CellExecutionError, RunSpec
from repro.obs.log import get_logger
from repro.obs.status import SweepStatusWriter
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

#: Seconds the pool loop blocks in ``wait`` before re-checking signals
#: and timeout deadlines.
_POLL_INTERVAL_S = 0.05

#: Worker-pool recreations tolerated per sweep before giving up — the
#: backstop against a cell that kills its worker every time.
MAX_POOL_RESPAWNS = 3

# ----------------------------------------------------------------------
# checkpoint format version
# ----------------------------------------------------------------------
def layout_version(*roots: type) -> str:
    """Digest of the pickled layout of ``roots`` (sha256 hex, 16 digits).

    Walks every dataclass reachable from the roots' field annotations
    (through ``Optional``, ``tuple`` and other generic arguments) and
    digests each one's qualified name and field names, in order.
    Slotted dataclasses unpickle fields by position, so a file written
    under another layout would load with fields shifted: any added,
    dropped, renamed or reordered field must change the version, and
    deriving it makes a forgotten bump impossible.
    """
    seen: list[type] = []

    def walk(hint: object) -> None:
        if isinstance(hint, type) and dataclasses.is_dataclass(hint):
            if hint not in seen:
                seen.append(hint)
                for field_hint in get_type_hints(hint).values():
                    walk(field_hint)
            return
        for arg in get_args(hint):
            walk(arg)

    for root in roots:
        walk(root)
    layout = ";".join(f"{cls.__module__}.{cls.__qualname__}("
                      + ",".join(f.name for f in dataclasses.fields(cls)) + ")"
                      for cls in seen)
    return hashlib.sha256(layout.encode("utf-8")).hexdigest()[:16]


@functools.cache
def checkpoint_version() -> str:
    """On-disk checkpoint format version: the :func:`layout_version` of
    the two result classes a checkpoint pickles.

    A checkpoint holds :class:`SimulationResult` cells and shard
    sub-cells' :class:`~repro.experiments.shard.ShardCellResult`; a file
    of any other version is quarantined.
    """
    # imported here: the shard module imports this one
    from repro.experiments.shard import ShardCellResult

    return layout_version(SimulationResult, ShardCellResult)


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
    shard = None if spec.shard is None else (spec.shard.plan, spec.shard.index)
    payload = (
        spec.policy,
        spec.n_disks,
        kwargs,
        workload_key(spec.workload),
        spec.disk_params,
        spec.faults,
        spec.obs,
        shard,
        spec.redundancy,
    )
    return hashlib.sha256(pickle.dumps(payload, protocol=4)).hexdigest()


# ----------------------------------------------------------------------
# configuration and outcome records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResilienceConfig:
    """Per-cell fault-domain parameters for a sweep.

    Both apply in pool mode (``jobs >= 2``) only: the serial path cannot
    preempt a running cell or lose a worker.  An exception raised by a
    cell fails the sweep at once whatever they are.

    Attributes
    ----------
    max_retries:
        Re-queues allowed per cell lost with its worker or timed out,
        beyond its first attempt.  The default 0 fails a sweep on its
        first lost cell; ``repro sweep`` passes ``--retries``
        (default 2).
    cell_timeout_s:
        Wall-clock limit per cell attempt; at the deadline the parent
        kills the pool and re-queues the cell against ``max_retries``.
    """

    max_retries: int = 0
    cell_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        require(self.max_retries >= 0,
                f"max_retries must be >= 0, got {self.max_retries}")
        require(self.cell_timeout_s is None or self.cell_timeout_s > 0.0,
                f"cell_timeout_s must be > 0, got {self.cell_timeout_s}")


@dataclass(frozen=True)
class ResilienceSummary:
    """What the harness survived while producing a sweep's results."""

    cells_total: int = 0
    #: Cells actually simulated in this invocation.
    cells_run: int = 0
    #: Cells restored from the checkpoint instead of re-run.
    checkpoint_hits: int = 0
    #: Re-queues after a lost worker or a timeout (attempts minus firsts).
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


# ----------------------------------------------------------------------
# checkpoint journal
# ----------------------------------------------------------------------
class SweepCheckpoint:
    """On-disk journal of completed cells, keyed by :func:`spec_key`.

    The whole journal is one pickle ``{"version": checkpoint_version(),
    "cells": {key: SimulationResult}}`` republished atomically after
    every recorded cell, so a crash at any instant leaves either the
    previous or the new complete journal — never a torn file.  A journal that fails to
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
                    or doc.get("version") != checkpoint_version()
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

    def record(self, key: str, result: SimulationResult) -> None:
        """Journal one completed cell and republish atomically."""
        self._cells[key] = result
        self.flush()

    def flush(self) -> None:
        """Atomically publish the current journal to :attr:`path`."""
        blob = pickle.dumps({"version": checkpoint_version(),
                             "cells": self._cells}, protocol=4)
        atomic_write_bytes(self.path, blob)


def _run_cell(spec: RunSpec) -> SimulationResult:
    """Pool entry point: looks :func:`parallel.run_cell` up in the worker,
    so a rebinding that does not pickle (a profiler's closure) still
    reaches every cell."""
    return parallel.run_cell(spec)


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
class _Sweep:
    """One sweep invocation (parent-process state machine).

    A cell is done when its result is set, pending while its index is
    queued in :attr:`pending`, failed when it is :attr:`failed`, and in
    flight otherwise.
    """

    def __init__(self, specs: Sequence[RunSpec], *, jobs: int,
                 config: ResilienceConfig,
                 checkpoint: Optional[SweepCheckpoint],
                 status: Optional[SweepStatusWriter]) -> None:
        self.specs = specs
        self.jobs = jobs
        self.cfg = config
        self.ckpt = checkpoint
        self.status = status
        self.keys = [spec_key(s) for s in specs]
        self.results: list[Optional[SimulationResult]] = [None] * len(specs)
        #: Indices of the cells awaiting a slot, in submission order.
        self.pending: deque[int] = deque()
        #: Attempts charged per cell (re-queues after a lost worker or a
        #: timeout); a salvaged cell keeps its count.
        self.attempts = [0] * len(specs)
        #: Indices of the cells restored from the checkpoint.
        self.restored: set[int] = set()
        #: Index of the cell whose error failed the sweep, once one has.
        self.failed: Optional[int] = None
        self.flag = _InterruptFlag()
        self.timeouts = 0
        self.pool_respawns = 0
        self.cells_salvaged = 0

    # -- shared bookkeeping -------------------------------------------
    def publish(self) -> None:
        """Tell the status feed the ledger changed (it throttles)."""
        if self.status is not None:
            self.status.publish()

    def restore_from_checkpoint(self) -> None:
        total = len(self.specs)
        for i, (spec, key) in enumerate(zip(self.specs, self.keys)):
            hit = self.ckpt.get(key) if self.ckpt is not None else None
            if hit is not None:
                self.results[i] = hit
                self.restored.add(i)
                _log.info("cell %d/%d restored from checkpoint: %s",
                          i + 1, total, spec.label())
            else:
                self.pending.append(i)
        self.publish()

    def start(self, index: int) -> None:
        """Announce one attempt of cell ``index``."""
        spec, attempt = self.specs[index], self.attempts[index]
        self.publish()
        _log.info("cell %d/%d started: %s%s", index + 1, len(self.specs),
                  spec.label(), f" (attempt {attempt + 1})" if attempt else "")

    def record_success(self, index: int, result: SimulationResult) -> None:
        self.results[index] = result
        if self.ckpt is not None:
            self.ckpt.record(self.keys[index], result)
        self.publish()
        _log.info("cell %d/%d finished: %s (%.2fs)", index + 1,
                  len(self.specs), self.specs[index].label(),
                  result.wall_clock_s)

    def fail(self, index: int, exc: BaseException) -> CellExecutionError:
        """Mark cell ``index`` as the one failing the sweep; its error."""
        self.failed = index
        return CellExecutionError(self.specs[index], exc)

    def requeue_or_raise(self, index: int, exc: BaseException, *,
                         timed_out: bool) -> None:
        """Charge one lost or timed-out attempt; re-queue it or give up."""
        spec, attempt = self.specs[index], self.attempts[index]
        if timed_out:
            self.timeouts += 1
        if attempt >= self.cfg.max_retries:
            if timed_out:
                self.failed = index
                raise CellTimeoutError(spec, self.cfg.cell_timeout_s) from exc
            raise self.fail(index, exc) from exc
        self.attempts[index] = attempt + 1
        self.pending.append(index)
        self.publish()
        _log.warning("cell %s %s (%r); retry %d/%d", spec.label(),
                     "timed out" if timed_out else "lost its worker", exc,
                     attempt + 1, self.cfg.max_retries)

    def interrupt(self) -> None:
        """Flush the checkpoint and raise :class:`SweepInterrupted`."""
        path = None
        if self.ckpt is not None:
            self.ckpt.flush()  # even when empty: the resume hint must work
            path = self.ckpt.path
        done = sum(1 for r in self.results if r is not None)
        raise SweepInterrupted(done, len(self.specs), path)

    def summary(self) -> ResilienceSummary:
        done = sum(1 for r in self.results if r is not None)
        return ResilienceSummary(
            cells_total=len(self.specs),
            cells_run=done - len(self.restored),
            checkpoint_hits=len(self.restored), retries=sum(self.attempts),
            timeouts=self.timeouts, pool_respawns=self.pool_respawns,
            cells_salvaged=self.cells_salvaged)

    def status_document(self) -> dict[str, object]:
        """The ledger as the body of the live status feed (schema in
        :mod:`repro.obs.status`)."""
        pending = set(self.pending)
        cells: dict[str, dict[str, object]] = {}
        running: list[str] = []
        events, wall_s = 0, 0.0
        for i, (spec, result) in enumerate(zip(self.specs, self.results)):
            entry: dict[str, object] = {"label": spec.label(),
                                        "retries": self.attempts[i]}
            if i in self.restored:
                entry["state"] = "restored"
            elif result is not None:
                entry.update(state="done", events=result.events_executed,
                             wall_s=result.wall_clock_s)
                events += result.events_executed
                wall_s += result.wall_clock_s
            elif i in pending:
                entry["state"] = "retrying" if self.attempts[i] else "pending"
            elif i == self.failed:
                entry["state"] = "failed"
            else:
                entry["state"] = "running"
                running.append(spec.label())
            cells[str(i)] = entry
        summary = self.summary()
        return {
            "jobs": self.jobs,
            "cells_done": summary.cells_run + summary.checkpoint_hits,
            "cells_running": running,
            "events_executed": events,
            "events_per_sec": events / wall_s if wall_s > 0.0 else None,
            **dataclasses.asdict(summary),
            "cells": cells,
        }

    # -- serial path ---------------------------------------------------
    def run_serial(self) -> None:
        while self.pending:
            if self.flag.tripped:
                self.interrupt()
            index = self.pending.popleft()
            self.start(index)
            try:
                # looked up at call time: a profiler that rebinds
                # parallel.run_cell sees every cell
                result = parallel.run_cell(self.specs[index])
            except KeyboardInterrupt:
                self.interrupt()
            except Exception as exc:
                raise self.fail(index, exc) from exc
            self.record_success(index, result)

    # -- pool path -----------------------------------------------------
    def run_pool(self) -> None:
        # Materialize every distinct workload once pre-fork (CoW share).
        # Shard sub-cells stream their workload; materializing it here
        # would defeat their constant-memory contract, so skip them.
        distinct = {workload_key(self.specs[i].workload): self.specs[i].workload
                    for i in self.pending if self.specs[i].shard is None}
        for workload in distinct.values():
            cached_generate(workload)

        # No more cells in flight than workers: a cell queued behind a
        # busy worker would have its wait counted against its deadline.
        workers = min(self.jobs, len(self.pending))
        pool: Optional[ProcessPoolExecutor] = None
        #: future -> (cell index, submission time on the monotonic clock)
        in_flight: dict[Future, tuple[int, float]] = {}

        def make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=workers,
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
            salvaged = sorted(index for index, _ in in_flight.values())
            if self.pool_respawns > MAX_POOL_RESPAWNS:
                raise self.fail(salvaged[0] if salvaged else 0, RuntimeError(
                    f"worker pool broke {self.pool_respawns} times "
                    f"(limit {MAX_POOL_RESPAWNS}); last cause: {reason}"))
            in_flight.clear()
            self.cells_salvaged += len(salvaged)
            self.pending.extend(salvaged)
            self.publish()
            _log.warning("worker pool respawn %d/%d (%s); re-queued %d "
                         "in-flight cell(s)", self.pool_respawns,
                         MAX_POOL_RESPAWNS, reason, len(salvaged))
            kill_pool()
            pool = make_pool()

        pool = make_pool()
        try:
            while self.pending or in_flight:
                if self.flag.tripped:
                    # graceful drain: stop submitting, let in-flight finish
                    if not in_flight:
                        self.interrupt()
                else:
                    while self.pending and len(in_flight) < workers:
                        index = self.pending.popleft()
                        try:
                            future = pool.submit(_run_cell, self.specs[index])
                        except (BrokenProcessPool, RuntimeError) as exc:
                            # pool broke between waits; put the cell back
                            # untouched and rebuild
                            self.pending.appendleft(index)
                            respawn(repr(exc))
                            break
                        in_flight[future] = (index, time.monotonic())
                        self.start(index)
                if not in_flight:  # the pool was rebuilt before a submit
                    continue

                try:
                    done, _ = wait(set(in_flight), timeout=_POLL_INTERVAL_S,
                                   return_when=FIRST_COMPLETED)
                except KeyboardInterrupt:  # second signal while waiting
                    kill_pool()
                    self.interrupt()

                # Journal every success of this wait before charging any
                # failure, then charge failures in cell order, so no
                # finished sibling is lost and the error names the same
                # cell run to run.
                failures: list[tuple[int, BaseException]] = []
                for future in done:
                    index, _submitted = in_flight.pop(future)
                    exc = future.exception()
                    if exc is None:
                        self.record_success(index, future.result())
                    else:
                        failures.append((index, exc))
                failures.sort(key=lambda failure: failure[0])
                if any(isinstance(exc, KeyboardInterrupt) for _, exc in failures):
                    kill_pool()  # the interrupt reached the workers too
                    self.interrupt()
                for index, exc in failures:
                    if not isinstance(exc, BrokenProcessPool):
                        raise self.fail(index, exc) from exc
                    self.requeue_or_raise(index, exc, timed_out=False)
                if failures:  # every one of them lost its worker
                    respawn(repr(failures[0][1]))
                    continue

                if self.cfg.cell_timeout_s is not None:
                    now = time.monotonic()
                    expired = [future for future, (_i, submitted) in in_flight.items()
                               if now - submitted >= self.cfg.cell_timeout_s]
                    if expired:
                        for index in sorted(in_flight.pop(f)[0] for f in expired):
                            self.requeue_or_raise(
                                index,
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
    status: Optional[SweepStatusWriter] = None,
) -> tuple[list[SimulationResult], ResilienceSummary]:
    """Execute cells under fault domains; results come back in input order.

    Returns the results (identical under re-queues, respawns and
    resumes: the determinism contract) and a :class:`ResilienceSummary`
    of what the harness absorbed along the way.  ``jobs=1`` runs
    serially in-process; otherwise a process pool runs the cells, and
    ``config`` (``None`` is ``ResilienceConfig()``: no re-queues, no
    timeout) bounds the re-queues after a lost worker or a timeout.

    ``checkpoint`` may be a path (opened/created as a
    :class:`SweepCheckpoint`) or an already-loaded instance; cells whose
    :func:`spec_key` is journaled are restored without re-running.
    ``status`` publishes the executor's ledger as the live status feed
    on every change, and its final ``done`` or ``failed`` state when
    the sweep returns or raises.

    Raises :class:`SweepInterrupted` on SIGINT/SIGTERM after draining
    and flushing; :class:`CellExecutionError` at once when a cell
    raises, and :class:`CellExecutionError`/:class:`CellTimeoutError`
    when a lost or timed-out cell exhausts its re-queues.
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

    sweep = _Sweep(spec_list, jobs=jobs, config=cfg, checkpoint=ckpt,
                   status=status)
    if status is not None:
        status.attach(sweep.status_document)
    previous = _install_handlers(sweep.flag)
    final_state = "failed"
    try:
        sweep.restore_from_checkpoint()
        if sweep.pending:
            if jobs == 1:
                sweep.run_serial()
            else:
                sweep.run_pool()
        final_state = "done"
    except KeyboardInterrupt:
        # escalated second signal (or an embedder's interrupt): flush
        # what we have and surface the resume hint anyway
        sweep.interrupt()
    finally:
        _restore_handlers(previous)
        if status is not None:
            status.finish(state=final_state)
    results = sweep.results
    assert all(r is not None for r in results)
    return list(results), sweep.summary()  # type: ignore[arg-type]
