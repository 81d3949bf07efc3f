"""The benchmark's three canonical simulation cells.

Each workload is built from a seed (setup) and then runs one *operation*
repeatedly: the same cell over the same inputs, through the package's
public entry points.  ``run`` is the timed part; ``check`` turns what it
returned into an :class:`OpResult` outside the timed region: the
simulated outputs (for the digest check), the invariant violations seen
from outside the program, the number of simulated requests processed,
and the per-layer counts the traced run reports.

Sizes are fixed per workload; ``"tiny"`` exists only so the benchmark's
own tests can run every workload in seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterator

import repro.experiments.runner as runner
from repro.experiments.costmodel import evaluate_worthwhileness
from repro.experiments.metrics import SimulationResult
from repro.experiments.runner import make_policy, run_simulation
from repro.experiments.shard import run_sharded
from repro.faults import FaultConfig
from repro.obs import ObsConfig
from repro.redundancy import parse_redundancy_spec
from repro.workload.cache import cached_generate, default_cache
from repro.workload.stream import SyntheticStreamSpec
from repro.workload.synthetic import WORLDCUP_MEAN_INTERARRIVAL_S, SyntheticWorkloadConfig

SIZES = {
    "full": {"files": 1_000, "requests": 30_000,
             "shard_files": 2_000, "shard_requests": 100_000},
    "tiny": {"files": 120, "requests": 1_500,
             "shard_files": 200, "shard_requests": 3_000},
}

FIG7_POLICIES = ("read", "maid", "pdc", "static-high")
FIG7_REFERENCE = "static-high"


@dataclass
class OpResult:
    """What one operation produced, as seen from outside the program."""

    #: Simulated requests the operation ran to completion (served or
    #: permanently failed).
    requests: int
    #: Simulated outputs; their digest must not change between runs.
    outputs: dict
    #: Digest and size of the program's merged trace, when it wrote one.
    trace: dict = field(default_factory=dict)
    #: Invariant violations found by the outside checks.
    violations: list[str] = field(default_factory=list)
    #: Per-layer counts for the traced run (``sim.events`` and so on).
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        """Digest of everything the operation produced."""
        return _digest({"outputs": self.outputs, "trace": self.trace})

    @property
    def sim_digest(self) -> str:
        """Digest of the simulated outputs alone (tracing must not move it)."""
        return _digest(self.outputs)


def _digest(value: object) -> str:
    blob = json.dumps(value, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _light_trace(seed: int, files: int, requests: int) -> SyntheticWorkloadConfig:
    """The paper's light load (Sec. 5.1) with bursty arrivals."""
    return SyntheticWorkloadConfig(n_files=files, n_requests=requests,
                                   mean_interarrival_s=WORLDCUP_MEAN_INTERARRIVAL_S,
                                   bursty=True, seed=seed)


def _timed_generate(config: SyntheticWorkloadConfig) -> float:
    """Materialize a workload into the process cache; return the seconds."""
    start = perf_counter()
    cached_generate(config)
    return perf_counter() - start


def _result_outputs(r: SimulationResult) -> dict:
    out: dict = {
        "policy": r.policy_name,
        "n_disks": r.n_disks,
        "n_requests": r.n_requests,
        "duration_s": r.duration_s,
        "mean_response_s": r.mean_response_s,
        "p95_response_s": r.p95_response_s,
        "p99_response_s": r.p99_response_s,
        "energy_j": r.total_energy_j,
        "energy_breakdown_j": r.energy_breakdown_j,
        "array_afr_percent": r.array_afr_percent,
        "disk_afr_percent": [f.afr_percent for f in r.per_disk],
        "transitions": r.total_transitions,
        "internal_jobs": r.internal_jobs,
        "events": r.events_executed,
    }
    if r.faults is not None:
        out["faults"] = dataclasses.asdict(r.faults)
    if r.redundancy is not None:
        out["redundancy"] = dataclasses.asdict(r.redundancy)
    return out


def _value_violations(r: SimulationResult) -> list[str]:
    """Energy and AFR must be finite and non-negative."""
    bad = []
    values = dict(r.energy_breakdown_j)
    values["total_energy_j"] = r.total_energy_j
    values["array_afr_percent"] = r.array_afr_percent
    for f in r.per_disk:
        values[f"disk{f.disk_id}.afr_percent"] = f.afr_percent
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0.0):
            bad.append(f"{r.policy_name}: {name} = {value!r}")
    return bad


def _tally_violations(r: SimulationResult, tally: list) -> list[str]:
    """completed + failed must equal the trace length of the cell."""
    if not tally:
        return []  # no request counter to observe (see _request_tally)
    completed, failed = tally[-1]
    if completed + failed != r.n_requests:
        return [f"{r.policy_name}: completed {completed} + failed {failed} "
                f"!= requests {r.n_requests}"]
    return []


@contextlib.contextmanager
def _request_tally() -> Iterator[list]:
    """Yield a list that receives ``(completed, failed)`` per runner cell.

    The runner builds one ``RequestMetrics`` per cell and keeps it to
    itself; a subclass bound in its place records each instance, and
    reading its totals after the run costs the hot path nothing.  The
    instances are dropped on exit: the subclass's closure would otherwise
    keep them, and their per-request arrays, alive until a full garbage
    collection.  If the runner no longer has that binding the check is
    skipped rather than failing every operation.
    """
    totals: list = []
    original = getattr(runner, "RequestMetrics", None)
    if original is None:
        yield totals
        return
    made: list = []

    class Tally(original):  # type: ignore[misc, valid-type]
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            made.append(self)

    runner.RequestMetrics = Tally
    try:
        yield totals
    finally:
        runner.RequestMetrics = original
        totals.extend((m.completed, m.failed) for m in made)
        made.clear()


class Fig7Light:
    """The title question on the light load: four policies, then verdicts."""

    name = "fig7-light"

    def __init__(self, seed: int, size: str) -> None:
        s = SIZES[size]
        self.config = _light_trace(seed, s["files"], s["requests"])
        self.n_disks = 8
        self.generate_s = _timed_generate(self.config)
        for policy in FIG7_POLICIES:
            make_policy(policy)

    def run(self, work_dir: Path):
        fileset, trace = cached_generate(self.config)
        cells = {}
        for policy in FIG7_POLICIES:
            with _request_tally() as tally:
                r = run_simulation(make_policy(policy), fileset, trace,
                                   n_disks=self.n_disks)
            cells[policy] = (r, tally)
        reference = cells[FIG7_REFERENCE][0]
        verdicts = {policy: evaluate_worthwhileness(r, reference)
                    for policy, (r, _) in cells.items() if policy != FIG7_REFERENCE}
        return cells, verdicts

    def check(self, raw) -> OpResult:
        cells, verdicts = raw
        violations: list[str] = []
        for r, tally in cells.values():
            violations += _tally_violations(r, tally) + _value_violations(r)
        results = [r for r, _ in cells.values()]
        outputs = {
            "cells": {p: _result_outputs(r) for p, (r, _) in cells.items()},
            "verdicts": {p: {
                "energy_saving_usd_per_year": v.energy_saving_usd_per_year,
                "extra_failure_cost_usd_per_year": v.extra_failure_cost_usd_per_year,
                "loss_model": v.loss_model,
                "worthwhile": v.worthwhile,
            } for p, v in verdicts.items()},
        }
        return OpResult(requests=sum(r.n_requests for r in results),
                        outputs=outputs, violations=violations,
                        counts=_cell_counts(results))


class FaultsBlock42:
    """READ on 8 disks with accelerated faults over one block4-2 group."""

    name = "faults-block4-2"

    def __init__(self, seed: int, size: str) -> None:
        s = SIZES[size]
        self.config = _light_trace(seed, s["files"], s["requests"])
        self.faults = FaultConfig(seed=seed, accel=200_000.0)
        self.scheme = parse_redundancy_spec("block4-2")
        self.n_disks = 8
        self.generate_s = _timed_generate(self.config)
        make_policy("read")

    def run(self, work_dir: Path):
        fileset, trace = cached_generate(self.config)
        with _request_tally() as tally:
            r = run_simulation(make_policy("read"), fileset, trace,
                               n_disks=self.n_disks, faults=self.faults,
                               redundancy=self.scheme)
        return r, tally

    def check(self, raw) -> OpResult:
        r, tally = raw
        violations = _tally_violations(r, tally) + _value_violations(r)
        counts = _cell_counts([r])
        if r.faults is None or r.redundancy is None:
            violations.append("fault or redundancy summary missing")
        else:
            counts["faults.disk_failures"] = len(r.faults.failure_schedule)
            counts["faults.requests_failed"] = r.faults.requests_failed
            counts["faults.requests_retried"] = r.faults.requests_retried
            counts["redundancy.reconstruct_reads"] = r.redundancy.reconstruct_reads
            counts["redundancy.rebuild_read_legs"] = r.redundancy.rebuild_read_legs
        return OpResult(requests=r.n_requests, outputs=_result_outputs(r),
                        violations=violations, counts=counts)


class ShardTraced:
    """static-high over a streamed trace, 16 disks in 4 shards, traced."""

    name = "shard-traced"

    def __init__(self, seed: int, size: str) -> None:
        s = SIZES[size]
        self.spec = SyntheticStreamSpec(
            _light_trace(seed, s["shard_files"], s["shard_requests"]))
        self.n_disks = 16
        self.n_shards = 4
        #: Program tracing on; the traced benchmark run also times the
        #: cell with it off to isolate the cost of emitting the trace.
        self.program_trace = True
        #: Nothing is materialized: shards generate the trace as they go.
        self.generate_s = 0.0
        make_policy("static-high")

    def run(self, work_dir: Path):
        trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=work_dir))
        obs = (ObsConfig(trace_path=str(trace_dir / "trace.jsonl"))
               if self.program_trace else None)
        try:
            merged, _ = run_sharded("static-high", self.spec, n_disks=self.n_disks,
                                    n_shards=self.n_shards, jobs=1, obs=obs)
        except BaseException:
            shutil.rmtree(trace_dir, ignore_errors=True)
            raise
        return merged, trace_dir, obs

    def check(self, raw) -> OpResult:
        merged, trace_dir, obs = raw
        try:
            return self._check(merged, None if obs is None else Path(obs.trace_path))
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)

    def _check(self, merged: SimulationResult, trace_path: Path | None) -> OpResult:
        expected = self.spec.config.n_requests
        violations = _value_violations(merged)
        # no faults under sharding: every request must have been served
        if merged.n_requests != expected:
            violations.append(f"completed {merged.n_requests} + failed 0 "
                              f"!= requests {expected}")
        counts = _cell_counts([merged])
        trace: dict = {}
        if trace_path is not None:
            digest, lines, last = _scan_trace(trace_path)
            segments = sorted(trace_path.parent.glob(f"{trace_path.stem}.shard*"))
            data_events = sum(_count_lines(p) for p in segments)
            if len(segments) != self.n_shards:
                violations.append(f"{len(segments)} trace segments for "
                                  f"{self.n_shards} shards")
            if lines != data_events + 2:
                violations.append(f"merged trace has {lines} lines for "
                                  f"{data_events} shard data events + 2")
            if last.get("events") != data_events:
                violations.append(f"engine.stop reports {last.get('events')} "
                                  f"events, segments hold {data_events}")
            trace = {"sha256": digest, "lines": lines}
            size = trace_path.stat().st_size
            counts["obs.trace_bytes"] = size
            counts["obs.bytes_per_event"] = size / lines
        return OpResult(requests=merged.n_requests,
                        outputs=_result_outputs(merged), trace=trace,
                        violations=violations, counts=counts)


def _cell_counts(results) -> dict[str, float]:
    results = list(results)
    return {
        "sim.events": sum(r.events_executed for r in results),
        "disk.transitions": sum(r.total_transitions for r in results),
        "policies.internal_jobs": sum(r.internal_jobs for r in results),
    }


def _count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


def _scan_trace(path: Path) -> tuple[str, int, dict]:
    """sha256, line count and last record of one JSONL trace file."""
    h = hashlib.sha256()
    lines = 0
    last = b""
    with path.open("rb") as fh:
        for line in fh:
            h.update(line)
            lines += 1
            last = line
    return h.hexdigest(), lines, (json.loads(last) if last.strip() else {})


WORKLOADS = {w.name: w for w in (Fig7Light, FaultsBlock42, ShardTraced)}


def cache_counts() -> dict[str, int]:
    """Hits and misses of the process-wide workload cache."""
    cache = default_cache()
    return {"workload.cache_hits": cache.hits, "workload.cache_misses": cache.misses}
