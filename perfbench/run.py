"""Cell-level benchmark: three canonical simulation cells, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig7-light --seed 7 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each was chosen and
which layers it bypasses): ``fig7-light``, ``faults-block4-2`` and
``shard-traced``.  Everything runs serially in this one process, with
``jobs=1``.

``--trace 0`` measures end to end: set-up time (median of this process
and fresh child processes), then repeated operations for ``--seconds``; it reports
simulated requests per host second, the median wall time of an
operation, set-up time and peak RSS.  ``--trace 1`` is the separate
traced run: it times a few operations plain, then rebinds the layer
entry points (``spans.py``) and times more, and reports per-layer
seconds and counts, the unattributed ``other_s`` and the traced/plain
wall ratio.

Every operation is checked from outside the program: its simulated
outputs must hash to the same digest as every other operation of the
run (and to the pinned digest in ``pinned.json`` where one exists), and
the conservation invariants in ``cells.py`` must hold.  An operation
that raises or fails a check counts toward ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Work space inside the checkout: program traces (removed after
#: each operation) and the span files of traced runs.
WORK_DIR = ROOT / ".perfbench"
PINNED = BENCH_DIR / "pinned.json"

DEFAULT_SEED = 7
#: Set-ups per run whose median is ``setup_s``: this process plus
#: fresh child processes that set up and exit.
SETUP_SAMPLES = 3
#: The on-disk workload store would let set-up skip generation.
CACHE_ENV = "REPRO_WORKLOAD_CACHE"

END_TO_END = {
    "requests_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit.  ``*_s`` names are seconds summed over one
#: operation's spans (median over the traced operations).
PER_LAYER = {
    "sim.drain_s": "s",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "disk.finalize_s": "s",
    "disk.transitions": "count",
    "policies.layout_s": "s",
    "policies.internal_jobs": "count",
    "press.evaluate_s": "s",
    "faults.disk_failures": "count",
    "faults.requests_failed": "count",
    "faults.requests_retried": "count",
    "redundancy.ctmc_s": "s",
    "redundancy.reconstruct_reads": "count",
    "redundancy.rebuild_read_legs": "count",
    "workload.generate_s": "s",
    "workload.stream_s": "s",
    "workload.cache_hits": "count",
    "workload.cache_misses": "count",
    "shard.cell_s": "s",
    "shard.merge_s": "s",
    "shard.slowest_over_mean": "ratio",
    "obs.emit_s": "s",
    "obs.trace_merge_s": "s",
    "obs.trace_bytes": "bytes",
    "obs.bytes_per_event": "bytes",
    "other_s": "s",
    "trace_overhead_ratio": "ratio",
}

#: Span name -> per-layer metric it is summed into.
SPAN_METRICS = {
    "sim.drain": "sim.drain_s",
    "disk.finalize": "disk.finalize_s",
    "policies.layout": "policies.layout_s",
    "press.evaluate": "press.evaluate_s",
    "redundancy.ctmc": "redundancy.ctmc_s",
    "workload.stream": "workload.stream_s",
    "shard.cell": "shard.cell_s",
    "shard.merge": "shard.merge_s",
    "obs.trace_merge": "obs.trace_merge_s",
}


class Measurement:
    """Runs one workload's operations and keeps the correctness tally."""

    def __init__(self, workload, expected: str | None) -> None:
        self.workload = workload
        #: Digest every operation must produce: the pinned one, else the
        #: first operation's.
        self.expected = expected
        self.sim_expected: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: list[float] = []
        #: Simulated requests per host second, one entry per passing operation.
        self.rates: list[float] = []

    def op(self, tracer=None, *, sim_only: bool = False):
        """Run, time and check one operation.

        Returns ``(wall seconds, OpResult, root span index)``, or ``None``
        when the operation raised.  ``sim_only`` compares only the
        simulated outputs (for a variant that writes no program trace).
        """
        self.attempted += 1
        root = raw = None
        try:
            if tracer is None:
                start = perf_counter()
                raw = self.workload.run(WORK_DIR)
                wall = perf_counter() - start
            else:
                with tracer.span("op") as root:
                    raw = self.workload.run(WORK_DIR)
                wall = tracer.spans[root][2] - tracer.spans[root][1]
            result = self.workload.check(raw)
        except Exception as exc:  # an operation that raises is a failed operation
            self._fail([f"operation raised {exc!r}"])
            return None
        finally:
            # collect this operation's cyclic object graph now, so that it
            # neither lands inside the next timed operation nor lifts RSS
            raw = None
            gc.collect()
        problems = list(result.violations)
        if self.sim_expected is None:
            self.sim_expected = result.sim_digest
        elif result.sim_digest != self.sim_expected:
            problems.append("simulated outputs differ from the first operation's")
        if not sim_only:
            if self.expected is None:
                self.expected = result.digest
            elif result.digest != self.expected:
                problems.append(f"digest {result.digest} != expected {self.expected}")
        if problems:
            self._fail(problems)
        else:
            self.walls.append(wall)
            self.rates.append(result.requests / wall)
        return wall, result, root

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems += problems
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)

    def repeat(self, seconds: float, tracer=None) -> list:
        """Run operations until ``seconds`` have passed (at least one)."""
        done = []
        deadline = perf_counter() + seconds
        while not done or perf_counter() < deadline:
            done.append(self.op(tracer))
        return [d for d in done if d is not None]


def _setup(name: str, seed: int, size: str):
    """Import the package and build the workload; return it and the seconds."""
    start = perf_counter()
    import cells

    if name not in cells.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; "
                         f"known: {', '.join(cells.WORKLOADS)}")
    workload = cells.WORKLOADS[name](seed, size)
    return workload, perf_counter() - start


def _probe_setup(args) -> float:
    """Set-up seconds measured in a fresh child process."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _pinned(name: str, seed: int, size: str) -> str | None:
    if size != "full" or not PINNED.exists():
        return None
    return json.loads(PINNED.read_text(encoding="utf-8")).get(name, {}).get(str(seed))


def end_to_end(bench: Measurement, args, setup_s: float) -> dict[str, float]:
    """The ``--trace 0`` run: time operations, then sample set-up again."""
    bench.repeat(args.seconds)
    setups = [setup_s] + [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    # medians, so one operation slowed by another tenant of the host
    # does not move the figure
    return {
        "requests_per_s": statistics.median(bench.rates) if bench.rates else 0.0,
        "wall_s": statistics.median(bench.walls) if bench.walls else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(bench: Measurement, args) -> dict[str, float]:
    """The ``--trace 1`` run: plain operations, then rebound and timed ones."""
    import cells
    from spans import Tracer

    workload = bench.workload
    plain = [wall for wall, _, _ in bench.repeat(args.seconds / 2)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = bench.repeat(args.seconds / 2, tracer)
        untraced_cell_s = None
        if getattr(workload, "program_trace", False):
            # the same cell with the program's own trace off isolates the
            # cost of emitting it
            workload.program_trace = False
            try:
                variant = bench.op(tracer, sim_only=True)
            finally:
                workload.program_trace = True
            if variant is not None:
                untraced_cell_s = tracer.totals(variant[2]).get("shard.cell", 0.0)
    finally:
        tracer.uninstall()
    tracer.write(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    rows = []
    for wall, result, root in traced:
        totals = tracer.totals(root)
        row = {metric: totals.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
        row.update(result.counts)
        row["other_s"] = tracer.self_time(root)
        cells_s = tracer.durations(root, "shard.cell")
        row["shard.slowest_over_mean"] = (max(cells_s) / statistics.mean(cells_s)
                                          if cells_s else 0.0)
        events = row.get("sim.events", 0)
        row["sim.us_per_event"] = row["sim.drain_s"] / events * 1e6 if events else 0.0
        rows.append(row)
    metrics = {name: statistics.median(r.get(name, 0.0) for r in rows) if rows else 0.0
               for name in PER_LAYER}
    if untraced_cell_s is not None:
        metrics["obs.emit_s"] = metrics["shard.cell_s"] - untraced_cell_s
    else:
        metrics["obs.emit_s"] = 0.0
    metrics["workload.generate_s"] = workload.generate_s
    metrics.update(cells.cache_counts())
    traced_walls = [wall for wall, _, _ in traced]
    metrics["trace_overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(plain)
                                       if plain and traced_walls else 0.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' is for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # set-up must always pay one generation: no on-disk workload store
    os.environ.pop(CACHE_ENV, None)
    if not (SRC / "repro").is_dir():
        print(f"error: package source not found at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))

    workload, setup_s = _setup(args.workload, args.seed, args.size)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    WORK_DIR.mkdir(exist_ok=True)
    bench = Measurement(workload, _pinned(args.workload, args.seed, args.size))
    if args.trace:
        metrics = per_layer(bench, args)
        units = PER_LAYER
    else:
        metrics = end_to_end(bench, args, setup_s)
        units = END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>16.6g} {unit}")
    print(f"  {'operations':<30} {bench.attempted:>16d}")
    print(f"  {'error_rate':<30} {bench.failed / bench.attempted:>16.6g}")
    print(f"  {'digest':<30} {bench.expected}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
