"""Throughput regression gate over the committed ``BENCH_throughput.json``.

``compare()`` is a pure function over two result dicts so the tier-1
tests can exercise the gate logic without re-measuring anything;
``main()`` wires it to the files ``bench_throughput.py`` writes:

    PYTHONPATH=src python benchmarks/check_regression.py

exits non-zero (and prints why) if the freshest measurement in
``.benchmarks/throughput.json`` (git-ignored) regressed more than 20% against
the committed baseline.  It also prints the committed/measured ratio of
every gated metric and warns, without failing, when a committed number
is more than :data:`STALE_BASELINE_FACTOR` times slower than the fresh
one: such a baseline lets the 20% gate fire only on a slowdown of about
that factor, and the warning makes it show in CI logs.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

#: Committed reference numbers (repo root, updated when perf work lands).
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"
#: Fresh, host-specific measurement written by bench_throughput.py.
RESULTS_PATH = Path(__file__).resolve().parent.parent / ".benchmarks" / "throughput.json"

#: Allowed relative slowdown before the gate fails.
DEFAULT_THRESHOLD = 0.20

#: A committed number more than this many times slower than the fresh
#: measurement is reported as stale (a warning, never a failure).
STALE_BASELINE_FACTOR = 2.0

#: Allowed wall-clock ratio of a traced run over the same run with
#: telemetry off.  Tracing costs one call into the cell's trace writer
#: and one orjson encode per event where its bytes provably equal the
#: stdlib's (DESIGN.md Sec. 8.4).  Three bench runs back to back on
#: the shared 2-core reference host measured 1.626-1.640x on the
#: reference cell (median 1.63x); the cap sits at about 1.4x the
#: median.  The trace bus in front of the writer, as before, measured
#: 1.93x in a run alongside them, which passes: the cap catches gross
#: regressions only.
MAX_TRACING_OVERHEAD = 2.3

#: Same guard for one *sharded* cell (16 disks / 4 shards).  On top of
#: the per-event encode, the k-way merge parses every segment line in
#: full (orjson, stdlib fallback) to validate it, then copies its bytes.
#: The same three runs measured 2.620-2.632x (median 2.63x); the cap
#: sits at about 1.4x the median.  The bus, the lambda id remap and the
#: per-record merge writes, as before, measured 3.20x, which passes.
MAX_SHARD_TRACING_OVERHEAD = 3.7

#: Hard floor on the streamed sharded dispatch rate (requests/sec end to
#: end: chunked generation + filtered dispatch + per-shard kernels +
#: merge, serial).  Committed measurements sit around 60-70k on the
#: reference host; the floor is set far below that so only a structural
#: slowdown (e.g. the stream path accidentally materializing, or
#: per-request overhead creeping into the chunk loop) can trip it.
FLOOR_STREAM_REQUESTS_PER_SEC = 15_000

#: Absolute ceiling on merging one 64-disk / 16-shard cell.  Measured
#: around 2 ms; the ceiling is two orders above because ms-scale timers
#: swing with host load, but a merge that takes a large fraction of a
#: second means the fixed-order reduction grew accidental O(n^2) work.
MAX_SHARD_MERGE_S = 0.25

#: metric name -> True if higher is better.  ``cell_obs_off_s`` is the
#: obs-disabled guard: the telemetry hooks must not slow the default
#: (no-subscriber) path beyond the ordinary threshold.
#: ``kernel_events_per_sec_object`` is the event-heap microbenchmark
#: (self-rescheduling tick through the event heap).
_METRICS = {
    "kernel_events_per_sec_object": True,
    "sweep8_serial_s": False,
    "sweep8_jobs4_s": False,
    "cell_obs_off_s": False,
    "cell_traced_s": False,
    "rebuild_cell_s": False,
    "stream_requests_per_sec": True,
    "shard_merge_s": False,
    "shard_obs_off_s": False,
    "shard_traced_s": False,
}


def compare(current: dict, baseline: dict, *,
            threshold: float = DEFAULT_THRESHOLD) -> list[str]:
    """Return one message per metric that regressed beyond ``threshold``.

    An empty list means the gate passes.  Metrics missing from either
    dict are skipped (new benches should not fail old baselines and
    vice versa); non-finite or non-positive baselines are skipped too.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold!r}")
    problems: list[str] = []
    for metric, higher_is_better in _METRICS.items():
        if metric not in current or metric not in baseline:
            continue
        cur = float(current[metric])
        base = float(baseline[metric])
        if not base > 0.0 or cur != cur or base != base:
            continue
        if higher_is_better:
            loss = (base - cur) / base
        else:
            loss = (cur - base) / base
        if loss > threshold:
            problems.append(
                f"{metric}: {cur:g} vs baseline {base:g} "
                f"({loss * 100.0:.1f}% worse, limit {threshold * 100.0:.0f}%)")
    return problems


def baseline_ratios(current: dict, baseline: dict) -> tuple[list[str], list[str]]:
    """Describe how far the committed baseline sits from ``current``.

    Returns ``(ratios, warnings)``: one line per gated metric with its
    committed/measured ratio, and one warning per metric whose committed
    number is more than :data:`STALE_BASELINE_FACTOR` times slower than the
    measurement (a wall time that many times longer, a rate that many
    times lower).  Metrics :func:`compare` skips are skipped here too,
    as is a non-positive measurement.  Neither list affects the gate.
    """
    ratios: list[str] = []
    warnings: list[str] = []
    for metric, higher_is_better in _METRICS.items():
        if metric not in current or metric not in baseline:
            continue
        cur = float(current[metric])
        base = float(baseline[metric])
        if not (0.0 < base < math.inf and 0.0 < cur < math.inf):
            continue
        ratio = base / cur
        slower = 1.0 / ratio if higher_is_better else ratio
        ratios.append(f"{metric}: committed {base:g} / measured {cur:g} = "
                      f"{ratio:.3g} (baseline {slower:.2f}x as slow)")
        if slower > STALE_BASELINE_FACTOR:
            warnings.append(
                f"{metric}: committed {base:g} is {slower:.2f}x slower than "
                f"measured {cur:g} (stale above {STALE_BASELINE_FACTOR:g}x): the "
                f"{DEFAULT_THRESHOLD * 100.0:.0f}% gate fires only on a "
                f"slowdown of more than {slower:.2f}x")
    return ratios, warnings


def tracing_overhead(current: dict, *,
                     max_ratio: float = MAX_TRACING_OVERHEAD,
                     max_shard_ratio: float = MAX_SHARD_TRACING_OVERHEAD,
                     ) -> list[str]:
    """Check the traced/untraced wall-clock ratios within one measurement.

    Unlike :func:`compare` this needs no baseline — both numbers of each
    pair come from the same run on the same machine, so the ratio is
    free of host-speed noise.  A pair whose measurement is missing or
    non-positive is skipped (the check cannot run).
    """
    if not max_ratio > 1.0:
        raise ValueError(f"max_ratio must be > 1, got {max_ratio!r}")
    if not max_shard_ratio > 1.0:
        raise ValueError(f"max_shard_ratio must be > 1, got {max_shard_ratio!r}")
    pairs = (
        ("cell_obs_off_s", "cell_traced_s", "tracing overhead", max_ratio),
        ("shard_obs_off_s", "shard_traced_s", "shard tracing overhead",
         max_shard_ratio),
    )
    problems: list[str] = []
    for off_key, traced_key, label, limit in pairs:
        off = float(current.get(off_key, 0.0) or 0.0)
        traced = float(current.get(traced_key, 0.0) or 0.0)
        if not (off > 0.0 and traced > 0.0):
            continue
        ratio = traced / off
        if ratio > limit:
            problems.append(f"{label}: {traced:g}s traced vs {off:g}s off "
                            f"({ratio:.2f}x, limit {limit:g}x)")
    return problems


def stream_floor(current: dict, *,
                 floor: float = FLOOR_STREAM_REQUESTS_PER_SEC,
                 merge_ceiling: float = MAX_SHARD_MERGE_S) -> list[str]:
    """Absolute gates on the streamed sharded path.

    Both checks skip silently when their metric is absent (old result
    files); the relative :func:`compare` gate still applies.
    """
    if not floor > 0.0:
        raise ValueError(f"floor must be > 0, got {floor!r}")
    if not merge_ceiling > 0.0:
        raise ValueError(f"merge_ceiling must be > 0, got {merge_ceiling!r}")
    problems: list[str] = []
    if "stream_requests_per_sec" in current:
        rate = float(current["stream_requests_per_sec"])
        if rate < floor:
            problems.append(
                f"stream floor: {rate:g} requests/sec below the "
                f"{floor:g} absolute floor")
    if "shard_merge_s" in current:
        merge_s = float(current["shard_merge_s"])
        if merge_s > merge_ceiling:
            problems.append(
                f"shard merge: {merge_s:g}s above the "
                f"{merge_ceiling:g}s absolute ceiling (64 disks, 16 shards)")
    return problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    results_path = Path(args[0]) if args else RESULTS_PATH
    if not results_path.exists():
        print(f"no results at {results_path}; run "
              f"PYTHONPATH=src python -m pytest benchmarks/bench_throughput.py first")
        return 2
    current = json.loads(results_path.read_text(encoding="utf-8"))
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    ratios, warnings = baseline_ratios(current, baseline)
    for line in ratios:
        print(f"ratio {line}")
    for line in warnings:
        print(f"WARNING stale baseline {line}")
    problems = (compare(current, baseline) + tracing_overhead(current)
                + stream_floor(current))
    if problems:
        for line in problems:
            print(f"REGRESSION {line}")
        return 1
    print(f"ok: {results_path.name} within {DEFAULT_THRESHOLD * 100.0:.0f}% "
          f"of {BASELINE_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
