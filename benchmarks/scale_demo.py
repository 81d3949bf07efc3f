"""The million-request-scale demonstration run (committed artifact).

Runs one 256-disk cell split into 16 shards over a streamed ten-million
request workload — the scale the streaming + sharding layer exists for —
and writes ``benchmarks/results/scale_demo_256.json`` recording the
merged physical results and the process-tree peak RSS.  The artifact is
committed so the numbers travel with the code; re-produce with:

    PYTHONPATH=src python benchmarks/scale_demo.py

Deliberately NOT named ``bench_*.py``: it is a multi-minute run and must
never be collected into a pytest session by the benchmark glob.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from repro.experiments.shard import run_sharded
from repro.workload.synthetic import SyntheticWorkloadConfig

N_REQUESTS = 10_000_000
N_DISKS = 256
N_SHARDS = 16
CONFIG = SyntheticWorkloadConfig(n_files=20_000, n_requests=N_REQUESTS,
                                 seed=2008, bursty=True)
ARTIFACT = Path(__file__).resolve().parent / "results" / "scale_demo_256.json"


def peak_rss_mib() -> float:
    """Lifetime peak RSS of this process and its reaped children, MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def main(jobs: int = 1) -> int:
    start = perf_counter()
    result, _summary = run_sharded("static-high", CONFIG, n_disks=N_DISKS,
                                   n_shards=N_SHARDS, jobs=jobs)
    wall_s = perf_counter() - start
    doc = {
        "what": "streamed sharded scale demo: one static-high cell",
        "n_requests": result.n_requests,
        "n_disks": result.n_disks,
        "n_shards": N_SHARDS,
        "jobs": jobs,
        "workload": {"n_files": CONFIG.n_files, "seed": CONFIG.seed,
                     "bursty": CONFIG.bursty},
        "duration_s": result.duration_s,
        "mean_response_s": result.mean_response_s,
        "p95_response_s": result.p95_response_s,
        "p99_response_s": result.p99_response_s,
        "total_energy_j": result.total_energy_j,
        "array_afr_percent": result.array_afr_percent,
        "events_executed": result.events_executed,
        "wall_clock_s": round(wall_s, 1),
        "requests_per_sec": round(result.n_requests / wall_s),
        "peak_rss_mib": round(peak_rss_mib(), 1),
    }
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(doc, indent=2))
    print(f"wrote {ARTIFACT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(jobs=int(sys.argv[1]) if len(sys.argv) > 1 else 1))
