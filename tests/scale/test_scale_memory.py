"""Scale tier: streaming a million requests stays inside a fixed RSS budget.

``resource.getrusage`` reports the *lifetime* peak RSS of a process, so
the measurement must run in a fresh subprocess — measuring in the test
process would inherit whatever earlier tests peaked at.  The child runs
a full sharded million-request cell over the streamed workload and
prints its peak; the parent asserts the budget.

Run with ``pytest -m scale tests/scale`` (excluded from the default
tier-1 run).
"""

import json
import subprocess
import sys

import pytest

pytestmark = pytest.mark.scale

#: Peak-RSS budget for the 1M-request child, in MiB.  The interpreter
#: plus numpy baseline is ~41 MiB (peak RSS after importing
#: ``repro.experiments.shard`` on CPython 3.11; the simulation path
#: loads no scipy); the streamed path adds one
#: chunk (~1 MiB), per-disk accumulators, and the bounded event heap.
#: A materialized path would add the full trace plus O(n) metrics
#: arrays and grow without bound as n does; the budget pins that out.
PEAK_RSS_BUDGET_MIB = 256

N_REQUESTS = 1_000_000

CHILD = r"""
import json
import resource
import sys

from repro.experiments.shard import run_sharded
from repro.workload.synthetic import SyntheticWorkloadConfig

cfg = SyntheticWorkloadConfig(n_files=5_000, n_requests=%(n)d, seed=17,
                              bursty=True)
result, _ = run_sharded("static-high", cfg, n_disks=16, n_shards=4)
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "n_requests": result.n_requests,
    "duration_s": result.duration_s,
    "total_energy_j": result.total_energy_j,
    "peak_rss_mib": peak_kb / 1024.0,
}))
""" % {"n": N_REQUESTS}


def test_million_request_stream_fits_the_rss_budget():
    proc = subprocess.run([sys.executable, "-c", CHILD],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["n_requests"] == N_REQUESTS
    assert report["total_energy_j"] > 0.0
    assert report["peak_rss_mib"] < PEAK_RSS_BUDGET_MIB, (
        f"streaming {N_REQUESTS:,} requests peaked at "
        f"{report['peak_rss_mib']:.0f} MiB "
        f"(budget {PEAK_RSS_BUDGET_MIB} MiB) — has something started "
        f"materializing the workload or per-request metrics?")
