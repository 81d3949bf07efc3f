"""Scale tier: a million-request cell stays inside a fixed RSS budget.

``resource.getrusage`` reports the *lifetime* peak RSS of a process, so
each measurement runs in a fresh subprocess — measuring in the test
process would inherit whatever earlier tests peaked at.  One child runs
a full sharded million-request cell over the streamed workload and
prints its peak; another materializes the same workload, runs it
unsharded, and prints how far the cell raised the generation peak.  The
parent asserts the budgets.

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

#: What an unsharded cell may add, in MiB, to the peak its workload
#: generation already reached.  The dispatcher holds one bounded slice
#: of lists, and the 1M response times (8 MB) fit under generation's
#: transient peak.  Converting the whole trace to lists would add about
#: 60 MiB here, and more as n grows.
UNSHARDED_GROWTH_BUDGET_MIB = 32

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

UNSHARDED_CHILD = r"""
import json
import resource

from repro.experiments.runner import make_policy, run_simulation
from repro.workload.cache import cached_generate
from repro.workload.synthetic import SyntheticWorkloadConfig

cfg = SyntheticWorkloadConfig(n_files=5_000, n_requests=%(n)d, seed=17,
                              bursty=True)
fileset, trace = cached_generate(cfg)
generation_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
result = run_simulation(make_policy("static-high"), fileset, trace,
                        n_disks=16)
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "n_requests": result.n_requests,
    "total_energy_j": result.total_energy_j,
    "generation_peak_mib": generation_kb / 1024.0,
    "growth_mib": (peak_kb - generation_kb) / 1024.0,
}))
""" % {"n": N_REQUESTS}


def _child_report(source):
    proc = subprocess.run([sys.executable, "-c", source],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_million_request_stream_fits_the_rss_budget():
    report = _child_report(CHILD)
    assert report["n_requests"] == N_REQUESTS
    assert report["total_energy_j"] > 0.0
    assert report["peak_rss_mib"] < PEAK_RSS_BUDGET_MIB, (
        f"streaming {N_REQUESTS:,} requests peaked at "
        f"{report['peak_rss_mib']:.0f} MiB "
        f"(budget {PEAK_RSS_BUDGET_MIB} MiB) — has something started "
        f"materializing the workload or per-request metrics?")


def test_unsharded_million_request_cell_adds_little_to_generation():
    report = _child_report(UNSHARDED_CHILD)
    assert report["n_requests"] == N_REQUESTS
    assert report["total_energy_j"] > 0.0
    assert report["growth_mib"] < UNSHARDED_GROWTH_BUDGET_MIB, (
        f"the unsharded {N_REQUESTS:,}-request cell raised the peak RSS "
        f"{report['growth_mib']:.0f} MiB above its workload generation's "
        f"{report['generation_peak_mib']:.0f} MiB (budget "
        f"{UNSHARDED_GROWTH_BUDGET_MIB} MiB) — is the dispatcher holding "
        f"more than one bounded slice of the trace as lists?")
