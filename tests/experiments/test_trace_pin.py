"""Pinned trace bytes: the emit and merge paths may get faster, never
different.

The digests were captured from the ``json.dumps``-per-event exporter and
the decode/re-encode merge.  Any change to the canonical JSONL bytes —
float formatting, key order, escaping, ``seq`` numbering, the shard-tag
cut — shows up here as a digest mismatch.
"""

import hashlib

from repro.experiments.runner import make_policy, run_simulation
from repro.experiments.shard import run_sharded
from repro.obs import ObsConfig
from repro.workload.cache import cached_generate
from repro.workload.synthetic import SyntheticWorkloadConfig

CFG = SyntheticWorkloadConfig(n_files=150, n_requests=2_500, seed=7,
                              mean_interarrival_s=0.02)
MERGED_SHA256 = "0da2f9b7c5713cb1f3c4c6d43c044151e9b82fe54bbfb04865b14df3c3bd9da0"
UNSHARDED_SHA256 = "5cd7e4a537ebfae3113f51539b6294ec875981efa1f45d35708549017dbb76a4"
LINES = 7_502


def _digest(path):
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), data.count(b"\n")


def test_merged_four_shard_trace_is_pinned(tmp_path):
    path = tmp_path / "trace.jsonl"
    run_sharded("static-high", CFG, n_disks=8, n_shards=4,
                obs=ObsConfig(trace_path=str(path)))
    assert _digest(path) == (MERGED_SHA256, LINES)


def test_unsharded_trace_is_pinned(tmp_path):
    path = tmp_path / "trace.jsonl"
    fileset, trace = cached_generate(CFG)
    run_simulation(make_policy("static-high"), fileset, trace, n_disks=8,
                   obs=ObsConfig(trace_path=str(path)))
    assert _digest(path) == (UNSHARDED_SHA256, LINES)
