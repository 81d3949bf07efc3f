"""Pinned trace and sampler bytes: the emit, merge and sampling paths may
get faster, never different.

The trace digests were captured from the ``json.dumps``-per-event
exporter and the decode/re-encode merge, before segments went untagged
and before orjson wrote and read them.  Any change to the canonical
JSONL bytes — float formatting (orjson's exponent syntax), key order,
escaping, ``seq`` numbering, a shard tag leaking into the merged trace —
shows up here as a digest mismatch.

The sampler digests were captured from the column-buffer snapshot path
that once served these cells.  The CSV renders floats with ``repr``, so
a numpy scalar leaking into a row changes the bytes, not just the type.
"""

import hashlib

from repro.experiments.runner import make_policy, run_simulation
from repro.experiments.shard import run_sharded
from repro.obs import ObsConfig
from repro.obs.export import timeseries_to_csv_text
from repro.workload.cache import cached_generate
from repro.workload.synthetic import SyntheticWorkloadConfig

CFG = SyntheticWorkloadConfig(n_files=150, n_requests=2_500, seed=7,
                              mean_interarrival_s=0.02)
MERGED_SHA256 = "0da2f9b7c5713cb1f3c4c6d43c044151e9b82fe54bbfb04865b14df3c3bd9da0"
UNSHARDED_SHA256 = "5cd7e4a537ebfae3113f51539b6294ec875981efa1f45d35708549017dbb76a4"
LINES = 7_502
SAMPLE_INTERVAL_S = 2.0
SAMPLED_UNSHARDED_SHA256 = "5aafccda900636e322b5ec90f9c78ea541ed2143555e34a7c44f1510ed8a8537"
SAMPLED_MERGED_SHA256 = "1def665b8ec5743f022702e8701d28f0df35601e4c95ef1955a1b1c0d5c2ba24"
SAMPLE_LINES = 209  # header + 26 ticks x 8 disks


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


def _series_digest(series):
    text = timeseries_to_csv_text(series).encode()
    return hashlib.sha256(text).hexdigest(), text.count(b"\n")


def test_unsharded_sampled_series_is_pinned():
    fileset, trace = cached_generate(CFG)
    result = run_simulation(make_policy("read"), fileset, trace, n_disks=8,
                            obs=ObsConfig(sample_interval_s=SAMPLE_INTERVAL_S))
    assert _series_digest(result.timeseries) == (SAMPLED_UNSHARDED_SHA256,
                                                 SAMPLE_LINES)


def test_merged_four_shard_sampled_series_is_pinned():
    result, _ = run_sharded("static-high", CFG, n_disks=8, n_shards=4,
                            obs=ObsConfig(sample_interval_s=SAMPLE_INTERVAL_S))
    assert _series_digest(result.timeseries) == (SAMPLED_MERGED_SHA256,
                                                 SAMPLE_LINES)
