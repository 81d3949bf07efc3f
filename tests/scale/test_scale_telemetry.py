"""Scale tier: 64-disk / 16-shard telemetry capture and federation.

The acceptance contract of DESIGN.md Sec. 13 at a size where merge
bookkeeping errors (heap-order drift across many segments, remap
overflow past disk 9, tick replay over long horizons) would actually
surface:

* the merged trace is byte-identical across ``--jobs`` and across
  shard counts;
* the merged time-series equals the unsharded (``n_shards=1``) run's
  exactly.
"""

import pytest

from repro.experiments.shard import run_sharded
from repro.obs import ObsConfig
from repro.workload.synthetic import SyntheticWorkloadConfig

pytestmark = pytest.mark.scale

CFG = SyntheticWorkloadConfig(n_files=10_000, n_requests=300_000, seed=23,
                              bursty=True)


def _obs(tmp_path, tag):
    root = tmp_path / tag
    root.mkdir(parents=True, exist_ok=True)
    return ObsConfig(trace_path=str(root / "trace.jsonl"),
                     metrics_path=str(root / "metrics.csv"),
                     sample_interval_s=600.0)


def _run(tmp_path, tag, *, n_shards, jobs=1):
    obs = _obs(tmp_path, tag)
    result, _ = run_sharded("static-high", CFG, n_disks=64,
                            n_shards=n_shards, jobs=jobs, obs=obs)
    return result


def test_64_disk_traced_merge_is_jobs_and_shard_invariant(tmp_path):
    base = _run(tmp_path, "s16j1", n_shards=16, jobs=1)
    _run(tmp_path, "s16j4", n_shards=16, jobs=4)
    _run(tmp_path, "s8j1", n_shards=8, jobs=1)
    trace = (tmp_path / "s16j1/trace.jsonl").read_bytes()
    assert (tmp_path / "s16j4/trace.jsonl").read_bytes() == trace
    assert (tmp_path / "s8j1/trace.jsonl").read_bytes() == trace

    unsharded = _run(tmp_path, "s1", n_shards=1)
    assert (tmp_path / "s1/trace.jsonl").read_bytes() == trace
    assert base.timeseries == unsharded.timeseries
    assert (tmp_path / "s16j1/metrics.csv").read_bytes() \
        == (tmp_path / "s1/metrics.csv").read_bytes()
    # remap sanity at scale: the last shard's merged rows name disks 60..63
    assert 63 in {row[1] for row in base.timeseries.rows}
