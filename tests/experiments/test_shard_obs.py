"""Telemetry under sharding: the tentpole equality/identity contracts.

The claims of DESIGN.md Sec. 13, asserted end to end:

* the merged per-shard trace is **byte-identical** across ``jobs``
  values and across shard counts (static policies);
* it equals the unsharded run's trace record-for-record, except the
  final ``engine.stop``'s ``events`` payload (data records vs kernel
  events — shard-count-invariant by design, but a different quantity);
* the merged time-series equals the unsharded run's **exactly** (tick
  replay, not approximation);
* telemetry does not perturb physics: the merged result's physical
  fields match the obs-off sharded run bit-for-bit, and the obs-off
  sharded path attaches no telemetry.
"""

import json

import pytest

from repro.experiments.runner import make_policy, run_simulation
from repro.experiments.shard import run_sharded
from repro.obs import ObsConfig, read_trace
from repro.workload.cache import cached_generate
from repro.workload.synthetic import SyntheticWorkloadConfig

CFG = SyntheticWorkloadConfig(n_files=150, n_requests=2_500, seed=7,
                              mean_interarrival_s=0.02)
INTERVAL_S = 5.0
PHYSICAL_FIELDS = (
    "policy_name", "n_disks", "n_requests", "duration_s", "total_energy_j",
    "array_afr_percent", "per_disk", "total_transitions", "internal_jobs",
    "energy_breakdown_j", "events_executed",
    "mean_response_s", "p95_response_s", "p99_response_s",
)


def _obs(tmp_path, tag, *, trace=True, metrics=True):
    root = tmp_path / tag
    root.mkdir(parents=True, exist_ok=True)
    return ObsConfig(
        trace_path=str(root / "trace.jsonl") if trace else None,
        metrics_path=str(root / "metrics.csv") if metrics else None,
        sample_interval_s=INTERVAL_S if metrics else None)


def _run(tmp_path, tag, *, n_shards, jobs=1, trace=True, metrics=True):
    obs = _obs(tmp_path, tag, trace=trace, metrics=metrics)
    result, _ = run_sharded("static-high", CFG, n_disks=8,
                            n_shards=n_shards, jobs=jobs, obs=obs)
    return result, obs


class TestMergedTraceIdentity:
    def test_byte_identical_across_jobs(self, tmp_path):
        _, obs_a = _run(tmp_path, "j1", n_shards=4, jobs=1)
        _, obs_b = _run(tmp_path, "j2", n_shards=4, jobs=2)
        assert (tmp_path / "j1/trace.jsonl").read_bytes() \
            == (tmp_path / "j2/trace.jsonl").read_bytes()

    def test_byte_identical_across_shard_counts(self, tmp_path):
        for tag, n_shards in (("s1", 1), ("s2", 2), ("s4", 4)):
            _run(tmp_path, tag, n_shards=n_shards)
        base = (tmp_path / "s1/trace.jsonl").read_bytes()
        assert (tmp_path / "s2/trace.jsonl").read_bytes() == base
        assert (tmp_path / "s4/trace.jsonl").read_bytes() == base

    def test_equals_unsharded_trace_except_stop_event_count(self, tmp_path):
        _run(tmp_path, "sharded", n_shards=4)
        fileset, trace = cached_generate(CFG)
        plain_obs = _obs(tmp_path, "plain")
        run_simulation(make_policy("static-high"), fileset, trace, n_disks=8,
                       obs=plain_obs)
        merged = list(read_trace(tmp_path / "sharded/trace.jsonl"))
        plain = list(read_trace(tmp_path / "plain/trace.jsonl"))
        assert len(merged) == len(plain)
        # every record but the trailing engine.stop is identical
        assert merged[:-1] == plain[:-1]
        stop_m, stop_p = merged[-1], plain[-1]
        assert stop_m["type"] == stop_p["type"] == "engine.stop"
        assert stop_m["duration_s"] == stop_p["duration_s"]
        # merged counts its data records (shard-count-invariant); the
        # unsharded kernel counts executed events — deliberately not equal
        assert stop_m["events"] == len(merged) - 2

    def test_segments_carry_global_ids_untagged(self, tmp_path):
        _, obs = _run(tmp_path, "segments", n_shards=4)
        seg = tmp_path / "segments/trace.shard0003.jsonl"
        assert all("shard" not in r for r in read_trace(seg))
        records = [r for r in read_trace(seg) if "disk" in r]
        assert records, "last shard saw no disk events"
        # shard 3 of 8 disks owns global disks 6..7
        assert {r["disk"] for r in records} <= {6, 7}


class TestFederatedMetrics:
    def test_timeseries_and_csv_equal_unsharded(self, tmp_path):
        result, obs = _run(tmp_path, "sharded", n_shards=4)
        fileset, trace = cached_generate(CFG)
        plain_obs = _obs(tmp_path, "plain")
        plain = run_simulation(make_policy("static-high"), fileset, trace,
                               n_disks=8, obs=plain_obs)
        assert result.timeseries == plain.timeseries
        assert (tmp_path / "sharded/metrics.csv").read_bytes() \
            == (tmp_path / "plain/metrics.csv").read_bytes()

    def test_single_shard_merge_matches_plain_run(self, tmp_path):
        result, _ = _run(tmp_path, "s1", n_shards=1)
        fileset, trace = cached_generate(CFG)
        plain = run_simulation(make_policy("static-high"), fileset, trace,
                               n_disks=8, obs=_obs(tmp_path, "plain"))
        assert result.timeseries == plain.timeseries

    def test_sampler_only_remaps_rows(self, tmp_path):
        result, _ = _run(tmp_path, "sampled", n_shards=4, trace=False)
        assert result.timeseries is not None
        disks = {int(row[1]) for row in result.timeseries.rows}
        assert disks == set(range(8))  # global ids, all shards present

    def test_sampler_only_timeseries_equals_unsharded(self, tmp_path):
        result, _ = _run(tmp_path, "sampled", n_shards=4, trace=False)
        fileset, trace = cached_generate(CFG)
        plain = run_simulation(
            make_policy("static-high"), fileset, trace, n_disks=8,
            obs=_obs(tmp_path, "plain", trace=False))
        assert result.timeseries == plain.timeseries


class TestTelemetryDoesNotPerturbPhysics:
    def test_tracing_leaves_physical_fields_bit_identical(self, tmp_path):
        traced, _ = _run(tmp_path, "on", n_shards=4, metrics=False)
        bare, _ = run_sharded("static-high", CFG, n_disks=8, n_shards=4)
        for f in PHYSICAL_FIELDS:
            assert getattr(traced, f) == getattr(bare, f), f"{f} diverged"

    def test_sampled_sharded_matches_sampled_unsharded(self, tmp_path):
        # The sampler's observation points regroup the floating-point
        # temperature integration (ulp-level, sampled vs unsampled), but
        # sharded-sampled vs unsharded-sampled observe at the same
        # simulated times — so these two agree bit-for-bit.
        sampled, _ = _run(tmp_path, "sampled", n_shards=4, trace=False)
        fileset, trace = cached_generate(CFG)
        plain = run_simulation(
            make_policy("static-high"), fileset, trace, n_disks=8,
            obs=_obs(tmp_path, "plain", trace=False))
        for f in PHYSICAL_FIELDS:
            # each shard runs its own sampler ticks (events differ) and
            # sharded percentiles are histogram-quantized by design
            if f in ("events_executed", "p95_response_s", "p99_response_s"):
                continue
            assert getattr(sampled, f) == getattr(plain, f), f"{f} diverged"

    def test_obs_off_sharded_path_attaches_no_telemetry(self):
        bare, _ = run_sharded("static-high", CFG, n_disks=8, n_shards=2)
        assert bare.timeseries is None


class TestEdgeCases:
    def test_zero_request_shard_merges_cleanly(self, tmp_path):
        # seed chosen so shard 2's only file draws zero requests: its
        # segment holds no data records
        tiny = SyntheticWorkloadConfig(n_files=4, n_requests=20, seed=2,
                                       mean_interarrival_s=0.02,
                                       zipf_alpha=1.0)
        obs = _obs(tmp_path, "tiny")
        result, _ = run_sharded("static-high", tiny, n_disks=4, n_shards=4,
                                obs=obs)
        assert result.n_requests == 20
        idle = [r for r in read_trace(tmp_path / "tiny/trace.shard0002.jsonl")
                if r["type"].startswith("request.")]
        assert idle == []
        merged = list(read_trace(tmp_path / "tiny/trace.jsonl"))
        assert merged[0]["type"] == "engine.start"
        assert merged[-1]["type"] == "engine.stop"
        # idle shards still sample: the time-series covers all 4 disks
        assert {int(r[1]) for r in result.timeseries.rows} == set(range(4))

    def test_merged_trace_is_valid_jsonl_with_dense_seq(self, tmp_path):
        _run(tmp_path, "seq", n_shards=2)
        with open(tmp_path / "seq/trace.jsonl", encoding="utf-8") as fh:
            seqs = [json.loads(line)["seq"] for line in fh]
        assert seqs == list(range(len(seqs)))
