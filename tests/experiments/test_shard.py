"""Sharded execution: plan properties, merge determinism, unsharded equality.

The load-bearing claims of :mod:`repro.experiments.shard`:

* the merged result is bit-identical across ``jobs`` values and across
  ``n_shards`` (for the shard-decomposable static policies) — every
  field, response stats included;
* ``n_shards=1`` through the canonical reducer agrees exactly with the
  plain :func:`~repro.experiments.runner.run_simulation` on all physical
  fields (the percentile fields are histogram-quantized by design);
* sweeps over sharded cells checkpoint and resume per shard.
"""

import numpy as np
import pytest

from repro.experiments.parallel import RunSpec, run_cell, run_cells
from repro.experiments.runner import _POLICY_REGISTRY, make_policy, run_simulation
from repro.experiments.shard import (
    N_RESPONSE_BINS,
    ShardCellSpec,
    ShardPlan,
    histogram_percentile_s,
    merge_cell,
    merge_shard_results,
    response_bin,
    response_bin_upper_s,
    run_sharded,
    shard_specs,
)
from repro.redundancy import parse_redundancy_spec
from repro.workload.cache import cached_generate
from repro.workload.files import FileSet
from repro.workload.stream import SyntheticStream
from repro.workload.synthetic import SyntheticWorkloadConfig

CFG = SyntheticWorkloadConfig(n_files=150, n_requests=2_500, seed=7,
                              mean_interarrival_s=0.02)
#: Fields whose values are defined identically for sharded and plain runs.
PHYSICAL_FIELDS = (
    "policy_name", "n_disks", "n_requests", "duration_s", "total_energy_j",
    "array_afr_percent", "per_disk", "total_transitions", "internal_jobs",
    "energy_breakdown_j", "events_executed",
)
ALL_COMPARED_FIELDS = PHYSICAL_FIELDS + (
    "mean_response_s", "p95_response_s", "p99_response_s",
)


def _strip_sharding(result):
    """Policy detail minus the per-plan sharding block (differs by design)."""
    return {k: v for k, v in result.policy_detail.items() if k != "sharding"}


class TestShardPlan:
    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            ShardPlan(n_disks=10, n_shards=4)

    def test_affinity_follows_size_ranked_disks(self):
        # file k in size order goes to global disk k % n_disks; its shard
        # is that disk's contiguous group
        plan = ShardPlan(n_disks=4, n_shards=2)
        fileset = FileSet([4.0, 1.0, 3.0, 2.0, 5.0])
        order = fileset.ids_sorted_by_size()
        shard_of = plan.shard_of_files(fileset)
        for rank, fid in enumerate(order.tolist()):
            assert shard_of[fid] == (rank % 4) // 2

    def test_every_shard_gets_contiguous_disks(self):
        plan = ShardPlan(n_disks=12, n_shards=3)
        assert plan.disks_per_shard == 4
        assert [plan.disk_offset(s) for s in range(3)] == [0, 4, 8]

    def test_shard_spec_validation(self):
        plan = ShardPlan(n_disks=4, n_shards=2)
        with pytest.raises(ValueError):
            ShardCellSpec(plan, 2)


class TestResponseHistogram:
    def test_bin_edges_cover_clamped_range(self):
        assert response_bin(0.0) == 0
        assert response_bin(1e-9) == 0
        assert response_bin(1e3) == N_RESPONSE_BINS - 1
        mid = response_bin(0.01)
        assert 0 < mid < N_RESPONSE_BINS - 1
        assert response_bin_upper_s(mid) >= 0.01

    def test_bins_are_monotone_in_response(self):
        values = [1e-5, 1e-3, 0.01, 0.1, 1.0, 10.0]
        bins = [response_bin(v) for v in values]
        assert bins == sorted(bins)

    def test_percentile_upper_edge_rule(self):
        counts = np.zeros(N_RESPONSE_BINS, dtype=np.int64)
        counts[100] = 90
        counts[200] = 10
        assert histogram_percentile_s(counts, 50.0) == response_bin_upper_s(100)
        assert histogram_percentile_s(counts, 95.0) == response_bin_upper_s(200)
        assert histogram_percentile_s(counts, 100.0) == response_bin_upper_s(200)

    def test_percentile_rejects_empty(self):
        with pytest.raises(ValueError):
            histogram_percentile_s(np.zeros(N_RESPONSE_BINS, dtype=np.int64), 95.0)


class TestShardedEqualsUnsharded:
    @pytest.mark.parametrize("policy", ["static-high", "static-low"])
    def test_static_family_bit_identical_across_shardings(self, policy):
        base, _ = run_sharded(policy, CFG, n_disks=8, n_shards=1)
        for n_shards in (2, 4, 8):
            sharded, _ = run_sharded(policy, CFG, n_disks=8, n_shards=n_shards)
            for f in ALL_COMPARED_FIELDS:
                assert getattr(sharded, f) == getattr(base, f), \
                    f"{f} diverged at n_shards={n_shards}"
            assert _strip_sharding(sharded) == _strip_sharding(base)

    @pytest.mark.parametrize("policy", sorted(_POLICY_REGISTRY))
    def test_single_shard_matches_plain_runner_physically(self, policy):
        # both finalizes reduce the same closed ledgers, so every policy
        # matches, the migrating and caching ones included
        fileset, trace = cached_generate(CFG)
        plain = run_simulation(make_policy(policy), fileset, trace,
                               n_disks=6)
        sharded, summary = run_sharded(policy, CFG, n_disks=6,
                                       n_shards=1)
        assert summary.cells_total == 1 and not summary.eventful
        for f in PHYSICAL_FIELDS:
            assert getattr(sharded, f) == getattr(plain, f), f
        # responses: the mean reduces to the same sum; percentiles are
        # histogram-quantized, so agree to one bin (~0.9 %)
        assert sharded.mean_response_s == pytest.approx(plain.mean_response_s,
                                                        rel=1e-12)
        assert sharded.p95_response_s == pytest.approx(plain.p95_response_s,
                                                       rel=0.01)
        assert sharded.p99_response_s == pytest.approx(plain.p99_response_s,
                                                       rel=0.01)

    @pytest.mark.parametrize("scheme,n_disks", [("mirror2", 8),
                                                ("block4-2", 16)])
    def test_redundancy_prices_like_plain_runner(self, scheme, n_disks):
        # faults off, the group geometry never touches the run: sharded
        # cells carry the layout only into the merge's CTMC assessment
        layout = parse_redundancy_spec(scheme)
        fileset, trace = cached_generate(CFG)
        plain = run_simulation(make_policy("static-high"), fileset, trace,
                               n_disks=n_disks, redundancy=layout)
        assert plain.redundancy is not None
        cell = RunSpec(policy="static-high", n_disks=n_disks, workload=CFG,
                       redundancy=layout)
        for n_shards in (1, 2, 4):
            sharded = merge_cell(cell, run_cells(shard_specs(cell, n_shards)))
            for f in PHYSICAL_FIELDS + ("redundancy",):
                assert getattr(sharded, f) == getattr(plain, f), \
                    f"{f} diverged at n_shards={n_shards}"

    def test_jobs_do_not_change_the_merge(self):
        serial, _ = run_sharded("static-high", CFG, n_disks=8, n_shards=4,
                                jobs=1)
        pooled, _ = run_sharded("static-high", CFG, n_disks=8, n_shards=4,
                                jobs=3)
        assert serial == pooled

    def test_chunk_size_does_not_change_the_merge(self, monkeypatch):
        # shards filter the stream chunk by chunk; a chunking that splits
        # the trace many times must merge to the single-chunk result
        whole, _ = run_sharded("static-high", CFG, n_disks=8, n_shards=2)
        chunks, sizes = SyntheticStream.chunks, []

        def fine_chunks(stream, chunk_size=0):
            for chunk in chunks(stream, 97):
                sizes.append(chunk.times_s.size)
                yield chunk

        monkeypatch.setattr(SyntheticStream, "chunks", fine_chunks)
        fine, _ = run_sharded("static-high", CFG, n_disks=8, n_shards=2)
        assert len(sizes) > 2 * CFG.n_requests // 97  # both shards, many chunks
        assert fine == whole


class TestShardCellMechanics:
    def test_fault_injection_rejected(self):
        from repro.faults import FaultConfig

        plan = ShardPlan(n_disks=4, n_shards=2)
        spec = RunSpec(policy="static-high", n_disks=4, workload=CFG,
                       faults=FaultConfig(seed=1),
                       shard=ShardCellSpec(plan, 0))
        with pytest.raises(ValueError, match="fault injection"):
            run_cell(spec)

    def test_plan_mismatch_rejected(self):
        plan = ShardPlan(n_disks=8, n_shards=2)
        spec = RunSpec(policy="static-high", n_disks=4, workload=CFG,
                       shard=ShardCellSpec(plan, 0))
        with pytest.raises(ValueError, match="n_disks"):
            run_cell(spec)

    def test_zero_request_shard_idles_until_global_end(self):
        # 3 requests can reach at most 3 of the 4 shards, so at least one
        # shard dispatches nothing — its disk must still account idle
        # energy over the full global horizon
        tiny = SyntheticWorkloadConfig(n_files=8, n_requests=3, seed=3,
                                       mean_interarrival_s=0.01)
        merged, _ = run_sharded("static-high", tiny, n_disks=4, n_shards=4)
        assert merged.n_requests == 3
        sharding = merged.policy_detail["sharding"]
        assert 0 in sharding["shard_requests"]
        # every disk (served or idle) integrates the whole duration
        for factors in merged.per_disk:
            assert factors.afr_percent > 0.0
        idle_energy = merged.energy_breakdown_j.get("idle_high", 0.0)
        assert idle_energy > 0.0
        # and the merged result matches the unsharded reference exactly
        base, _ = run_sharded("static-high", tiny, n_disks=4, n_shards=1)
        for f in ALL_COMPARED_FIELDS:
            assert getattr(merged, f) == getattr(base, f), f

    def test_file_less_shard_rejected(self):
        # 2 files over 4 shards: some shard owns nothing -> clear error
        tiny = SyntheticWorkloadConfig(n_files=2, n_requests=100, seed=3)
        with pytest.raises(Exception, match="owns no files"):
            run_sharded("static-high", tiny, n_disks=4, n_shards=4)

    def test_merge_requires_complete_shard_set(self):
        plan = ShardPlan(n_disks=4, n_shards=2)
        spec = RunSpec(policy="static-high", n_disks=4, workload=CFG,
                       shard=ShardCellSpec(plan, 0))
        partial = run_cell(spec)
        with pytest.raises(ValueError, match="one result per shard"):
            merge_shard_results([partial])  # type: ignore[list-item]

    def test_shard_results_checkpoint_and_resume(self, tmp_path):
        ckpt = tmp_path / "shards.ckpt"
        first, summary1 = run_sharded("static-high", CFG, n_disks=8,
                                      n_shards=4, checkpoint=str(ckpt))
        assert summary1 is not None and summary1.cells_run == 4
        second, summary2 = run_sharded("static-high", CFG, n_disks=8,
                                       n_shards=4, checkpoint=str(ckpt))
        assert summary2 is not None
        assert summary2.checkpoint_hits == 4
        assert summary2.cells_run == 0
        assert first == second


class TestFigure7Sharded:
    def test_figure7_sharded_equals_unsharded_for_static(self):
        from repro.experiments.figures import figure7_comparison
        from repro.experiments.runner import ExperimentConfig

        config = ExperimentConfig(workload=CFG)
        kw = dict(config=config, disk_counts=[4, 8],
                  policies=["static-high", "static-low"])
        plain = figure7_comparison(**kw)
        sharded = figure7_comparison(**kw, shards=2)
        for policy in kw["policies"]:
            for a, b in zip(plain.results[policy], sharded.results[policy]):
                for f in ("total_energy_j", "array_afr_percent", "per_disk",
                          "duration_s", "total_transitions"):
                    assert getattr(a, f) == getattr(b, f), (policy, f)

    def test_figure7_sharded_validates_divisibility(self):
        from repro.experiments.figures import figure7_comparison
        from repro.experiments.runner import ExperimentConfig

        with pytest.raises(ValueError, match="divide"):
            figure7_comparison(ExperimentConfig(workload=CFG),
                               disk_counts=[6], policies=["static-high"],
                               shards=4)
