"""Scale tier: a 64-disk sharded run equals the unsharded run bit-for-bit.

The tier-1 suite proves the sharding identity on small arrays; this is
the same contract at a scale where shard bookkeeping errors (remap
overflow, reduction-order drift, horizon mismatches across many idle
disks) would actually surface.  "Unsharded" is ``n_shards=1`` through
the same canonical reducer — the definition DESIGN.md Sec. 12 gives —
and every field, response statistics included, must match exactly.
"""

import pytest

from repro.experiments.parallel import RunSpec, run_cells
from repro.experiments.shard import merge_cell, run_sharded, shard_specs
from repro.redundancy import parse_redundancy_spec
from repro.workload.synthetic import SyntheticWorkloadConfig

pytestmark = pytest.mark.scale

CFG = SyntheticWorkloadConfig(n_files=10_000, n_requests=300_000, seed=23,
                              bursty=True)
FIELDS = (
    "policy_name", "n_disks", "n_requests", "duration_s",
    "mean_response_s", "p95_response_s", "p99_response_s",
    "total_energy_j", "array_afr_percent", "per_disk",
    "total_transitions", "internal_jobs", "energy_breakdown_j",
    "events_executed",
)


@pytest.mark.parametrize("policy,scheme", [("static-high", None),
                                           ("static-low", None),
                                           ("static-high", "mirror2")])
def test_64_disk_sharded_equals_unsharded_bit_for_bit(policy, scheme):
    layout = None if scheme is None else parse_redundancy_spec(scheme)
    cell = RunSpec(policy=policy, n_disks=64, workload=CFG, redundancy=layout)
    unsharded = merge_cell(cell, run_cells(shard_specs(cell, 1)))
    sharded = merge_cell(cell, run_cells(shard_specs(cell, 16), jobs=4))
    assert (sharded.redundancy is None) == (layout is None)
    for f in FIELDS + ("redundancy",):
        assert getattr(sharded, f) == getattr(unsharded, f), \
            f"field {f} diverged between 16-shard and unsharded execution"


def test_64_disk_merge_is_jobs_invariant():
    serial, _ = run_sharded("static-high", CFG, n_disks=64, n_shards=8,
                            jobs=1)
    pooled, _ = run_sharded("static-high", CFG, n_disks=64, n_shards=8,
                            jobs=8)
    assert serial == pooled
