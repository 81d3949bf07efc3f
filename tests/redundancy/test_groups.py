"""RedundancyGroups geometry: membership, domains, reconstruction, health."""

import pytest

from repro.redundancy.groups import GroupHealth, RedundancyGroups
from repro.redundancy.scheme import SCHEME_PRESETS, mirror_scheme


def up_except(*down):
    downset = set(down)
    return lambda d: d not in downset


class TestMembership:
    def test_groups_are_contiguous_blocks(self):
        g = RedundancyGroups(SCHEME_PRESETS["block4-2"], 16)
        assert g.n_groups == 2
        assert list(g.members(0)) == list(range(0, 8))
        assert list(g.members(1)) == list(range(8, 16))
        assert g.group_of(7) == 0 and g.group_of(8) == 1

    def test_array_must_be_multiple_of_group_size(self):
        with pytest.raises(ValueError):
            RedundancyGroups(SCHEME_PRESETS["block4-2"], 12)

    def test_domains_are_array_wide(self):
        # block4-2: one disk per domain per group, so domain d holds the
        # d-th member of every group
        g = RedundancyGroups(SCHEME_PRESETS["block4-2"], 16)
        assert list(g.disks_in_domain(0)) == [0, 8]
        assert list(g.disks_in_domain(7)) == [7, 15]
        assert g.domain_of(3) == 3 and g.domain_of(11) == 3

    def test_mirror3dc_copy_per_domain(self):
        # each file's three copies land one per datacenter domain
        g = RedundancyGroups(SCHEME_PRESETS["mirror3dc"], 9)
        for primary in range(9):
            copies = g.copy_disks(primary)
            assert len(copies) == 3
            assert sorted(g.domain_of(c) for c in copies) == [0, 1, 2]

    @pytest.mark.parametrize("name", sorted(SCHEME_PRESETS))
    def test_loss_units_partition_the_array(self, name):
        scheme = SCHEME_PRESETS[name]
        g = RedundancyGroups(scheme, 2 * scheme.group_size)
        units = g.loss_units()
        assert sorted(d for unit in units for d in unit) == list(range(g.n_disks))
        assert {len(unit) for unit in units} == {scheme.loss_unit_size}
        # disk order: by group, then by the unit's first member
        assert [unit[0] for unit in units] == sorted(unit[0] for unit in units)
        for unit in units:
            assert g.copy_disks(unit[0]) == unit

    def test_mirror3dc_units_are_replica_sets(self):
        g = RedundancyGroups(SCHEME_PRESETS["mirror3dc"], 9)
        assert g.loss_units() == [(0, 3, 6), (1, 4, 7), (2, 5, 8)]


class TestReconstruction:
    def test_parity_needs_k_survivors(self):
        g = RedundancyGroups(SCHEME_PRESETS["block4-2"], 8)
        targets = g.reconstruct_targets(0, up_except(0))
        assert targets == (1, 2, 3, 4, 5, 6)  # k=6 lowest live, not primary
        # two down: still k survivors
        assert len(g.reconstruct_targets(0, up_except(0, 3))) == 6
        # three down: group pierced, nothing to reconstruct from
        assert g.reconstruct_targets(0, up_except(0, 3, 5)) == ()

    def test_mirror_uses_first_live_copy(self):
        g = RedundancyGroups(mirror_scheme(3), 3)
        assert g.reconstruct_targets(0, up_except(0)) == (1,)
        assert g.reconstruct_targets(0, up_except(0, 1)) == (2,)
        assert g.reconstruct_targets(0, up_except(0, 1, 2)) == ()

    def test_servable_tracks_reconstructability(self):
        g = RedundancyGroups(SCHEME_PRESETS["block4-2"], 8)
        assert g.servable(0, up_except(1, 2))   # primary itself is up
        assert g.servable(0, up_except(0, 1))   # exactly k=6 survivors
        assert not g.servable(0, up_except(0, 1, 2))

    def test_rebuild_sources_match_reconstruct_targets(self):
        g = RedundancyGroups(SCHEME_PRESETS["block4-2"], 8)
        assert g.rebuild_sources(2, up_except(2)) == \
            g.reconstruct_targets(2, up_except(2))


class TestHealth:
    def test_parity_ladder(self):
        g = RedundancyGroups(SCHEME_PRESETS["block4-2"], 8)
        assert g.health_of(0, up_except()) is GroupHealth.HEALTHY
        assert g.health_of(0, up_except(0)) is GroupHealth.DEGRADED
        assert g.health_of(0, up_except(0, 1)) is GroupHealth.CRITICAL
        assert g.health_of(0, up_except(0, 1, 2)) is GroupHealth.LOST

    def test_two_way_mirror_has_no_slack(self):
        g = RedundancyGroups(mirror_scheme(2), 2)
        assert g.health_of(0, up_except(0)) is GroupHealth.CRITICAL
        assert g.health_of(0, up_except(0, 1)) is GroupHealth.LOST

    def test_mirror3dc_survives_a_whole_domain(self):
        g = RedundancyGroups(SCHEME_PRESETS["mirror3dc"], 9)
        domain0 = tuple(g.disks_in_domain(0))
        health = g.health_of(0, up_except(*domain0))
        # one copy of everything gone, two live everywhere: degraded
        assert health is GroupHealth.DEGRADED
        for primary in domain0:
            assert g.servable(primary, up_except(*domain0))

    def test_mirror_lost_only_when_a_whole_replica_set_dies(self):
        g = RedundancyGroups(SCHEME_PRESETS["mirror3dc"], 9)
        # copies of local index 0 live at {0, 3, 6} (stride 3)
        assert g.copy_disks(0) == (0, 3, 6)
        # three failures spread across sets: every set keeps two copies
        assert g.health_of(0, up_except(0, 4, 8)) is GroupHealth.DEGRADED
        # the same count aimed at one set kills it
        assert g.health_of(0, up_except(0, 3, 6)) is GroupHealth.LOST

    def test_snapshot_is_per_group(self):
        g = RedundancyGroups(SCHEME_PRESETS["block4-2"], 16)
        snap = g.health_snapshot(up_except(0, 9, 10))
        assert snap == (GroupHealth.DEGRADED, GroupHealth.CRITICAL)
