"""GroupScheme presets, derived geometry, and the --redundancy parser."""

import pytest

from repro.redundancy.scheme import (
    SCHEME_PRESETS,
    GroupScheme,
    mirror_scheme,
    parse_redundancy_spec,
)


class TestPresets:
    def test_block4_2_geometry(self):
        s = SCHEME_PRESETS["block4-2"]
        assert s.kind == "parity"
        assert (s.group_size, s.data_shards) == (8, 6)
        assert s.fault_tolerance == 2
        assert s.fault_domains == 8
        assert s.loss_unit_size == 8
        assert s.reconstruct_legs == 6

    def test_mirror3dc_geometry(self):
        s = SCHEME_PRESETS["mirror3dc"]
        assert s.kind == "mirror"
        assert (s.group_size, s.replicas, s.fault_domains) == (9, 3, 3)
        assert s.fault_tolerance == 2
        # three independent replica sets of three disks each
        assert s.loss_unit_size == 3
        assert s.reconstruct_legs == 1

    def test_none_is_not_redundant(self):
        s = SCHEME_PRESETS["none"]
        assert not s.is_redundant
        assert s.fault_tolerance == 0

    def test_every_preset_survives_its_declared_tolerance(self):
        for name, s in SCHEME_PRESETS.items():
            assert s.name == name
            if name != "none":
                assert s.is_redundant, name
                assert s.fault_tolerance >= 1, name

    def test_mirror_family(self):
        s = mirror_scheme(5)
        assert s.name == "mirror5"
        assert s.group_size == 5 and s.replicas == 5
        assert s.fault_tolerance == 4
        with pytest.raises(ValueError):
            mirror_scheme(1)


class TestValidation:
    def test_parity_needs_k_below_n(self):
        with pytest.raises(ValueError):
            GroupScheme(name="bad", kind="parity", group_size=4,
                        data_shards=4, replicas=1, fault_domains=4)

    def test_mirror_group_must_divide_into_replica_sets(self):
        with pytest.raises(ValueError):
            GroupScheme(name="bad", kind="mirror", group_size=7,
                        data_shards=1, replicas=2, fault_domains=1)

    def test_domains_must_divide_group(self):
        with pytest.raises(ValueError):
            GroupScheme(name="bad", kind="parity", group_size=8,
                        data_shards=6, replicas=1, fault_domains=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GroupScheme(name="bad", kind="raid", group_size=2,
                        data_shards=1, replicas=2, fault_domains=1)


class TestParser:
    @pytest.mark.parametrize("name", sorted(SCHEME_PRESETS))
    def test_presets_round_trip(self, name):
        assert parse_redundancy_spec(name) is SCHEME_PRESETS[name]

    def test_mirror_n_family(self):
        assert parse_redundancy_spec("mirror4").replicas == 4
        assert parse_redundancy_spec(" MIRROR2 ").name == "mirror2"

    def test_unknown_scheme_names_the_candidates(self):
        with pytest.raises(ValueError, match="block4-2"):
            parse_redundancy_spec("raid6")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_redundancy_spec("   ")

    def test_mirror1_rejected(self):
        with pytest.raises(ValueError):
            parse_redundancy_spec("mirror1")
