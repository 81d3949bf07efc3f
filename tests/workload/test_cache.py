"""WorkloadCache: keying and LRU behavior."""

import dataclasses

import pytest

from repro.workload.cache import (
    DEFAULT_MAX_ENTRIES,
    WorkloadCache,
    cached_generate,
    default_cache,
    workload_key,
)
from repro.workload.synthetic import SyntheticWorkloadConfig

CFG = SyntheticWorkloadConfig(n_files=60, n_requests=800, seed=9)


def _variants() -> list[SyntheticWorkloadConfig]:
    return [
        CFG,
        dataclasses.replace(CFG, seed=10),
        dataclasses.replace(CFG, n_requests=801),
        dataclasses.replace(CFG, bursty=True),
        dataclasses.replace(CFG, zipf_alpha=0.5),
    ]


class TestWorkloadKey:
    def test_equal_configs_share_a_key(self):
        assert workload_key(CFG) == workload_key(dataclasses.replace(CFG))

    def test_any_field_change_changes_the_key(self):
        keys = [workload_key(c) for c in _variants()]
        assert len(set(keys)) == len(keys)


class TestInMemoryCache:
    def test_miss_then_hit_returns_same_objects(self):
        cache = WorkloadCache()
        first = cache.get_or_generate(CFG)
        second = cache.get_or_generate(dataclasses.replace(CFG))
        assert first[0] is second[0] and first[1] is second[1]
        assert (cache.misses, cache.hits) == (1, 1)

    def test_distinct_configs_miss_independently(self):
        cache = WorkloadCache()
        for cfg in _variants():
            cache.get_or_generate(cfg)
        assert cache.misses == len(_variants())
        assert cache.hits == 0

    def test_lru_eviction_drops_oldest(self):
        cache = WorkloadCache(max_entries=2)
        a, b, c = _variants()[:3]
        cache.get_or_generate(a)
        cache.get_or_generate(b)
        cache.get_or_generate(a)   # refresh a; b is now oldest
        cache.get_or_generate(c)   # evicts b
        assert len(cache) == 2
        cache.get_or_generate(a)
        assert cache.hits == 2     # a stayed resident
        cache.get_or_generate(b)   # regenerated
        assert cache.misses == 4

    def test_clear_empties_memory(self):
        cache = WorkloadCache()
        cache.get_or_generate(CFG)
        cache.clear()
        assert len(cache) == 0
        cache.get_or_generate(CFG)
        assert cache.misses == 2

    def test_rejects_bad_max_entries(self):
        with pytest.raises(ValueError, match="max_entries"):
            WorkloadCache(max_entries=0)


class TestDefaultCache:
    def test_cached_generate_uses_the_singleton(self):
        cache = default_cache()
        assert cache.max_entries == DEFAULT_MAX_ENTRIES
        before = cache.hits + cache.misses
        a = cached_generate(CFG)
        b = cached_generate(dataclasses.replace(CFG))
        assert a[0] is b[0]
        assert cache.hits + cache.misses >= before + 2
