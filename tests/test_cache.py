"""Tests for the cache model and hierarchy cost model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import Cache, CacheHierarchy, HierarchyConfig


class TestGeometry:
    def test_default_geometry(self):
        cache = Cache()
        assert cache.num_sets == 32 * 1024 // (8 * 64)

    def test_size_not_multiple(self):
        with pytest.raises(ValueError):
            Cache(size_bytes=1000, ways=8)


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        cache = Cache(size_bytes=1024, ways=2)
        assert cache.access(0x100) == 1      # cold miss
        assert cache.access(0x100) == 0      # hit
        assert cache.access(0x13F) == 0      # same line
        assert cache.stats.read_misses == 1
        assert cache.stats.read_hits == 2

    def test_write_accounting(self):
        cache = Cache(size_bytes=1024, ways=2)
        cache.access(0, write=True)
        cache.access(0, write=True)
        assert cache.stats.write_misses == 1
        assert cache.stats.write_hits == 1

    def test_lru_eviction(self):
        # Direct-mapped-ish: 2 ways, 1 set when size == 2 lines.
        cache = Cache(size_bytes=128, ways=2)
        assert cache.num_sets == 1
        cache.access(0 * 64)
        cache.access(1 * 64)
        cache.access(0 * 64)        # touch line 0: now line 1 is LRU
        cache.access(2 * 64)        # evicts line 1
        assert cache.access(0 * 64) == 0   # still resident
        assert cache.access(1 * 64) == 1   # was evicted

    def test_multi_line_access(self):
        cache = Cache(size_bytes=1024, ways=2)
        misses = cache.access(60, size=16)   # crosses a line boundary
        assert misses == 2

    def test_flush(self):
        cache = Cache(size_bytes=1024, ways=2)
        cache.access(0)
        cache.flush()
        assert cache.access(0) == 1
        assert cache.stats.read_misses == 2  # stats preserved by flush

    def test_reset_clears_stats(self):
        cache = Cache(size_bytes=1024, ways=2)
        cache.access(0)
        cache.reset()
        assert cache.stats.accesses == 0

    def test_miss_rate(self):
        cache = Cache(size_bytes=1024, ways=2)
        assert cache.stats.miss_rate == 0.0
        cache.access(0)
        cache.access(0)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    @given(addresses=st.lists(st.integers(0, 1 << 20), min_size=1,
                              max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_capacity_invariant(self, addresses):
        """Resident lines never exceed the configured capacity."""
        cache = Cache(size_bytes=2048, ways=4)
        capacity = cache.num_sets * cache.ways
        for address in addresses:
            cache.access(address)
            assert cache.resident_lines() <= capacity

    @given(addresses=st.lists(st.integers(0, 1 << 16), min_size=1,
                              max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_repeat_is_hit(self, addresses):
        """Accessing the same address twice in a row always hits."""
        cache = Cache(size_bytes=2048, ways=4)
        for address in addresses:
            cache.access(address)
            assert cache.access(address) == 0


class TestHierarchy:
    def test_hit_cost(self):
        hierarchy = HierarchyConfig(hit_cycles=1, miss_penalty=40).build()
        first = hierarchy.access_cycles(0x100, 8, False)
        second = hierarchy.access_cycles(0x100, 8, False)
        assert first == 1 + 40
        assert second == 1

    def test_miss_counting(self):
        hierarchy = HierarchyConfig().build()
        hierarchy.access_cycles(0, 8, False)
        hierarchy.access_cycles(1 << 16, 8, True)
        assert hierarchy.l1d_misses == 2
        assert hierarchy.l1d_accesses == 2

    def test_reset(self):
        hierarchy = HierarchyConfig().build()
        hierarchy.access_cycles(0, 8, False)
        hierarchy.reset()
        assert hierarchy.l1d_accesses == 0
        assert hierarchy.access_cycles(0, 8, False) > 1  # cold again
