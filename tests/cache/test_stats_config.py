"""Tests for statistics containers and hierarchy configuration."""

import pytest

from repro.cache import (
    LEVEL_DRAM,
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_LLC,
    HierarchyConfig,
    MemoryTraffic,
    ServiceCounts,
)


class TestServiceCounts:
    def test_record(self):
        counts = ServiceCounts()
        for level in (LEVEL_L1, LEVEL_L1, LEVEL_L2, LEVEL_LLC, LEVEL_DRAM):
            counts.record(level)
        assert (counts.l1, counts.l2, counts.llc, counts.dram) == (2, 1, 1, 1)
        assert counts.total == 5

    def test_record_rejects_unknown(self):
        with pytest.raises(ValueError):
            ServiceCounts().record(9)

    def test_llc_miss_rate(self):
        counts = ServiceCounts(l1=10, l2=5, llc=3, dram=7)
        assert counts.llc_miss_rate == pytest.approx(0.7)

    def test_miss_rates_of_empty_counts(self):
        counts = ServiceCounts()
        assert counts.llc_miss_rate == 0.0
        assert counts.l1_miss_rate == 0.0

    def test_l1_miss_rate(self):
        counts = ServiceCounts(l1=6, l2=2, llc=1, dram=1)
        assert counts.l1_miss_rate == pytest.approx(0.4)

    def test_merged(self):
        merged = ServiceCounts(1, 2, 3, 4).merged(ServiceCounts(4, 3, 2, 1))
        assert merged.as_dict() == {"l1": 5, "l2": 5, "llc": 5, "dram": 5}


class TestMemoryTraffic:
    def test_totals(self):
        traffic = MemoryTraffic(reads=3, writes=2, prefetch_reads=1)
        assert traffic.total_lines == 6
        assert traffic.total_bytes == 6 * 64

    def test_merged(self):
        merged = MemoryTraffic(1, 2).merged(MemoryTraffic(3, 4))
        assert merged.reads == 4
        assert merged.writes == 6

    def test_merge_rejects_line_size_mismatch(self):
        with pytest.raises(ValueError):
            MemoryTraffic(line_bytes=64).merged(MemoryTraffic(line_bytes=32))


class TestHierarchyConfig:
    def test_default_geometry(self):
        config = HierarchyConfig()
        assert config.sets("l1") == 4
        assert config.sets("l2") == 32
        assert config.sets("llc") == 128
        assert config.lines("llc") == 2048

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            HierarchyConfig(l1_bytes=1000)

    @pytest.mark.parametrize("level", ["l1", "l2", "llc"])
    def test_more_ways_than_a_state_word_holds_rejected(self, level):
        """32 2-bit DRRIP fields fill the C walk's 64-bit word per set."""
        fields = {f"{level}_bytes": 32 * 64, f"{level}_ways": 32}
        assert HierarchyConfig(**fields).sets(level) == 1
        fields = {f"{level}_bytes": 33 * 64, f"{level}_ways": 33}
        with pytest.raises(ValueError, match=f"{level}_ways must be at most 32"):
            HierarchyConfig(**fields)

    @pytest.mark.parametrize("prefetch", [False, True])
    @pytest.mark.parametrize("field, bad", [
        ("prefetch_streams", 0),
        ("prefetch_streams", 65),
        ("prefetch_degree", 0),
        ("prefetch_degree", -3),
        ("prefetch_threshold", 0),
    ])
    def test_prefetcher_fields_validated(self, prefetch, field, bad):
        """Checked whether or not the prefetcher is on, naming the field."""
        with pytest.raises(ValueError, match=field):
            HierarchyConfig(prefetch=prefetch, **{field: bad})

    @pytest.mark.parametrize("streams", [1, 64])
    def test_prefetcher_field_limits_accepted(self, streams):
        config = HierarchyConfig(
            prefetch_streams=streams, prefetch_degree=1, prefetch_threshold=1
        )
        assert config.prefetch_streams == streams

    def test_reserved_ways_validated(self):
        with pytest.raises(ValueError, match="reserved"):
            HierarchyConfig(l1_reserved_ways=8)

    def test_with_reserved(self):
        config = HierarchyConfig().with_reserved(l1=7, l2=1, llc=15)
        assert config.l1_reserved_ways == 7
        assert config.llc_reserved_ways == 15

    @pytest.mark.parametrize("level", ["l1", "l2", "llc"])
    def test_unknown_policy_rejected(self, level):
        """Only the policies both engines implement are accepted; anything
        else fails at construction, naming the level and the policy."""
        with pytest.raises(
            ValueError, match=f"unknown {level} replacement policy 'random'"
        ):
            HierarchyConfig(**{f"{level}_policy": "random"})
