"""Equivalence of the batched C engine with the FastHierarchy oracle.

:class:`BatchHierarchy` exists purely for speed; any behavioural divergence
from :class:`FastHierarchy` is a bug. These tests drive both with the same
traces — random, streaming, adversarially small geometries, and
hypothesis-generated — and require bit-identical statistics, then check
the conservation laws of :mod:`tests.cache.conservation` on both engines.
``tests/cache/test_kernel_backends.py`` runs the same helper over every
configuration class the figures use (DRRIP, prefetch, reserved ways).
Without the C kernel library there is no fast path to compare, so the
module is skipped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import BatchHierarchy, FastHierarchy, HierarchyConfig
from repro.cache.kernels import cnative
from tests.cache.conservation import assert_conserved

pytestmark = pytest.mark.skipif(
    not cnative.available(), reason="the C kernel library is unavailable"
)

TINY = HierarchyConfig(
    l1_bytes=512,
    l1_ways=2,
    l2_bytes=2048,
    l2_ways=4,
    llc_bytes=8192,
    llc_ways=8,
    llc_policy="plru",
    prefetch=False,
)

BATCHABLE = {
    "tiny-plru": TINY,
    "tiny-lru": HierarchyConfig(
        l1_bytes=512,
        l1_ways=2,
        l2_bytes=2048,
        l2_ways=4,
        llc_bytes=8192,
        llc_ways=8,
        l1_policy="lru",
        l2_policy="lru",
        llc_policy="lru",
        prefetch=False,
    ),
    "mixed-policies": HierarchyConfig(
        l1_policy="lru",
        l2_policy="plru",
        llc_policy="lru",
        prefetch=False,
    ),
    "default-geometry": HierarchyConfig(prefetch=False, llc_policy="plru"),
}


def assert_same_state(batch, fast, label=None):
    """Every counter, and the prefetcher's stream table, must agree. The
    table is compared as a list of items: its oldest-first order decides
    which stream a full table drops next, and dict ``==`` ignores it."""
    assert batch.hits == fast.hits, label
    assert batch.misses == fast.misses, label
    assert batch.dram_reads == fast.dram_reads, label
    assert batch.dram_writes == fast.dram_writes, label
    assert batch.dram_prefetch_reads == fast.dram_prefetch_reads, label
    if fast.prefetcher is not None:
        assert batch.prefetcher.issued == fast.prefetcher.issued, label
        assert list(batch.prefetcher._expect.items()) == list(
            fast.prefetcher._expect.items()
        ), label


def assert_equivalent(config, lines, writes):
    """Replay one trace through both engines; returns ``(fast, batch)``.

    The per-access servicing levels, every counter and the prefetcher
    state must agree, and both engines must satisfy the conservation laws.
    """
    lines = np.asarray(lines, dtype=np.int64)
    writes = np.asarray(writes, dtype=bool)
    fast = FastHierarchy(config)
    batch = BatchHierarchy(config)
    fast_served = fast.simulate(lines, writes)
    batch_served = batch.simulate(lines, writes)
    assert np.array_equal(batch_served, fast_served)
    assert_same_state(batch, fast)
    for hierarchy, served in ((fast, fast_served), (batch, batch_served)):
        assert_conserved(hierarchy, served)
    return fast, batch


@pytest.mark.parametrize("name", sorted(BATCHABLE))
def test_equivalence_random_trace(name):
    config = BATCHABLE[name]
    rng = np.random.default_rng(1234)
    lines = rng.integers(0, 5000, size=20_000)
    writes = rng.random(20_000) < 0.4
    assert_equivalent(config, lines, writes)


@pytest.mark.parametrize("name", sorted(BATCHABLE))
def test_equivalence_against_reference(name):
    """A high-reuse trace (600 lines) against the reference engine, down
    to the final residency of every line at every level."""
    config = BATCHABLE[name]
    rng = np.random.default_rng(99)
    lines = rng.integers(0, 600, size=4_000)
    writes = rng.random(4_000) < 0.5
    fast, batch = assert_equivalent(config, lines, writes)
    for level in range(3):
        assert [batch.contains(level, x) for x in range(600)] == [
            fast.contains(level, x) for x in range(600)
        ], level


def test_equivalence_streaming_trace():
    lines = np.asarray(list(range(3000)) * 2)
    assert_equivalent(TINY, lines, np.zeros(lines.size, dtype=bool))


def test_stateful_across_chunks():
    """Repeated ``run_trace`` calls carry cache contents over, exactly as
    repeated ``access`` calls do on the oracle."""
    rng = np.random.default_rng(5)
    fast = FastHierarchy(TINY)
    batch = BatchHierarchy(TINY)
    for _ in range(4):
        lines = rng.integers(0, 2000, size=5_000)
        writes = rng.random(5_000) < 0.5
        a = fast.run_trace(lines.tolist(), writes.tolist())
        b = batch.run_trace(lines, writes)
        assert a == b
    assert_same_state(batch, fast)


@given(
    lines=st.lists(st.integers(0, 255), min_size=1, max_size=400),
    write_bits=st.integers(min_value=0),
)
@settings(max_examples=60, deadline=None)
def test_equivalence_property(lines, write_bits):
    writes = [(write_bits >> i) & 1 == 1 for i in range(len(lines))]
    assert_equivalent(TINY, lines, writes)


def _short_trace(seed=3, size=3_000, span=1_500):
    rng = np.random.default_rng(seed)
    return rng.integers(0, span, size=size), rng.random(size) < 0.4


class TestCapabilities:
    """The batched engine handles each configuration class on its own."""

    def test_supports_batchable(self):
        for config in BATCHABLE.values():
            assert_equivalent(config, *_short_trace())

    def test_supports_drrip(self):
        # the default LLC policy is DRRIP
        assert_equivalent(HierarchyConfig(prefetch=False), *_short_trace())

    def test_supports_prefetch(self):
        fast, _ = assert_equivalent(
            HierarchyConfig(llc_policy="plru", prefetch=True),
            np.arange(2_000) % 700,
            np.zeros(2_000, dtype=bool),
        )
        assert fast.dram_prefetch_reads > 0

    def test_supports_reserved_ways(self):
        assert_equivalent(
            HierarchyConfig(
                llc_policy="plru", prefetch=False, llc_reserved_ways=4
            ),
            *_short_trace(),
        )

    def test_supports_default_machine(self):
        assert_equivalent(HierarchyConfig(), *_short_trace())

    def test_rejects_unknown_policy(self):
        """No engine implements other policies, so the configuration
        itself refuses them, naming the level and the policy."""
        with pytest.raises(ValueError, match="llc replacement policy 'random'"):
            HierarchyConfig(llc_policy="random")


class TestBatchSimExtras:
    def test_run_trace_scalar_write_flag(self):
        batch = BatchHierarchy(TINY)
        counts = batch.run_trace(np.asarray([1, 2, 3, 1]), True)
        assert counts.total == 4
        assert counts.l1 == 1  # the repeated line

    def test_contains(self):
        batch = BatchHierarchy(TINY)
        batch.run_trace(np.asarray([7]))
        assert batch.contains(0, 7)
        assert batch.contains(2, 7)
        assert not batch.contains(0, 8)

    def test_reset_stats_preserves_contents(self):
        batch = BatchHierarchy(TINY)
        batch.run_trace(np.asarray([7]))
        batch.reset_stats()
        assert batch.dram_reads == 0
        assert batch.run_trace(np.asarray([7])).l1 == 1  # still resident

    def test_bypass_accounting(self):
        batch = BatchHierarchy(TINY)
        batch.write_through_dram(4)
        batch.read_through_dram(2)
        assert batch.dram_writes == 4
        assert batch.dram_reads == 2

    def test_empty_trace(self):
        batch = BatchHierarchy(TINY)
        counts = batch.run_trace(np.asarray([], dtype=np.int64))
        assert counts.total == 0
