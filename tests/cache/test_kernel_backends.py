"""The C kernels on every configuration class the figures use.

:class:`BatchHierarchy` runs the ``cnative`` hierarchy walk: LRU, bit-PLRU
and DRRIP with PSEL set dueling, LLC-gated prefetch fills, and reserved
ways. Each class gets its own configuration here and is replayed against
the :class:`FastHierarchy` oracle with the equivalence helper of
``tests/cache/test_batchsim.py``, which also checks the conservation laws
on both engines. The module also pins the standalone prefetch scan to
:meth:`StreamPrefetcher.observe` and covers which path a host takes.
Without the C kernel library there is no fast path to compare, so the
module is skipped.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    BatchHierarchy,
    FastHierarchy,
    HierarchyConfig,
    StreamPrefetcher,
    batchsim,
)
from repro.cache.config import MAX_STREAMS
from repro.cache.kernels import cnative, select_backend
from repro.harness.machine import DEFAULT_MACHINE
from tests.cache.conservation import assert_conserved
from tests.cache.test_batchsim import assert_equivalent, assert_same_state

pytestmark = pytest.mark.skipif(
    not cnative.available(), reason="the C kernel library is unavailable"
)

#: One config per coupled mode, plus their combination (the default
#: machine hierarchy uses all three at once).
MODES = {
    "drrip": HierarchyConfig(
        l1_bytes=512, l1_ways=2, l2_bytes=2048, l2_ways=4,
        llc_bytes=8192, llc_ways=8, llc_policy="drrip", prefetch=False,
    ),
    "prefetch": HierarchyConfig(
        l1_bytes=512, l1_ways=2, l2_bytes=2048, l2_ways=4,
        llc_bytes=8192, llc_ways=8, llc_policy="plru", prefetch=True,
    ),
    "reserved-ways": HierarchyConfig(
        l1_bytes=512, l1_ways=4, l2_bytes=2048, l2_ways=4,
        llc_bytes=8192, llc_ways=8, llc_policy="plru", prefetch=False,
        l1_reserved_ways=1, l2_reserved_ways=2, llc_reserved_ways=3,
    ),
    "all-three": HierarchyConfig(
        l1_bytes=512, l1_ways=4, l2_bytes=2048, l2_ways=4,
        llc_bytes=8192, llc_ways=8, llc_policy="drrip", prefetch=True,
        l2_reserved_ways=1, llc_reserved_ways=2,
    ),
    "default-machine": HierarchyConfig(),
}

#: The two engines a chunked replay can run on.
ENGINES = {"cnative": BatchHierarchy, "python": FastHierarchy}


@pytest.mark.parametrize("name", sorted(MODES))
def test_tiers_match_fast_random_trace(name):
    config = MODES[name]
    rng = np.random.default_rng(42)
    lines = rng.integers(0, 4000, size=15_000)
    writes = rng.random(15_000) < 0.4
    assert_equivalent(config, lines, writes)


@pytest.mark.parametrize("name", sorted(MODES))
def test_tiers_match_streaming_trace(name):
    """Sequential lines maximize prefetcher activity and DRRIP churn."""
    config = MODES[name]
    lines = np.concatenate([np.arange(3000), np.arange(3000)])
    assert_equivalent(config, lines, np.zeros(lines.size, dtype=bool))


@pytest.mark.parametrize("name", ["drrip", "prefetch", "all-three"])
def test_tiers_match_reference_model(name):
    """A high-reuse trace (500 lines) against the reference engine, down
    to the final residency of every line at every level."""
    config = MODES[name]
    rng = np.random.default_rng(7)
    lines = rng.integers(0, 500, size=3_000)
    writes = rng.random(3_000) < 0.5
    fast, batch = assert_equivalent(config, lines, writes)
    for level in range(3):
        assert [batch.contains(level, x) for x in range(600)] == [
            fast.contains(level, x) for x in range(600)
        ], level


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_stateful_across_chunks(engine):
    """Chunked replay must carry cache *and* prefetcher state over: four
    ``simulate`` calls on either engine equal one oracle replay of the
    concatenated trace."""
    config = MODES["all-three"]
    rng = np.random.default_rng(3)
    chunks = []
    for _ in range(4):
        mixed = np.concatenate([
            rng.integers(0, 2000, size=2_000),
            np.arange(500) + int(rng.integers(0, 1000)),
        ])
        chunks.append((mixed, rng.random(mixed.size) < 0.5))
    chunked = ENGINES[engine](config)
    served = np.concatenate(
        [chunked.simulate(lines, writes) for lines, writes in chunks]
    )
    whole = FastHierarchy(config)
    expected = whole.simulate(
        np.concatenate([c[0] for c in chunks]),
        np.concatenate([c[1] for c in chunks]),
    )
    assert np.array_equal(served, expected)
    assert_same_state(chunked, whole)
    assert_conserved(chunked, served)
    assert whole.prefetcher.issued > 0


@given(
    lines=st.lists(st.integers(0, 255), min_size=1, max_size=300),
    write_bits=st.integers(min_value=0),
)
@settings(max_examples=40, deadline=None)
def test_drrip_property(lines, write_bits):
    writes = [(write_bits >> i) & 1 == 1 for i in range(len(lines))]
    assert_equivalent(MODES["drrip"], lines, writes)


@given(
    starts=st.integers(1, 40).flatmap(
        lambda count: st.lists(st.integers(0, 400), min_size=count, max_size=count)
    ),
    run=st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_prefetch_property(starts, run):
    """Short sequential runs from random bases stress stream detection.
    The run count is drawn first, up to 40 against the 16-stream table, so
    about a quarter of the draws fill the table and drop its oldest stream
    (a list drawn directly averages about six runs and almost never
    does)."""
    lines = np.concatenate([np.arange(s, s + run) for s in starts])
    assert_equivalent(
        MODES["prefetch"], lines, np.zeros(lines.size, dtype=bool)
    )


@given(
    lines=st.lists(st.integers(0, 255), min_size=1, max_size=300),
    write_bits=st.integers(min_value=0),
)
@settings(max_examples=40, deadline=None)
def test_reserved_ways_property(lines, write_bits):
    writes = [(write_bits >> i) & 1 == 1 for i in range(len(lines))]
    assert_equivalent(MODES["reserved-ways"], lines, writes)


def test_prefetch_counters_carry_real_values():
    """Regression: ``dram_prefetch_reads`` and ``prefetcher`` used to be
    dead attributes on the batched engine (always 0 / None-like); they
    must track the oracle exactly."""
    config = MODES["prefetch"]
    lines = np.arange(4000) % 1500
    fast, _ = assert_equivalent(
        config, lines, np.zeros(lines.size, dtype=bool)
    )
    assert fast.prefetcher.issued > 0  # the trace must actually prefetch
    assert fast.dram_prefetch_reads > 0


def test_prefetch_scan_matches_observe():
    """The standalone scan runs the walk's stream-table routine: it issues
    the lines ``observe`` issues, in order, each tagged with its miss's
    sequence key, and leaves the same table and ``issued`` count behind,
    across calls. ``batchsim.prefetch_scan`` is the same function."""
    assert batchsim.prefetch_scan is cnative.prefetch_scan_native
    rng = np.random.default_rng(8)
    scanned, observed = StreamPrefetcher(6, 3, 2), StreamPrefetcher(6, 3, 2)
    for _ in range(3):
        runs = np.stack([s + np.arange(15) for s in rng.integers(0, 500, 3)])
        noise = rng.integers(0, 500, size=runs.size)
        lines = np.stack([runs.T.ravel(), noise], axis=1).ravel()[:-7]
        seq = 10 * np.arange(lines.size) + 7
        pf_seq, pf_line = cnative.prefetch_scan_native(scanned, seq, lines)
        expected = [
            (key, pf)
            for key, line in zip(seq.tolist(), lines.tolist())
            for pf in observed.observe(line)
        ]
        assert list(zip(pf_seq.tolist(), pf_line.tolist())) == expected
        assert list(scanned._expect.items()) == list(observed._expect.items())
        assert scanned.issued == observed.issued
    assert observed.issued > 0
    # A table ``observe`` never builds itself: a stream expecting line 10
    # older than one expecting line 11. Extending the first updates the
    # second in place.
    for prefetcher in (scanned, observed):
        prefetcher._expect = {10: 1, 11: 0, 40: 0}
    cnative.prefetch_scan_native(scanned, np.zeros(1), np.array([10]))
    assert observed.observe(10) == [11, 12, 13]
    assert (
        list(scanned._expect.items())
        == list(observed._expect.items())
        == [(11, 2), (40, 0)]
    )


def table_home(key):
    """The home bucket of ``key`` in the C stream table's 128-bucket index:
    the top 7 bits of the key times a 64-bit golden-ratio constant."""
    return (key * 0x9E3779B97F4A7C15 % 2**64) >> 57


@st.composite
def miss_lines(draw):
    """One call's L1-miss stream as bursts: sequential runs, stutters
    (steps of -1 to 2 lines, so streams restart and a missed line meets
    its own stream's key), repeats of one line, and random lines. Starts
    and random lines come from 0–300, so streams meet, or from a range of
    2^40, so keys land anywhere in the index."""
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        count = draw(st.integers(1, 40))
        kind = draw(st.sampled_from(["run", "stutter", "repeat", "random"]))
        spread = st.one_of(st.integers(0, 300), st.integers(0, 2**40))
        start = draw(spread)
        if kind == "run":
            lines += range(start, start + count)
        elif kind == "stutter":
            steps = draw(st.lists(
                st.integers(-1, 2), min_size=count, max_size=count
            ))
            lines += [max(0, x) for x in np.cumsum([start, *steps]).tolist()]
        elif kind == "repeat":
            lines += [start] * count
        else:
            lines += draw(st.lists(spread, min_size=count, max_size=count))
    return lines


def assert_scan_matches_observe(scanned, observed, lines):
    """One scan call against ``observe`` over ``lines``: the same issued
    lines in order, the same ``issued`` and the same ordered table."""
    seq = np.arange(len(lines))
    pf_seq, pf_line = cnative.prefetch_scan_native(
        scanned, seq, np.array(lines, dtype=np.int64)
    )
    expected = [
        (key, pf)
        for key, line in enumerate(lines)
        for pf in observed.observe(line)
    ]
    assert list(zip(pf_seq.tolist(), pf_line.tolist())) == expected
    assert scanned.issued == observed.issued
    assert list(scanned._expect.items()) == list(observed._expect.items())


@given(
    streams=st.one_of(st.integers(1, 8), st.integers(1, MAX_STREAMS)),
    degree=st.integers(1, 4),
    threshold=st.integers(1, 3),
    calls=st.lists(miss_lines(), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_stream_table_matches_observe(streams, degree, threshold, calls):
    """The C stream table against ``observe``, call after call. Each call
    builds the hashed, linked table from the prefetcher's oldest-first
    arrays and writes it back, so a later call starts from what the last
    one left."""
    scanned = StreamPrefetcher(streams, degree, threshold)
    observed = StreamPrefetcher(streams, degree, threshold)
    for lines in calls:
        assert_scan_matches_observe(scanned, observed, lines)


def test_stream_table_shifts_a_wrapped_run():
    """Keys A1, A2, A3 whose home is the index's last bucket, and B and C
    homed at buckets 0 and 1, found by brute force against the kernel's
    hash. Pushed as A1, A2, B, A3, C they fill buckets 127 and 0–3, one
    probe run that wraps. Extending A1 drops it from bucket 127: A2 (homed
    at the gap) and B, A3 and C after it must each move back one bucket
    across the wrap, or a later lookup stops at the emptied bucket. With
    threshold 1 every extension issues a line, so a lost key shows in the
    issued lines. All of it runs in one call, since each call rebuilds the
    index. A sixth stream then drops the oldest, A1 + 1: A2 + 1 still
    extends, and A1 + 1 allocates again, dropping B + 1."""
    assert "UINT64_C(0x9E3779B97F4A7C15) >> 57" in cnative._SOURCE
    homed = {
        home: [k for k in range(1, 10**5) if table_home(k) == home][:3]
        for home in (127, 0, 1)
    }
    keys = [homed[127][0], homed[127][1], homed[0][0], homed[127][2], homed[1][0]]
    fresh = max(keys) + 100
    lines = [k - 1 for k in keys] + keys + [fresh, keys[1] + 1, keys[0] + 1]
    scanned, observed = StreamPrefetcher(5, 1, 1), StreamPrefetcher(5, 1, 1)
    assert_scan_matches_observe(scanned, observed, lines)
    assert observed.issued == 6
    assert list(observed._expect) == [
        keys[3] + 1, keys[4] + 1, fresh + 1, keys[1] + 2, keys[0] + 2
    ]


def _figure_trace():
    rng = np.random.default_rng(11)
    return rng.integers(0, 6000, size=2_500), rng.random(2_500) < 0.4


class TestFigureConfigsBatchable:
    """Every effective hierarchy a figure driver can request replays
    identically on the C path."""

    def test_default_machine(self):
        assert_equivalent(DEFAULT_MACHINE.hierarchy, *_figure_trace())

    def test_every_reserved_ways_combination(self):
        """Cobra phases and the fig13 sweeps reserve up to ways-1 at each
        level; every combination must replay identically."""
        base = DEFAULT_MACHINE.hierarchy
        lines, writes = _figure_trace()
        for l1 in (0, 1, base.l1_ways - 1):
            for l2 in (0, 1, base.l2_ways - 1):
                for llc in (0, 1, base.llc_ways - 1):
                    config = base.with_reserved(l1, l2, llc)
                    assert_equivalent(config, lines, writes)

    def test_all_shipped_policies(self):
        base = DEFAULT_MACHINE.hierarchy
        lines, writes = _figure_trace()
        for policy in ("lru", "plru", "drrip"):
            for prefetch in (False, True):
                config = dataclasses.replace(
                    base, llc_policy=policy, prefetch=prefetch
                )
                assert_equivalent(config, lines, writes)


class TestBackendSelection:
    def test_auto_prefers_compiled_tier(self, monkeypatch):
        assert select_backend() == "cnative"
        monkeypatch.setattr(cnative, "available", lambda: False)
        assert select_backend() == "python"

    def test_missing_explicit_tier_errors(self, monkeypatch):
        """The C engine refuses to run without its library and says why."""
        monkeypatch.setattr(cnative, "available", lambda: False)
        monkeypatch.setattr(cnative, "build_error", lambda: "no C compiler")
        with pytest.raises(RuntimeError, match="no C compiler"):
            BatchHierarchy(HierarchyConfig())

    def test_cnative_build_is_cached(self):
        assert cnative.load() is cnative.load()
        assert cnative.build_error() is None


def test_freed_stream_slot_matches_no_line():
    """Extending the newest stream drops it: its key must leave the index
    and the table's tail move back to the stream expecting 12. The second
    miss on 11 then finds no stream and only resets the one expecting 12,
    and a miss on 30 links its stream after that one."""
    scanned, observed = StreamPrefetcher(4, 1, 2), StreamPrefetcher(4, 1, 2)
    lines = np.array([11, 10, 11, 11, 30])
    cnative.prefetch_scan_native(scanned, np.arange(lines.size), lines)
    for line in lines.tolist():
        observed.observe(line)
    assert (
        list(scanned._expect.items())
        == list(observed._expect.items())
        == [(12, 0), (31, 0)]
    )


def test_prefetch_scan_rejects_a_negative_line():
    """The scan keeps the walks' contract: they reject a negative line,
    because an empty way holds -1."""
    prefetcher = StreamPrefetcher()
    with pytest.raises(ValueError, match="negative line number -1"):
        cnative.prefetch_scan_native(prefetcher, [0], [-1])
    assert prefetcher._expect == {}


def test_prefetch_scan_rejects_a_table_wider_than_its_mask():
    """The C table marks its free slots in one 64-bit word."""
    with pytest.raises(ValueError, match="at most 64 streams"):
        cnative.prefetch_scan_native(
            StreamPrefetcher(65), np.zeros(1), np.array([10])
        )
