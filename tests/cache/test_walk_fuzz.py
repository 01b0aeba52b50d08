"""Differential fuzzing: the C walk against the FastHierarchy oracle.

Hypothesis draws a whole :class:`HierarchyConfig` — 1–32 ways per level,
8, 16 (the fixed-width way searches) and 32 (a full DRRIP word) more often
than the rest, and 1–8 sets (3, 5, 6 and 7 sets take the modulo set index,
the rest the bitmask), reserved ways anywhere in ``[0, ways)`` (at L1,
``ways - 1`` in about half the draws: with one usable way per set, most
accesses miss L1 and reach the prefetcher), a policy per level, and the
prefetcher on or off with 1–64 streams (16, the default, 64, a full match
mask, and 1–6, tables that fill and drop their oldest stream, more often
than the rest) and its degree and threshold varied — and an adversarial
trace built from bursts: same-set conflict
strides, sequential runs, stuttering runs (steps of -1 to 2 lines, so
streams restart and revisit), write bursts, lines reused from earlier
bursts, and random lines. Both engines replay
the trace in the same randomly cut chunks and must agree after every
chunk on the served levels, every counter, the prefetcher's ``issued``
and stream table, and every level's replacement state way by way (the C
walk's per-set MRU masks and RRPV words unpacked); at the end on every
level's residency; and each must satisfy the conservation laws.

The phase entry (``replay_phase``) is fuzzed the same way: 1–4 segments,
a write flag each, and stream injection from none to several lines per
irregular access. Both engines must return the same tallies and reach the
same state, and the tallies must equal those of the merged trace, built
here one access at a time, replayed through the oracle's ``simulate``.
Targeted cases drive DRRIP's PSEL counter to both rails, fill a bit-PLRU
set's MRU mask below reserved ways, search a 32-way DRRIP set for its
victim from each maximum RRPV, and make a miss meet a freed stream slot
through both entries. Without the C kernel library there is no
fast path to compare, so the module is skipped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    BatchHierarchy,
    FastHierarchy,
    HierarchyConfig,
    ServiceCounts,
)
from repro.cache.config import MAX_STREAMS, MAX_WAYS, POLICIES
from repro.cache.fastsim import drrip_roles
from repro.cache.kernels import cnative
from tests.cache.conservation import assert_conserved
from tests.cache.test_batchsim import assert_same_state

pytestmark = pytest.mark.skipif(
    not cnative.available(), reason="the C kernel library is unavailable"
)

LEVELS = ("l1", "l2", "llc")
LINE_BYTES = 64


@st.composite
def configs(draw):
    fields = {}
    for name in LEVELS:
        ways = draw(st.one_of(
            st.sampled_from([8, 16, 32]), st.integers(1, MAX_WAYS)
        ))
        sets = draw(st.integers(1, 8))
        fields[f"{name}_bytes"] = sets * ways * LINE_BYTES
        fields[f"{name}_ways"] = ways
        reserved = st.integers(0, ways - 1)
        if name == "l1":  # one usable way: most accesses reach the prefetcher
            reserved = st.one_of(st.just(ways - 1), reserved)
        fields[f"{name}_reserved_ways"] = draw(reserved)
        fields[f"{name}_policy"] = draw(st.sampled_from(POLICIES))
    return HierarchyConfig(
        line_bytes=LINE_BYTES,
        prefetch=draw(st.booleans()),
        prefetch_streams=draw(st.one_of(
            st.sampled_from([16, MAX_STREAMS]), st.integers(1, 6),
            st.integers(1, MAX_STREAMS),
        )),
        prefetch_degree=draw(st.integers(1, 4)),
        prefetch_threshold=draw(st.integers(1, 3)),
        **fields,
    )


@st.composite
def bursts(draw, config):
    """One trace: a list of ``(lines, writes)`` bursts."""
    strides = [config.sets(name) for name in LEVELS]
    strides.append(int(np.prod(strides)))
    trace, seen = [], []
    for _ in range(draw(st.integers(1, 10))):
        count = draw(st.integers(1, 60))
        kind = draw(st.sampled_from(
            ["conflict", "sequential", "stutter", "reuse", "random"]
        ))
        if kind == "conflict":
            stride = draw(st.sampled_from(strides))
            start = draw(st.integers(0, 200))
            lines = [start + k * stride for k in range(count)]
        elif kind == "sequential":
            start = draw(st.integers(0, 300))
            lines = list(range(start, start + count))
        elif kind == "stutter":
            start = draw(st.integers(0, 300))
            steps = draw(st.lists(
                st.integers(-1, 2), min_size=count, max_size=count
            ))
            lines = [max(0, x) for x in np.cumsum([start, *steps]).tolist()]
        elif kind == "reuse" and seen:
            lines = draw(st.lists(
                st.sampled_from(seen), min_size=1, max_size=count
            ))
        else:
            lines = draw(st.lists(
                st.integers(0, 400), min_size=1, max_size=count
            ))
        mode = draw(st.sampled_from(["read", "write", "mixed"]))
        if mode == "mixed":
            writes = draw(st.lists(
                st.booleans(), min_size=len(lines), max_size=len(lines)
            ))
        else:
            writes = [mode == "write"] * len(lines)
        trace.append((lines, writes))
        seen.extend(lines)
    return trace


def unpack(words, width, count):
    """The first ``count`` ``width``-bit fields of each per-set word, way 0
    in the lowest bits: one row per set."""
    shifts = width * np.arange(count, dtype=np.uint64)
    return (words[:, None] >> shifts) & np.uint64((1 << width) - 1)


def assert_same_ways(batch, fast, label=None):
    """Every level's usable ways hold the same line, dirty bit and policy
    state on both engines, and DRRIP's PSEL and BRRIP tick agree: the C
    walk's per-set words are unpacked a way at a time."""
    for level, (name, state) in enumerate(zip(LEVELS, batch._state)):
        sets, ways = fast._sets[level], fast._ways[level]
        usable = fast._usable[level]
        where = (label, name)

        def per_way(values):
            return np.asarray(values).reshape(sets, ways)[:, :usable]

        assert np.array_equal(
            per_way(state.way_line), per_way(fast._way_line[level])
        ), where
        assert np.array_equal(
            per_way(state.dirty), per_way(list(fast._dirty[level]))
        ), where
        assert state.occ.tolist() == fast._occ[level], where
        policy = getattr(batch.config, f"{name}_policy")
        if policy == "plru":
            assert np.array_equal(
                unpack(state.mru, 1, usable), per_way(list(fast._mru[level]))
            ), where
        elif policy == "drrip":
            assert np.array_equal(
                unpack(state.rrpv, 2, usable), per_way(list(fast._rrpv[level]))
            ), where
            assert state.duel.tolist() == [
                fast._psel[level], fast._brrip_tick[level]
            ], where
        else:
            assert np.array_equal(
                per_way(state.stamp), per_way(fast._stamp[level])
            ), where
            assert int(state.clock[0]) == fast._clock[level], where


def assert_same_residency(batch, fast, top):
    """Every line below ``top`` is resident at the same levels."""
    universe = range(top)
    for level in range(3):
        assert [batch.contains(level, x) for x in universe] == [
            fast.contains(level, x) for x in universe
        ], level


def replay(config, lines, writes, cuts):
    """Replay one trace on both engines, chunk by chunk, checking each."""
    fast, batch = FastHierarchy(config), BatchHierarchy(config)
    served = []
    for start, stop in zip(cuts[:-1], cuts[1:]):
        chunk_lines, chunk_writes = lines[start:stop], writes[start:stop]
        expected = fast.simulate(chunk_lines, chunk_writes)
        got = batch.simulate(chunk_lines, chunk_writes)
        assert np.array_equal(got, expected), (start, stop)
        assert_same_state(batch, fast, (start, stop))
        assert_same_ways(batch, fast, (start, stop))
        served.append(got)
    served = np.concatenate(served)
    for hierarchy in (fast, batch):
        assert_conserved(hierarchy, served)
    assert_same_residency(batch, fast, int(lines.max()) + 8)
    return fast, batch


@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_walk_matches_oracle(data):
    config = data.draw(configs(), label="config")
    trace = data.draw(bursts(config), label="trace")
    lines = np.concatenate([np.asarray(b[0], dtype=np.int64) for b in trace])
    writes = np.concatenate([np.asarray(b[1], dtype=bool) for b in trace])
    inner = data.draw(
        st.lists(st.integers(0, lines.size), max_size=4), label="cuts"
    )
    replay(config, lines, writes, sorted({0, lines.size, *inner}))


@st.composite
def phases(draw):
    """One ``replay_phase`` call: ``(segments, writes, stream_base,
    stream_lines, total_events)``."""
    rounds = draw(st.integers(0, 80))
    width = draw(st.integers(1, 4))
    segments = [
        np.asarray(draw(st.lists(
            st.integers(0, 400), min_size=rounds, max_size=rounds
        )), dtype=np.int64)
        for _ in range(width)
    ]
    writes = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    total = rounds * width + draw(st.integers(0, 3 * rounds * width + 1))
    stream_lines = draw(st.one_of(
        st.just(0), st.integers(0, total), st.integers(0, 4 * total)
    ))
    return segments, writes, draw(st.integers(0, 600)), stream_lines, total


def merged_trace(segments, writes, stream_base, stream_lines, total_events):
    """The phase's trace, one access at a time: ``(lines, writes,
    is_stream)``. After irregular access ``k`` the stream lines read so far
    number ``(k + 1) * stream_lines // total_events``."""
    lines, flags, is_stream = [], [], []
    k = injected = 0
    for row in zip(*segments):
        for line, write in zip(row, writes):
            lines.append(int(line))
            flags.append(write)
            is_stream.append(False)
            k += 1
            due = k * stream_lines // total_events if total_events else 0
            for j in range(injected, due):
                lines.append(stream_base + j)
                flags.append(False)
                is_stream.append(True)
            injected = max(injected, due)
    return lines, flags, np.asarray(is_stream, dtype=bool)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_phase_entry_matches_oracle(data):
    """Phases replayed back to back on one hierarchy: both engines, and
    the oracle's ``simulate`` over the merged trace, agree after each."""
    config = data.draw(configs(), label="config")
    calls = data.draw(st.lists(phases(), min_size=1, max_size=2), label="phases")
    fast, batch = FastHierarchy(config), BatchHierarchy(config)
    reference = FastHierarchy(config)
    tally = ServiceCounts()
    top = 0
    for call in calls:
        expected = fast.replay_phase(*call)
        assert batch.replay_phase(*call) == expected
        assert_same_state(batch, fast)
        assert_same_ways(batch, fast)
        lines, writes, is_stream = merged_trace(*call)
        top = max([top, *lines])
        served = reference.simulate(lines, writes)
        assert expected == (
            ServiceCounts.from_served(served[~is_stream]),
            ServiceCounts.from_served(served[is_stream]),
        )
        assert_same_state(reference, fast)
        tally = tally.merged(expected[0]).merged(expected[1])
    levels = [tally.l1, tally.l2, tally.llc, tally.dram]
    for hierarchy in (fast, batch):
        assert_conserved(hierarchy, np.repeat([1, 2, 3, 4], levels))
    assert_same_residency(batch, fast, top + 8)


@pytest.mark.parametrize("engine", [FastHierarchy, BatchHierarchy])
def test_phase_entry_rejects_bad_input(engine):
    hierarchy = engine(HierarchyConfig())
    good = np.arange(4, dtype=np.int64)
    with pytest.raises(ValueError, match="negative line"):
        hierarchy.replay_phase([good, good - 1], [True, False], 10, 1, 8)
    with pytest.raises(ValueError, match="unequal length"):
        hierarchy.replay_phase([good, good[:3]], [True, False], 10, 1, 8)
    with pytest.raises(ValueError, match="write flags"):
        hierarchy.replay_phase([good], [True, False], 10, 1, 8)
    with pytest.raises(ValueError, match="negative stream base"):
        hierarchy.replay_phase([good], [True], -1, 1, 8)
    assert hierarchy.hits == [0, 0, 0]


def test_psel_reaches_both_rails():
    """Fills into SRRIP-leader sets push PSEL to 1023, fills into
    BRRIP-leader sets pull it to 0; follower traffic after each rail
    inserts under the policy that rail selects."""
    sets = 8
    config = HierarchyConfig(
        l1_bytes=LINE_BYTES, l1_ways=1, l2_bytes=LINE_BYTES, l2_ways=1,
        llc_bytes=sets * 4 * LINE_BYTES, llc_ways=4, llc_policy="drrip",
        prefetch=False,
    )
    roles = drrip_roles(sets)
    srrip, brrip = roles.index(1), roles.index(2)
    follower = roles.index(0)

    def leader_stream(set_idx, count, first):
        return sets * np.arange(first, first + count) + set_idx

    def follower_mix(first):
        hot = sets * np.arange(first, first + 3) + follower
        cold = sets * np.arange(first + 3, first + 203) + follower
        return np.stack([np.resize(hot, cold.size), cold], axis=1).ravel()

    phases = [
        leader_stream(srrip, 600, 0),
        follower_mix(1_000),
        leader_stream(brrip, 1_100, 2_000),
        follower_mix(4_000),
    ]
    fast, batch = FastHierarchy(config), BatchHierarchy(config)
    psel, served = [], []
    for phase in phases:
        served.append(fast.simulate(phase))
        assert np.array_equal(batch.simulate(phase), served[-1])
        assert_same_state(batch, fast)
        assert_same_ways(batch, fast)
        psel.append(fast._psel[2])
    assert psel == [1023, 1023, 0, 0]
    for hierarchy in (fast, batch):
        assert_conserved(hierarchy, np.concatenate(served))


def test_plru_mask_resets_below_reserved_ways():
    """An 8-way bit-PLRU set with 3 reserved ways: the touch that would set
    all 5 usable MRU bits clears the other four instead, on a fill and on
    a hit alike, and a reserved way's bit never sets."""
    config = HierarchyConfig(
        l1_bytes=8 * LINE_BYTES, l1_ways=8, l1_reserved_ways=3,
        l1_policy="plru", prefetch=False,
    )
    fast, batch = FastHierarchy(config), BatchHierarchy(config)
    masks = []
    for line in [0, 1, 2, 3, 4, 5, 1, 3, 2]:
        assert np.array_equal(batch.simulate([line]), fast.simulate([line]))
        assert_same_ways(batch, fast, line)
        masks.append(int(batch._state[0].mru[0]))
    # lines 0-4 fill ways 0-4; line 5 evicts way 0, the first clear bit
    assert masks == [
        0b1, 0b11, 0b111, 0b1111, 0b10000, 0b10001, 0b10011, 0b11011, 0b100
    ]


@pytest.mark.parametrize("top, at_top", [
    (0, tuple(range(32))),
    (1, (31,)),
    (1, (4, 31)),
    (2, (31,)),
    (2, (7, 19)),
    (3, (31,)),
    (3, (0, 31)),
])
def test_drrip_victim_from_each_maximum(top, at_top):
    """A full 32-way DRRIP set whose highest RRPV is ``top``, held by the
    ways ``at_top``: the miss evicts the first of them (way 31, the word's
    top field, when it alone is at the maximum), every other field ages by
    3 - top, and the new line goes in at the victim's way."""
    ways = 32
    config = HierarchyConfig(
        l1_bytes=LINE_BYTES, l1_ways=1, l2_bytes=LINE_BYTES, l2_ways=1,
        llc_bytes=ways * LINE_BYTES, llc_ways=ways, llc_policy="drrip",
        prefetch=False,
    )
    fast, batch = FastHierarchy(config), BatchHierarchy(config)
    for hierarchy in (fast, batch):
        hierarchy.simulate(np.arange(ways))  # lines 0-31 fill ways 0-31
    rrpv = np.random.default_rng(top).integers(0, max(top, 1), size=ways)
    rrpv[list(at_top)] = top
    fast._rrpv[2][:ways] = bytes(rrpv.tolist())
    batch._state[2].rrpv[0] = sum(int(v) << 2 * w for w, v in enumerate(rrpv))
    assert_same_ways(batch, fast, "seeded")
    assert np.array_equal(batch.simulate([ways]), fast.simulate([ways]))
    assert_same_ways(batch, fast, "evicted")
    victim = at_top[0]
    assert batch._state[2].way_line[victim] == ways
    expected = rrpv + 3 - top
    expected[victim] = 2  # the one set is an SRRIP leader
    assert unpack(batch._state[2].rrpv, 2, ways)[0].tolist() == expected.tolist()


@pytest.mark.parametrize("entry", ["simulate", "replay_phase"])
def test_freed_stream_slot_through_the_walk(entry):
    """Lines 11, 10, 11, 12, 11 through one L1 set with one usable way:
    every access misses L1 and reaches the prefetcher. The second 11
    extends stream 11, the newest, which drops it and frees its slot; 12
    then extends stream 12 and pushes 13 into the slot it leaves. The last
    11 must find no stream and allocate one behind 13: an index that kept
    a bucket for 11 would extend it."""
    config = HierarchyConfig(
        l1_bytes=2 * LINE_BYTES, l1_ways=2, l1_reserved_ways=1,
        prefetch_streams=4, prefetch_degree=1, prefetch_threshold=2,
    )
    lines = np.array([11, 10, 11, 12, 11], dtype=np.int64)
    fast, batch = FastHierarchy(config), BatchHierarchy(config)
    if entry == "simulate":
        assert np.array_equal(batch.simulate(lines), fast.simulate(lines))
    else:
        phase = ([lines], [False], 0, 0, len(lines))
        assert batch.replay_phase(*phase) == fast.replay_phase(*phase)
    assert_same_state(batch, fast)
    assert list(fast.prefetcher._expect.items()) == [(13, 2), (12, 0)]
