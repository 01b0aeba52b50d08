"""The C fast path of the cache hierarchy.

:class:`BatchHierarchy` keeps :class:`FastHierarchy`'s semantics and
state, but replays a whole phase (:meth:`~BatchHierarchy.replay_phase`,
:func:`cnative.phase_walk <repro.cache.kernels.cnative.phase_walk>`) or
line-trace (:meth:`~BatchHierarchy.simulate`,
:func:`cnative.hierarchy_walk <repro.cache.kernels.cnative.hierarchy_walk>`)
in one C call, which walks each access through L1 → L2 → LLC exactly as
:meth:`FastHierarchy.access` does: inclusive fill, write-allocate, dirty
victims cascading one level down, LRU / bit-PLRU / DRRIP (with PSEL set
dueling) within each set's usable ways, and the L1-miss stream prefetcher
with its L2 fills and LLC-gated DRAM reads inline. This is the shape of
the paper's own per-access, Pin-based cache simulator.

The phase walk also interleaves the phase's segments, injects its stream
lines and tallies both kinds as it goes, so the merged trace the oracle
builds never exists here. Each level's state lives in
:class:`_LevelState`'s flat arrays and persists across calls; the
prefetcher's stream table stays in its :class:`StreamPrefetcher`.
Equivalence with :class:`FastHierarchy` on identical counters is asserted
for every policy/prefetch/reservation combination
(``tests/cache/test_batchsim.py``) and by differential fuzzing
(``tests/cache/test_walk_fuzz.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import HierarchyConfig
from repro.cache.fastsim import (
    FastHierarchy,
    drrip_roles,
    phase_arrays,
    trace_arrays,
)
from repro.cache.kernels import cnative
# ``benchmarks/perf/tracing.py`` still wraps this name, so it stays bound.
from repro.cache.kernels.cnative import prefetch_scan_native as prefetch_scan
from repro.cache.prefetcher import StreamPrefetcher
from repro.cache.stats import ServiceCounts

__all__ = ["BatchHierarchy", "make_hierarchy", "prefetch_scan"]

_LRU, _PLRU, _DRRIP = 0, 1, 2
_POLICY_CODES = {"lru": _LRU, "plru": _PLRU, "drrip": _DRRIP}


def make_hierarchy(config: HierarchyConfig):
    """The cache engine this host runs: :class:`BatchHierarchy` when the C
    kernel library loads, else the :class:`FastHierarchy` oracle."""
    if cnative.available():
        return BatchHierarchy(config)
    return FastHierarchy(config)


class _LevelState:
    """Per-level flat arrays the C walk updates in place.

    ``way_line`` (-1 marks an empty way), ``dirty`` and LRU's ``stamp``
    hold one entry per way; bit-PLRU's ``mru`` and DRRIP's ``rrpv`` one
    uint64 word per set (see :class:`cnative.Level
    <repro.cache.kernels.cnative.Level>`): an MRU mask with a bit per way,
    and 2-bit RRPV fields that all start at 3.
    """

    __slots__ = (
        "way_line",
        "dirty",
        "occ",
        "stamp",
        "clock",
        "mru",
        "rrpv",
        "role",
        "duel",
    )

    def __init__(self, sets, ways, policy):
        total = sets * ways
        self.way_line = np.full(total, -1, dtype=np.int64)
        self.dirty = np.zeros(total, dtype=np.uint8)
        self.occ = np.zeros(sets, dtype=np.int64)
        if policy == _LRU:
            self.stamp = np.zeros(total, dtype=np.int64)
            self.clock = np.zeros(1, dtype=np.int64)
        elif policy == _PLRU:
            self.mru = np.zeros(sets, dtype=np.uint64)
        else:
            self.rrpv = np.full(sets, np.iinfo(np.uint64).max, dtype=np.uint64)
            self.role = np.asarray(drrip_roles(sets), dtype=np.uint8)
            self.duel = np.array([512, 0], dtype=np.int64)


class BatchHierarchy:
    """Three-level simulator over the C walk, equivalent to
    :class:`FastHierarchy`.

    Runs on the C kernel library; construction raises ``RuntimeError``
    naming :func:`cnative.build_error <repro.cache.kernels.cnative.build_error>`
    when that library is unavailable. State persists across
    :meth:`simulate` calls exactly as FastHierarchy's does across
    :meth:`~FastHierarchy.access` calls.
    """

    def __init__(self, config: HierarchyConfig):
        if not cnative.available():
            raise RuntimeError(
                "BatchHierarchy needs the C kernel library, which is "
                f"unavailable ({cnative.build_error()}); use FastHierarchy"
            )
        self.config = config
        self._state = []
        levels = []
        for name in ("l1", "l2", "llc"):
            sets = config.sets(name)
            ways = getattr(config, f"{name}_ways")
            usable = ways - getattr(config, f"{name}_reserved_ways")
            policy = _POLICY_CODES[getattr(config, f"{name}_policy")]
            self._state.append(_LevelState(sets, ways, policy))
            levels.append(
                cnative.Level.over(sets, ways, usable, policy, self._state[-1])
            )
        self._levels = (cnative.Level * 3)(*levels)
        self.prefetcher = (
            StreamPrefetcher(
                config.prefetch_streams,
                config.prefetch_degree,
                config.prefetch_threshold,
            )
            if config.prefetch
            else None
        )
        self.hits = [0, 0, 0]
        self.misses = [0, 0, 0]
        self.dram_reads = 0
        self.dram_writes = 0
        self.dram_prefetch_reads = 0

    def simulate(self, lines, writes=None):
        """Simulate a whole trace; returns the per-access servicing levels.

        ``lines`` is an int array of non-negative line numbers; ``writes`` a
        parallel boolean array (or a single bool / None applied to every
        access). A negative line or a ``writes`` of another length raises
        ``ValueError``. The returned int8 array holds 1 (L1) .. 4 (DRAM)
        per access, and the hit/miss/DRAM counters are updated, mirroring
        what repeated :meth:`FastHierarchy.access` calls would produce.
        """
        lines, writes = trace_arrays(lines, writes)
        served = np.empty(lines.size, dtype=np.int8)
        if not lines.size:
            return served
        self._count(cnative.hierarchy_walk(
            self._levels, self.prefetcher, lines, writes.view(np.uint8), served
        ))
        return served

    def run_trace(self, lines, writes=None):
        """Simulate a whole trace; returns :class:`ServiceCounts`."""
        return ServiceCounts.from_served(self.simulate(lines, writes))

    def replay_phase(self, segments, writes, stream_base, stream_lines,
                     total_events):
        """Replay one phase in one C call; returns ``(irregular,
        streaming)`` :class:`ServiceCounts`.

        The trace, its checks and its counters are
        :meth:`FastHierarchy.replay_phase`'s, but the walk
        (:func:`cnative.phase_walk <repro.cache.kernels.cnative.phase_walk>`)
        interleaves the segments, injects the stream lines and tallies each
        access as it goes, so the merged trace is never built.
        """
        segments, writes = phase_arrays(segments, writes, stream_base)
        count, tally = cnative.phase_walk(
            self._levels, self.prefetcher, segments, writes, stream_base,
            stream_lines, total_events,
        )
        self._count(count)
        tally = tally.tolist()
        return ServiceCounts(*tally[:4]), ServiceCounts(*tally[4:])

    def _count(self, count):
        """Add a walk's ``[hits x3, misses x3, dram_writes,
        dram_prefetch_reads]`` to the counters (LLC misses read DRAM)."""
        count = count.tolist()
        for level in range(3):
            self.hits[level] += count[level]
            self.misses[level] += count[3 + level]
        self.dram_reads += count[5]
        self.dram_writes += count[6]
        self.dram_prefetch_reads += count[7]

    # ------------------------------------------------------------------ #
    # Maintenance (FastHierarchy API parity)
    # ------------------------------------------------------------------ #

    def contains(self, level, line):
        """True when ``line`` is resident at ``level`` (0-indexed)."""
        if line < 0:  # -1 marks an empty way
            return False
        geometry = self._levels[level]
        base = int(line) % geometry.sets * geometry.ways
        ways = self._state[level].way_line[base : base + geometry.usable]
        return bool((ways == line).any())

    def reset_stats(self):
        """Zero hit/miss and DRAM counters (contents unchanged)."""
        self.hits = [0, 0, 0]
        self.misses = [0, 0, 0]
        self.dram_reads = 0
        self.dram_writes = 0
        self.dram_prefetch_reads = 0
        if self.prefetcher is not None:
            self.prefetcher.reset()

    def write_through_dram(self, num_lines):
        """Account non-temporal full-line writes (bypass the caches)."""
        self.dram_writes += num_lines

    def read_through_dram(self, num_lines):
        """Account streaming reads served straight from DRAM."""
        self.dram_reads += num_lines
