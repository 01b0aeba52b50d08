"""Native C replay kernels built with the system compiler (``cnative``).

The simulators' fast paths run here: one C translation unit, compiled once
with ``cc -O2 -shared`` into a content-addressed shared object (keyed by
the SHA-256 of the source, so a kernel change rebuilds and an unchanged
source reuses the cached build), and bound through :mod:`ctypes`. No
third-party packages, no setuptools — just the compiler.

Each kernel mirrors a Python oracle and is equivalence-tested against it
to identical counters:

* the cache-hierarchy walk behind
  :class:`~repro.cache.batchsim.BatchHierarchy`, one call per phase
  (:func:`phase_walk`, which interleaves, injects and tallies the phase's
  trace itself) or per trace (:func:`hierarchy_walk`) that walks each
  access through L1 → L2 → LLC with the stream prefetcher inline, against
  :class:`~repro.cache.fastsim.FastHierarchy`
  (``tests/cache/test_batchsim.py``, ``tests/cache/test_walk_fuzz.py``,
  which also compares every way's replacement state). bit-PLRU and DRRIP
  keep one 64-bit word per set (:class:`Level`), so a touch, a victim
  search and DRRIP's aging are a few word operations, and a dirty victim
  walks down the levels in one loop. The prefetcher's stream table is
  what the oracle's dict is, slots linked in insertion order plus an
  open-addressed index from key to slot, so observing a line looks up
  two keys with one probe each and dropping or pushing a stream is O(1);
  each call builds it from the prefetcher's oldest-first arrays and
  writes it back.
  :func:`prefetch_scan_native` runs the walk's stream-table routine
  alone, against :meth:`StreamPrefetcher.observe
  <repro.cache.prefetcher.StreamPrefetcher.observe>`
  (``tests/cache/test_kernel_backends.py``);
* the eviction-pipeline DES behind
  :meth:`~repro.des.eviction_model.EvictionBufferModel.run`, against the
  generator-engine formulation
  :meth:`~repro.des.eviction_model.EvictionBufferModel.run_reference`
  (the bit-identity suite under ``tests/des/``);
* the count-only COBRA Binning replay behind
  :meth:`repro.core.machine.CobraMachine.binning_counts`, against the
  Python machines (``tests/core/test_binning_counts.py``);
* software PB's binning primitives, one streaming pass each: the bin
  counts behind :meth:`repro.pb.bins.BinSpec.binned` (:func:`bin_counts`),
  the bin-major order prefix behind
  :meth:`repro.pb.bins.BinnedStream.order` (:func:`bin_order`, a counting
  sort's placement) and the C-Buffer occupancy behind
  :meth:`repro.pb.cbuffer.CBufferModel.occupancy_before`
  (:func:`bin_occupancy`), against their NumPy code
  (``tests/pb/test_binning_native.py``);
* the GShare walk behind
  :meth:`repro.cpu.branch.GSharePredictor.simulate_array`
  (:func:`gshare_walk`), against the scalar
  :meth:`~repro.cpu.branch.GSharePredictor.simulate`
  (``tests/cpu/test_gshare_fuzz.py``).

:func:`available` gates the fast path: no compiler, a failed build, or an
unloadable object all report ``False`` (with the reason in
:func:`build_error`), and every caller then runs its oracle.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from repro._util import out_of_bins
from repro.cache.config import MAX_STREAMS

__all__ = [
    "available",
    "build_error",
    "load",
    "Level",
    "hierarchy_walk",
    "phase_walk",
    "prefetch_scan_native",
    "eviction_pipeline_native",
    "binning_counts_native",
    "bin_counts",
    "bin_order",
    "bin_occupancy",
    "gshare_walk",
]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Cache-hierarchy walk (BatchHierarchy.simulate and .replay_phase):
   every access goes through L1 -> L2 -> LLC exactly as
   repro.cache.fastsim.FastHierarchy.access does it. A level is the flat
   state of repro.cache.batchsim._LevelState: way_line (-1 = empty way),
   dirty bits, per-set occupancy, and its policy's state; only the first
   `usable` ways of a set (ways minus reserved ways, at most 32) ever hold
   a line. bit-PLRU and DRRIP keep one word per set: bit w of the MRU mask,
   and bits 2w and 2w + 1 of the RRPV word, belong to way w. */

enum { POL_LRU = 0, POL_PLRU = 1, POL_DRRIP = 2 };

typedef struct {
    int64_t sets, ways, usable, policy;
    int64_t *way_line;
    uint8_t *dirty;
    int64_t *occ;
    int64_t *stamp, *clock;     /* LRU: per-way stamp, one clock */
    uint64_t *mru;              /* bit-PLRU: per-set MRU mask */
    uint64_t *rrpv;             /* DRRIP: per-set 2-bit RRPV fields, */
    const uint8_t *role;        /*   per-set dueling role, */
    int64_t *duel;              /*   [psel, brrip_tick] */
} Level;

/* The stream prefetcher's table as Python hands it over:
   repro.cache.prefetcher.StreamPrefetcher's insertion-ordered dict as two
   parallel arrays of its `active` entries, oldest first: key (next
   expected line) and confidence. A walk builds a Table from them when it
   starts and writes the Table back, oldest first, when it returns. */
typedef struct {
    int64_t num_streams, degree, threshold;
    int64_t *keys, *conf;
    int64_t active, issued;
} Streams;

/* The stream table while a walk runs, on the stack of one call: what a
   Python dict is, slots linked in insertion order (the oldest at the head)
   plus an open-addressed index from key to slot. The free-slot word
   bounds the slots to 64 and the index has twice as many buckets, so it
   is at most half full: linear probing, deletion by backward shift, no
   tombstones. Looking up a key, dropping an entry and pushing one each
   take expected O(1) time. */
enum { SLOTS = 64, BUCKETS = 2 * SLOTS };

typedef struct {
    int64_t key[SLOTS], conf[SLOTS];
    int8_t prev[SLOTS], next[SLOTS];    /* insertion order; -1 ends it */
    int8_t head, tail;                  /* oldest and newest, -1 if none */
    uint64_t free;                      /* bit s: slot s holds no entry */
    int8_t bucket[BUCKETS];             /* a slot, or -1 for empty */
    Streams *st;                        /* degree, threshold, issued */
} Table;

/* Fibonacci hashing: the top 7 bits of key * 2^64 / golden ratio, which
   scatters the consecutive keys of neighbouring streams. */
static inline unsigned table_home(int64_t key)
{
    return (unsigned)((uint64_t)key * UINT64_C(0x9E3779B97F4A7C15) >> 57);
}

/* The bucket holding `key`, else the empty bucket that ends its probe. */
static inline unsigned table_probe(const Table *t, int64_t key)
{
    unsigned b = table_home(key);
    while (t->bucket[b] >= 0 && t->key[t->bucket[b]] != key) {
        b = (b + 1) & (BUCKETS - 1);
    }
    return b;
}

/* Append `key` as the newest entry (the table is not full, and the key is
   absent). */
static void table_push(Table *t, int64_t key, int64_t confidence)
{
    int8_t s = (int8_t)__builtin_ctzll(t->free);
    t->free &= t->free - 1;
    t->key[s] = key;
    t->conf[s] = confidence;
    t->prev[s] = t->tail;
    t->next[s] = -1;
    if (t->tail >= 0) t->next[t->tail] = s;
    else t->head = s;
    t->tail = s;
    t->bucket[table_probe(t, key)] = s;
}

/* Remove the entry in bucket b. Each later entry of the probe run moves
   back into the gap unless its home lies cyclically after the gap (it
   would then sit before its home); the run's last gap becomes empty. */
static void table_drop(Table *t, unsigned b)
{
    int8_t s = t->bucket[b];
    for (unsigned i = (b + 1) & (BUCKETS - 1); t->bucket[i] >= 0;
         i = (i + 1) & (BUCKETS - 1)) {
        unsigned home = table_home(t->key[t->bucket[i]]);
        if (((i - home) & (BUCKETS - 1)) >= ((i - b) & (BUCKETS - 1))) {
            t->bucket[b] = t->bucket[i];
            b = i;
        }
    }
    t->bucket[b] = -1;
    int8_t prev = t->prev[s], next = t->next[s];
    if (prev >= 0) t->next[prev] = next;
    else t->head = next;
    if (next >= 0) t->prev[next] = prev;
    else t->tail = prev;
    t->free |= UINT64_C(1) << s;
}

/* The Table over st's entries, oldest first (NULL when st is NULL). */
static Table *table_load(Table *t, Streams *st)
{
    if (st == NULL) return NULL;
    t->head = t->tail = -1;
    t->free = ~UINT64_C(0) >> (64 - st->num_streams);
    memset(t->bucket, -1, sizeof t->bucket);
    t->st = st;
    for (int64_t s = 0; s < st->active; s++) {
        table_push(t, st->keys[s], st->conf[s]);
    }
    return t;
}

/* Write the Table's entries back into its Streams, oldest first. */
static void table_store(const Table *t)
{
    if (t == NULL) return;
    int64_t n = 0;
    for (int8_t s = t->head; s >= 0; s = t->next[s], n++) {
        t->st->keys[n] = t->key[s];
        t->st->conf[n] = t->conf[s];
    }
    t->st->active = n;
}

/* StreamPrefetcher.observe(line): returns how many lines after `line` to
   prefetch (0 or degree). One probe each finds the entries keyed `line`
   and `line + 1`; a slot keeps its number while others come and go, so
   the entry found for line + 1 stays valid across a drop. */
static int64_t stream_observe(Table *t, int64_t line)
{
    unsigned at = table_probe(t, line);
    int8_t found = t->bucket[at];
    int8_t next = t->bucket[table_probe(t, line + 1)];
    if (found < 0) {
        /* allocate: upsert line + 1 at confidence 0 (an existing entry
           keeps its place), dropping the oldest stream when full */
        if (next >= 0) {
            t->conf[next] = 0;
        } else {
            if (!t->free) table_drop(t, table_probe(t, t->key[t->head]));
            table_push(t, line + 1, 0);
        }
        return 0;
    }
    /* extend: pop, then upsert line + 1 */
    int64_t confidence = t->conf[found] + 1;
    table_drop(t, at);
    if (next >= 0) t->conf[next] = confidence;
    else table_push(t, line + 1, confidence);
    if (confidence < t->st->threshold) return 0;
    t->st->issued += t->st->degree;
    return t->st->degree;
}

static inline int64_t set_of(const Level *lv, int64_t line)
{
    int64_t sets = lv->sets;
    return (sets & (sets - 1)) ? line % sets : (line & (sets - 1));
}

/* The way of set `base` holding `line`, or -1. An 8- or 16-way level
   compares every way, unrolled, into a match mask with no early exit: a
   reserved way holds -1 forever and a line is never negative, so only
   usable ways can match. (The first empty way is found as line -1: a free
   usable way precedes every reserved one.) */
static inline int64_t find_way(const Level *lv, int64_t base, int64_t line)
{
    const int64_t *way_line = lv->way_line + base;
    uint32_t mask = 0;
    if (lv->ways == 8) {
#pragma GCC unroll 8
        for (int w = 0; w < 8; w++) mask |= (uint32_t)(way_line[w] == line) << w;
    } else if (lv->ways == 16) {
#pragma GCC unroll 16
        for (int w = 0; w < 16; w++) mask |= (uint32_t)(way_line[w] == line) << w;
    } else {
        for (int64_t w = 0; w < lv->usable; w++) {
            if (way_line[w] == line) return w;
        }
        return -1;
    }
    return mask ? __builtin_ctz(mask) : -1;
}

/* Replacement-state update on a hit (FastHierarchy._touch). bit-PLRU sets
   the way's MRU bit, unless that would set every usable way's: then the
   way's bit is the only one left set. */
static inline void touch(Level *lv, int64_t sidx, int64_t base, int64_t way)
{
    if (lv->policy == POL_LRU) {
        lv->stamp[base + way] = ++lv->clock[0];
    } else if (lv->policy == POL_PLRU) {
        uint64_t full = ~UINT64_C(0) >> (64 - lv->usable);
        uint64_t bits = lv->mru[sidx] | UINT64_C(1) << way;
        lv->mru[sidx] = bits == full ? UINT64_C(1) << way : bits;
    } else {
        lv->rrpv[sidx] &= ~(UINT64_C(3) << 2 * way);
    }
}

/* The way a full set gives up (FastHierarchy._victim). bit-PLRU takes the
   first way whose MRU bit is clear (way 0 when none is). DRRIP ages the set
   until some RRPV reaches 3 and takes the first such way; every RRPV stays
   at most 3, so that is the first way at the maximum and one aging of every
   usable field by 3 - max, which no field can carry out of. */
static int64_t victim(Level *lv, int64_t sidx, int64_t base)
{
    int64_t usable = lv->usable;
    if (lv->policy == POL_LRU) {
        const int64_t *stamp = lv->stamp + base;
        int64_t way = 0;
        for (int64_t w = 1; w < usable; w++) {
            if (stamp[w] < stamp[way]) way = w;
        }
        return way;
    }
    if (lv->policy == POL_PLRU) {
        uint64_t clear = ~lv->mru[sidx] & (~UINT64_C(0) >> (64 - usable));
        return clear ? __builtin_ctzll(clear) : 0;
    }
    /* the low bit of every usable field */
    uint64_t ones = UINT64_C(0x5555555555555555) >> (64 - 2 * usable);
    uint64_t rrpv = lv->rrpv[sidx];
    uint64_t lo = rrpv & ones, hi = (rrpv >> 1) & ones;
    uint64_t at = ones;         /* the fields at the maximum RRPV */
    uint64_t age = 3;
    if (lo & hi) {
        at = lo & hi;
        age = 0;
    } else if (hi) {
        at = hi;
        age = 1;
    } else if (lo) {
        at = lo;
        age = 2;
    }
    lv->rrpv[sidx] = rrpv + age * ones;
    return __builtin_ctzll(at) >> 1;
}

/* FastHierarchy._fill's placement of a line absent from a level, in set
   sidx: the first free usable way, else the victim, then the policy's
   insertion. Returns the victim's line when it was dirty, else -1. */
static int64_t install(Level *level, int64_t line, int64_t sidx,
                       uint8_t dirty)
{
    int64_t base = sidx * level->ways;
    int64_t way, spill = -1;
    if (level->occ[sidx] < level->usable) {
        way = find_way(level, base, -1);
        level->occ[sidx] += 1;
    } else {
        way = victim(level, sidx, base);
        if (level->dirty[base + way]) spill = level->way_line[base + way];
    }
    level->way_line[base + way] = line;
    level->dirty[base + way] = dirty;
    if (level->policy != POL_DRRIP) {
        touch(level, sidx, base, way);
        return spill;
    }
    int64_t *duel = level->duel;
    uint8_t role = level->role[sidx];
    if (role == 1) {            /* SRRIP leader */
        if (duel[0] < 1023) duel[0] += 1;
    } else if (role == 2) {     /* BRRIP leader */
        if (duel[0] > 0) duel[0] -= 1;
    }
    uint64_t rrpv = 2;
    if (role == 2 || (role == 0 && duel[0] < 512)) {
        duel[1] += 1;
        rrpv = (duel[1] % 32 == 0) ? 2 : 3;
    }
    int shift = 2 * (int)way;
    level->rrpv[sidx] = (level->rrpv[sidx] & ~(UINT64_C(3) << shift))
                        | rrpv << shift;
    return spill;
}

/* FastHierarchy._fill of a line absent from level k, in set sidx, with
   the write-backs it sets off: a dirty victim goes one level down, where
   a resident copy is touched and dirtied and an absent one is installed
   in turn (which may give up a dirty victim of its own); a dirty LLC
   victim is a DRAM write. count = [hits x3, misses x3, dram_writes,
   dram_prefetch_reads] */
static void fill(Level *lv, int64_t *count, int k, int64_t line,
                 int64_t sidx, uint8_t dirty)
{
    line = install(&lv[k], line, sidx, dirty);
    while (line >= 0) {
        if (++k == 3) {
            count[6] += 1;
            return;
        }
        Level *level = &lv[k];
        sidx = set_of(level, line);
        int64_t base = sidx * level->ways;
        int64_t way = find_way(level, base, line);
        if (way >= 0) {
            level->dirty[base + way] = 1;
            touch(level, sidx, base, way);
            return;
        }
        line = install(level, line, sidx, 1);
    }
}

/* FastHierarchy.access of one line: returns the serving level (1 = L1 ..
   4 = DRAM) and adds to count. A miss fills every level above the one
   that served it, deepest first (inclusive, write-allocate: only the L1
   copy takes the write). An L1 miss then trains the prefetcher (t, NULL
   when there is none), whose lines fill the L2 unless resident there; one
   absent from the LLC too is a DRAM prefetch read. */
static inline int walk_access(Level *lv, Table *t, int64_t line,
                              uint8_t write, int64_t *count)
{
    Level *l2 = &lv[1], *llc = &lv[2];
    int64_t sidx[3];
    int k = 0;
    for (; k < 3; k++) {
        Level *level = &lv[k];
        sidx[k] = set_of(level, line);
        int64_t base = sidx[k] * level->ways;
        int64_t way = find_way(level, base, line);
        if (way >= 0) {
            count[k] += 1;
            touch(level, sidx[k], base, way);
            if (k == 0 && write) level->dirty[base + way] = 1;
            break;
        }
        count[3 + k] += 1;
    }
    if (k == 0) return 1;
    for (int f = k - 1; f >= 0; f--) {
        fill(lv, count, f, line, sidx[f], f == 0 ? write : 0);
    }
    if (t == NULL) return k + 1;
    int64_t issued = stream_observe(t, line);
    for (int64_t j = 1; j <= issued; j++) {
        int64_t pf = line + j;
        int64_t ps = set_of(l2, pf);
        if (find_way(l2, ps * l2->ways, pf) >= 0) continue;
        if (find_way(llc, set_of(llc, pf) * llc->ways, pf) < 0) count[7] += 1;
        fill(lv, count, 1, pf, ps, 0);
    }
    return k + 1;
}

/* FastHierarchy.access over n accesses: the serving level of each into
   served, the counters added into count. */
int64_t hierarchy_walk(
    int64_t n, const int64_t *lines, const uint8_t *writes, Level *lv,
    Streams *st, int8_t *served, int64_t *count)
{
    Table table, *t = table_load(&table, st);
    for (int64_t i = 0; i < n; i++) {
        served[i] = (int8_t)walk_access(lv, t, lines[i], writes[i], count);
    }
    table_store(t);
    return 0;
}

/* One phase (BatchHierarchy.replay_phase): nseg segments of `rounds`
   lines each, interleaved round-robin (round i walks segs[0][i] ..
   segs[nseg - 1][i], segment s writing when writes[s] is set). After
   irregular access k (0-based, over the interleaved order) the stream
   lines stream_base + j are read for every j below
   ((k + 1) * stream_lines) / total_events, stepped as a quotient and a
   remainder so no product can overflow. tally = [irregular accesses
   served at L1, L2, LLC, DRAM, then stream accesses at the same]. */
int64_t phase_walk(
    int64_t nseg, int64_t rounds, const int64_t *const *segs,
    const uint8_t *writes, int64_t stream_base, int64_t stream_lines,
    int64_t total_events, Level *lv, Streams *st, int64_t *count,
    int64_t *tally)
{
    int inject = stream_lines > 0 && total_events > 0;
    int64_t step_q = inject ? stream_lines / total_events : 0;
    int64_t step_r = inject ? stream_lines % total_events : 0;
    int64_t due = 0, rem = 0, injected = 0;
    Table table, *t = table_load(&table, st);
    for (int64_t i = 0; i < rounds; i++) {
        for (int64_t s = 0; s < nseg; s++) {
            tally[walk_access(lv, t, segs[s][i], writes[s], count) - 1] += 1;
            if (!inject) continue;
            due += step_q;
            rem += step_r;
            if (rem >= total_events) {
                rem -= total_events;
                due += 1;
            }
            for (; injected < due; injected++) {
                tally[3 + walk_access(lv, t, stream_base + injected, 0, count)] += 1;
            }
        }
    }
    table_store(t);
    return 0;
}

/* The stream prefetcher alone over an L1-miss stream: every issued line
   into pf_line_out, tagged in pf_seq_out with the sequence key of the
   miss that issued it. Returns the number of lines issued. */
int64_t prefetch_scan_native(
    int64_t n, const int64_t *miss_seq, const int64_t *miss_line,
    Streams *st, int64_t *pf_seq_out, int64_t *pf_line_out)
{
    Table table, *t = table_load(&table, st);
    int64_t out = 0;
    for (int64_t pos = 0; pos < n; pos++) {
        int64_t issued = stream_observe(t, miss_line[pos]);
        for (int64_t j = 1; j <= issued; j++) {
            pf_seq_out[out] = miss_seq[pos];
            pf_line_out[out] = miss_line[pos] + j;
            out += 1;
        }
    }
    table_store(t);
    return out;
}

/* Eviction-pipeline DES (EvictionBufferModel.run) as one C call. Replays
   the exact schedule of repro.des.engine.Simulator: four processes (core,
   two binning engines, memory writer), three SPSC FIFOs, events ordered
   by (time, seq) with one global sequence number per schedule call, a
   completed put scheduling the waiting getter before the putter, and
   queue max-occupancy growing only on append. Cache lines are fixed
   per_line-int64 rows copied by value between buffer stores, FIFO rings,
   and per-process incoming-value slots. */

enum { P_START = 0, P_AFTER_TIMEOUT = 1, P_AFTER_PUT = 2, P_AFTER_GET = 3 };

typedef struct {
    /* four-slot scheduler */
    double run_time[4];
    int64_t run_seq[4];
    int runnable[4];
    int state[4];
    int64_t seq;
    double now;
    /* three FIFOs (ring of lines + one optional waiting putter/getter) */
    int64_t caps[3];
    int64_t *ring[3];
    int64_t head[3];
    int64_t count[3];
    int64_t occ_max[3];
    int waiter_flag[3];
    int waiter_pid[3];
    int64_t *waiter_line[3];
    int get_waiter[3];
    int64_t *val[4];          /* incoming line per process */
    /* model state */
    const int64_t *trace;
    int64_t n, pos;
    int64_t r1, r2, r3, per_line;
    double core_dt, engine_dt, mem_dt;
    int64_t *counts1, *store1;
    int64_t *counts2, *store2;
    int64_t *counts3, *store3;
    int64_t ev[3];
    double stall;
    double core_put_start;
    int64_t eng_pos[2];
} Pipe;

static void pipe_schedule(Pipe *p, int pid, double delay)
{
    p->seq += 1;
    p->run_time[pid] = p->now + delay;
    p->run_seq[pid] = p->seq;
    p->runnable[pid] = 1;
}

static void pipe_complete_put(Pipe *p, int q, int pid, const int64_t *line)
{
    int getter = p->get_waiter[q];
    if (getter >= 0) {
        p->get_waiter[q] = -1;
        memcpy(p->val[getter], line, p->per_line * sizeof(int64_t));
        pipe_schedule(p, getter, 0.0);
    } else {
        int64_t slot = (p->head[q] + p->count[q]) % p->caps[q];
        memcpy(p->ring[q] + slot * p->per_line, line,
               p->per_line * sizeof(int64_t));
        p->count[q] += 1;
        if (p->count[q] > p->occ_max[q]) p->occ_max[q] = p->count[q];
    }
    pipe_schedule(p, pid, 0.0);
}

static void pipe_put(Pipe *p, int q, int pid, const int64_t *line)
{
    if (p->count[q] >= p->caps[q]) {
        memcpy(p->waiter_line[q], line, p->per_line * sizeof(int64_t));
        p->waiter_pid[q] = pid;
        p->waiter_flag[q] = 1;
    } else {
        pipe_complete_put(p, q, pid, line);
    }
}

static void pipe_get(Pipe *p, int q, int pid)
{
    if (p->count[q] > 0) {
        memcpy(p->val[pid], p->ring[q] + p->head[q] * p->per_line,
               p->per_line * sizeof(int64_t));
        p->head[q] = (p->head[q] + 1) % p->caps[q];
        p->count[q] -= 1;
        if (p->waiter_flag[q] && p->count[q] < p->caps[q]) {
            p->waiter_flag[q] = 0;
            pipe_complete_put(p, q, p->waiter_pid[q], p->waiter_line[q]);
        }
        pipe_schedule(p, pid, 0.0);
    } else {
        p->get_waiter[q] = pid;
    }
}

static void pipe_core_advance(Pipe *p)
{
    if (p->pos < p->n) {
        pipe_schedule(p, 0, p->core_dt);
        p->state[0] = P_AFTER_TIMEOUT;
    }
}

static void pipe_resume_core(Pipe *p)
{
    int st = p->state[0];
    if (st == P_AFTER_TIMEOUT) {
        int64_t idx = p->trace[p->pos++];
        int64_t b = idx / p->r1;
        int64_t c = p->counts1[b];
        p->store1[b * p->per_line + c] = idx;
        c += 1;
        if (c == p->per_line) {
            p->ev[0] += 1;
            p->counts1[b] = 0;
            p->core_put_start = p->now;
            p->state[0] = P_AFTER_PUT;
            pipe_put(p, 0, 0, p->store1 + b * p->per_line);
        } else {
            p->counts1[b] = c;
            pipe_core_advance(p);
        }
    } else if (st == P_AFTER_PUT) {
        p->stall += p->now - p->core_put_start;
        pipe_core_advance(p);
    } else {
        pipe_core_advance(p);
    }
}

static void pipe_resume_engine(Pipe *p, int pid)
{
    int eng = pid - 1;
    int st = p->state[pid];
    if (st == P_AFTER_GET) {
        p->eng_pos[eng] = 0;
        pipe_schedule(p, pid, p->engine_dt);
        p->state[pid] = P_AFTER_TIMEOUT;
        return;
    }
    if (st == P_AFTER_TIMEOUT) {
        int64_t idx = p->val[pid][p->eng_pos[eng]];
        p->eng_pos[eng] += 1;
        int64_t range = eng ? p->r3 : p->r2;
        int64_t *counts = eng ? p->counts3 : p->counts2;
        int64_t *store = eng ? p->store3 : p->store2;
        int64_t b = idx / range;
        int64_t c = counts[b];
        store[b * p->per_line + c] = idx;
        c += 1;
        if (c == p->per_line) {
            p->ev[1 + eng] += 1;
            counts[b] = 0;
            p->state[pid] = P_AFTER_PUT;
            pipe_put(p, eng + 1, pid, store + b * p->per_line);
            return;
        }
        counts[b] = c;
    }
    if (st != P_START && p->eng_pos[eng] < p->per_line) {
        pipe_schedule(p, pid, p->engine_dt);
        p->state[pid] = P_AFTER_TIMEOUT;
    } else {
        p->state[pid] = P_AFTER_GET;
        pipe_get(p, eng, pid);
    }
}

static void pipe_resume_mem(Pipe *p)
{
    if (p->state[3] == P_AFTER_GET) {
        pipe_schedule(p, 3, p->mem_dt);
        p->state[3] = P_AFTER_TIMEOUT;
    } else {
        p->state[3] = P_AFTER_GET;
        pipe_get(p, 2, 3);
    }
}

int64_t eviction_pipeline_replay(
    const int64_t *trace, int64_t n,
    int64_t r1, int64_t r2, int64_t r3, int64_t per_line,
    double core_dt, double engine_dt, double mem_dt,
    int64_t cap0, int64_t cap1, int64_t cap2,
    int64_t nb1, int64_t nb2, int64_t nb3,
    double *out_f, int64_t *out_i)
{
    Pipe pipe;
    Pipe *p = &pipe;
    memset(p, 0, sizeof(Pipe));
    int64_t buffers = nb1 + nb2 + nb3;
    int64_t rings = cap0 + cap1 + cap2;
    int64_t words = buffers * (1 + per_line) + (rings + 3 + 4) * per_line;
    int64_t *arena = (int64_t *)calloc((size_t)words, sizeof(int64_t));
    if (arena == NULL) return 1;
    int64_t *cursor = arena;
    p->counts1 = cursor; cursor += nb1;
    p->counts2 = cursor; cursor += nb2;
    p->counts3 = cursor; cursor += nb3;
    p->store1 = cursor; cursor += nb1 * per_line;
    p->store2 = cursor; cursor += nb2 * per_line;
    p->store3 = cursor; cursor += nb3 * per_line;
    p->caps[0] = cap0; p->caps[1] = cap1; p->caps[2] = cap2;
    for (int q = 0; q < 3; q++) {
        p->ring[q] = cursor; cursor += p->caps[q] * per_line;
        p->waiter_line[q] = cursor; cursor += per_line;
        p->get_waiter[q] = -1;
    }
    for (int pid = 0; pid < 4; pid++) {
        p->val[pid] = cursor; cursor += per_line;
        p->run_seq[pid] = pid + 1;   /* initial wakeups, registration order */
        p->runnable[pid] = 1;
        p->state[pid] = P_START;
    }
    p->seq = 4;
    p->trace = trace;
    p->n = n;
    p->r1 = r1; p->r2 = r2; p->r3 = r3;
    p->per_line = per_line;
    p->core_dt = core_dt; p->engine_dt = engine_dt; p->mem_dt = mem_dt;

    while (1) {
        int pid = -1;
        double best_time = 0.0;
        int64_t best_seq = 0;
        for (int c = 0; c < 4; c++) {
            if (p->runnable[c]) {
                double t = p->run_time[c];
                if (pid < 0 || t < best_time ||
                    (t == best_time && p->run_seq[c] < best_seq)) {
                    pid = c;
                    best_time = t;
                    best_seq = p->run_seq[c];
                }
            }
        }
        if (pid < 0) break;
        p->runnable[pid] = 0;
        p->now = best_time;
        if (pid == 0) pipe_resume_core(p);
        else if (pid == 3) pipe_resume_mem(p);
        else pipe_resume_engine(p, pid);
    }

    out_f[0] = p->now;
    out_f[1] = p->stall;
    for (int i = 0; i < 3; i++) {
        out_i[i] = p->ev[i];
        out_i[3 + i] = p->occ_max[i];
    }
    free(arena);
    return 0;
}

/* COBRA Binning counts (repro.core.machine.CobraMachine.binning_counts)
   as one C call: bininit, one binupdate per index, binflush, through the
   three C-Buffer levels, tracking indices only. Order follows the Python
   machine: a filled line scatters into the next level at once (depth
   first, before the rest of the line that filled it); a coalescing line
   keeps distinct indices in first-arrival order and a repeat takes no
   slot; binflush drains each level in buffer-id order. Scattering a line
   only touches deeper levels, so walking a level in place sees the same
   lines as the Python snapshot. Buffer arrays are sized from num_indices
   and the shift, so every buffer id of an in-range index is addressable.
   out = [inserts x3, line fills x3 (LLC fills are its full-line writes),
   coalesced x3, flush-line writes, bad memory-bin id]. Returns 0, 1 when
   an allocation fails, or 2 when an LLC line maps past the memory bins
   (out[10]). */

typedef struct {
    int64_t shift, buffers;
    int64_t *count;     /* per buffer: tuples in its line */
    int64_t *store;     /* per buffer: per_line index slots */
    uint8_t *present;   /* per index, coalescing levels only */
    int64_t inserts, fills, coalesced;
} BinLevel;

typedef struct {
    BinLevel level[3];
    int64_t per_line, memory_bins, flush_writes, bad_bin;
} Binning;

static int binning_insert(Binning *m, int tier, int64_t idx);

static int binning_evict(Binning *m, int tier, int64_t b, int64_t used,
                         int flush)
{
    BinLevel *lv = &m->level[tier];
    const int64_t *line = lv->store + b * m->per_line;
    if (lv->present) {
        for (int64_t i = 0; i < used; i++) lv->present[line[i]] = 0;
    }
    if (tier == 2) {
        if (b >= m->memory_bins) { m->bad_bin = b; return 2; }
        m->flush_writes += flush;
        return 0;
    }
    for (int64_t i = 0; i < used; i++) {
        int status = binning_insert(m, tier + 1, line[i]);
        if (status) return status;
    }
    return 0;
}

static int binning_insert(Binning *m, int tier, int64_t idx)
{
    BinLevel *lv = &m->level[tier];
    int64_t b = idx >> lv->shift;
    lv->inserts += 1;
    if (lv->present) {
        if (lv->present[idx]) { lv->coalesced += 1; return 0; }
        lv->present[idx] = 1;
    }
    int64_t used = lv->count[b];
    lv->store[b * m->per_line + used] = idx;
    used += 1;
    if (used < m->per_line) { lv->count[b] = used; return 0; }
    lv->count[b] = 0;
    lv->fills += 1;
    return binning_evict(m, tier, b, used, 0);
}

int64_t binning_counts_replay(
    const int64_t *indices, int64_t n, int64_t num_indices,
    int64_t per_line, const int64_t *shifts, const uint8_t *coalesces,
    int64_t memory_bins, int64_t *out)
{
    Binning machine;
    Binning *m = &machine;
    memset(m, 0, sizeof(Binning));
    m->per_line = per_line;
    m->memory_bins = memory_bins;
    int status = 0;
    for (int t = 0; t < 3; t++) {
        BinLevel *lv = &m->level[t];
        lv->shift = shifts[t];
        lv->buffers = ((num_indices - 1) >> lv->shift) + 1;
        lv->count = (int64_t *)calloc((size_t)lv->buffers, sizeof(int64_t));
        lv->store = (int64_t *)malloc(
            (size_t)lv->buffers * (size_t)per_line * sizeof(int64_t));
        if (coalesces[t]) {
            lv->present = (uint8_t *)calloc((size_t)num_indices, 1);
            if (lv->present == NULL) status = 1;
        }
        if (lv->count == NULL || lv->store == NULL) status = 1;
    }
    for (int64_t pos = 0; pos < n && status == 0; pos++) {
        status = binning_insert(m, 0, indices[pos]);
    }
    for (int t = 0; t < 3 && status == 0; t++) {
        BinLevel *lv = &m->level[t];
        for (int64_t b = 0; b < lv->buffers && status == 0; b++) {
            int64_t used = lv->count[b];
            if (used == 0) continue;
            lv->count[b] = 0;
            status = binning_evict(m, t, b, used, t == 2);
        }
    }
    for (int t = 0; t < 3; t++) {
        BinLevel *lv = &m->level[t];
        out[t] = lv->inserts;
        out[3 + t] = lv->fills;
        out[6 + t] = lv->coalesced;
        free(lv->count);
        free(lv->store);
        free(lv->present);
    }
    out[9] = m->flush_writes;
    out[10] = m->bad_bin;
    return status;
}

/* Software PB's binning primitives (repro.pb.bins, repro.pb.cbuffer), one
   pass each over an update stream whose update i goes to bin
   indices[i] >> shift. Every pass checks the bin as an unsigned value
   against num_bins, which also catches a negative index, and returns
   i + 1 for the first update i out of range before it writes anything
   for it, or 0. */

/* Init's counting pass: counts (zeroed by the caller) gains 1 at each
   update's bin. */
int64_t bin_counts(
    const int64_t *indices, int64_t n, int64_t shift, int64_t num_bins,
    int64_t *counts)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t b = (uint64_t)(indices[i] >> shift);
        if (b >= (uint64_t)num_bins) return i + 1;
        counts[b] += 1;
    }
    return 0;
}

/* The first `limit` positions of the stable bin-major order, placed
   counting-sort style: bin b's updates fill the slots from its offset
   (the sum of the counts before it) in stream order. next[b] (scratch)
   starts at that offset capped at `limit` and advances only while below
   it, so the updates of bins past the cutoff, and the cutoff bin's
   overflow, all land in the scratch slot order[limit]. */
int64_t bin_order(
    const int64_t *indices, int64_t n, int64_t shift, int64_t num_bins,
    const int64_t *counts, int64_t limit, int64_t *next, int64_t *order)
{
    int64_t offset = 0;
    for (int64_t b = 0; b < num_bins; b++) {
        next[b] = offset < limit ? offset : limit;
        offset += counts[b];
    }
    for (int64_t i = 0; i < n; i++) {
        uint64_t b = (uint64_t)(indices[i] >> shift);
        if (b >= (uint64_t)num_bins) return i + 1;
        int64_t slot = next[b];
        order[slot] = i;
        next[b] = slot + (slot < limit);
    }
    return 0;
}

/* Each update's C-Buffer occupancy before its insert: its rank within its
   bin modulo per_line. seen (zeroed by the caller) holds each bin's
   current occupancy and wraps to 0 when it reaches per_line. */
int64_t bin_occupancy(
    const int64_t *indices, int64_t n, int64_t shift, int64_t num_bins,
    int64_t per_line, int64_t *seen, int64_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t b = (uint64_t)(indices[i] >> shift);
        if (b >= (uint64_t)num_bins) return i + 1;
        int64_t occupancy = seen[b];
        out[i] = occupancy;
        occupancy += 1;
        seen[b] = occupancy == per_line ? 0 : occupancy;
    }
    return 0;
}

/* GShare over one branch's outcomes (repro.cpu.branch.GSharePredictor
   .simulate): each outcome (0/1) reads the 2-bit counter at
   (pc ^ history) & mask, counts a miss when the prediction (counter >= 2)
   differs, saturates the counter toward the outcome and shifts the
   outcome into the history. Updates counters and *history in place;
   returns the mispredictions. */
int64_t gshare_walk(
    const uint8_t *outcomes, int64_t n, int64_t pc, uint8_t *counters,
    int64_t mask, int64_t hist_mask, int64_t *history)
{
    int64_t h = *history, misses = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t taken = outcomes[i];
        uint8_t *counter = counters + ((pc ^ h) & mask);
        int64_t c = *counter;
        misses += (c >= 2) != taken;
        *counter = (uint8_t)(c + (taken & (c < 3)) - (!taken & (c > 0)));
        h = ((h << 1) | taken) & hist_mask;
    }
    *history = h;
    return misses;
}
"""

_I64 = ctypes.POINTER(ctypes.c_int64)
_I8 = ctypes.POINTER(ctypes.c_int8)
_U8 = ctypes.POINTER(ctypes.c_uint8)
_U64 = ctypes.POINTER(ctypes.c_uint64)
_F64 = ctypes.POINTER(ctypes.c_double)


class Level(ctypes.Structure):
    """One cache level as the walks (:func:`hierarchy_walk`,
    :func:`phase_walk`) read it.

    Geometry, policy code (0 LRU, 1 bit-PLRU, 2 DRRIP) and pointers to the
    level's flat state arrays, which must outlive the struct; the arrays of
    the policies it does not run stay NULL. ``way_line`` and ``dirty`` hold
    one entry per way, LRU's ``stamp`` too; bit-PLRU's ``mru`` and DRRIP's
    ``rrpv`` hold one uint64 word per set, way ``w`` at bit ``w`` of the
    MRU mask and at bits ``2w`` and ``2w + 1`` of the RRPV word, so at most
    32 ways fit.
    """

    _fields_ = [
        ("sets", ctypes.c_int64),
        ("ways", ctypes.c_int64),
        ("usable", ctypes.c_int64),
        ("policy", ctypes.c_int64),
        ("way_line", _I64),
        ("dirty", _U8),
        ("occ", _I64),
        ("stamp", _I64),
        ("clock", _I64),
        ("mru", _U64),
        ("rrpv", _U64),
        ("role", _U8),
        ("duel", _I64),
    ]

    @classmethod
    def over(cls, sets, ways, usable, policy, state):
        """The struct over ``state``'s arrays, named as the fields."""
        level = cls(sets, ways, usable, policy)
        for name, ctype in cls._fields_[4:]:
            array = getattr(state, name, None)
            if array is not None:
                setattr(level, name, _ptr(array, ctype))
        return level


class _Streams(ctypes.Structure):
    _fields_ = [
        ("num_streams", ctypes.c_int64),
        ("degree", ctypes.c_int64),
        ("threshold", ctypes.c_int64),
        ("keys", _I64),
        ("conf", _I64),
        ("active", ctypes.c_int64),
        ("issued", ctypes.c_int64),
    ]


class _StreamTable:
    """A :class:`~repro.cache.prefetcher.StreamPrefetcher`'s stream table as
    the C walks take it: the insertion-ordered dict ``_expect`` as two
    arrays of keys and confidences, oldest first, its length in
    ``active``. Each C call builds its own hashed, linked table from them
    and writes it back in the same order when it returns. That table has
    one bit per slot in a 64-bit free mask, so a prefetcher of more than
    :data:`~repro.cache.config.MAX_STREAMS` streams raises ``ValueError``.
    :meth:`restore` writes the table back and adds the lines issued to
    ``issued``.
    """

    def __init__(self, prefetcher):
        if prefetcher.num_streams > MAX_STREAMS:
            raise ValueError(
                f"the C stream table holds at most {MAX_STREAMS} streams, "
                f"got {prefetcher.num_streams}"
            )
        expect = prefetcher._expect
        self.keys = np.zeros(prefetcher.num_streams, dtype=np.int64)
        self.conf = np.zeros(prefetcher.num_streams, dtype=np.int64)
        self.keys[: len(expect)] = list(expect)
        self.conf[: len(expect)] = list(expect.values())
        self.struct = _Streams(
            prefetcher.num_streams, prefetcher.degree, prefetcher.threshold,
            _ptr(self.keys, _I64), _ptr(self.conf, _I64), len(expect), 0,
        )

    def restore(self, prefetcher):
        prefetcher.issued += self.struct.issued
        active = self.struct.active
        prefetcher._expect = dict(
            zip(self.keys[:active].tolist(), self.conf[:active].tolist())
        )


#: argtypes per exported symbol (int64 scalars everywhere else).
_SIGNATURES = {
    "hierarchy_walk": (
        ctypes.c_int64, _I64, _U8, ctypes.POINTER(Level),
        ctypes.POINTER(_Streams), _I8, _I64,
    ),
    "phase_walk": (
        ctypes.c_int64, ctypes.c_int64, ctypes.POINTER(_I64), _U8,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.POINTER(Level), ctypes.POINTER(_Streams), _I64, _I64,
    ),
    "prefetch_scan_native": (
        ctypes.c_int64, _I64, _I64, ctypes.POINTER(_Streams), _I64, _I64,
    ),
    "eviction_pipeline_replay": (
        _I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _F64, _I64,
    ),
    "binning_counts_replay": (
        _I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I64, _U8,
        ctypes.c_int64, _I64,
    ),
    "bin_counts": (
        _I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I64,
    ),
    "bin_order": (
        _I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I64,
        ctypes.c_int64, _I64, _I64,
    ),
    "bin_occupancy": (
        _I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, _I64, _I64,
    ),
    "gshare_walk": (
        _U8, ctypes.c_int64, ctypes.c_int64, _U8, ctypes.c_int64,
        ctypes.c_int64, _I64,
    ),
}

_lib = None
_build_error: Optional[str] = None
_attempted = False


def _cache_dir() -> Path:
    """Build cache for the shared object (XDG cache, tmp as fallback)."""
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    try:
        path = base / "repro-kernels"
        path.mkdir(parents=True, exist_ok=True)
        return path
    except OSError:
        return Path(tempfile.gettempdir())


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        for directory in os.environ.get("PATH", "").split(os.pathsep):
            candidate = Path(directory) / name
            if candidate.is_file() and os.access(candidate, os.X_OK):
                return str(candidate)
    return None


def _build() -> Optional[ctypes.CDLL]:
    """Compile (or reuse) the kernel library; None with a recorded reason
    on any failure — callers then run their Python oracles."""
    global _build_error
    compiler = _compiler()
    if compiler is None:
        _build_error = "no C compiler (cc/gcc/clang) on PATH"
        return None
    digest = hashlib.sha256(_SOURCE.encode("utf-8")).hexdigest()[:16]
    library = _cache_dir() / f"repro_cache_kernels_{digest}.so"
    if not library.exists():
        with tempfile.TemporaryDirectory() as workdir:
            source = Path(workdir) / "kernels.c"
            source.write_text(_SOURCE, encoding="utf-8")
            built = Path(workdir) / "kernels.so"
            try:
                subprocess.run(
                    [compiler, "-O2", "-shared", "-fPIC",
                     str(source), "-o", str(built)],
                    check=True, capture_output=True, timeout=120,
                )
            except (subprocess.SubprocessError, OSError) as error:
                detail = getattr(error, "stderr", b"") or b""
                _build_error = (
                    f"kernel build failed: {error} "
                    f"{detail.decode('utf-8', 'replace')[:200]}"
                )
                return None
            try:
                os.replace(built, library)  # atomic vs concurrent builders
            except OSError as error:
                _build_error = f"kernel install failed: {error}"
                return None
    try:
        lib = ctypes.CDLL(str(library))
    except OSError as error:
        _build_error = f"kernel load failed: {error}"
        return None
    for symbol, argtypes in _SIGNATURES.items():
        func = getattr(lib, symbol)
        func.argtypes = argtypes
        func.restype = ctypes.c_int64
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The kernel library, building it on first use (None if unbuildable)."""
    global _lib, _attempted
    if not _attempted:
        _attempted = True
        _lib = _build()
    return _lib


def available() -> bool:
    """True when the C kernel library compiled and loaded successfully."""
    return load() is not None


def build_error() -> Optional[str]:
    """Why the C kernel library is unavailable (None when it is loaded)."""
    load()
    return _build_error


def _ptr(array, ctype):
    return array.ctypes.data_as(ctype)


@contextmanager
def _streams(prefetcher):
    """``prefetcher``'s stream table as a walk reads it (NULL when there is
    no prefetcher), written back to the prefetcher after the walk."""
    if prefetcher is None:
        yield None
        return
    table = _StreamTable(prefetcher)
    yield ctypes.byref(table.struct)
    table.restore(prefetcher)


def hierarchy_walk(levels, prefetcher, lines, writes, served):
    """Walk each access through L1 → L2 → LLC in one C call.

    ``levels`` is a ``Level * 3`` array (L1, L2, LLC), whose state arrays
    the walk updates in place; ``prefetcher`` is the hierarchy's
    :class:`~repro.cache.prefetcher.StreamPrefetcher` or None. ``lines``
    (int64, non-negative) and ``writes`` (uint8) are parallel; each
    access's serving level (1 = L1 .. 4 = DRAM) lands in ``served``
    (int8), exactly as repeated :meth:`FastHierarchy.access
    <repro.cache.fastsim.FastHierarchy.access>` calls would return it.
    Returns the counters the walk added: ``[hits x3, misses x3,
    dram_writes, dram_prefetch_reads]``, one per level for the first two.
    """
    count = np.zeros(8, dtype=np.int64)
    with _streams(prefetcher) as streams:
        load().hierarchy_walk(
            lines.shape[0], _ptr(lines, _I64), _ptr(writes, _U8), levels,
            streams, _ptr(served, _I8), _ptr(count, _I64),
        )
    return count


def phase_walk(levels, prefetcher, segments, writes, stream_base,
               stream_lines, total_events):
    """Replay one phase's trace in one C call, building none of it.

    ``segments`` are equal-length int64 line arrays (non-negative),
    interleaved round-robin, and ``writes`` one flag per segment. After
    irregular access ``k`` the walk reads the stream lines ``stream_base
    + j`` for every ``j`` below ``((k + 1) * stream_lines) //
    total_events`` (none when either is 0). Returns ``(count, tally)``:
    the counters :func:`hierarchy_walk` returns, and the accesses each
    level served, ``[irregular L1, L2, LLC, DRAM, stream L1, L2, LLC,
    DRAM]``.
    """
    count = np.zeros(8, dtype=np.int64)
    tally = np.zeros(8, dtype=np.int64)
    pointers = (_I64 * len(segments))(*(_ptr(s, _I64) for s in segments))
    flags = np.asarray(writes, dtype=np.uint8)
    with _streams(prefetcher) as streams:
        load().phase_walk(
            len(segments), segments[0].shape[0] if segments else 0,
            pointers, _ptr(flags, _U8), stream_base, stream_lines,
            total_events, levels, streams, _ptr(count, _I64),
            _ptr(tally, _I64),
        )
    return count, tally


def prefetch_scan_native(prefetcher, miss_seq, miss_lines):
    """Run ``prefetcher`` alone over an L1-miss stream in one C call.

    Returns ``(pf_seq, pf_line)``: every line repeated
    :meth:`StreamPrefetcher.observe
    <repro.cache.prefetcher.StreamPrefetcher.observe>` calls would issue,
    in order, each tagged with the ``miss_seq`` entry of the miss that
    issued it. The stream-table routine is the one :func:`hierarchy_walk`
    runs inline, and the prefetcher's state advances as ``observe`` would
    advance it. A negative line raises ``ValueError``, as it does in the
    walks, where an empty way holds -1.
    """
    miss_seq = np.ascontiguousarray(miss_seq, dtype=np.int64)
    miss_lines = np.ascontiguousarray(miss_lines, dtype=np.int64)
    if miss_seq.shape != miss_lines.shape:
        raise ValueError("miss_seq and miss_lines differ in length")
    if miss_lines.size and miss_lines.min() < 0:
        raise ValueError(f"negative line number {int(miss_lines.min())}")
    count = miss_lines.shape[0]
    pf_seq = np.empty(count * prefetcher.degree, dtype=np.int64)
    pf_line = np.empty(count * prefetcher.degree, dtype=np.int64)
    with _streams(prefetcher) as streams:
        issued = load().prefetch_scan_native(
            count, _ptr(miss_seq, _I64), _ptr(miss_lines, _I64), streams,
            _ptr(pf_seq, _I64), _ptr(pf_line, _I64),
        )
    return pf_seq[:issued].copy(), pf_line[:issued].copy()


def eviction_pipeline_native(trace, cfg):
    """The eviction-pipeline DES over ``trace`` in one C call.

    Replays :meth:`EvictionBufferModel.run_reference
    <repro.des.eviction_model.EvictionBufferModel.run_reference>`'s
    schedule. Returns ``(total, stall, evictions, max_occ)`` where
    ``evictions`` is ``[l1, l2, llc]`` and ``max_occ`` is ``[l1_evict,
    l2_evict, mem]``, or ``None`` when the C run could not allocate its
    arena — the caller then runs the generator formulation.
    """
    trace = np.ascontiguousarray(trace, dtype=np.int64)
    out_f = np.zeros(2, dtype=np.float64)
    out_i = np.zeros(6, dtype=np.int64)
    status = load().eviction_pipeline_replay(
        _ptr(trace, _I64), trace.shape[0],
        cfg.bin_range(cfg.l1_buffers), cfg.bin_range(cfg.l2_buffers),
        cfg.bin_range(cfg.llc_buffers), cfg.tuples_per_line,
        cfg.core_cycles_per_tuple, cfg.engine_cycles_per_tuple,
        cfg.mem_cycles_per_line,
        cfg.l1_evict_queue, cfg.l2_evict_queue, cfg.mem_queue,
        cfg.l1_buffers, cfg.l2_buffers, cfg.llc_buffers,
        _ptr(out_f, _F64), _ptr(out_i, _I64),
    )
    if status != 0:
        return None
    return (
        float(out_f[0]),
        float(out_f[1]),
        [int(out_i[0]), int(out_i[1]), int(out_i[2])],
        [int(out_i[3]), int(out_i[4]), int(out_i[5])],
    )


def binning_counts_native(indices, levels, memory_bins, num_indices):
    """Native count-only twin of a COBRA Binning run over ``indices``.

    ``levels`` are the machine's three freshly built C-Buffer levels
    (their ``shift``, ``tuples_per_line`` and ``coalesces`` give the
    geometry) and ``memory_bins`` the in-memory bin count. Every index
    must already lie in ``[0, num_indices)``. Returns ``(inserts, fills,
    coalesced, flush_writes)``, the first three per level, or ``None``
    when the C run could not allocate its buffers (the caller then runs
    the Python machine). An LLC line mapping past the memory bins raises
    ``IndexError`` as ``MemoryBins.write_line`` does.
    """
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    shifts = np.array([level.shift for level in levels], dtype=np.int64)
    coalesces = np.array(
        [level.coalesces for level in levels], dtype=np.uint8
    )
    out = np.zeros(11, dtype=np.int64)
    status = load().binning_counts_replay(
        _ptr(indices, _I64), indices.shape[0], num_indices,
        levels[0].tuples_per_line, _ptr(shifts, _I64),
        _ptr(coalesces, _U8), memory_bins, _ptr(out, _I64),
    )
    if status == 1:
        return None
    if status == 2:
        raise IndexError(f"bin {int(out[10])} out of range")
    counts = out.tolist()
    return counts[0:3], counts[3:6], counts[6:9], counts[9]


def _check_bins(status, indices, shift, num_bins):
    """Raise the pass's ``ValueError`` when it stopped at a bad bin."""
    if status:
        raise out_of_bins(indices, status - 1, shift, num_bins)


def bin_counts(indices, shift, num_bins):
    """Each bin's update count when update ``i`` goes to bin ``indices[i]
    >> shift``, in one C pass (int64, ``num_bins`` long). An index whose
    bin lies outside ``[0, num_bins)`` raises ``ValueError``.
    """
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    counts = np.zeros(num_bins, dtype=np.int64)
    status = load().bin_counts(
        _ptr(indices, _I64), indices.shape[0], shift, num_bins,
        _ptr(counts, _I64),
    )
    _check_bins(status, indices, shift, num_bins)
    return counts


def bin_order(indices, shift, counts, limit):
    """The first ``limit`` positions (``0 <= limit <= len(indices)``) of
    the stable bin-major order of ``indices``, placed in one C pass from
    each bin's offset, the sum of the ``counts`` (:func:`bin_counts`)
    before it. Bins as in :func:`bin_counts`, ``len(counts)`` of them.
    """
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    next_slot = np.empty(counts.shape[0], dtype=np.int64)
    order = np.empty(limit + 1, dtype=np.int64)  # order[limit] is scratch
    status = load().bin_order(
        _ptr(indices, _I64), indices.shape[0], shift, counts.shape[0],
        _ptr(counts, _I64), limit, _ptr(next_slot, _I64), _ptr(order, _I64),
    )
    _check_bins(status, indices, shift, counts.shape[0])
    return order[:limit]


def bin_occupancy(indices, shift, num_bins, per_line):
    """Each update's C-Buffer occupancy before its insert, in one C pass:
    the number of earlier updates in its bin, modulo ``per_line``. Bins
    as in :func:`bin_counts`.
    """
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    seen = np.zeros(num_bins, dtype=np.int64)
    occupancy = np.empty(indices.shape[0], dtype=np.int64)
    status = load().bin_occupancy(
        _ptr(indices, _I64), indices.shape[0], shift, num_bins, per_line,
        _ptr(seen, _I64), _ptr(occupancy, _I64),
    )
    _check_bins(status, indices, shift, num_bins)
    return occupancy


def gshare_walk(predictor, pc, outcomes):
    """Replay one branch's ``outcomes`` through ``predictor`` in one C call.

    ``predictor`` is a :class:`~repro.cpu.branch.GSharePredictor`; its
    ``bytearray`` counters and its ``_history`` advance in place, exactly
    as :meth:`GSharePredictor.simulate
    <repro.cpu.branch.GSharePredictor.simulate>` advances them. Returns
    the mispredictions.
    """
    bits = np.ascontiguousarray(outcomes, dtype=bool).view(np.uint8)
    counters = (ctypes.c_uint8 * predictor.table_size).from_buffer(
        predictor._counters
    )
    history = ctypes.c_int64(predictor._history)
    misses = load().gshare_walk(
        _ptr(bits, _U8), bits.shape[0], pc, counters,
        predictor.table_size - 1, (1 << predictor.history_bits) - 1,
        ctypes.byref(history),
    )
    predictor._history = history.value
    return misses
