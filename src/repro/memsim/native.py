"""The fast replay engine: a runtime-compiled C core.

The exact simulator (:mod:`repro.memsim.hierarchy`) walks every distinct
line of every segment through every cache level one Python call at a
time.  This module replays the same semantics in C.  Python queues
segment columns; each drain is **one** call, ``hier_drain``, over a C
hierarchy state built once per :class:`NativeHierarchy` (pointers to
each level's arrays, the TLB, the prefetch stream table, the PMU state
and scratch op buffers the state owns and grows).  In order, it runs:

* segment expansion — the closed-form distinct lines of each compressed
  affine segment (``seg_lines``), written into the first op buffer with
  each op's dirty-fill flag, prefetch-coverage flag and reference id;
* prefetch coverage (``pf_cover``) — stride-prefetcher training over
  the cross-segment stream table, in segment order;
* the TLB walk (``seg_pages``) — every page of every segment through
  the two-level TLB, with per-segment walk counts;
* per cache level: ``lru_batch`` / ``rand_batch`` (per-set array replay;
  LRU order as a position array with a linear way scan, or the
  xorshift64 PRNG sequence of the random policy in chronological global
  order), the PMU's 3C classification (``pmu_level``), and assembly of
  the next level's op stream into the other buffer (``next_level``: dirty
  eviction installs precede their demand probe, source order preserved);
* DRAM line counts at the bottom.

Fully-associative structures — single-set dTLB levels and the PMU's
shadow cache — share one O(1) LRU (``falru``: an open-addressing hash
map plus a doubly linked list).  Its map never deletes a key; for the
PMU the value also carries the *seen* bit, so the 3C observer needs no
second set.  Per-reference PMU tallies accumulate in dense C arrays and
are folded into the :class:`~repro.memsim.pmu.Pmu` dictionaries after
each drain; Python otherwise reads back counters only.

Every counter is bit-identical to the exact engine, which stays the
oracle and the fallback: the toolchain is probed once per process, and
if it fails (no compiler, no cffi, a read-only tree, a core that fails
its self-test) ``DeviceSpec.build_hierarchies`` builds exact
hierarchies and logs one warning carrying :func:`native_status`.

Compilation uses cffi in ABI (``dlopen``) mode — a plain shared object
built with the system C compiler, no Python headers or setuptools
involved — cached under ``build/native/`` keyed by a hash of the C
source, with an ``flock`` guarding concurrent builds (the figure
pipeline's worker pool may import this module from many processes).
"""

from __future__ import annotations

import hashlib
import logging
import os
import subprocess
import tempfile
from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.exec.trace import Segment, SegmentBatch
from repro.memsim.cache import CacheStats, set_mask
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.prefetch import NO_PREFETCH, PrefetcherSpec
from repro.memsim.replacement import RANDOM_SEED
from repro.memsim.tlb import PAGE_SIZE, TlbSpec

LOG = logging.getLogger("repro.memsim.native")

# Each drain has a fixed cost (one C call, a fold of its counters).
# Buffer aggressively: segments of any size accumulate, and the buffer
# drains right after the segment that brings it to ``_BUF_OPS`` queued
# ops, whether segments arrive one at a time or as column batches.
_BUF_OPS = 32768

#: Environment variable overriding the build cache directory.
NATIVE_CACHE_ENV = "REPRO_NATIVE_CACHE"

#: ``process_batch``'s "no dirty eviction" marker (line ids can be
#: negative, so ``-1`` cannot be one).
EVICT_NONE = int(np.iinfo(np.int64).min)

# Layout of a drain's counter block (``out``), mirrored in the C source.
_OUT_TLB = 0        # dTLB-L1 hits, misses, dTLB-L2 hits, misses
_OUT_DRAM = 4       # DRAM lines read, written
_OUT_PF = 6         # prefetch covered, uncovered, late lines
_OUT_PMU_PF = 9     # PMU prefetch useful, polluting
_OUT_NREF = 11      # per-reference tally rows returned
_OUT_NSET = 12      # (level, set, conflicts) rows returned
_OUT_LEVELS = 13    # per level: hits, misses, fills, writebacks,
                    # prefetch hits, replayed ops; then per level the
                    # PMU's compulsory, capacity, conflict misses
# A tally row: ref, bytes, accesses, TLB walks, DRAM lines read,
# written, then per level compulsory, capacity, conflict misses.
_ROW_FIXED = 6

#: C types of the ``SegmentBatch`` columns a drain passes by pointer.
_COLUMN_DTYPES = (np.int64, np.int64, np.int64, np.int64, np.uint8, np.int64)

_CDEF = """
void lru_batch(int64_t num_sets, int64_t ways, int64_t mask,
               int64_t *ln, uint8_t *dy, int32_t *occ,
               const int64_t *lines, const uint8_t *probe,
               const uint8_t *fill, int fill_u, int64_t n,
               uint8_t *hits, uint8_t *missed, int64_t *evict,
               int64_t *stats);
uint64_t rand_batch(int64_t num_sets, int64_t ways, int64_t mask,
                    int64_t *ln, uint8_t *dy, int32_t *occ, uint64_t x,
                    const int64_t *lines, const uint8_t *probe,
                    const uint8_t *fill, int fill_u, int64_t n,
                    uint8_t *hits, uint8_t *missed, int64_t *evict,
                    int64_t *stats);
typedef struct tlb tlb_t;
tlb_t *tlb_new(int64_t n1, int64_t w1, int64_t n2, int64_t w2);
void tlb_free(tlb_t *t);
void tlb_reset(tlb_t *t);
int tlb_walk(tlb_t *t, const int64_t *pages, int64_t n, int64_t *stats);
typedef struct hier hier_t;
hier_t *hier_new(int64_t nlev, int64_t line, int64_t page, tlb_t *tlb,
                 int64_t pf_max_stride, int64_t pf_train,
                 int64_t pf_streams, int pf_cross, int64_t *out);
void hier_level(hier_t *h, int64_t k, int64_t num_sets, int64_t ways,
                int64_t mask, int64_t *ln, uint8_t *dy, int32_t *occ,
                uint64_t *rng);
void hier_pmu(hier_t *h, int on);
void hier_reset(hier_t *h);
void hier_release(hier_t *h);
void hier_free(hier_t *h);
const int64_t *hier_drain(hier_t *h, const int64_t *refs,
                          const int64_t *base, const int64_t *stride,
                          const int64_t *count, const uint8_t *write,
                          const int64_t *elem, int64_t nseg);
const int64_t *hier_nomem(void);
"""

_C_SRC = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Floor division / positive modulo: C truncates toward zero, Python
 * floors — line and page numbers can be negative (traces may address
 * below the origin), so every set index must go through pmod to match
 * the Python engines' non-negative `%`. */
static int64_t fdiv(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if (a % b != 0 && ((a < 0) != (b < 0))) q--;
    return q;
}

static int64_t pmod(int64_t a, int64_t b)
{
    int64_t r = a % b;
    return r < 0 ? r + b : r;
}

/* Line ids can be negative too, so -1 cannot mark "empty" or "no
 * eviction".  INT64_MIN is unreachable as a line id (it is not
 * fdiv(addr, line) of any int64 address). */
#define EMPTY_KEY INT64_MIN
#define EVICT_NONE INT64_MIN

/* n elements (at least one), or NULL if malloc fails or the size does
 * not fit a size_t. */
static void *try_alloc(int64_t n, size_t elem)
{
    uint64_t k = n > 0 ? (uint64_t)n : 1;
    if (k > SIZE_MAX / elem) return 0;
    return malloc((size_t)k * elem);
}

/* try_alloc for construction, where a failure ends the process; a drain
 * reports one instead (DRAIN_NOMEM). */
static void *xalloc(int64_t n, size_t elem)
{
    void *p = try_alloc(n, elem);
    if (!p) abort();
    return p;
}

/* What hier_drain returns when an allocation fails: distinct from the
 * NULL of an unattributable reference id. */
static const int64_t drain_nomem = 0;
#define DRAIN_NOMEM (&drain_nomem)

const int64_t *hier_nomem(void)
{
    return DRAIN_NOMEM;
}

/* ---- set-associative LRU replay ------------------------------------- */
/* Per set: lines in LRU order (slot 0 = victim, slot occ-1 = MRU) plus a
 * parallel dirty byte; identical observable behaviour to the exact
 * Cache with an LRU policy. */

void lru_batch(int64_t num_sets, int64_t ways, int64_t mask,
               int64_t *ln, uint8_t *dy, int32_t *occ,
               const int64_t *lines, const uint8_t *probe,
               const uint8_t *fill, int fill_u, int64_t n,
               uint8_t *hits, uint8_t *missed, int64_t *evict,
               int64_t *stats)
{
    int64_t h = 0, m = 0, fi = 0, wb = 0;
    int64_t i;
    for (i = 0; i < n; i++) {
        int64_t line = lines[i];
        int64_t s = mask >= 0 ? (line & mask) : pmod(line, num_sets);
        int64_t *L = ln + s * ways;
        uint8_t *D = dy + s * ways;
        int32_t o = occ[s];
        int is_probe = probe ? probe[i] : 1;
        uint8_t f = fill ? fill[i] : (uint8_t)fill_u;
        int32_t idx = -1, j;
        for (j = o - 1; j >= 0; j--)
            if (L[j] == line) { idx = j; break; }
        if (idx >= 0) {
            uint8_t d = D[idx];
            for (j = idx; j < o - 1; j++) { L[j] = L[j + 1]; D[j] = D[j + 1]; }
            L[o - 1] = line;
            if (is_probe) { D[o - 1] = (uint8_t)(d | f); h++; }
            else D[o - 1] = 1;
            hits[i] = 1; missed[i] = 0; evict[i] = EVICT_NONE;
            continue;
        }
        {
            uint8_t newd = is_probe ? f : 1;
            if (is_probe) { m++; fi++; }
            evict[i] = EVICT_NONE;
            if (o >= ways) {
                int64_t old = L[0];
                uint8_t od = D[0];
                for (j = 0; j < o - 1; j++) { L[j] = L[j + 1]; D[j] = D[j + 1]; }
                L[o - 1] = line; D[o - 1] = newd;
                if (od) { wb++; evict[i] = old; }
            } else {
                L[o] = line; D[o] = newd; occ[s] = o + 1;
            }
            hits[i] = 0; missed[i] = 1;
        }
    }
    stats[0] += h; stats[1] += m; stats[2] += fi; stats[3] += wb;
}

/* ---- random-replacement replay -------------------------------------- */
/* One xorshift64 draw per eviction, in chronological order across all
 * sets (the exact RandomPolicy's sequence).  Way positions are stable;
 * free ways are the prefix [occ, ways). */

uint64_t rand_batch(int64_t num_sets, int64_t ways, int64_t mask,
                    int64_t *ln, uint8_t *dy, int32_t *occ, uint64_t x,
                    const int64_t *lines, const uint8_t *probe,
                    const uint8_t *fill, int fill_u, int64_t n,
                    uint8_t *hits, uint8_t *missed, int64_t *evict,
                    int64_t *stats)
{
    int64_t h = 0, m = 0, fi = 0, wb = 0;
    int64_t i;
    for (i = 0; i < n; i++) {
        int64_t line = lines[i];
        int64_t s = mask >= 0 ? (line & mask) : pmod(line, num_sets);
        int64_t *L = ln + s * ways;
        uint8_t *D = dy + s * ways;
        int32_t o = occ[s];
        int is_probe = probe ? probe[i] : 1;
        uint8_t f = fill ? fill[i] : (uint8_t)fill_u;
        int32_t way = -1, j;
        for (j = 0; j < o; j++)
            if (L[j] == line) { way = j; break; }
        if (way >= 0) {
            hits[i] = 1; missed[i] = 0; evict[i] = EVICT_NONE;
            if (is_probe) { h++; if (f) D[way] = 1; }
            else D[way] = 1;
            continue;
        }
        evict[i] = EVICT_NONE;
        if (o < ways) { way = o; occ[s] = o + 1; }
        else {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            way = (int32_t)(x % (uint64_t)ways);
            if (D[way]) { wb++; evict[i] = L[way]; }
        }
        L[way] = line;
        D[way] = is_probe ? f : 1;
        if (is_probe) { m++; fi++; }
        hits[i] = 0; missed[i] = 1;
    }
    stats[0] += h; stats[1] += m; stats[2] += fi; stats[3] += wb;
    return x;
}

/* ---- fully-associative LRU: hash map + doubly linked list ----------- */
/* The map (open addressing, linear probing) never deletes a key: an
 * evicted key keeps its slot with node "none".  A value is
 * (node + 1) << 1 | seen, where node 0..cap-1 indexes the list (head =
 * LRU, tail = MRU) and the seen bit is the PMU's "ever resident" mark,
 * which the LRU itself neither sets nor clears. */

static uint64_t mix64(uint64_t x)
{
    x ^= x >> 33; x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33; x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

typedef struct {
    int64_t cap, size;       /* capacity, resident keys */
    int32_t head, tail;
    int32_t *prev, *next;
    uint32_t *slot;          /* map slot of each node */
    uint64_t mcap, mused;    /* map slots (a power of two), keys stored */
    int64_t *mkeys;          /* EMPTY_KEY = free slot */
    uint32_t *mvals;
    int nomem;               /* the map could not grow: its results are void */
} falru_t;

static void fa_init(falru_t *fa, int64_t cap)
{
    uint64_t i;
    fa->cap = cap; fa->size = 0;
    fa->head = fa->tail = -1;
    fa->prev = (int32_t *)xalloc(cap, sizeof(int32_t));
    fa->next = (int32_t *)xalloc(cap, sizeof(int32_t));
    fa->slot = (uint32_t *)xalloc(cap, sizeof(uint32_t));
    fa->mcap = 16;
    while (fa->mcap < 4096 && fa->mcap < (uint64_t)(2 * cap + 16)) fa->mcap <<= 1;
    fa->mused = 0;
    fa->nomem = 0;
    fa->mkeys = (int64_t *)xalloc((int64_t)fa->mcap, sizeof(int64_t));
    fa->mvals = (uint32_t *)xalloc((int64_t)fa->mcap, sizeof(uint32_t));
    for (i = 0; i < fa->mcap; i++) fa->mkeys[i] = EMPTY_KEY;
}

static void fa_free(falru_t *fa)
{
    free(fa->prev); free(fa->next); free(fa->slot);
    free(fa->mkeys); free(fa->mvals);
}

/* Double the map; -1 (map unchanged) if the memory is not there. */
static int fa_grow(falru_t *fa)
{
    uint64_t ncap = fa->mcap * 2, mask = ncap - 1, i, j;
    int64_t *nk = (int64_t *)try_alloc((int64_t)ncap, sizeof(int64_t));
    uint32_t *nv = (uint32_t *)try_alloc((int64_t)ncap, sizeof(uint32_t));
    if (!nk || !nv) { free(nk); free(nv); return -1; }
    for (i = 0; i < ncap; i++) nk[i] = EMPTY_KEY;
    for (i = 0; i < fa->mcap; i++) {
        int64_t k = fa->mkeys[i];
        if (k == EMPTY_KEY) continue;
        j = mix64((uint64_t)k) & mask;
        while (nk[j] != EMPTY_KEY) j = (j + 1) & mask;
        nk[j] = k; nv[j] = fa->mvals[i];
        if (nv[j] >> 1) fa->slot[(nv[j] >> 1) - 1] = (uint32_t)j;
    }
    free(fa->mkeys); free(fa->mvals);
    fa->mkeys = nk; fa->mvals = nv; fa->mcap = ncap;
    return 0;
}

/* A map that cannot grow is emptied and marked (nomem), so that every
 * touch still finds a slot without an error check in the per-line and
 * per-page loops; the drain reports the mark once it ends. */
static void fa_lost(falru_t *fa)
{
    uint64_t i;
    for (i = 0; i < fa->mcap; i++) fa->mkeys[i] = EMPTY_KEY;
    fa->mused = 0;
    fa->size = 0;
    fa->head = fa->tail = -1;
    fa->nomem = 1;
}

/* Map slot of key, inserted (no node, unseen) if absent. */
static uint64_t fa_find(falru_t *fa, int64_t key)
{
    for (;;) {
        uint64_t mask = fa->mcap - 1;
        uint64_t i = mix64((uint64_t)key) & mask;
        int64_t k;
        while ((k = fa->mkeys[i]) != EMPTY_KEY) {
            if (k == key) return i;
            i = (i + 1) & mask;
        }
        if ((fa->mused + 1) * 10 <= fa->mcap * 7) {
            fa->mkeys[i] = key; fa->mvals[i] = 0; fa->mused++;
            return i;
        }
        if (fa_grow(fa)) fa_lost(fa);
    }
}

static void fa_unlink(falru_t *fa, int32_t nd)
{
    int32_t p = fa->prev[nd], nx = fa->next[nd];
    if (p >= 0) fa->next[p] = nx; else fa->head = nx;
    if (nx >= 0) fa->prev[nx] = p; else fa->tail = p;
}

static void fa_push_tail(falru_t *fa, int32_t nd)
{
    fa->prev[nd] = fa->tail; fa->next[nd] = -1;
    if (fa->tail >= 0) fa->next[fa->tail] = nd; else fa->head = nd;
    fa->tail = nd;
}

/* One LRU touch: bump key to MRU if resident (returns 1), else install
 * it, evicting the LRU key when full (returns 0).  *slot receives the
 * key's map slot (valid until the next touch). */
static int fa_touch(falru_t *fa, int64_t key, uint64_t *slot)
{
    uint64_t s = fa_find(fa, key);
    uint32_t v = fa->mvals[s];
    int32_t nd = (int32_t)(v >> 1) - 1;
    *slot = s;
    if (nd >= 0) {
        if (fa->tail != nd) { fa_unlink(fa, nd); fa_push_tail(fa, nd); }
        return 1;
    }
    if (fa->size >= fa->cap) {
        nd = fa->head;
        fa_unlink(fa, nd);
        fa->mvals[fa->slot[nd]] &= 1u;
    } else {
        nd = (int32_t)fa->size++;
    }
    fa->slot[nd] = (uint32_t)s;
    fa->mvals[s] = ((uint32_t)(nd + 1) << 1) | (v & 1u);
    fa_push_tail(fa, nd);
    return 0;
}

/* ---- two-level TLB ---------------------------------------------------- */
/* Single-set levels use the FA LRU; set-associative levels keep pages in
 * LRU order per set (slot 0 = victim), indexed by mask when the set
 * count is a power of two. */

typedef struct {
    int64_t num_sets, ways, mask;
    int64_t *ln;
    int32_t *occ;
    falru_t fa;
} tlblvl_t;

struct tlb {
    int nlev;
    tlblvl_t lv[2];
};
typedef struct tlb tlb_t;

static void tlblvl_init(tlblvl_t *lv, int64_t num_sets, int64_t ways)
{
    lv->num_sets = num_sets; lv->ways = ways;
    lv->mask = (num_sets & (num_sets - 1)) ? -1 : num_sets - 1;
    lv->ln = 0; lv->occ = 0;
    if (num_sets == 1) { fa_init(&lv->fa, ways); return; }
    lv->ln = (int64_t *)xalloc(num_sets * ways, sizeof(int64_t));
    lv->occ = (int32_t *)calloc((size_t)num_sets, sizeof(int32_t));
    if (!lv->occ) abort();
}

static void tlblvl_free(tlblvl_t *lv)
{
    if (lv->num_sets == 1) fa_free(&lv->fa);
    else { free(lv->ln); free(lv->occ); }
}

tlb_t *tlb_new(int64_t n1, int64_t w1, int64_t n2, int64_t w2)
{
    tlb_t *t = (tlb_t *)xalloc(1, sizeof(tlb_t));
    t->nlev = n2 ? 2 : 1;
    tlblvl_init(&t->lv[0], n1, w1);
    if (n2) tlblvl_init(&t->lv[1], n2, w2);
    return t;
}

void tlb_free(tlb_t *t)
{
    int k;
    for (k = 0; k < t->nlev; k++) tlblvl_free(&t->lv[k]);
    free(t);
}

void tlb_reset(tlb_t *t)
{
    int k;
    for (k = 0; k < t->nlev; k++) {
        tlblvl_t *lv = &t->lv[k];
        tlblvl_free(lv);
        tlblvl_init(lv, lv->num_sets, lv->ways);
    }
}

static int tlblvl_access(tlblvl_t *lv, int64_t page)
{
    int64_t s, *L;
    int32_t o, j, k;
    if (lv->num_sets == 1) {
        uint64_t slot;
        return fa_touch(&lv->fa, page, &slot);
    }
    s = lv->mask >= 0 ? (page & lv->mask) : pmod(page, lv->num_sets);
    L = lv->ln + s * lv->ways;
    o = lv->occ[s];
    for (j = o - 1; j >= 0; j--) {
        if (L[j] == page) {
            for (k = j; k < o - 1; k++) L[k] = L[k + 1];
            L[o - 1] = page;
            return 1;
        }
    }
    if (o >= lv->ways) {
        for (k = 0; k < o - 1; k++) L[k] = L[k + 1];
        L[o - 1] = page;
    } else {
        L[o] = page; lv->occ[s] = o + 1;
    }
    return 0;
}

/* One page through both levels; stats += {l1 hit, l1 miss, l2 hit, l2
 * miss}.  Returns 1 for a page walk (a miss at the last level). */
static int tlb_page(tlb_t *t, int64_t page, int64_t *stats)
{
    if (tlblvl_access(&t->lv[0], page)) { stats[0]++; return 0; }
    stats[1]++;
    if (t->nlev == 1) return 1;
    if (tlblvl_access(&t->lv[1], page)) { stats[2]++; return 0; }
    stats[3]++;
    return 1;
}

/* Whether a fully associative level lost its map (see fa_lost). */
static int tlb_nomem(const tlb_t *t)
{
    int k;
    for (k = 0; k < t->nlev; k++)
        if (t->lv[k].num_sets == 1 && t->lv[k].fa.nomem) return 1;
    return 0;
}

/* 0, or -1 if memory ran out (the counts are then void). */
int tlb_walk(tlb_t *t, const int64_t *pages, int64_t n, int64_t *stats)
{
    int64_t i;
    for (i = 0; i < n; i++) tlb_page(t, pages[i], stats);
    return tlb_nomem(t) ? -1 : 0;
}

/* ---- segment expansion ---------------------------------------------- */
/* Distinct lines / pages of one affine segment, by the exact engine's
 * rules (floor division throughout; straddling elements contribute their
 * last line with consecutive-duplicate suppression). */

static int64_t walk_lines(int64_t base, int64_t stride, int64_t count,
                          int64_t elem, int64_t line, int64_t *out)
{
    int64_t n = 0, prev = INT64_MIN, k;
    for (k = 0; k < count; k++) {
        int64_t addr = base + k * stride;
        int64_t first = fdiv(addr, line);
        int64_t last = fdiv(addr + elem - 1, line);
        if (first != prev) {
            if (out) out[n] = first;
            n++;
            prev = first;
        }
        if (last != first) {
            if (out) out[n] = last;
            n++;
            prev = last;
        }
    }
    return n;
}

/* The segment's distinct lines in access order into out (when given);
 * returns their count. */
static int64_t seg_lines(int64_t base, int64_t stride, int64_t count,
                         int64_t elem, int64_t line, int64_t *out)
{
    int64_t lo, hi, n, k;
    if (stride == 0 || count == 1 || (0 < stride && stride < line)
        || (-line < stride && stride < 0)) {
        /* One contiguous run of lines, walked in the access direction. */
        int64_t span = count > 1 ? stride * (count - 1) : 0;
        lo = fdiv(span < 0 ? base + span : base, line);
        hi = fdiv((span > 0 ? base + span : base) + elem - 1, line);
        n = hi - lo + 1;
        if (out) {
            if (span >= 0) for (k = 0; k < n; k++) out[k] = lo + k;
            else for (k = 0; k < n; k++) out[k] = hi - k;
        }
        return n;
    }
    if (stride % line == 0 && pmod(base, line) + elem <= line) {
        if (out) {
            int64_t step = stride / line;
            lo = fdiv(base, line);
            for (k = 0; k < count; k++) out[k] = lo + k * step;
        }
        return count;
    }
    return walk_lines(base, stride, count, elem, line, out);
}

/* Walk the segment's pages (in access order) through the TLB; returns
 * its page walks. */
static int64_t seg_pages(tlb_t *t, int64_t base, int64_t stride,
                         int64_t count, int64_t elem, int64_t page,
                         int64_t *stats)
{
    int64_t w = 0, p, k;
    if (stride == 0 || count == 1) {
        int64_t p1 = fdiv(base + elem - 1, page);
        for (p = fdiv(base, page); p <= p1; p++) w += tlb_page(t, p, stats);
    } else if (stride <= page && stride >= -page) {
        int64_t lob = stride > 0 ? base : base + stride * (count - 1);
        int64_t hib = (stride > 0 ? base + stride * (count - 1) : base) + elem - 1;
        int64_t p0 = fdiv(lob, page), p1 = fdiv(hib, page);
        if (stride > 0) for (p = p0; p <= p1; p++) w += tlb_page(t, p, stats);
        else for (p = p1; p >= p0; p--) w += tlb_page(t, p, stats);
    } else {
        /* |stride| > page: successive accesses always change page. */
        for (k = 0; k < count; k++)
            w += tlb_page(t, fdiv(base + k * stride, page), stats);
    }
    return w;
}

/* ---- the hierarchy state ---------------------------------------------- */

/* Layout of the counter block a drain writes (mirrored in Python). */
#define OUT_TLB 0
#define OUT_DRAM 4
#define OUT_PF 6
#define OUT_PMU_PF 9
#define OUT_NREF 11
#define OUT_NSET 12
#define OUT_LEVELS 13
/* Tally row: ref + 1 (0 = untouched this drain), bytes, accesses, TLB
 * walks, DRAM lines read, written, then 3C misses per level. */
#define ROW_FIXED 6

typedef struct {
    int64_t num_sets, ways, mask;   /* mask -1: index by modulo */
    int64_t *ln;
    uint8_t *dy;
    int32_t *occ;
    uint64_t *rng;                  /* random policy state; NULL = LRU */
} level_t;

typedef struct {
    falru_t sh;                     /* FA-LRU shadow + seen bits */
    int64_t *sconf;                 /* conflict misses per set, this drain */
    int32_t *stouch;                /* sets with sconf != 0 */
    int64_t nstouch;
} pmulvl_t;

typedef struct {                    /* one level's op stream */
    int64_t cap, rcap;
    int64_t *lines, *refs;
    uint8_t *probe, *fill, *cov;
} opbuf_t;

struct hier {
    int64_t nlev, line, page, width, nout;
    level_t *lv;
    tlb_t *tlb;
    /* stride prefetcher: stream slots in insertion order (eviction
     * removes the oldest, like the Python dict) */
    int64_t pf_max, pf_train, pf_streams, st_n;
    int pf_cross;
    int64_t *st_ref, *st_base, *st_delta, *st_conf;
    uint8_t *st_dvalid;
    /* PMU (NULL when none is attached) and its dense per-ref tallies */
    pmulvl_t *pmu;
    int64_t *tally, tcap;
    int64_t *tlist, ntl;
    /* scratch, grown on demand and freed by hier_release */
    int64_t *dist, dcap;
    opbuf_t buf[2];
    uint8_t *hits, *missed;
    int64_t *evict, rescap;
    int64_t *fold, fcap;
    int64_t *out;
};
typedef struct hier hier_t;

hier_t *hier_new(int64_t nlev, int64_t line, int64_t page, tlb_t *tlb,
                 int64_t pf_max_stride, int64_t pf_train,
                 int64_t pf_streams, int pf_cross, int64_t *out)
{
    hier_t *h = (hier_t *)calloc(1, sizeof(hier_t));
    if (!h) abort();
    h->nlev = nlev; h->line = line; h->page = page; h->tlb = tlb;
    h->width = ROW_FIXED + 3 * nlev;
    h->nout = OUT_LEVELS + 9 * nlev;
    h->lv = (level_t *)calloc((size_t)nlev, sizeof(level_t));
    if (!h->lv) abort();
    h->pf_max = pf_max_stride; h->pf_train = pf_train;
    h->pf_streams = pf_streams; h->pf_cross = pf_cross;
    h->st_ref = (int64_t *)xalloc(pf_streams, sizeof(int64_t));
    h->st_base = (int64_t *)xalloc(pf_streams, sizeof(int64_t));
    h->st_delta = (int64_t *)xalloc(pf_streams, sizeof(int64_t));
    h->st_conf = (int64_t *)xalloc(pf_streams, sizeof(int64_t));
    h->st_dvalid = (uint8_t *)xalloc(pf_streams, sizeof(uint8_t));
    h->out = out;
    return h;
}

void hier_level(hier_t *h, int64_t k, int64_t num_sets, int64_t ways,
                int64_t mask, int64_t *ln, uint8_t *dy, int32_t *occ,
                uint64_t *rng)
{
    level_t *L = &h->lv[k];
    L->num_sets = num_sets; L->ways = ways; L->mask = mask;
    L->ln = ln; L->dy = dy; L->occ = occ; L->rng = rng;
}

static void pmu_drop(hier_t *h)
{
    int64_t k;
    if (!h->pmu) return;
    for (k = 0; k < h->nlev; k++) {
        fa_free(&h->pmu[k].sh);
        free(h->pmu[k].sconf); free(h->pmu[k].stouch);
    }
    free(h->pmu); h->pmu = 0;
    free(h->tally); free(h->tlist);
    h->tally = 0; h->tlist = 0; h->tcap = 0; h->ntl = 0;
}

/* Drop any PMU state; with on, start a fresh one (empty shadows, nothing
 * seen) — attach_pmu on a warm hierarchy. */
void hier_pmu(hier_t *h, int on)
{
    int64_t k;
    pmu_drop(h);
    if (!on) return;
    h->pmu = (pmulvl_t *)xalloc(h->nlev, sizeof(pmulvl_t));
    for (k = 0; k < h->nlev; k++) {
        pmulvl_t *p = &h->pmu[k];
        int64_t sets = h->lv[k].num_sets;
        fa_init(&p->sh, sets * h->lv[k].ways);
        p->sconf = (int64_t *)calloc((size_t)sets, sizeof(int64_t));
        if (!p->sconf) abort();
        p->stouch = (int32_t *)xalloc(sets, sizeof(int32_t));
        p->nstouch = 0;
    }
}

void hier_reset(hier_t *h)
{
    h->st_n = 0;
    if (h->pmu) hier_pmu(h, 1);
}

static void opbuf_free(opbuf_t *b)
{
    free(b->lines); free(b->refs); free(b->probe); free(b->fill); free(b->cov);
    memset(b, 0, sizeof(*b));
}

void hier_release(hier_t *h)
{
    opbuf_free(&h->buf[0]); opbuf_free(&h->buf[1]);
    free(h->dist); free(h->hits); free(h->missed); free(h->evict); free(h->fold);
    h->dist = 0; h->hits = h->missed = 0; h->evict = 0; h->fold = 0;
    h->dcap = h->rescap = h->fcap = 0;
}

void hier_free(hier_t *h)
{
    hier_release(h);
    pmu_drop(h);
    free(h->st_ref); free(h->st_base); free(h->st_delta); free(h->st_conf);
    free(h->st_dvalid); free(h->lv);
    free(h);
}

/* Room for n ops; -1 (the buffer left empty) if the memory is not there. */
static int opbuf_reserve(opbuf_t *b, int64_t n, int with_fill, int with_refs)
{
    if (n > b->cap) {
        free(b->lines); free(b->probe); free(b->fill); free(b->cov);
        b->fill = 0;
        b->lines = (int64_t *)try_alloc(n, sizeof(int64_t));
        b->probe = (uint8_t *)try_alloc(n, 1);
        b->cov = (uint8_t *)try_alloc(n, 1);
        b->cap = n;
        if (!b->lines || !b->probe || !b->cov) goto fail;
    }
    if (with_fill && !b->fill && !(b->fill = (uint8_t *)try_alloc(b->cap, 1))) goto fail;
    if (with_refs && n > b->rcap) {
        free(b->refs);
        b->rcap = n;
        if (!(b->refs = (int64_t *)try_alloc(n, sizeof(int64_t)))) goto fail;
    }
    return 0;
fail:
    opbuf_free(b);
    return -1;
}

/* Room for the tally rows of refs up to ref; -1 (rows kept) if the
 * memory is not there. */
static int tally_reserve(hier_t *h, int64_t ref)
{
    int64_t idx = ref + 1, ncap, *nt, *nl;
    if (idx < h->tcap) return 0;
    ncap = h->tcap * 2 > idx + 1 ? h->tcap * 2 : idx + 16;
    nt = (int64_t *)try_alloc(ncap, h->width * sizeof(int64_t));
    nl = (int64_t *)try_alloc(ncap, sizeof(int64_t));
    if (!nt || !nl) { free(nt); free(nl); return -1; }
    memset(nt, 0, (size_t)(ncap * h->width) * sizeof(int64_t));
    if (h->tally) memcpy(nt, h->tally, (size_t)(h->tcap * h->width) * sizeof(int64_t));
    if (h->tlist) memcpy(nl, h->tlist, (size_t)h->ntl * sizeof(int64_t));
    free(h->tally); free(h->tlist);
    h->tally = nt; h->tlist = nl; h->tcap = ncap;
    return 0;
}

/* The tally row of ref (-1 <= ref, reserved), marking it touched this
 * drain. */
static int64_t *tally_row(hier_t *h, int64_t ref)
{
    int64_t idx = ref + 1, *row = h->tally + idx * h->width;
    if (!row[0]) { row[0] = idx + 1; h->tlist[h->ntl++] = idx; }
    return row;
}

/* Prefetch coverage of one segment: its covered line count; the stream
 * table and the covered/uncovered/late counters update in place. */
static int64_t pf_cover(hier_t *h, int64_t ref, int64_t base,
                        int64_t stride, int64_t d)
{
    int64_t *c = h->out + OUT_PF;
    int64_t within = 0, cross = 0, covered, n = h->st_n, max = h->pf_max;
    int trainable = 0;
    if (max <= 0 || d == 0) { c[1] += d; return 0; }
    if (d > 1) {
        int64_t step = (stride < 0 ? -stride : stride) / h->line;
        if (step < 1) step = 1;
        if (step <= max) {
            trainable = 1;
            within = d - h->pf_train;
            if (within < 0) within = 0;
        }
    }
    if (h->pf_cross) {
        int64_t slot = -1, j;
        for (j = 0; j < n; j++)
            if (h->st_ref[j] == ref) { slot = j; break; }
        if (slot < 0) {
            if (n >= h->pf_streams) {
                for (j = 1; j < n; j++) {
                    h->st_ref[j - 1] = h->st_ref[j];
                    h->st_base[j - 1] = h->st_base[j];
                    h->st_delta[j - 1] = h->st_delta[j];
                    h->st_conf[j - 1] = h->st_conf[j];
                    h->st_dvalid[j - 1] = h->st_dvalid[j];
                }
                n--;
            }
            h->st_ref[n] = ref;
            h->st_base[n] = base;
            h->st_conf[n] = 0;
            h->st_dvalid[n] = 0;
            h->st_n = n + 1;
        } else {
            int64_t delta = base - h->st_base[slot];
            int64_t dl = (delta < 0 ? -delta : delta) / h->line;
            if (h->st_dvalid[slot] && h->st_delta[slot] == delta && delta != 0)
                h->st_conf[slot]++;
            else
                h->st_conf[slot] = 0;
            h->st_delta[slot] = delta;
            h->st_dvalid[slot] = 1;
            h->st_base[slot] = base;
            if (h->st_conf[slot] >= 1 && dl > 0 && dl <= max) cross = d;
        }
    }
    covered = within > cross ? within : cross;
    if (covered > d) covered = d;
    c[0] += covered;
    c[1] += d - covered;
    if (trainable) c[2] += d - covered;
    return covered;
}

/* The PMU's observe()/observe_install() over one level's op batch: 3C
 * classes into the level counters, the per-ref tallies and the per-set
 * conflict counts; prefetch accuracy from the covered flags (level 0). */
static void pmu_level(hier_t *h, int64_t k, const opbuf_t *b,
                      const uint8_t *probe, const uint8_t *cov, int64_t n)
{
    falru_t *sh = &h->pmu[k].sh;
    pmulvl_t *p = &h->pmu[k];
    const level_t *L = &h->lv[k];
    int64_t *o = h->out + OUT_LEVELS + 6 * h->nlev + 3 * k;
    int64_t useful = 0, poll = 0, i, col = ROW_FIXED + 3 * k;
    for (i = 0; i < n; i++) {
        int64_t ln = b->lines[i], *row;
        uint64_t slot;
        int in_shadow;
        if (probe && !probe[i]) {
            /* Writeback install: tracked only when it allocated. */
            if (h->missed[i]) { fa_touch(sh, ln, &slot); sh->mvals[slot] |= 1u; }
            continue;
        }
        in_shadow = fa_touch(sh, ln, &slot);
        if (cov && cov[i]) { if (h->hits[i]) poll++; else useful++; }
        if (h->hits[i]) continue;
        row = h->tally + (b->refs[i] + 1) * h->width + col;
        if (!(sh->mvals[slot] & 1u)) {
            sh->mvals[slot] |= 1u;
            o[0]++; row[0]++;
        } else if (in_shadow) {
            int64_t s = L->mask >= 0 ? (ln & L->mask) : pmod(ln, L->num_sets);
            if (p->sconf[s]++ == 0) p->stouch[p->nstouch++] = (int32_t)s;
            o[2]++; row[2]++;
        } else {
            o[1]++; row[1]++;
        }
    }
    if (cov) { h->out[OUT_PMU_PF] += useful; h->out[OUT_PMU_PF + 1] += poll; }
}

/* Next level's op stream: each op's dirty eviction (an install, probe
 * 0) precedes its demand probe; source order preserved; both inherit
 * the op's reference id.  Returns the covered demand misses (this
 * level's prefetch hits). */
static int64_t next_level(const opbuf_t *b, const uint8_t *probe,
                          int64_t n, const uint8_t *missed,
                          const int64_t *evict, opbuf_t *nb, int with_refs)
{
    int64_t m = 0, pf = 0, i;
    for (i = 0; i < n; i++) {
        if (evict[i] != EVICT_NONE) {
            nb->lines[m] = evict[i]; nb->probe[m] = 0; nb->cov[m] = 0;
            if (with_refs) nb->refs[m] = b->refs[i];
            m++;
        }
        if (missed[i] && (!probe || probe[i])) {
            uint8_t cv = b->cov[i];
            nb->lines[m] = b->lines[i]; nb->probe[m] = 1; nb->cov[m] = cv;
            if (with_refs) nb->refs[m] = b->refs[i];
            pf += cv;
            m++;
        }
    }
    return pf;
}

/* Move every touched tally row and per-set conflict count into the fold
 * buffer (rows first, then (level, set, count) triples) and clear them. */
static const int64_t *fold(hier_t *h)
{
    int64_t nset = 0, need, t, k, j, *f, W = h->width;
    for (k = 0; k < h->nlev; k++) nset += h->pmu[k].nstouch;
    need = h->ntl * W + 3 * nset;
    if (need > h->fcap) {
        free(h->fold);
        h->fcap = 0;
        if (!(h->fold = (int64_t *)try_alloc(need, sizeof(int64_t)))) return DRAIN_NOMEM;
        h->fcap = need;
    }
    f = h->fold;
    for (t = 0; t < h->ntl; t++) {
        int64_t *row = h->tally + h->tlist[t] * W;
        memcpy(f, row, (size_t)W * sizeof(int64_t));
        f[0] = h->tlist[t] - 1;
        memset(row, 0, (size_t)W * sizeof(int64_t));
        f += W;
    }
    for (k = 0; k < h->nlev; k++) {
        pmulvl_t *p = &h->pmu[k];
        for (j = 0; j < p->nstouch; j++) {
            int32_t s = p->stouch[j];
            f[0] = k; f[1] = s; f[2] = p->sconf[s];
            p->sconf[s] = 0;
            f += 3;
        }
        p->nstouch = 0;
    }
    h->out[OUT_NREF] = h->ntl;
    h->out[OUT_NSET] = nset;
    h->ntl = 0;
    return h->fold;
}

/* One drain: replay nseg queued segments (parallel columns) through the
 * whole hierarchy.  Counters go to out (zeroed first); returns the fold
 * records (PMU attached) or out, or NULL — before touching any state —
 * if a reference id is below -1 while a PMU is attached.  If memory runs
 * out it returns DRAIN_NOMEM: before any state changes when the line
 * buffers or the tally rows are too large (a huge segment), otherwise
 * with the hierarchy left unusable (a per-level buffer, or a TLB or
 * shadow map that could not grow). */
const int64_t *hier_drain(hier_t *h, const int64_t *refs,
                          const int64_t *base, const int64_t *stride,
                          const int64_t *count, const uint8_t *write,
                          const int64_t *elem, int64_t nseg)
{
    int64_t *out = h->out, n = 0, at = 0, ncov = 0, top = -1, g, k;
    int pmu = h->pmu != 0, has_probe = 0;
    opbuf_t *cur = &h->buf[0], *nxt = &h->buf[1], *tmp;
    memset(out, 0, (size_t)h->nout * sizeof(int64_t));
    if (nseg > h->dcap) {
        free(h->dist);
        h->dcap = 0;
        if (!(h->dist = (int64_t *)try_alloc(nseg, sizeof(int64_t)))) return DRAIN_NOMEM;
        h->dcap = nseg;
    }
    for (g = 0; g < nseg; g++) {
        if (pmu && refs[g] < -1) return 0;
        if (refs[g] > top) top = refs[g];
        h->dist[g] = seg_lines(base[g], stride[g], count[g], elem[g], h->line, 0);
        n += h->dist[g];
    }
    if (opbuf_reserve(cur, n, 1, pmu) || (pmu && tally_reserve(h, top)))
        return DRAIN_NOMEM;

    /* Expansion, prefetch coverage and the TLB walk, in segment order. */
    for (g = 0; g < nseg; g++) {
        int64_t d = h->dist[g];
        int64_t cv = pf_cover(h, refs[g], base[g], stride[g], d);
        int64_t w = 0, j;
        if (h->tlb)
            w = seg_pages(h->tlb, base[g], stride[g], count[g], elem[g],
                          h->page, out + OUT_TLB);
        seg_lines(base[g], stride[g], count[g], elem[g], h->line, cur->lines + at);
        memset(cur->fill + at, write[g] ? 1 : 0, (size_t)d);
        memset(cur->cov + at, 0, (size_t)(d - cv));
        memset(cur->cov + at + d - cv, 1, (size_t)cv);
        if (pmu) {
            int64_t *row = tally_row(h, refs[g]);
            row[1] += count[g] * elem[g];
            row[2] += d;
            row[3] += w;
            for (j = 0; j < d; j++) cur->refs[at + j] = refs[g];
        }
        at += d;
        ncov += cv;
    }

    /* Level by level; dirty evictions and demand misses flow down. */
    for (k = 0; k < h->nlev && n; k++) {
        level_t *L = &h->lv[k];
        int64_t st[4] = {0, 0, 0, 0}, *o = out + OUT_LEVELS + 6 * k, m, pf;
        const uint8_t *probe = has_probe ? cur->probe : 0;
        const uint8_t *fill = k == 0 ? cur->fill : 0;
        if (n > h->rescap) {
            free(h->hits); free(h->missed); free(h->evict);
            h->rescap = 0;
            h->hits = (uint8_t *)try_alloc(n, 1);
            h->missed = (uint8_t *)try_alloc(n, 1);
            h->evict = (int64_t *)try_alloc(n, sizeof(int64_t));
            if (!h->hits || !h->missed || !h->evict) return DRAIN_NOMEM;
            h->rescap = n;
        }
        if (L->rng)
            *L->rng = rand_batch(L->num_sets, L->ways, L->mask, L->ln, L->dy,
                                 L->occ, *L->rng, cur->lines, probe, fill, 0,
                                 n, h->hits, h->missed, h->evict, st);
        else
            lru_batch(L->num_sets, L->ways, L->mask, L->ln, L->dy, L->occ,
                      cur->lines, probe, fill, 0, n, h->hits, h->missed,
                      h->evict, st);
        o[0] += st[0]; o[1] += st[1]; o[2] += st[2]; o[3] += st[3];
        o[5] += n;
        if (pmu) pmu_level(h, k, cur, probe, k == 0 ? cur->cov : 0, n);
        if (!has_probe) {
            /* All-probe shortcuts: all hit -> nothing flows down; none
             * hit and no dirty evictions -> the stream passes unchanged. */
            if (st[0] == n) { n = 0; break; }
            if (st[0] == 0 && st[3] == 0) { o[4] += ncov; continue; }
        }
        m = st[1] + st[3];
        if (opbuf_reserve(nxt, m, 0, pmu)) return DRAIN_NOMEM;
        pf = next_level(cur, probe, n, h->missed, h->evict, nxt, pmu);
        o[4] += pf;
        tmp = cur; cur = nxt; nxt = tmp;
        n = m; ncov = pf; has_probe = 1;
    }

    /* Whatever passed the last level hits DRAM: probes fill from it,
     * installs write back to it. */
    {
        int64_t reads = n, i;
        if (has_probe) {
            reads = 0;
            for (i = 0; i < n; i++) reads += cur->probe[i];
        }
        out[OUT_DRAM] += reads;
        out[OUT_DRAM + 1] += n - reads;
        if (pmu)
            for (i = 0; i < n; i++) {
                int64_t *row = h->tally + (cur->refs[i] + 1) * h->width;
                if (!has_probe || cur->probe[i]) row[4]++;
                else row[5]++;
            }
    }
    if (h->tlb && tlb_nomem(h->tlb)) return DRAIN_NOMEM;
    for (k = 0; pmu && k < h->nlev; k++)
        if (h->pmu[k].sh.nomem) return DRAIN_NOMEM;
    return pmu ? fold(h) : out;
}
"""

_lib = None
_ffi = None
_NOMEM = None  # what a drain that ran out of memory returns (hier_nomem)
_STATE = {"tried": False, "error": None, "warned": False}


def _repo_build_dir() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "build", "native")


def _load():
    """Compile (once, lock-guarded) and dlopen the C core; None on failure."""
    global _lib, _ffi, _NOMEM
    if _STATE["tried"]:
        return _lib
    _STATE["tried"] = True
    try:
        import cffi

        tag = hashlib.sha1(_C_SRC.encode()).hexdigest()[:12]
        base = os.environ.get(NATIVE_CACHE_ENV) or _repo_build_dir()
        try:
            os.makedirs(base, exist_ok=True)
            probe = os.path.join(base, f".w{os.getpid()}")
            with open(probe, "w"):
                pass
            os.unlink(probe)
        except OSError:
            base = os.path.join(tempfile.gettempdir(), "repro-native")
            os.makedirs(base, exist_ok=True)
        sofile = os.path.join(base, f"reprosim-{tag}.so")
        if not os.path.exists(sofile):
            _compile(base, tag, sofile)
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        lib = ffi.dlopen(sofile)
        _selftest(ffi, lib)
        _ffi, _lib, _NOMEM = ffi, lib, lib.hier_nomem()
    except Exception as exc:  # pragma: no cover - depends on toolchain
        _STATE["error"] = f"{type(exc).__name__}: {exc}"
        _lib = None
    return _lib


def _compile(base: str, tag: str, sofile: str) -> None:
    import fcntl
    import shutil

    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise RuntimeError("no C compiler on PATH")
    lock_path = os.path.join(base, f"reprosim-{tag}.lock")
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(sofile):
            return
        csrc = os.path.join(base, f"reprosim-{tag}.c")
        with open(csrc, "w") as fh:
            fh.write(_C_SRC)
        tmp = f"{sofile}.tmp.{os.getpid()}"
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, csrc],
            check=True,
            capture_output=True,
        )
        os.replace(tmp, sofile)


#: The self-test drain's counter block and fold records, as the exact
#: engine counts them (see :func:`_selftest`).
_SELFTEST_OUT = [
    2, 10, 0, 0, 17, 4, 5, 12, 3, 5, 0, 3, 1,
    0, 17, 17, 6, 5, 17, 0, 17, 17, 4, 5, 23, 14, 3, 0, 14, 2, 1,
]
_SELFTEST_FOLD = [
    0, 32, 4, 1, 4, 0, 4, 0, 0, 4, 0, 0,
    1, 56, 7, 4, 7, 2, 4, 3, 0, 4, 2, 1,
    2, 48, 6, 5, 6, 2, 6, 0, 0, 6, 0, 0,
    1, 0, 1]


def _selftest(ffi, lib) -> None:
    """Drain a few segments through a tiny two-level hierarchy (one-set
    LRU L1, two-set random L2) with a fully-associative two-entry dTLB,
    a prefetcher and a PMU, and compare every counter with the exact
    engine's: catches a miscompiled or stale library in microseconds."""
    def ptr(ctype, values, dtype):
        arr = np.array(values, dtype=dtype)
        keep.append(arr)
        return ffi.cast(ctype + " *", arr.ctypes.data)

    keep: List[np.ndarray] = []
    out = np.zeros(_OUT_LEVELS + 9 * 2, dtype=np.int64)
    tlb = ffi.gc(lib.tlb_new(1, 2, 0, 0), lib.tlb_free)
    h = ffi.gc(
        lib.hier_new(2, 64, PAGE_SIZE, tlb, 16, 1, 2, 1, ffi.cast("int64_t *", out.ctypes.data)),
        lib.hier_free,
    )
    random_state = ptr("uint64_t", [RANDOM_SEED], np.uint64)
    for k, (sets, policy_state) in enumerate([(1, ffi.NULL), (2, random_state)]):
        lib.hier_level(
            h, k, sets, 2, sets - 1, ptr("int64_t", [0] * 2 * sets, np.int64),
            ptr("uint8_t", [0] * 2 * sets, np.uint8), ptr("int32_t", [0] * sets, np.int32),
            policy_state,
        )
    lib.hier_pmu(h, 1)
    rec = lib.hier_drain(
        h,
        ptr("int64_t", [0, 1, 2, 0, 2, 1, 1], np.int64),                     # ref
        ptr("int64_t", [0, 4096, -8192, -8000, 64 * 4096, 0, 0], np.int64),  # base
        ptr("int64_t", [64, 4096, 64, 64, 4096, 128, 0], np.int64),          # stride
        ptr("int64_t", [3, 3, 2, 1, 4, 3, 1], np.int64),                     # count
        ptr("uint8_t", [1, 0, 1, 1, 0, 0, 0], np.uint8),                     # write
        ptr("int64_t", [8] * 7, np.int64),                                   # elem
        7,
    )
    got = out.tolist()
    nfold = got[_OUT_NREF] * (_ROW_FIXED + 6) + 3 * got[_OUT_NSET]
    if got != _SELFTEST_OUT or list(ffi.unpack(rec, nfold)) != _SELFTEST_FOLD:
        raise RuntimeError("native self-test mismatch")


def native_available() -> bool:
    """Is the compiled core usable?"""
    return _load() is not None


def native_status() -> str:
    """Human-readable availability (``repro perf``/debugging)."""
    if _load() is not None:
        return "available"
    return f"unavailable ({_STATE['error']})"


def warn_exact_fallback() -> None:
    """Log, once per process, that ``engine="fast"`` replays on the
    exact engine because the native core did not load."""
    if _STATE["warned"]:
        return
    _STATE["warned"] = True
    LOG.warning(
        "native replay core %s; the fast engine falls back to exact replay "
        "(same results, slower)", native_status(),
    )


def _i64(arr: np.ndarray):
    return _ffi.cast("int64_t *", arr.ctypes.data)


def _u8(arr: np.ndarray):
    return _ffi.cast("uint8_t *", arr.ctypes.data)


def _i32(arr: np.ndarray):
    return _ffi.cast("int32_t *", arr.ctypes.data)


class _NativeCacheBase:
    """Geometry, stats and array state shared by the native cache models."""

    policy_name = "?"

    def __init__(self, name: str, size_bytes: int, ways: int, line_size: int = 64):
        if size_bytes % (ways * line_size):
            raise SimulationError(
                f"{name}: size {size_bytes} not divisible by ways*line "
                f"({ways}*{line_size})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        self.num_sets = size_bytes // (ways * line_size)
        self.stats = CacheStats()
        self._set_mask = set_mask(self.num_sets)
        self._cmask = -1 if self._set_mask is None else self._set_mask
        self._ln = np.full(self.num_sets * ways, -1, dtype=np.int64)
        self._dy = np.zeros(self.num_sets * ways, dtype=np.uint8)
        self._occ = np.zeros(self.num_sets, dtype=np.int32)
        self.skips: Dict[str, int] = {"resident": 0, "streaming": 0, "replayed": 0}

    def set_index(self, line: int) -> int:
        mask = self._set_mask
        return line & mask if mask is not None else line % self.num_sets

    def _occupied_mask(self) -> np.ndarray:
        occ = np.repeat(self._occ.astype(np.int64), self.ways)
        pos = np.tile(np.arange(self.ways, dtype=np.int64), self.num_sets)
        return pos < occ

    def dirty_lines(self) -> List[int]:
        mask = self._occupied_mask() & (self._dy > 0)
        return self._ln[mask].tolist()

    def flush_dirty_count(self) -> int:
        return int((self._occupied_mask() & (self._dy > 0)).sum())

    def contains(self, line: int) -> bool:
        s = self.set_index(line)
        base = s * self.ways
        occ = int(self._occ[s])
        return bool((self._ln[base : base + occ] == line).any())

    def reset(self) -> None:
        self.stats.reset()
        self._ln.fill(-1)
        self._dy.fill(0)
        self._occ.fill(0)
        self.skips = {"resident": 0, "streaming": 0, "replayed": 0}

    def access(self, line: int, is_write: bool):
        """Scalar compatibility shim over :meth:`process_batch`."""
        hits, _missed, evict = self.process_batch([line], None, is_write)
        ev = int(evict[0])
        return bool(hits[0]), None if ev == EVICT_NONE else ev

    def process_batch(self, lines, probe, fill):
        """Replay one op batch at this level.

        ``lines`` is the op line addresses in stream order; ``probe`` is
        ``None`` (every op is a demand probe) or a parallel flag array
        where ``0`` marks a writeback install from the level above;
        ``fill`` is the dirty bit a probe fill acquires — a bool, or a
        parallel per-op flag array.

        Returns ``(hits, missed, evict)`` arrays parallel to ``lines``:
        probe hit / install-found-present flags, fill-allocated flags,
        and the dirty line evicted by each op (:data:`EVICT_NONE` if
        none).
        """
        arr = lines if isinstance(lines, np.ndarray) else np.asarray(lines, dtype=np.int64)
        n = len(arr)
        hits = np.empty(n, dtype=np.uint8)
        missed = np.empty(n, dtype=np.uint8)
        evict = np.empty(n, dtype=np.int64)
        if n == 0:
            return hits, missed, evict
        if probe is None:
            probe_arr = None
        elif isinstance(probe, np.ndarray):
            probe_arr = probe
        else:
            probe_arr = np.asarray(probe, dtype=np.uint8)
        if isinstance(fill, np.ndarray):
            fill_arr, fill_u = fill, 0
        elif type(fill) is list:
            fill_arr, fill_u = np.asarray(fill, dtype=np.uint8), 0
        else:
            fill_arr, fill_u = None, 1 if fill else 0
        st = np.zeros(4, dtype=np.int64)
        self._batch(arr, probe_arr, fill_arr, fill_u, hits, missed, evict, st)
        stats = self.stats
        stats.hits += int(st[0])
        stats.misses += int(st[1])
        stats.fills += int(st[2])
        stats.writebacks += int(st[3])
        self.skips["replayed"] += n
        return hits, missed, evict

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kib = self.size_bytes / 1024
        return f"{type(self).__name__}({self.name}: {kib:g} KiB, {self.ways}-way)"


class NativeLruCache(_NativeCacheBase):
    """LRU cache level replayed by the compiled ``lru_batch`` loop."""

    policy_name = "lru"
    _rng = None

    def _batch(self, arr, probe, fill_arr, fill_u, hits, missed, evict, st) -> None:
        _lib.lru_batch(
            self.num_sets, self.ways, self._cmask,
            _i64(self._ln), _u8(self._dy), _i32(self._occ),
            _i64(arr),
            _u8(probe) if probe is not None else _ffi.NULL,
            _u8(fill_arr) if fill_arr is not None else _ffi.NULL,
            fill_u, len(arr),
            _u8(hits), _u8(missed), _i64(evict), _i64(st),
        )


class NativeRandomCache(_NativeCacheBase):
    """Random-replacement level replayed by the compiled global-order
    loop with the exact xorshift64 draw sequence."""

    policy_name = "random"

    def __init__(self, name: str, size_bytes: int, ways: int, line_size: int = 64):
        super().__init__(name, size_bytes, ways, line_size)
        # One-element array: the drain advances it in place.
        self._rng = np.array([RANDOM_SEED], dtype=np.uint64)

    def reset(self) -> None:
        super().reset()
        self._rng[0] = RANDOM_SEED

    def _batch(self, arr, probe, fill_arr, fill_u, hits, missed, evict, st) -> None:
        self._rng[0] = _lib.rand_batch(
            self.num_sets, self.ways, self._cmask,
            _i64(self._ln), _u8(self._dy), _i32(self._occ),
            int(self._rng[0]),
            _i64(arr),
            _u8(probe) if probe is not None else _ffi.NULL,
            _u8(fill_arr) if fill_arr is not None else _ffi.NULL,
            fill_u, len(arr),
            _u8(hits), _u8(missed), _i64(evict), _i64(st),
        )


_NATIVE_CACHES = {"lru": NativeLruCache, "random": NativeRandomCache}


def native_cache(name: str, size_bytes: int, ways: int, line_size: int, policy: str):
    """Native cache model for ``policy``, or ``None`` if unsupported."""
    cls = _NATIVE_CACHES.get(policy)
    if cls is None:
        return None
    return cls(name, size_bytes, ways, line_size)


class _NativeTlbLevel:
    """Geometry and stats of one TLB level (its state lives in C)."""

    def __init__(self, entries: int, ways: int, name: str):
        if entries <= 0:
            raise SimulationError(f"{name}: TLB needs at least one entry")
        if ways == 0:
            ways = entries  # fully associative
        if entries % ways:
            raise SimulationError(f"{name}: {entries} entries not divisible by {ways} ways")
        self.name = name
        self.num_sets = entries // ways
        self.ways = ways
        self.stats = CacheStats()


class NativeTlb:
    """Drop-in twin of :class:`repro.memsim.tlb.Tlb` over the compiled
    TLB (a single-set level is an O(1) hash-map LRU); hit/miss/walk
    counts identical page for page."""

    def __init__(self, spec: TlbSpec):
        self.spec = spec
        self.l1 = _NativeTlbLevel(spec.l1_entries, spec.l1_ways, "dTLB-L1")
        self.l2 = (
            _NativeTlbLevel(spec.l2_entries, spec.l2_ways, "dTLB-L2")
            if spec.l2_entries
            else None
        )
        l2 = self.l2
        self._tlb = _ffi.gc(
            _lib.tlb_new(
                self.l1.num_sets, self.l1.ways,
                l2.num_sets if l2 is not None else 0,
                l2.ways if l2 is not None else 0,
            ),
            _lib.tlb_free,
        )

    def _count(self, st) -> None:
        """Add ``st[0:4]`` = {L1 hits, L1 misses, L2 hits, L2 misses}."""
        self.l1.stats.hits += st[0]
        self.l1.stats.misses += st[1]
        if self.l2 is not None:
            self.l2.stats.hits += st[2]
            self.l2.stats.misses += st[3]

    def access_page(self, page: int) -> None:
        self.access_pages([page])

    def access_pages(self, pages) -> None:
        arr = np.fromiter(pages, dtype=np.int64)
        st = np.zeros(4, dtype=np.int64)
        if _lib.tlb_walk(self._tlb, _i64(arr), len(arr), _i64(st)):
            raise SimulationError("the compiled TLB ran out of memory")
        self._count(st.tolist())

    @property
    def walks(self) -> int:
        if self.l2 is not None:
            return self.l2.stats.misses
        return self.l1.stats.misses

    @property
    def walk_cycles_total(self) -> int:
        return self.walks * self.spec.walk_cycles

    def reset(self) -> None:
        self.l1.stats.reset()
        if self.l2 is not None:
            self.l2.stats.reset()
        _lib.tlb_reset(self._tlb)


class NativeHierarchy(MemoryHierarchy):
    """Memory hierarchy driving the compiled replay core.

    Same construction contract, counters, flush and snapshot behaviour
    as the exact hierarchy.  Segments queue as columns and drain in one
    compiled call once ``_BUF_OPS`` accesses are queued (or when state
    is read), so the per-segment Python overhead is a few appends.
    """

    engine = "fast"

    def __init__(
        self,
        caches,
        prefetch: PrefetcherSpec = NO_PREFETCH,
        tlb: Optional[TlbSpec] = None,
        line_size: int = 64,
    ):
        super().__init__(caches, prefetch=prefetch, tlb=tlb, line_size=line_size)
        if tlb is not None:
            self.tlb = NativeTlb(tlb)
        # Queued work in stream order: column batches, then the segments
        # queued one at a time since the last batch.
        self._buf_cols: List[SegmentBatch] = []
        self._buf_segs: List[Segment] = []
        self._buf_ops = 0
        # The C state: it points at the caches' arrays and the TLB, owns
        # the prefetch stream table, the PMU state and the scratch, and
        # writes each drain's counters into ``_out``.
        self._out = np.zeros(_OUT_LEVELS + 9 * len(self.caches), dtype=np.int64)
        spec = self.prefetcher.spec
        self._state = _ffi.gc(
            _lib.hier_new(
                len(self.caches), line_size, PAGE_SIZE,
                self.tlb._tlb if self.tlb is not None else _ffi.NULL,
                spec.max_stride_lines, spec.train_lines, max(1, spec.streams),
                1 if spec.cross_segment else 0, _i64(self._out),
            ),
            _lib.hier_free,
        )
        for k, cache in enumerate(self.caches):
            _lib.hier_level(
                self._state, k, cache.num_sets, cache.ways, cache._cmask,
                _i64(cache._ln), _u8(cache._dy), _i32(cache._occ),
                _ffi.NULL if cache._rng is None
                else _ffi.cast("uint64_t *", cache._rng.ctypes.data),
            )

    # -- buffer management ---------------------------------------------------

    def drain(self) -> None:
        """Replay any buffered ops (idempotent) and free the scratch.

        Callers drain at the end of a core's stream, and ``simulate``
        replays one core's hierarchy at a time, so only one hierarchy
        holds grown scratch buffers at a time.
        """
        self._drain_buffer()
        _lib.hier_release(self._state)

    def attach_pmu(self):
        self._drain_buffer()
        pmu = super().attach_pmu()
        _lib.hier_pmu(self._state, 1)
        return pmu

    def reset(self) -> None:
        self._buf_cols = []
        self._buf_segs = []
        self._buf_ops = 0
        super().reset()
        _lib.hier_reset(self._state)

    def flush(self) -> None:
        self._drain_buffer()
        super().flush()

    def skip_counts(self) -> Dict[str, int]:
        """Ops replayed per disposition (the native core replays every
        op, so everything lands under ``replayed``)."""
        self._drain_buffer()
        total = {"resident": 0, "streaming": 0, "replayed": 0}
        for cache in self.caches:
            for key, value in cache.skips.items():
                total[key] += value
        return total

    # -- segment intake ------------------------------------------------------

    def process_segment(self, seg: Segment) -> None:
        """Queue one segment; everything per-segment (line/page expansion,
        prefetcher training, TLB walks, PMU attribution) happens in the
        compiled drain, in preserved segment order."""
        count = seg.count
        if count <= 0:
            return
        self._buf_segs.append(seg)
        self._buf_ops += count
        if self._buf_ops >= _BUF_OPS:
            self._drain_buffer()

    def process_segments(self, batch: SegmentBatch) -> None:
        """Queue a batch's columns as they are, draining at exactly the
        segments where :meth:`process_segment` would drain."""
        count = batch.count
        positive = count > 0
        if not positive.all():
            batch = SegmentBatch(*(col[positive] for col in batch))
            count = batch.count
        n = len(count)
        if not n:
            return
        self._stage_segments()
        cum = np.cumsum(count) + self._buf_ops
        start = 0
        while True:
            stop = int(np.searchsorted(cum, _BUF_OPS, side="left")) + 1
            if stop > n:
                self._buf_cols.append(SegmentBatch(*(col[start:] for col in batch)))
                self._buf_ops = int(cum[-1])
                return
            self._buf_cols.append(SegmentBatch(*(col[start:stop] for col in batch)))
            self._drain_buffer()
            if stop == n:
                return
            cum -= cum[stop - 1]
            start = stop

    def _stage_segments(self) -> None:
        """Move the one-at-a-time queue into the column queue."""
        segs = self._buf_segs
        if not segs:
            return
        self._buf_segs = []
        nseg = len(segs)
        self._buf_cols.append(SegmentBatch(
            np.fromiter((s.ref for s in segs), np.int64, nseg),
            np.fromiter((s.base for s in segs), np.int64, nseg),
            np.fromiter((s.stride for s in segs), np.int64, nseg),
            np.fromiter((s.count for s in segs), np.int64, nseg),
            np.fromiter((s.is_write for s in segs), np.bool_, nseg),
            np.fromiter((s.elem_size for s in segs), np.int64, nseg),
        ))

    # -- deferred replay -----------------------------------------------------

    def _drain_buffer(self) -> None:
        """Replay the queue in one compiled call, then fold its counters."""
        self._stage_segments()
        queued = self._buf_cols
        if not queued:
            return
        self._buf_cols = []
        self._buf_ops = 0
        if len(queued) == 1:
            columns = queued[0]
        else:
            columns = [np.concatenate(cols) for cols in zip(*queued)]
        refs, base, stride, count, write, elem = (
            np.ascontiguousarray(col, dtype)
            for col, dtype in zip(columns, _COLUMN_DTYPES)
        )
        rec = _lib.hier_drain(
            self._state, _i64(refs), _i64(base), _i64(stride), _i64(count),
            _u8(write), _i64(elem), len(refs),
        )
        if rec == _ffi.NULL:
            raise SimulationError(
                f"reference ids below -1 cannot be attributed (min {int(refs.min())})"
            )
        if rec == _NOMEM:
            raise SimulationError(
                f"the compiled replay ran out of memory draining {len(refs)} segments "
                f"({int(count.sum())} elements)"
            )
        o = self._out.tolist()
        if self.tlb is not None:
            self.tlb._count(o[_OUT_TLB:])
        self.dram.read_lines += o[_OUT_DRAM]
        self.dram.written_lines += o[_OUT_DRAM + 1]
        prefetcher = self.prefetcher
        prefetcher.covered_lines += o[_OUT_PF]
        prefetcher.uncovered_lines += o[_OUT_PF + 1]
        prefetcher.late_lines += o[_OUT_PF + 2]
        at = _OUT_LEVELS
        for cache in self.caches:
            stats = cache.stats
            stats.hits += o[at]
            stats.misses += o[at + 1]
            stats.fills += o[at + 2]
            stats.writebacks += o[at + 3]
            stats.prefetch_hits += o[at + 4]
            cache.skips["replayed"] += o[at + 5]
            at += 6
        if self.pmu is not None:
            self._fold_pmu(o, at, rec, int(refs[-1]))

    def _fold_pmu(self, o, at, rec, last_ref) -> None:
        """Fold one drain's PMU counters and fold records (see the C
        ``fold``) into the :class:`~repro.memsim.pmu.Pmu` dictionaries."""
        pmu = self.pmu
        levels = pmu.levels
        for lvl in levels:
            lvl.compulsory += o[at]
            lvl.capacity += o[at + 1]
            lvl.conflict += o[at + 2]
            at += 3
        pmu.prefetch_useful += o[_OUT_PMU_PF]
        pmu.prefetch_polluting += o[_OUT_PMU_PF + 1]
        pmu.current_ref = last_ref
        width = _ROW_FIXED + 3 * len(levels)
        nrows = o[_OUT_NREF] * width
        flat = _ffi.unpack(rec, nrows + 3 * o[_OUT_NSET])
        rb, ra = pmu.ref_bytes, pmu.ref_accesses
        for i in range(0, nrows, width):
            ref, nbytes, accesses, walks, reads, writes = flat[i : i + _ROW_FIXED]
            rb[ref] = rb.get(ref, 0) + nbytes
            ra[ref] = ra.get(ref, 0) + accesses
            if walks:
                pmu.note_tlb(ref, walks)
            if reads:
                t = pmu.ref_dram_read_lines
                t[ref] = t.get(ref, 0) + reads
            if writes:
                t = pmu.ref_dram_written_lines
                t[ref] = t.get(ref, 0) + writes
            col = i + _ROW_FIXED
            for lvl in levels:
                comp, cap, conf = flat[col : col + 3]
                col += 3
                if comp or cap or conf:
                    counts = lvl.per_ref.get(ref)
                    if counts is None:
                        counts = lvl.per_ref[ref] = [0, 0, 0]
                    counts[0] += comp
                    counts[1] += cap
                    counts[2] += conf
        for i in range(nrows, len(flat), 3):
            sc = levels[flat[i]].set_conflicts
            s = flat[i + 1]
            sc[s] = sc.get(s, 0) + flat[i + 2]
