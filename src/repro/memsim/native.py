"""The fast replay engine: a runtime-compiled C core.

The exact simulator (:mod:`repro.memsim.hierarchy`) walks every distinct
line of every segment through every cache level one Python call at a
time.  This module replays the same semantics in C.  Python queues
segment columns; each drain is **one** call, ``hier_drain``, over a C
hierarchy state built once per :class:`NativeHierarchy` (pointers to
each level's arrays, the TLB, the prefetch stream table and the PMU
state), in a scratch area the call is given.  In order, it runs:

* segment expansion — the closed-form distinct lines of each compressed
  affine segment (``seg_lines``), written into the first op buffer with
  each op's dirty-fill flag, prefetch-coverage flag and reference id;
* prefetch coverage (``pf_cover``) — stride-prefetcher training over
  the cross-segment stream table, in segment order;
* the TLB walk (``seg_pages``) — every page of every segment through
  the two-level TLB, with per-segment walk counts;
* one pass per cache level (``level_pass``), which handles each op of
  the level's stream once, in stream order: the set lookup and update
  (a rotating LRU set, or the xorshift64 PRNG sequence of the random
  policy in chronological global order), the PMU's 3C classification
  when one is attached, and the op's output — its dirty eviction (an
  install) and then its demand miss, appended to the next level's stream
  in the other buffer, or counted as DRAM lines written and read past
  the last level.

The drain takes its segments in groups of about ``GROUP_LINES`` lines
(whole segments): expansion, coverage and the TLB walk of a group, then
its passes.  Each level still sees its ops in the order of one pass over
the whole drain, so the groups only bound the op buffers.

Set-associative LRU structures — LRU cache levels and the dTLB's
multi-set levels — share one rotating layout (``ring_access``): a set's
ways hold its lines in LRU order around a ring whose LRU way is the
set's rotation offset.  A miss in a full set overwrites that way and
advances the offset, so it shifts nothing; a hit shifts only the ways
between its line and the MRU way.  Until a set fills its offset is 0,
so its occupied ways are always ``[0, occ)``.

``hier_drain`` is the core's only replay entry point: the other exports
build, reset and free its state and the scratch.  The self-test drains
through it too.

Drains run on replay threads, one per CPU the process may use
(:class:`_ReplayPool`, started by the first drain; with one usable CPU
no thread starts and drains run on the caller's thread).  ``ctypes``
releases the GIL for the call, so replay overlaps the caller's trace
generation.  Each hierarchy queues its drains on an ordered lane: they
run in the order queued and never two at once, so every counter, random
draw and PMU table is what a serial replay gives, while different
hierarchies (``simulate``'s per-core ones) replay side by side.  The
scratch (``scratch_t``: segment line counts, the two op streams the
level passes alternate between, and the fold records) belongs to the
thread running the drain, so replay scratch is bounded by the threads
and the group size, not by the hierarchies or the drain size.  It is
mapped with ``mmap``, never malloc'd (no replay thread's allocator arena
grows to hold op buffers), and kept between drains.

Fully-associative structures — single-set dTLB levels and the PMU's
shadow cache — share one O(1) LRU (``falru``: a doubly linked list over
paged direct slots).  Every key owns one 32-bit slot holding its list
node and, for the PMU, the *seen* bit, so the 3C observer needs no
second set and no touch hashes its key.  Slots live in zeroed blocks of
2**16 consecutive keys, mapped on first touch and found through a
one-block memo in front of a small directory.

The PMU has two products, chosen when it is attached (``hier_pmu``).
Its counters — each level's 3C totals and the prefetch accuracy — come
from the shadow touch, the seen bit and the class of each miss, and are
read back with the other counters of the drain.  Its attribution — a
tally row per reference, conflict counts per set, and the reference id
that every op carries down the levels for them — is built only in
attribution mode and folded into the :class:`~repro.memsim.pmu.Pmu`
dictionaries after each drain.  Figure cells take the counters mode;
``repro profile``, ``repro perf`` and the cache-model validator take
attribution.

Every counter is bit-identical to the exact engine, which stays the
oracle and the fallback: the toolchain is probed once per process, and
if it fails (no compiler, a read-only tree, a core that fails its
self-test) ``DeviceSpec.build_hierarchies`` builds exact
hierarchies and logs one warning carrying :func:`native_status`.  Memory
that runs out is a failed cell, not a fallback: a hierarchy, TLB or PMU
state that cannot be allocated, like a drain that cannot grow its
buffers or map a block of slots, raises
:class:`~repro.errors.SimulationError`.

The core is a plain shared object built with the system C compiler (no
Python headers or setuptools involved), cached under ``build/native/``
keyed by a hash of the C source, with an ``flock`` guarding concurrent
builds (the figure pipeline's worker pool may import this module from
many processes).  Python calls it through :mod:`ctypes`, which numpy
has already imported: one signature table (:data:`_SIGNATURES`),
pointers passed as addresses, so loading a cached core costs a
``dlopen`` and the self-test.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import hashlib
import logging
import os
import queue
import tempfile
import threading
import time
import weakref
from typing import Callable, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.exec.trace import Segment, SegmentBatch
from repro.memsim.cache import CacheStats, set_mask
from repro.memsim.columnar import FAST_POLICIES, add_replayed_ops
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.prefetch import NO_PREFETCH, PrefetcherSpec
from repro.memsim.replacement import RANDOM_SEED
from repro.memsim.tlb import PAGE_SIZE, Tlb, TlbLevel, TlbSpec

LOG = logging.getLogger("repro.memsim.native")

# Each drain has a fixed cost (one C call, a fold of its counters).
# Buffer aggressively: segments of any size accumulate, and the buffer
# drains right after the segment that brings it to ``_BUF_OPS`` queued
# ops.
_BUF_OPS = 32768

#: Environment variable overriding the build cache directory.
NATIVE_CACHE_ENV = "REPRO_NATIVE_CACHE"

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
# ``hier_pmu``'s modes, mirrored in the C source.
_PMU_MODES = {"attribution": 1, "counters": 2}

#: C types of the ``SegmentBatch`` columns a drain passes by pointer.
_COLUMN_DTYPES = (np.int64, np.int64, np.int64, np.int64, np.uint8, np.int64)

_P, _I64, _INT = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int

#: The C core's entry points: name -> (restype, argtypes).  Every pointer
#: is a ``void *`` passed as an address (``None`` is NULL) and returned
#: as an int (``None`` for NULL); the C source documents the types.
_SIGNATURES = {
    "tlb_new": (_P, [_I64, _I64, _I64, _I64]),
    "tlb_free": (None, [_P]),
    "tlb_reset": (None, [_P]),
    "hier_new": (_P, [_I64, _I64, _I64, _P, _I64, _I64, _I64, _INT, _P]),
    "hier_level": (None, [_P, _I64, _I64, _I64, _I64, _P, _P, _P, _P, _P]),
    "hier_pmu": (_INT, [_P, _INT]),
    "hier_reset": (_INT, [_P]),
    "hier_free": (None, [_P]),
    "scratch_new": (_P, []),
    "scratch_free": (None, [_P]),
    "hier_drain": (_P, [_P, _P, _P, _P, _P, _P, _P, _P, _I64]),
    "hier_nomem": (_P, []),
}

_C_SRC = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

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

/* Line ids can be negative too, so -1 cannot mark "no eviction".
 * INT64_MIN is unreachable as a line id (it is not fdiv(addr, line) of
 * any int64 address). */
#define NO_VICTIM INT64_MIN

/* n elements (at least one), or NULL if malloc fails or the size does
 * not fit a size_t. */
static void *try_alloc(int64_t n, size_t elem)
{
    uint64_t k = n > 0 ? (uint64_t)n : 1;
    if (k > SIZE_MAX / elem) return 0;
    return malloc((size_t)k * elem);
}

/* n elements (at least one) mapped zeroed, or NULL if the mapping fails
 * or the size does not fit a size_t. */
static void *map_new(int64_t n, size_t elem)
{
    uint64_t k = n > 0 ? (uint64_t)n : 1;
    void *p;
    if (k > SIZE_MAX / elem) return 0;
    p = mmap(0, (size_t)k * elem, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? 0 : p;
}

/* Unmap what map_new(n, elem) returned (NULL: nothing). */
static void map_free(void *p, int64_t n, size_t elem)
{
    if (p) munmap(p, (size_t)(n > 0 ? n : 1) * elem);
}

/* What hier_drain returns when an allocation fails: distinct from the
 * NULL of an unattributable reference id. */
static const int64_t drain_nomem = 0;
#define DRAIN_NOMEM (&drain_nomem)

const int64_t *hier_nomem(void)
{
    return DRAIN_NOMEM;
}

/* ---- fully-associative LRU: paged direct slots + linked list -------- */
/* Every key owns one slot, (node + 1) << 1 | seen: node 0..cap-1 indexes
 * the list (head = LRU, tail = MRU), node "none" (0) means not resident,
 * and the seen bit is the PMU's "ever resident" mark, which the LRU
 * itself neither sets nor clears.  Slots live in blocks of FA_KEYS
 * consecutive keys, mapped zeroed on first touch (only the memory pages
 * a replay touches count toward RSS) and found through a small
 * directory keyed by block number.  A one-block memo sits in front of
 * the directory, so only a touch that changes block searches it.  Each
 * node points at its key's slot: evicting the LRU key looks nothing up. */

#define FA_BITS 16
#define FA_KEYS ((uint64_t)1 << FA_BITS)
#define FA_BLOCK_BYTES (FA_KEYS * sizeof(uint32_t))
#define FA_NONE UINT64_MAX       /* no block: a block number is below 2^48 */

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
    uint32_t **node;         /* the slot of each node's key */
    uint64_t bkey;           /* the memo: last block touched, or FA_NONE */
    uint32_t *blk;           /* ... and its slots */
    uint64_t dcap, dused;    /* directory entries (a power of two), blocks */
    uint64_t *dkeys;         /* block numbers, FA_NONE = free entry */
    uint32_t **dblks;
    uint32_t spare;          /* the slot of every touch once nomem is set */
    int nomem;               /* a block could not be mapped: results are void */
} falru_t;

/* Unmap every block and empty the LRU (every key unseen). */
static void fa_clear(falru_t *fa)
{
    uint64_t i;
    for (i = 0; i < fa->dcap; i++)
        if (fa->dkeys[i] != FA_NONE) {
            munmap(fa->dblks[i], FA_BLOCK_BYTES);
            fa->dkeys[i] = FA_NONE;
        }
    fa->dused = 0;
    fa->bkey = FA_NONE;
    fa->size = 0;
    fa->head = fa->tail = -1;
    fa->nomem = 0;
}

static void fa_free(falru_t *fa)
{
    fa_clear(fa);
    free(fa->prev); free(fa->next); free(fa->node);
    free(fa->dkeys); free(fa->dblks);
    memset(fa, 0, sizeof(*fa));
}

/* An empty LRU of cap keys; -1 (nothing left allocated) if the memory is
 * not there. */
static int fa_init(falru_t *fa, int64_t cap)
{
    memset(fa, 0, sizeof(*fa));
    fa->cap = cap;
    fa->prev = (int32_t *)try_alloc(cap, sizeof(int32_t));
    fa->next = (int32_t *)try_alloc(cap, sizeof(int32_t));
    fa->node = (uint32_t **)try_alloc(cap, sizeof(uint32_t *));
    fa->dkeys = (uint64_t *)try_alloc(16, sizeof(uint64_t));
    fa->dblks = (uint32_t **)try_alloc(16, sizeof(uint32_t *));
    if (!fa->prev || !fa->next || !fa->node || !fa->dkeys || !fa->dblks) {
        fa_free(fa);
        return -1;
    }
    fa->dcap = 16;
    memset(fa->dkeys, 0xff, 16 * sizeof(uint64_t));
    fa_clear(fa);
    return 0;
}

/* The directory entry (open addressing, linear probing) of block b in
 * keys[0..mask]: b's own, or the free entry where b would go. */
static uint64_t fa_probe(const uint64_t *keys, uint64_t mask, uint64_t b)
{
    uint64_t i = mix64(b) & mask;
    while (keys[i] != FA_NONE && keys[i] != b) i = (i + 1) & mask;
    return i;
}

/* Double the directory; -1 (directory unchanged) if the memory is not
 * there. */
static int fa_grow(falru_t *fa)
{
    uint64_t ncap = fa->dcap * 2, i, j;
    uint64_t *nk = (uint64_t *)try_alloc((int64_t)ncap, sizeof(uint64_t));
    uint32_t **nb = (uint32_t **)try_alloc((int64_t)ncap, sizeof(uint32_t *));
    if (!nk || !nb) { free(nk); free(nb); return -1; }
    memset(nk, 0xff, ncap * sizeof(uint64_t));
    for (i = 0; i < fa->dcap; i++) {
        if (fa->dkeys[i] == FA_NONE) continue;
        j = fa_probe(nk, ncap - 1, fa->dkeys[i]);
        nk[j] = fa->dkeys[i]; nb[j] = fa->dblks[i];
    }
    free(fa->dkeys); free(fa->dblks);
    fa->dkeys = nk; fa->dblks = nb; fa->dcap = ncap;
    return 0;
}

/* Point the memo at block b, mapped (every slot zero) on its first touch.
 * -1 if the memory is not there: the LRU is then marked nomem and every
 * later touch gets the spare slot, so the per-line and per-page loops
 * need no error check; the drain reports the mark once it ends. */
static int fa_block(falru_t *fa, uint64_t b)
{
    uint64_t i;
    void *blk;
    if (fa->nomem) return -1;
    i = fa_probe(fa->dkeys, fa->dcap - 1, b);
    if (fa->dkeys[i] != b) {
        if ((fa->dused + 1) * 10 > fa->dcap * 7) {
            if (fa_grow(fa)) goto lost;
            i = fa_probe(fa->dkeys, fa->dcap - 1, b);
        }
        blk = mmap(0, FA_BLOCK_BYTES, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (blk == MAP_FAILED) goto lost;
        fa->dkeys[i] = b; fa->dblks[i] = (uint32_t *)blk; fa->dused++;
    }
    fa->bkey = b; fa->blk = fa->dblks[i];
    return 0;
lost:
    fa->nomem = 1;
    fa->bkey = FA_NONE;
    return -1;
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
 * key's slot, valid until the LRU is cleared. */
static int fa_touch(falru_t *fa, int64_t key, uint32_t **slot)
{
    uint64_t b = (uint64_t)key >> FA_BITS;
    uint32_t *s, v;
    int32_t nd;
    if (b != fa->bkey && fa_block(fa, b)) { *slot = &fa->spare; return 0; }
    s = fa->blk + ((uint64_t)key & (FA_KEYS - 1));
    v = *s;
    nd = (int32_t)(v >> 1) - 1;
    *slot = s;
    if (nd >= 0) {
        if (fa->tail != nd) { fa_unlink(fa, nd); fa_push_tail(fa, nd); }
        return 1;
    }
    if (fa->size >= fa->cap) {
        nd = fa->head;
        fa_unlink(fa, nd);
        *fa->node[nd] &= 1u;
    } else {
        nd = (int32_t)fa->size++;
    }
    fa->node[nd] = s;
    *s = ((uint32_t)(nd + 1) << 1) | (v & 1u);
    fa_push_tail(fa, nd);
    return 0;
}

/* ---- set-associative LRU: rotating sets ------------------------------- */
/* A set of `ways` ways keeps its keys in LRU order around a ring: the LRU
 * key at way rot, the MRU key at way rot + used - 1 (mod ways).  rot stays
 * 0 until the set fills, so the occupied ways are always [0, used).  A
 * miss in a full set overwrites the LRU way and advances rot, so nothing
 * shifts; a hit moves its key to the MRU way, shifting only the ways
 * between the two, around the ring (plain loops: a few ways at most, and
 * none for a hit on the MRU way).  D (NULL: none) holds a dirty byte per
 * way that moves with its key: a miss sets it to f, a hit ORs f into it,
 * and a dirty victim goes to *ev.  Returns 1 for a hit.  Always inlined,
 * so the NULL D of the TLB folds away. */
static inline __attribute__((always_inline)) int ring_access(
    int64_t *S, uint8_t *D, int32_t *occ, int32_t *rot, int64_t ways,
    int64_t key, uint8_t f, int64_t *ev)
{
    int32_t used = *occ, r = *rot, mru = r + used - 1, j;
    if (mru >= ways) mru -= (int32_t)ways;
    /* MRU to LRU: ways mru..0, then (full sets only) ways-1..mru+1 */
    for (j = mru; j >= 0; j--)
        if (S[j] == key) goto hit;
    for (j = used - 1; j > mru; j--)
        if (S[j] == key) goto hit;
    if (used < ways) {
        j = used; *occ = used + 1;
    } else {
        j = r; *rot = r + 1 == ways ? 0 : r + 1;
        if (D && D[j]) *ev = S[j];
    }
    S[j] = key;
    if (D) D[j] = f;
    return 0;
hit:
    if (D) f |= D[j];
    if (j > mru) {
        /* around the ring: ways j+1..ways-1 move down one, way 0 to the
         * last way, then on from way 0 */
        for (; j < ways - 1; j++) { S[j] = S[j + 1]; if (D) D[j] = D[j + 1]; }
        S[j] = S[0];
        if (D) D[j] = D[0];
        j = 0;
    }
    for (; j < mru; j++) { S[j] = S[j + 1]; if (D) D[j] = D[j + 1]; }
    S[mru] = key;
    if (D) D[mru] = f;
    return 1;
}

/* ---- two-level TLB ---------------------------------------------------- */
/* Single-set levels use the FA LRU; set-associative levels are rotating
 * sets, indexed by mask when the set count is a power of two. */

typedef struct {
    int64_t num_sets, ways, mask;
    int64_t *ln;
    int32_t *occ, *rot;
    falru_t fa;
} tlblvl_t;

struct tlb {
    int nlev;
    tlblvl_t lv[2];
};
typedef struct tlb tlb_t;

/* 0, or -1 (nothing left allocated) if the memory is not there. */
static int tlblvl_init(tlblvl_t *lv, int64_t num_sets, int64_t ways)
{
    lv->num_sets = num_sets; lv->ways = ways;
    lv->mask = (num_sets & (num_sets - 1)) ? -1 : num_sets - 1;
    lv->ln = 0; lv->occ = 0; lv->rot = 0;
    if (num_sets == 1) return fa_init(&lv->fa, ways);
    lv->ln = (int64_t *)try_alloc(num_sets * ways, sizeof(int64_t));
    lv->occ = (int32_t *)calloc((size_t)num_sets, sizeof(int32_t));
    lv->rot = (int32_t *)calloc((size_t)num_sets, sizeof(int32_t));
    if (lv->ln && lv->occ && lv->rot) return 0;
    free(lv->ln); free(lv->occ); free(lv->rot);
    lv->ln = 0; lv->occ = 0; lv->rot = 0;
    return -1;
}

static void tlblvl_free(tlblvl_t *lv)
{
    if (lv->num_sets == 1) fa_free(&lv->fa);
    else { free(lv->ln); free(lv->occ); free(lv->rot); }
}

void tlb_free(tlb_t *t)
{
    int k;
    for (k = 0; k < t->nlev; k++) tlblvl_free(&t->lv[k]);
    free(t);
}

/* NULL if the memory is not there. */
tlb_t *tlb_new(int64_t n1, int64_t w1, int64_t n2, int64_t w2)
{
    tlb_t *t = (tlb_t *)calloc(1, sizeof(tlb_t));
    if (!t) return 0;
    if (tlblvl_init(&t->lv[0], n1, w1)) { free(t); return 0; }
    t->nlev = 1;
    if (n2) {
        if (tlblvl_init(&t->lv[1], n2, w2)) { tlb_free(t); return 0; }
        t->nlev = 2;
    }
    return t;
}

/* Empty every level in place (no allocation, so it cannot fail). */
void tlb_reset(tlb_t *t)
{
    int k;
    for (k = 0; k < t->nlev; k++) {
        tlblvl_t *lv = &t->lv[k];
        if (lv->num_sets == 1) fa_clear(&lv->fa);
        else {
            memset(lv->occ, 0, (size_t)lv->num_sets * sizeof(int32_t));
            memset(lv->rot, 0, (size_t)lv->num_sets * sizeof(int32_t));
        }
    }
}

/* One page through one level; 1 for a hit.  Always inlined, like
 * tlb_page and seg_pages: the drain's page loops then hold the whole
 * set-associative path and their counters in registers. */
static inline __attribute__((always_inline)) int tlblvl_access(tlblvl_t *lv, int64_t page)
{
    int64_t s;
    if (lv->num_sets == 1) {
        uint32_t *slot;
        return fa_touch(&lv->fa, page, &slot);
    }
    s = lv->mask >= 0 ? (page & lv->mask) : pmod(page, lv->num_sets);
    return ring_access(lv->ln + s * lv->ways, 0, lv->occ + s, lv->rot + s,
                       lv->ways, page, 0, 0);
}

/* One page through both levels; stats += {l1 hit, l1 miss, l2 hit, l2
 * miss}.  Returns 1 for a page walk (a miss at the last level). */
static inline __attribute__((always_inline)) int tlb_page(
    tlb_t *t, int64_t page, int64_t *stats)
{
    if (tlblvl_access(&t->lv[0], page)) { stats[0]++; return 0; }
    stats[1]++;
    if (t->nlev == 1) return 1;
    if (tlblvl_access(&t->lv[1], page)) { stats[2]++; return 0; }
    stats[3]++;
    return 1;
}

/* Whether a fully associative level could not map a block (see
 * fa_block). */
static int tlb_nomem(const tlb_t *t)
{
    int k;
    for (k = 0; k < t->nlev; k++)
        if (t->lv[k].num_sets == 1 && t->lv[k].fa.nomem) return 1;
    return 0;
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
static inline __attribute__((always_inline)) int64_t seg_pages(
    tlb_t *t, int64_t base, int64_t stride, int64_t count, int64_t elem,
    int64_t page, int64_t *stats)
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
    int32_t *occ, *rot;             /* rot: LRU rotation offsets */
    uint64_t *rng;                  /* random policy state; NULL = LRU */
} level_t;

typedef struct {
    falru_t sh;                     /* FA-LRU shadow + seen bits */
    int64_t *sconf;                 /* conflict misses per set, this drain */
    int32_t *stouch;                /* sets with sconf != 0 */
    int64_t nstouch;
} pmulvl_t;

typedef struct {                    /* one level's op stream */
    int64_t cap, fcap, rcap;        /* lines, probe, cov; fill; refs */
    int64_t *lines, *refs;
    uint8_t *probe, *fill, *cov;
} opbuf_t;

/* What a drain needs only while it runs: each segment's distinct line
 * count, the two op streams the level passes alternate between, and the
 * fold records.  It belongs to the replay thread that runs the drain, not
 * to a hierarchy (a thread drains one hierarchy at a time), and every
 * array is mapped, never malloc'd, so no replay thread's allocator arena
 * grows to hold op buffers. */
typedef struct {
    int64_t *dist, dcap;
    opbuf_t buf[2];
    int64_t *fold, fcap;
} scratch_t;

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
    int64_t *out;
    /* with a PMU: attribute its misses to references (PMU_ATTRIB) or
     * only count them (PMU_COUNTERS) */
    int attrib;
};
typedef struct hier hier_t;

void hier_free(hier_t *h);

/* NULL if the memory is not there. */
hier_t *hier_new(int64_t nlev, int64_t line, int64_t page, tlb_t *tlb,
                 int64_t pf_max_stride, int64_t pf_train,
                 int64_t pf_streams, int pf_cross, int64_t *out)
{
    hier_t *h = (hier_t *)calloc(1, sizeof(hier_t));
    if (!h) return 0;
    h->nlev = nlev; h->line = line; h->page = page; h->tlb = tlb;
    h->width = ROW_FIXED + 3 * nlev;
    h->nout = OUT_LEVELS + 9 * nlev;
    h->pf_max = pf_max_stride; h->pf_train = pf_train;
    h->pf_streams = pf_streams; h->pf_cross = pf_cross;
    h->out = out;
    h->lv = (level_t *)calloc((size_t)nlev, sizeof(level_t));
    h->st_ref = (int64_t *)try_alloc(pf_streams, sizeof(int64_t));
    h->st_base = (int64_t *)try_alloc(pf_streams, sizeof(int64_t));
    h->st_delta = (int64_t *)try_alloc(pf_streams, sizeof(int64_t));
    h->st_conf = (int64_t *)try_alloc(pf_streams, sizeof(int64_t));
    h->st_dvalid = (uint8_t *)try_alloc(pf_streams, sizeof(uint8_t));
    if (h->lv && h->st_ref && h->st_base && h->st_delta && h->st_conf && h->st_dvalid)
        return h;
    hier_free(h);
    return 0;
}

void hier_level(hier_t *h, int64_t k, int64_t num_sets, int64_t ways,
                int64_t mask, int64_t *ln, uint8_t *dy, int32_t *occ,
                int32_t *rot, uint64_t *rng)
{
    level_t *L = &h->lv[k];
    L->num_sets = num_sets; L->ways = ways; L->mask = mask;
    L->ln = ln; L->dy = dy; L->occ = occ; L->rot = rot; L->rng = rng;
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

/* hier_pmu's modes: no PMU, the full attribution (3C totals, tally rows
 * per reference and per-set conflict counts) or its counters only (3C
 * totals and prefetch accuracy). */
#define PMU_OFF 0
#define PMU_ATTRIB 1
#define PMU_COUNTERS 2

/* Drop any PMU state; with a mode other than PMU_OFF, start a fresh one
 * (empty shadows, nothing seen) — attach_pmu on a warm hierarchy.  -1 (no
 * PMU left attached) if the memory is not there. */
int hier_pmu(hier_t *h, int mode)
{
    int64_t k;
    pmu_drop(h);
    if (mode == PMU_OFF) return 0;
    h->attrib = mode == PMU_ATTRIB;
    if (!(h->pmu = (pmulvl_t *)calloc((size_t)h->nlev, sizeof(pmulvl_t)))) return -1;
    for (k = 0; k < h->nlev; k++) {
        pmulvl_t *p = &h->pmu[k];
        int64_t sets = h->lv[k].num_sets;
        if (fa_init(&p->sh, sets * h->lv[k].ways)) goto fail;
        if (!h->attrib) continue;
        p->sconf = (int64_t *)calloc((size_t)sets, sizeof(int64_t));
        p->stouch = (int32_t *)try_alloc(sets, sizeof(int32_t));
        if (!p->sconf || !p->stouch) goto fail;
    }
    return 0;
fail:
    pmu_drop(h);
    return -1;
}

/* 0, or -1 as hier_pmu; an attached PMU restarts in its mode. */
int hier_reset(hier_t *h)
{
    h->st_n = 0;
    return h->pmu ? hier_pmu(h, h->attrib ? PMU_ATTRIB : PMU_COUNTERS) : 0;
}

static void opbuf_free(opbuf_t *b)
{
    map_free(b->lines, b->cap, sizeof(int64_t));
    map_free(b->probe, b->cap, 1);
    map_free(b->cov, b->cap, 1);
    map_free(b->fill, b->fcap, 1);
    map_free(b->refs, b->rcap, sizeof(int64_t));
    memset(b, 0, sizeof(*b));
}

void hier_free(hier_t *h)
{
    pmu_drop(h);
    free(h->st_ref); free(h->st_base); free(h->st_delta); free(h->st_conf);
    free(h->st_dvalid); free(h->lv);
    free(h);
}

/* An empty scratch, or NULL if the memory is not there. */
scratch_t *scratch_new(void)
{
    return (scratch_t *)map_new(1, sizeof(scratch_t));
}

void scratch_free(scratch_t *s)
{
    opbuf_free(&s->buf[0]); opbuf_free(&s->buf[1]);
    map_free(s->dist, s->dcap, sizeof(int64_t));
    map_free(s->fold, s->fcap, sizeof(int64_t));
    map_free(s, 1, sizeof(scratch_t));
}

/* Room for n ops, the first keep ops kept; refs (with_refs) as many as
 * lines.  -1 (the buffer left empty) if the memory is not there. */
static int opbuf_reserve(opbuf_t *b, int64_t n, int64_t keep, int with_fill, int with_refs)
{
    if (n > b->cap) {
        int64_t *l = (int64_t *)map_new(n, sizeof(int64_t));
        uint8_t *p = (uint8_t *)map_new(n, 1), *c = (uint8_t *)map_new(n, 1);
        if (!l || !p || !c) {
            map_free(l, n, sizeof(int64_t)); map_free(p, n, 1); map_free(c, n, 1);
            goto fail;
        }
        if (keep) {
            memcpy(l, b->lines, (size_t)keep * sizeof(int64_t));
            memcpy(p, b->probe, (size_t)keep);
            memcpy(c, b->cov, (size_t)keep);
        }
        map_free(b->lines, b->cap, sizeof(int64_t));
        map_free(b->probe, b->cap, 1);
        map_free(b->cov, b->cap, 1);
        map_free(b->fill, b->fcap, 1);
        b->lines = l; b->probe = p; b->cov = c; b->fill = 0; b->fcap = 0;
        b->cap = n;
    }
    if (with_fill && !b->fill) {
        if (!(b->fill = (uint8_t *)map_new(b->cap, 1))) goto fail;
        b->fcap = b->cap;
    }
    if (with_refs && b->rcap < b->cap) {
        int64_t *r = (int64_t *)map_new(b->cap, sizeof(int64_t));
        if (!r) goto fail;
        if (keep) memcpy(r, b->refs, (size_t)(keep < b->rcap ? keep : b->rcap) * sizeof(int64_t));
        map_free(b->refs, b->rcap, sizeof(int64_t));
        b->refs = r; b->rcap = b->cap;
    }
    return 0;
fail:
    opbuf_free(b);
    return -1;
}

/* Room in the next level's stream, m ops in and left ops of the pass to
 * go: half as much again, and at least two ops more, but never more than
 * the rest of the pass can add (two per op). */
static int opbuf_more(opbuf_t *b, int64_t m, int64_t left, int with_refs)
{
    int64_t want = b->cap + b->cap / 2, most = m + 2 * left;
    if (want < 4096) want = 4096;
    return opbuf_reserve(b, want < most ? want : most, m, 0, with_refs);
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

/* ---- one cache level ------------------------------------------------ */
/* level_pass replays n ops of stream b through level k, each op once and
 * in stream order:
 * - the set lookup and update, as the exact Cache does it.  LRU keeps
 *   each set's lines in LRU order around a ring, with a parallel dirty
 *   byte (ring_access).  The random policy keeps way positions stable
 *   (free ways are the prefix [occ, ways)) and draws once per eviction
 *   from the xorshift64 sequence, in chronological order across sets
 *   (the exact RandomPolicy's sequence);
 * - with pmu, the PMU's observe()/observe_install(): the shadow touch,
 *   the seen bit and the 3C class into the level counters, and prefetch
 *   accuracy from the covered flags pfcov (level 0).  Those are the
 *   counters-mode PMU's whole product; in attribution mode (h->attrib, a
 *   runtime flag, so the PMU copies of the pass serve both modes) the
 *   class also goes to the op's per-ref tally row and a conflict to its
 *   set's count;
 * - the op's output: its dirty eviction (an install, probe 0), then its
 *   demand miss, appended to the next level's stream nb, each with the
 *   op's reference id in attribution mode; past the last level (nb NULL)
 *   they count as DRAM lines written and read (and go to the op's tally
 *   row).
 * probe NULL: every op is a demand probe; fill NULL: a probe fills clean.
 * The level counters o are hits, misses, fills, writebacks, prefetch hits
 * (covered demand misses passed on) and replayed ops.  Returns the next
 * stream's length, -1 if it could not grow.  Always inlined: level_run's
 * constant policy and PMU arguments fold away in each copy. */
static inline __attribute__((always_inline)) int64_t level_pass(
    hier_t *h, int64_t k, const level_t *L, int rnd, int pmu,
    const opbuf_t *b, const uint8_t *probe, const uint8_t *fill,
    const uint8_t *pfcov, int64_t n, int64_t *o, opbuf_t *nb)
{
    /* Everything the loop reads or writes through a pointer is copied to
     * a local first: a byte store may alias any struct field, and would
     * otherwise force a reload of each after every dirty-bit write. */
    const int64_t num_sets = L->num_sets, ways = L->ways, mask = L->mask;
    int64_t *const ln = L->ln;
    uint8_t *const dy = L->dy;
    int32_t *const occ = L->occ, *const rot = L->rot;
    const int64_t *const lines = b->lines, *const refs = b->refs;
    const uint8_t *const cov = b->cov;
    uint64_t x = rnd ? *L->rng : 0;
    int64_t nhit = 0, nmiss = 0, wb = 0, pf = 0, m = 0, i;
    /* the next level's stream */
    int64_t cap = nb ? nb->cap : 0, *nl = nb ? nb->lines : 0, *nr = nb ? nb->refs : 0;
    uint8_t *np = nb ? nb->probe : 0, *nc = nb ? nb->cov : 0;
    /* PMU state; attr: attribute to references too */
    const int attr = pmu && h->attrib;
    pmulvl_t *p = pmu ? &h->pmu[k] : 0;
    falru_t *sh = pmu ? &p->sh : 0;
    int64_t *const tally = pmu ? h->tally : 0, width = pmu ? h->width : 0;
    int64_t *const sconf = pmu ? p->sconf : 0;
    int32_t *const stouch = pmu ? p->stouch : 0;
    int64_t nstouch = pmu ? p->nstouch : 0, c3[3] = {0, 0, 0}, useful = 0, poll = 0;
    for (i = 0; i < n; i++) {
        int64_t line = lines[i], ev = NO_VICTIM;
        int64_t s = mask >= 0 ? (line & mask) : pmod(line, num_sets);
        int64_t *S = ln + s * ways;
        uint8_t *D = dy + s * ways;
        int is_probe = probe ? probe[i] : 1, hit;
        /* the dirty bit the op gives the line: an install's is always set */
        uint8_t f = !is_probe ? 1 : fill ? fill[i] : 0;
        if (rnd) {
            int32_t used = occ[s], j;
            for (j = 0; j < used; j++)
                if (S[j] == line) break;
            hit = j < used;
            if (hit) D[j] |= f;
            else {
                if (used < ways) occ[s] = used + 1;
                else {
                    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                    j = (int32_t)(x % (uint64_t)ways);
                    if (D[j]) ev = S[j];
                }
                S[j] = line; D[j] = f;
            }
        } else {
            hit = ring_access(S, D, occ + s, rot + s, ways, line, f, &ev);
        }
        if (is_probe) { if (hit) nhit++; else nmiss++; }
        if (ev != NO_VICTIM) wb++;
        if (pmu) {
            uint32_t *slot;
            if (!is_probe) {
                /* Writeback install: tracked only when it allocated. */
                if (!hit) { fa_touch(sh, line, &slot); *slot |= 1u; }
            } else {
                int in_shadow = fa_touch(sh, line, &slot);
                if (pfcov && pfcov[i]) { if (hit) poll++; else useful++; }
                if (!hit) {
                    int c = 1;                      /* capacity */
                    if (!(*slot & 1u)) { *slot |= 1u; c = 0; }
                    else if (in_shadow) {           /* conflict */
                        if (attr && sconf[s]++ == 0) stouch[nstouch++] = (int32_t)s;
                        c = 2;
                    }
                    c3[c]++;
                    if (attr) tally[(refs[i] + 1) * width + ROW_FIXED + 3 * k + c]++;
                }
            }
        }
        if (nb && m + 2 > cap) {
            if (opbuf_more(nb, m, n - i, attr)) return -1;
            cap = nb->cap; nl = nb->lines; nr = nb->refs; np = nb->probe; nc = nb->cov;
        }
        if (ev != NO_VICTIM) {
            if (nb) {
                nl[m] = ev; np[m] = 0; nc[m] = 0;
                if (attr) nr[m] = refs[i];
                m++;
            } else if (attr) {
                tally[(refs[i] + 1) * width + 5]++;
            }
        }
        if (!hit && is_probe) {
            uint8_t cv = cov[i];
            pf += cv;
            if (nb) {
                nl[m] = line; np[m] = 1; nc[m] = cv;
                if (attr) nr[m] = refs[i];
                m++;
            } else if (attr) {
                tally[(refs[i] + 1) * width + 4]++;
            }
        }
    }
    if (rnd) *L->rng = x;
    o[0] += nhit; o[1] += nmiss; o[2] += nmiss; o[3] += wb; o[4] += pf; o[5] += n;
    if (!nb) {
        /* past the last level, demand misses read DRAM lines and dirty
         * evictions write them */
        h->out[OUT_DRAM] += nmiss; h->out[OUT_DRAM + 1] += wb;
    }
    if (pmu) {
        int64_t *o3 = h->out + OUT_LEVELS + 6 * h->nlev + 3 * k;
        o3[0] += c3[0]; o3[1] += c3[1]; o3[2] += c3[2];
        p->nstouch = nstouch;
    }
    if (pfcov) { h->out[OUT_PMU_PF] += useful; h->out[OUT_PMU_PF + 1] += poll; }
    return m;
}

/* Level k of a drain: stream b (n ops) in, nb (NULL past the last level)
 * out.  Level 0 sees demand probes only, each with its own fill bit;
 * below it a probe fills clean.  Not inlined into hier_drain: there the
 * pass copies would share registers with the expansion loops, and
 * counters-mode replay measured ~4 % slower. */
static __attribute__((noinline)) int64_t level_run(
    hier_t *h, int64_t k, const opbuf_t *b, int64_t n, opbuf_t *nb)
{
    const level_t *L = &h->lv[k];
    int64_t *o = h->out + OUT_LEVELS + 6 * k;
#define PASS(rnd, pmu, probe, fill, pfcov) \
    level_pass(h, k, L, rnd, pmu, b, probe, fill, pfcov, n, o, nb)
    if (k == 0 && h->pmu)
        return L->rng ? PASS(1, 1, 0, b->fill, b->cov) : PASS(0, 1, 0, b->fill, b->cov);
    if (k == 0)
        return L->rng ? PASS(1, 0, 0, b->fill, 0) : PASS(0, 0, 0, b->fill, 0);
    if (h->pmu)
        return L->rng ? PASS(1, 1, b->probe, 0, 0) : PASS(0, 1, b->probe, 0, 0);
    return L->rng ? PASS(1, 0, b->probe, 0, 0) : PASS(0, 0, b->probe, 0, 0);
#undef PASS
}

/* Move every touched tally row and per-set conflict count into the
 * scratch's fold buffer (rows first, then (level, set, count) triples)
 * and clear them. */
static const int64_t *fold(hier_t *h, scratch_t *sc)
{
    int64_t nset = 0, need, t, k, j, *f, W = h->width;
    for (k = 0; k < h->nlev; k++) nset += h->pmu[k].nstouch;
    need = h->ntl * W + 3 * nset;
    if (need > sc->fcap) {
        map_free(sc->fold, sc->fcap, sizeof(int64_t));
        sc->fcap = 0;
        if (!(sc->fold = (int64_t *)map_new(need, sizeof(int64_t)))) return DRAIN_NOMEM;
        sc->fcap = need;
    }
    f = sc->fold;
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
    return sc->fold;
}

/* Lines a drain expands and replays through the levels at a time (more
 * when one segment has more): bounds the op streams of the scratch. */
#define GROUP_LINES 4096

/* One drain: replay nseg queued segments (parallel columns) through the
 * whole hierarchy, in the scratch sc, which no other drain may use while
 * this one runs.  Counters go to out (zeroed first); returns the fold
 * records (a PMU attributing) or out, or NULL — before touching any
 * state — if a reference id is below -1 while a PMU attributes.  If
 * memory runs out it returns DRAIN_NOMEM: before any state changes when
 * the line buffers or the tally rows are too large (a huge segment),
 * otherwise with the hierarchy left unusable (a next level's stream, or a
 * block of slots a TLB level or a PMU shadow could not map). */
const int64_t *hier_drain(hier_t *h, scratch_t *sc, const int64_t *refs,
                          const int64_t *base, const int64_t *stride,
                          const int64_t *count, const uint8_t *write,
                          const int64_t *elem, int64_t nseg)
{
    int64_t *out = h->out, total = 0, room = 0, top = -1, g, g0, k;
    int64_t tst[4] = {0, 0, 0, 0};
    int attr = h->pmu && h->attrib;
    memset(out, 0, (size_t)h->nout * sizeof(int64_t));
    if (nseg > sc->dcap) {
        map_free(sc->dist, sc->dcap, sizeof(int64_t));
        sc->dcap = 0;
        if (!(sc->dist = (int64_t *)map_new(nseg, sizeof(int64_t)))) return DRAIN_NOMEM;
        sc->dcap = nseg;
    }
    for (g = 0; g < nseg; g++) {
        if (attr && refs[g] < -1) return 0;
        if (refs[g] > top) top = refs[g];
        sc->dist[g] = seg_lines(base[g], stride[g], count[g], elem[g], h->line, 0);
        if (sc->dist[g] > room) room = sc->dist[g];
        total += sc->dist[g];
    }
    if (room < GROUP_LINES) room = total < GROUP_LINES ? total : GROUP_LINES;
    if (opbuf_reserve(&sc->buf[0], room, 0, 1, attr) || (attr && tally_reserve(h, top)))
        return DRAIN_NOMEM;

    /* Whole segments in groups of at most room lines.  Each level takes
     * the ops of one group after another, so it sees its stream in the
     * order of one pass over the drain: the groups bound the scratch and
     * change no counter. */
    for (g0 = 0; g0 < nseg; g0 = g) {
        opbuf_t *cur = &sc->buf[0], *nxt = &sc->buf[1], *tmp;
        int64_t n = 0;
        /* The last group's passes may have grown this buffer as a next
         * level's stream, which drops its fill flags. */
        if (opbuf_reserve(cur, room, 0, 1, attr)) return DRAIN_NOMEM;

        /* Expansion, prefetch coverage and the TLB walk, in segment
         * order. */
        for (g = g0; g < nseg && n + sc->dist[g] <= room; g++) {
            int64_t d = sc->dist[g];
            int64_t cv = pf_cover(h, refs[g], base[g], stride[g], d);
            int64_t w = 0, j;
            if (h->tlb)
                w = seg_pages(h->tlb, base[g], stride[g], count[g], elem[g], h->page, tst);
            seg_lines(base[g], stride[g], count[g], elem[g], h->line, cur->lines + n);
            memset(cur->fill + n, write[g] ? 1 : 0, (size_t)d);
            memset(cur->cov + n, 0, (size_t)(d - cv));
            memset(cur->cov + n + d - cv, 1, (size_t)cv);
            if (attr) {
                int64_t *row = tally_row(h, refs[g]);
                row[1] += count[g] * elem[g];
                row[2] += d;
                row[3] += w;
                for (j = 0; j < d; j++) cur->refs[n + j] = refs[g];
            }
            n += d;
        }

        /* Level by level, one pass each; dirty evictions and demand
         * misses flow down, and past the last level to DRAM. */
        for (k = 0; k < h->nlev && n; k++) {
            opbuf_t *nb = k + 1 < h->nlev ? nxt : 0;
            if (nb && opbuf_reserve(nb, 0, 0, 0, attr)) return DRAIN_NOMEM;
            if ((n = level_run(h, k, cur, n, nb)) < 0) return DRAIN_NOMEM;
            tmp = cur; cur = nxt; nxt = tmp;
        }
    }
    for (k = 0; k < 4; k++) out[OUT_TLB + k] += tst[k];
    if (h->tlb && tlb_nomem(h->tlb)) return DRAIN_NOMEM;
    for (k = 0; h->pmu && k < h->nlev; k++)
        if (h->pmu[k].sh.nomem) return DRAIN_NOMEM;
    return attr ? fold(h, sc) : out;
}
"""

_lib = None
_NOMEM = None  # what a drain that ran out of memory returns (hier_nomem)
_STATE = {"tried": False, "error": None, "warned": False}


def _repo_build_dir() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "build", "native")


def _load():
    """Compile (once, lock-guarded) and dlopen the C core; None on failure."""
    global _lib, _NOMEM
    if _STATE["tried"]:
        return _lib
    _STATE["tried"] = True
    try:
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
        lib = ctypes.CDLL(sofile)
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
        _selftest(lib)
        _lib, _NOMEM = lib, lib.hier_nomem()
    except Exception as exc:  # pragma: no cover - depends on toolchain
        _STATE["error"] = f"{type(exc).__name__}: {exc}"
        _lib = None
    return _lib


def _compile(base: str, tag: str, sofile: str) -> None:
    import fcntl
    import shutil
    import subprocess

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
#: engine counts them.  Regenerate them from ``MemoryHierarchy([Cache("L1",
#: 192, 3, 64, "lru"), Cache("L2", 256, 2, 64, "random")],
#: prefetch=PrefetcherSpec("t", 16, 1, 2), tlb=TlbSpec(2, 0, 6, 3))`` under
#: ``attach_pmu()``, fed :data:`_SELFTEST_SEGMENTS`: its counters in the
#: layout of ``out`` (``_OUT_*``; a level's replayed ops are its probes
#: plus the writebacks of the level above), then one tally row per
#: reference in first-touch order and the (level, set, conflicts) rows.
_SELFTEST_OUT = [
    7, 14, 3, 11, 24, 8, 7, 21, 4, 7, 0, 3, 1,
    3, 25, 25, 10, 7, 28, 1, 24, 24, 8, 7, 35, 18, 7, 0, 18, 5, 1,
]
_SELFTEST_FOLD = [
    0, 64, 8, 1, 8, 1, 8, 0, 0, 8, 0, 0,
    1, 96, 12, 5, 9, 3, 4, 6, 0, 4, 4, 1,
    2, 64, 8, 5, 7, 4, 6, 1, 0, 6, 1, 0,
    1, 0, 1]

#: The self-test segments: (ref, base, stride, count, write), elements of
#: 8 bytes.  In the 3-way L1 the stream fills the set, rotates it, hits
#: the way at its offset (the shift wraps around the ring), hits the MRU
#: way with a write, rotates again, hits the way before the offset (its
#: dirty bit moving along) and evicts that line dirty; the 2-set dTLB-L2
#: rotates its set 0 and hits in it around the ring.
_SELFTEST_SEGMENTS = [
    (0, 0, 64, 3, 1), (1, 4096, 4096, 3, 0), (2, -8192, 64, 2, 1), (0, -8000, 64, 1, 1),
    (2, 64 * 4096, 4096, 4, 0), (1, 0, 128, 3, 0), (1, 0, 0, 1, 0), (2, 0, 0, 1, 1),
    (0, 512, 0, 1, 0), (1, 8, 0, 1, 0), (0, 9 * 64, 64, 3, 1), (1, 2 * 4096, 64 * 4096, 2, 0),
    (2, 8, 0, 1, 0), (1, 11 * 64, 117 * 64, 2, 0),
]


def _selftest(lib) -> None:
    """Drain :data:`_SELFTEST_SEGMENTS` through a tiny two-level hierarchy
    (one-set 3-way LRU L1, two-set 2-way random L2) with a two-entry
    fully-associative dTLB-L1, a 2-set 3-way dTLB-L2, a prefetcher and a
    PMU, and compare every counter with the exact engine's: catches a
    miscompiled or stale library in microseconds.  The stream drains
    twice, on fresh hierarchies: under an attributing PMU, which must
    return the fold records too, and under a counters-mode PMU, which must
    count the same and return no record."""
    counters_out = list(_SELFTEST_OUT)
    counters_out[_OUT_NREF] = counters_out[_OUT_NSET] = 0
    if _selftest_drain(lib, "attribution") != (_SELFTEST_OUT, _SELFTEST_FOLD):
        raise RuntimeError("native self-test mismatch")
    if _selftest_drain(lib, "counters") != (counters_out, None):
        raise RuntimeError("native self-test mismatch in the PMU's counters mode")


def _selftest_drain(lib, mode: str):
    """The self-test hierarchy's counter block after one drain of
    :data:`_SELFTEST_SEGMENTS` under a PMU in ``mode``, and the drain's
    fold records (``None`` if it returned the counter block instead)."""
    def ptr(values, dtype):
        arr = np.array(values, dtype=dtype)
        keep.append(arr)
        return arr.ctypes.data

    keep: List[np.ndarray] = []
    out = np.zeros(_OUT_LEVELS + 9 * 2, dtype=np.int64)
    tlb = lib.tlb_new(1, 2, 2, 3)
    h = lib.hier_new(2, 64, PAGE_SIZE, tlb, 16, 1, 2, 1, out.ctypes.data) if tlb else None
    scratch = lib.scratch_new()
    try:
        if h is None or scratch is None:
            raise RuntimeError("native self-test could not allocate its hierarchy")
        levels = [(1, 3, ptr([0], np.int32), None), (2, 2, None, ptr([RANDOM_SEED], np.uint64))]
        for k, (sets, ways, rot, rng) in enumerate(levels):
            lib.hier_level(
                h, k, sets, ways, sets - 1, ptr([0] * ways * sets, np.int64),
                ptr([0] * ways * sets, np.uint8), ptr([0] * sets, np.int32), rot, rng,
            )
        if lib.hier_pmu(h, _PMU_MODES[mode]):
            raise RuntimeError("native self-test could not allocate its PMU")
        ref, base, stride, count, write = zip(*_SELFTEST_SEGMENTS)
        rec = lib.hier_drain(
            h, scratch, ptr(ref, np.int64), ptr(base, np.int64), ptr(stride, np.int64),
            ptr(count, np.int64), ptr(write, np.uint8), ptr([8] * len(ref), np.int64),
            len(ref),
        )
        got = out.tolist()
        if rec == out.ctypes.data:
            return got, None
        return got, _unpack(rec, got[_OUT_NREF] * (_ROW_FIXED + 6) + 3 * got[_OUT_NSET])
    finally:
        if scratch:
            lib.scratch_free(scratch)
        if h:
            lib.hier_free(h)
        if tlb:
            lib.tlb_free(tlb)


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


def _addr(arr: Optional[np.ndarray]) -> Optional[int]:
    """The address of ``arr``'s data (``None``, NULL, for no array)."""
    return None if arr is None else arr.ctypes.data


def _unpack(ptr: int, n: int) -> List[int]:
    """The ``n`` int64 values at address ``ptr``."""
    return (ctypes.c_int64 * n).from_address(ptr)[:]


class NativeCache:
    """One cache level whose replay runs in the compiled level pass: an
    LRU level, or a random-replacement level with the exact xorshift64
    draw sequence.

    Each set holds ``_occ[s]`` lines in ways ``[0, _occ[s])`` of ``_ln``
    with a dirty byte each in ``_dy``.  An LRU set keeps them in LRU
    order around a ring starting at its rotation offset ``_rot[s]`` (0
    until the set fills); a random set keeps each line in its way.
    """

    def __init__(self, name: str, size_bytes: int, ways: int, line_size: int, policy: str):
        if policy not in FAST_POLICIES:
            raise SimulationError(
                f"{name}: the fast engine replays {' or '.join(sorted(FAST_POLICIES))} "
                f"replacement, not {policy!r}"
            )
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
        mask = set_mask(self.num_sets)
        self._cmask = -1 if mask is None else mask
        self._ln = np.full(self.num_sets * ways, -1, dtype=np.int64)
        self._dy = np.zeros(self.num_sets * ways, dtype=np.uint8)
        self._occ = np.zeros(self.num_sets, dtype=np.int32)
        self.policy_name = policy
        # The policy's state, which the compiled level updates in place:
        # each LRU set's rotation offset (its LRU way once the set is
        # full), or the random policy's one-element xorshift64 state.
        lru = policy == "lru"
        self._rot = np.zeros(self.num_sets, dtype=np.int32) if lru else None
        self._rng = None if lru else np.array([RANDOM_SEED], dtype=np.uint64)

    def _occupied_mask(self) -> np.ndarray:
        occ = np.repeat(self._occ.astype(np.int64), self.ways)
        pos = np.tile(np.arange(self.ways, dtype=np.int64), self.num_sets)
        return pos < occ

    def dirty_lines(self) -> List[int]:
        mask = self._occupied_mask() & (self._dy > 0)
        return self._ln[mask].tolist()

    def flush_dirty_count(self) -> int:
        return int((self._occupied_mask() & (self._dy > 0)).sum())

    def reset(self) -> None:
        self.stats.reset()
        self._ln.fill(-1)
        self._dy.fill(0)
        self._occ.fill(0)
        if self._rot is not None:
            self._rot.fill(0)
        if self._rng is not None:
            self._rng[0] = RANDOM_SEED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kib = self.size_bytes / 1024
        return f"{type(self).__name__}({self.name}: {kib:g} KiB, {self.ways}-way)"


class NativeTlb(Tlb):
    """The compiled twin of :class:`repro.memsim.tlb.Tlb` (a single-set
    level is the O(1) ``falru``): its pages go through the drain, and its
    levels hold only their geometry and the counts each drain adds."""

    level_class = TlbLevel

    def __init__(self, spec: TlbSpec):
        super().__init__(spec)
        l1, l2 = self.l1, self.l2
        tlb = _lib.tlb_new(
            l1.num_sets, l1.ways,
            l2.num_sets if l2 is not None else 0,
            l2.ways if l2 is not None else 0,
        )
        if tlb is None:
            raise SimulationError(f"the compiled TLB ({spec}) could not be allocated")
        self._tlb = tlb
        weakref.finalize(self, _lib.tlb_free, tlb)

    def _count(self, st) -> None:
        """Add ``st[0:4]`` = {L1 hits, L1 misses, L2 hits, L2 misses}."""
        self.l1.stats.hits += st[0]
        self.l1.stats.misses += st[1]
        if self.l2 is not None:
            self.l2.stats.hits += st[2]
            self.l2.stats.misses += st[3]

    def reset(self) -> None:
        super().reset()
        _lib.tlb_reset(self._tlb)


class _Lane:
    """One hierarchy's drains, in the order they were queued."""

    __slots__ = ("jobs", "active", "error")

    def __init__(self) -> None:
        self.jobs: collections.deque = collections.deque()
        # Queued for a replay thread or running on one: a lane is in the
        # ready queue at most once and held by at most one thread, so its
        # drains never run two at once.
        self.active = False
        # The first failure, held until a caller raises it; the drains
        # queued behind it are dropped.
        self.error: Optional[BaseException] = None


class _ReplayPool:
    """The replay threads of the process (see the module docstring):
    ``workers`` of them, started by the first drain, or none with one
    worker, when a lane's drains run on the caller's thread as it queues
    them.  A drain runs in a scratch area taken from an idle list (one
    per worker, or per concurrent inline caller).  At most ``workers``
    drains wait beyond those running; a caller queueing more blocks
    until one starts."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        # Reentrant: a finalizer that a collection runs while this thread
        # holds the lock (_free_state) takes it again.
        self._changed = threading.Condition(threading.RLock())
        self._ready: queue.SimpleQueue = queue.SimpleQueue()
        self._scratch: List[int] = []
        self._queued = 0
        self._started = False

    def submit(self, lane: _Lane, job: Callable[[int], None]) -> None:
        """Queue ``job(scratch)`` on ``lane``; first raise the lane's
        held error, if any."""
        with self._changed:
            if self.workers > 1 and not self._started:
                self._start()
            while self._queued >= self.workers:
                self._changed.wait()
            _raise_held(lane)
            lane.jobs.append(job)
            self._queued += 1
            if lane.active:
                return
            lane.active = True
        if self.workers > 1:
            self._ready.put(lane)
        else:
            while self._step(lane):
                pass

    def wait(self, lane: _Lane) -> None:
        """Block until ``lane`` has run every queued drain; raise its
        held error, if any, as :class:`~repro.errors.SimulationError`."""
        with self._changed:
            while lane.active:
                self._changed.wait()
            _raise_held(lane)

    def _start(self) -> None:
        """Map one scratch area per worker (on this thread) and start the
        workers."""
        self._scratch.extend([_new_scratch() for _ in range(self.workers)])
        for k in range(self.workers):
            threading.Thread(target=self._work, name=f"repro-replay-{k}", daemon=True).start()
        self._started = True

    def _work(self) -> None:
        while True:
            lane = self._ready.get()
            # A lane stays on the thread that runs it while it has drains
            # queued, so its hierarchy's state stays in that CPU's caches.
            while self._step(lane):
                pass

    def _step(self, lane: _Lane) -> bool:
        """Run ``lane``'s next drain; whether the lane has more."""
        with self._changed:
            job = lane.jobs.popleft()
            self._queued -= 1
            scratch = self._scratch.pop() if self._scratch else None
            self._changed.notify_all()
        done, error = False, None
        try:
            if scratch is None:
                scratch = _new_scratch()
            job(scratch)
            done = True
        except Exception as exc:  # held for the lane's next caller
            error = exc
        finally:
            with self._changed:
                if scratch is not None:
                    self._scratch.append(scratch)
                if not done:
                    if lane.error is None:
                        lane.error = error
                    self._queued -= len(lane.jobs)
                    lane.jobs.clear()
                more = lane.active = bool(lane.jobs)
                self._changed.notify_all()
        return more


def _raise_held(lane: _Lane) -> None:
    """Raise (and forget) ``lane``'s held error."""
    error, lane.error = lane.error, None
    if error is None:
        return
    if isinstance(error, SimulationError):
        raise error
    raise SimulationError(f"replay failed: {type(error).__name__}: {error}") from error


def _new_scratch() -> int:
    scratch = _lib.scratch_new()
    if scratch is None:
        raise SimulationError("the compiled replay scratch could not be allocated")
    return scratch


_POOL: Optional[_ReplayPool] = None
_POOL_LOCK = threading.Lock()


def _pool() -> _ReplayPool:
    """The process's replay pool, made on first use with one worker per
    CPU the process may run on."""
    global _POOL
    if _POOL is None:
        with _POOL_LOCK:
            if _POOL is None:
                try:
                    cpus = len(os.sched_getaffinity(0))
                except AttributeError:  # no affinity masks on this platform
                    cpus = os.cpu_count() or 1
                _POOL = _ReplayPool(max(1, cpus))
    return _POOL


def _forget_pool() -> None:
    """A forked child has none of its parent's replay threads."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _free_state(lane: _Lane, state: int) -> None:
    """Free a hierarchy's C state once no drain of it is queued or
    running (at exit, a live hierarchy's drain may still be)."""
    try:
        _pool().wait(lane)
    except SimulationError:
        pass  # the hierarchy is gone: nobody reads its error
    _lib.hier_free(state)


class NativeHierarchy(MemoryHierarchy):
    """Memory hierarchy driving the compiled replay core.

    Same construction contract, counters, flush and snapshot behaviour
    as the exact hierarchy.  Segment batches queue as columns, and once
    ``_BUF_OPS`` accesses are queued (or at :meth:`submit`) the queue
    goes to the hierarchy's replay lane as one compiled drain, so the
    Python overhead is per batch, not per segment.  Drains run on the
    replay threads in the order they were queued (:class:`_ReplayPool`);
    :meth:`drain`, :meth:`flush`, :meth:`attach_pmu` and :meth:`reset`
    wait for them.  Until a drain is waited for, nothing of the
    hierarchy's state may be read.
    """

    engine = "fast"

    def __init__(
        self,
        caches,
        prefetch: PrefetcherSpec = NO_PREFETCH,
        tlb: Optional[TlbSpec] = None,
        line_size: int = 64,
    ):
        # The compiled TLB replaces the exact one, which is never built.
        super().__init__(caches, prefetch=prefetch, tlb=None, line_size=line_size)
        if tlb is not None:
            self.tlb = NativeTlb(tlb)
        # Queued column batches, in stream order, and the lane that
        # replays them.
        self._buf_cols: List[SegmentBatch] = []
        self._buf_ops = 0
        self._lane = _Lane()
        self.replay_busy_ns = 0
        # Whether the attached PMU (if any) attributes to references.
        self._attribute = False
        # The C state: it points at the caches' arrays and the TLB, owns
        # the prefetch stream table and the PMU state, and writes each
        # drain's counters into ``_out``.
        self._out = np.zeros(_OUT_LEVELS + 9 * len(self.caches), dtype=np.int64)
        spec = self.prefetcher.spec
        state = _lib.hier_new(
            len(self.caches), line_size, PAGE_SIZE,
            self.tlb._tlb if self.tlb is not None else None,
            spec.max_stride_lines, spec.train_lines, max(1, spec.streams),
            1 if spec.cross_segment else 0, _addr(self._out),
        )
        if state is None:
            raise SimulationError("the compiled hierarchy could not be allocated")
        self._state = state
        weakref.finalize(self, _free_state, self._lane, state)
        for k, cache in enumerate(self.caches):
            _lib.hier_level(
                state, k, cache.num_sets, cache.ways, cache._cmask,
                _addr(cache._ln), _addr(cache._dy), _addr(cache._occ), _addr(cache._rot),
                _addr(cache._rng),
            )

    # -- buffer management ---------------------------------------------------

    def drain(self) -> None:
        """Replay any buffered ops and wait until every drain of this
        hierarchy has run (idempotent).  A drain that failed raises its
        error here, as :class:`~repro.errors.SimulationError`."""
        self.submit()
        _pool().wait(self._lane)

    def submit(self) -> None:
        """Queue the buffered ops on the hierarchy's lane as one drain,
        without waiting for it."""
        queued = self._buf_cols
        if not queued:
            return
        self._buf_cols = []
        self._buf_ops = 0
        if len(queued) == 1:
            columns = queued[0]
        else:
            columns = [np.concatenate(cols) for cols in zip(*queued)]
        columns = tuple(
            np.ascontiguousarray(col, dtype) for col, dtype in zip(columns, _COLUMN_DTYPES)
        )
        _pool().submit(self._lane, functools.partial(self._replay, columns))

    def attach_pmu(self, mode: str = "attribution"):
        self.drain()
        pmu = super().attach_pmu(mode)
        self._attribute = mode == "attribution"
        if _lib.hier_pmu(self._state, _PMU_MODES[mode]):
            self._pmu_lost()
        return pmu

    def reset(self) -> None:
        self._buf_cols = []
        self._buf_ops = 0
        _pool().wait(self._lane)
        super().reset()
        if _lib.hier_reset(self._state):
            self._pmu_lost()

    def _pmu_lost(self) -> None:
        """The C core could not allocate the PMU's state and holds none:
        detach the Python side too, and fail the cell."""
        self.pmu = None
        raise SimulationError("the compiled PMU state could not be allocated")

    def flush(self) -> None:
        self.drain()
        super().flush()

    # -- segment intake ------------------------------------------------------

    def process_segment(self, seg: Segment) -> None:
        """Queue one segment, as a batch of one row."""
        self.process_segments(SegmentBatch(*(np.array([value]) for value in seg)))

    def process_segments(self, batch: SegmentBatch) -> None:
        """Queue a batch's columns as they are, submitting a drain right
        after each segment that brings the queue to ``_BUF_OPS`` ops.  Everything
        per-segment (line/page expansion, prefetcher training, TLB walks,
        PMU attribution) happens in the compiled drain, in segment order."""
        count = batch.count
        positive = count > 0
        if not positive.all():
            batch = SegmentBatch(*(col[positive] for col in batch))
            count = batch.count
        n = len(count)
        if not n:
            return
        cum = np.cumsum(count) + self._buf_ops
        start = 0
        while True:
            stop = int(np.searchsorted(cum, _BUF_OPS, side="left")) + 1
            if stop > n:
                self._buf_cols.append(SegmentBatch(*(col[start:] for col in batch)))
                self._buf_ops = int(cum[-1])
                return
            self._buf_cols.append(SegmentBatch(*(col[start:stop] for col in batch)))
            self.submit()
            if stop == n:
                return
            cum -= cum[stop - 1]
            start = stop

    # -- deferred replay -----------------------------------------------------

    def _replay(self, columns, scratch: int) -> None:
        """One drain, on a replay thread (or inline): replay the queued
        columns in one compiled call, then add up its counters (and, with
        an attributing PMU, fold its records)."""
        refs, base, stride, count, write, elem = columns
        start = time.perf_counter_ns()
        rec = _lib.hier_drain(
            self._state, scratch, _addr(refs), _addr(base), _addr(stride), _addr(count),
            _addr(write), _addr(elem), len(refs),
        )
        self.replay_busy_ns += time.perf_counter_ns() - start
        if rec is None:
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
        replayed = 0
        for cache in self.caches:
            stats = cache.stats
            stats.hits += o[at]
            stats.misses += o[at + 1]
            stats.fills += o[at + 2]
            stats.writebacks += o[at + 3]
            stats.prefetch_hits += o[at + 4]
            replayed += o[at + 5]
            at += 6
        add_replayed_ops(replayed)
        pmu = self.pmu
        if pmu is None:
            return
        for lvl in pmu.levels:
            lvl.compulsory += o[at]
            lvl.capacity += o[at + 1]
            lvl.conflict += o[at + 2]
            at += 3
        pmu.prefetch_useful += o[_OUT_PMU_PF]
        pmu.prefetch_polluting += o[_OUT_PMU_PF + 1]
        if self._attribute:
            self._fold_pmu(o, rec, int(refs[-1]))

    def _fold_pmu(self, o, rec, last_ref) -> None:
        """Fold one drain's fold records (see the C ``fold``) into the
        :class:`~repro.memsim.pmu.Pmu` dictionaries."""
        pmu = self.pmu
        levels = pmu.levels
        pmu.current_ref = last_ref
        width = _ROW_FIXED + 3 * len(levels)
        nrows = o[_OUT_NREF] * width
        flat = _unpack(rec, nrows + 3 * o[_OUT_NSET])
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
