"""Runtime-compiled C core for the fast replay engine.

The batched columnar engine (:mod:`repro.memsim.columnar`) removed the
per-reference Python call chain, but its scalar fallbacks — per-op dict
replay of conflicting set groups, the per-op PMU observation loop — are
still interpreter-bound.  This module compiles those loops to C at first
use and drives them over NumPy op columns:

* ``lru_batch`` / ``rand_batch`` — per-set array replay of one op batch
  (LRU order as a position array, linear way scan; the xorshift64 PRNG
  sequence of the random policy in chronological global order);
* ``tlb_batch`` — the two-level TLB page walk, with per-segment walk
  counts for PMU attribution;
* ``pmu_batch`` — the 3C observer: an open-addressing hash set for the
  *seen* lines plus a hash-map + doubly-linked-list fully-associative
  LRU shadow, emitting per-op class codes that NumPy aggregates into
  the per-reference tables;
* ``assemble`` — construction of the next level's op stream (dirty
  eviction installs preceding demand probes, source order preserved).

Everything is semantics-for-semantics the same as the pure-Python fast
engine, which remains both the oracle's twin and the fallback: the
toolchain is probed once, and any failure (no compiler, no cffi, a
read-only tree) silently selects the Python classes.  ``REPRO_NATIVE=0``
forces the fallback explicitly (the differential tests use it to cover
all three engines).

Compilation uses cffi in ABI (``dlopen``) mode — a plain shared object
built with the system C compiler, no Python headers or setuptools
involved — cached under ``build/native/`` keyed by a hash of the C
source, with an ``flock`` guarding concurrent builds (the figure
pipeline's worker pool may import this module from many processes).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.exec.trace import Segment, SegmentBatch
from repro.memsim.cache import CacheStats, set_mask
from repro.memsim.columnar import _NP_MIN, _PRNG_SEED

# The compiled replay loops make per-op cost tiny, so the economics differ
# from the pure-Python engine: the dominant cost is the *fixed* numpy/ffi
# overhead per drained batch.  Buffer aggressively: segments of any size
# accumulate, and the buffer drains right after the segment that brings
# it to ``_BUF_OPS`` queued ops, whether segments arrive one at a time or
# as column batches.
_BUF_OPS = 32768
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.prefetch import NO_PREFETCH, PrefetcherSpec
from repro.memsim.tlb import PAGE_SIZE, TlbSpec

#: Environment variable gating the native core ("0"/"off"/"no" disables).
NATIVE_ENV = "REPRO_NATIVE"

#: Environment variable overriding the build cache directory.
NATIVE_CACHE_ENV = "REPRO_NATIVE_CACHE"

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
void tlb_batch(int64_t n1, int64_t w1, int64_t *t1, int32_t *o1,
               int64_t n2, int64_t w2, int64_t *t2, int32_t *o2,
               const int64_t *pages, const int64_t *bounds, int64_t nseg,
               int32_t *walks, int64_t *stats);
int64_t assemble(int64_t n, const int64_t *lines, const uint8_t *probe,
                 const uint8_t *missed, const int64_t *evict,
                 const uint8_t *covered, const int64_t *refs,
                 int64_t *nl, uint8_t *npb, uint8_t *ncv, int64_t *nrf,
                 int64_t *prefetched);
typedef struct pmu_state pmu_state_t;
pmu_state_t *pmu_state_new(int64_t capacity_lines);
void pmu_state_free(pmu_state_t *st);
void pmu_state_reset(pmu_state_t *st);
void pmu_batch(pmu_state_t *st, const int64_t *lines, const uint8_t *probe,
               const uint8_t *hits, const uint8_t *missed,
               const uint8_t *covered, int64_t n, int64_t num_sets,
               int64_t mask, uint8_t *cls, int32_t *conf_sets, int64_t *out);
void seg_measure(const int64_t *base, const int64_t *stride,
                 const int64_t *count, const int64_t *elem, int64_t nseg,
                 int64_t line, int64_t page, int tlb_on,
                 int64_t *distinct, int64_t *npages);
void seg_expand(const int64_t *base, const int64_t *stride,
                const int64_t *count, const int64_t *elem, int64_t nseg,
                int64_t line, const int64_t *loff, int64_t *lines_out,
                int64_t page, int tlb_on, const int64_t *poff,
                int64_t *pages_out);
void coverage_batch(const int64_t *refs, const int64_t *bases,
                    const int64_t *strides, const int64_t *distinct,
                    int64_t nseg, int64_t line, int64_t max_stride,
                    int64_t train, int64_t nstreams, int cross_on,
                    int64_t *st_ref, int64_t *st_base, int64_t *st_delta,
                    int64_t *st_conf, uint8_t *st_dvalid, int64_t *st_n,
                    int64_t *cov_out, int64_t *counters);
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

/* ---- set-associative LRU replay ------------------------------------- */
/* Per set: lines in LRU order (slot 0 = victim, slot occ-1 = MRU) plus a
 * parallel dirty byte; identical observable behaviour to the ordered-dict
 * state of the Python fast engine. */

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

/* ---- two-level TLB walk ---------------------------------------------- */

static int tlb_access(int64_t num_sets, int64_t ways, int64_t *ln,
                      int32_t *occ, int64_t page)
{
    int64_t s = pmod(page, num_sets);
    int64_t *L = ln + s * ways;
    int32_t o = occ[s], j, k;
    for (j = o - 1; j >= 0; j--) {
        if (L[j] == page) {
            for (k = j; k < o - 1; k++) L[k] = L[k + 1];
            L[o - 1] = page;
            return 1;
        }
    }
    if (o >= ways) {
        for (k = 0; k < o - 1; k++) L[k] = L[k + 1];
        L[o - 1] = page;
    } else {
        L[o] = page; occ[s] = o + 1;
    }
    return 0;
}

/* Pages of several segments back to back; bounds[g]..bounds[g+1] is
 * segment g's slice, walks[g] its page-walk count (misses at the last
 * level), stats accumulates {l1 hits, l1 misses, l2 hits, l2 misses}. */
void tlb_batch(int64_t n1, int64_t w1, int64_t *t1, int32_t *o1,
               int64_t n2, int64_t w2, int64_t *t2, int32_t *o2,
               const int64_t *pages, const int64_t *bounds, int64_t nseg,
               int32_t *walks, int64_t *stats)
{
    int64_t h1 = 0, m1 = 0, h2 = 0, m2 = 0, g, i;
    for (g = 0; g < nseg; g++) {
        int32_t w = 0;
        for (i = bounds[g]; i < bounds[g + 1]; i++) {
            int64_t page = pages[i];
            if (tlb_access(n1, w1, t1, o1, page)) { h1++; continue; }
            m1++;
            if (n2) {
                if (tlb_access(n2, w2, t2, o2, page)) h2++;
                else { m2++; w++; }
            } else w++;
        }
        if (walks) walks[g] = w;
    }
    stats[0] += h1; stats[1] += m1; stats[2] += h2; stats[3] += m2;
}

/* ---- next-level op stream assembly ----------------------------------- */
/* For each op: its dirty eviction (an install, probe=0) precedes its
 * demand probe; source order preserved; installs inherit the causing
 * op's reference id.  Returns the new op count; *prefetched counts the
 * covered demand misses (this level's prefetch_hits credit). */

int64_t assemble(int64_t n, const int64_t *lines, const uint8_t *probe,
                 const uint8_t *missed, const int64_t *evict,
                 const uint8_t *covered, const int64_t *refs,
                 int64_t *nl, uint8_t *npb, uint8_t *ncv, int64_t *nrf,
                 int64_t *prefetched)
{
    int64_t m = 0, pf = 0, i;
    for (i = 0; i < n; i++) {
        if (evict[i] != EVICT_NONE) {
            nl[m] = evict[i]; npb[m] = 0; ncv[m] = 0;
            if (refs) nrf[m] = refs[i];
            m++;
        }
        if (missed[i] && (!probe || probe[i])) {
            uint8_t cv = covered[i];
            nl[m] = lines[i]; npb[m] = 1; ncv[m] = cv;
            if (refs) nrf[m] = refs[i];
            if (cv) pf++;
            m++;
        }
    }
    *prefetched = pf;
    return m;
}

/* ---- PMU: seen hash set + FA-LRU shadow ------------------------------- */

static uint64_t mix64(uint64_t x)
{
    x ^= x >> 33; x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33; x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

typedef struct {
    int64_t *keys;       /* EMPTY_KEY = empty slot */
    uint64_t cap;        /* power of two */
    uint64_t size;
} hset;

static hset *hset_new(uint64_t cap0)
{
    hset *s = (hset *)malloc(sizeof(hset));
    s->cap = cap0; s->size = 0;
    s->keys = (int64_t *)malloc(cap0 * sizeof(int64_t));
    { uint64_t i; for (i = 0; i < cap0; i++) s->keys[i] = EMPTY_KEY; }
    return s;
}

static void hset_clear(hset *s)
{
    s->size = 0;
    { uint64_t i; for (i = 0; i < s->cap; i++) s->keys[i] = EMPTY_KEY; }
}

static void hset_free(hset *s) { free(s->keys); free(s); }

static void hset_grow(hset *s)
{
    uint64_t ncap = s->cap * 2, mask = ncap - 1, i, j;
    int64_t *nk = (int64_t *)malloc(ncap * sizeof(int64_t));
    for (i = 0; i < ncap; i++) nk[i] = EMPTY_KEY;
    for (i = 0; i < s->cap; i++) {
        int64_t k = s->keys[i];
        if (k == EMPTY_KEY) continue;
        j = mix64((uint64_t)k) & mask;
        while (nk[j] != EMPTY_KEY) j = (j + 1) & mask;
        nk[j] = k;
    }
    free(s->keys);
    s->keys = nk; s->cap = ncap;
}

/* Add if absent; returns 1 if the key was already present. */
static int hset_add(hset *s, int64_t key)
{
    uint64_t mask = s->cap - 1;
    uint64_t i = mix64((uint64_t)key) & mask;
    for (;;) {
        int64_t k = s->keys[i];
        if (k == key) return 1;
        if (k == EMPTY_KEY) break;
        i = (i + 1) & mask;
    }
    s->keys[i] = key;
    s->size++;
    if (s->size * 10 >= s->cap * 7) hset_grow(s);
    return 0;
}

/* Bounded FA-LRU: hash map line -> node, nodes on a doubly linked list
 * (head = LRU).  The map never grows (node pool is the capacity) and
 * deletes with backward-shift, so no tombstones. */
typedef struct pmu_state {
    int64_t cap, size;
    int32_t head, tail, free_head;
    int64_t *line;
    int32_t *prev, *next;
    uint64_t mcap;
    int64_t *mkeys;
    int32_t *mvals;
    hset *seen;
} pmu_state_t;

static uint64_t pow2_at_least(uint64_t x)
{
    uint64_t c = 16;
    while (c < x) c <<= 1;
    return c;
}

pmu_state_t *pmu_state_new(int64_t capacity_lines)
{
    pmu_state_t *sh = (pmu_state_t *)malloc(sizeof(pmu_state_t));
    int64_t i;
    sh->cap = capacity_lines; sh->size = 0;
    sh->head = sh->tail = -1;
    sh->line = (int64_t *)malloc(capacity_lines * sizeof(int64_t));
    sh->prev = (int32_t *)malloc(capacity_lines * sizeof(int32_t));
    sh->next = (int32_t *)malloc(capacity_lines * sizeof(int32_t));
    for (i = 0; i < capacity_lines; i++)
        sh->next[i] = (int32_t)(i + 1 < capacity_lines ? i + 1 : -1);
    sh->free_head = capacity_lines ? 0 : -1;
    sh->mcap = pow2_at_least((uint64_t)(capacity_lines * 2 + 16));
    sh->mkeys = (int64_t *)malloc(sh->mcap * sizeof(int64_t));
    sh->mvals = (int32_t *)malloc(sh->mcap * sizeof(int32_t));
    { uint64_t i; for (i = 0; i < sh->mcap; i++) sh->mkeys[i] = EMPTY_KEY; }
    sh->seen = hset_new(1024);
    return sh;
}

void pmu_state_free(pmu_state_t *sh)
{
    hset_free(sh->seen);
    free(sh->line); free(sh->prev); free(sh->next);
    free(sh->mkeys); free(sh->mvals);
    free(sh);
}

void pmu_state_reset(pmu_state_t *sh)
{
    int64_t i;
    sh->size = 0; sh->head = sh->tail = -1;
    for (i = 0; i < sh->cap; i++)
        sh->next[i] = (int32_t)(i + 1 < sh->cap ? i + 1 : -1);
    sh->free_head = sh->cap ? 0 : -1;
    { uint64_t i; for (i = 0; i < sh->mcap; i++) sh->mkeys[i] = EMPTY_KEY; }
    hset_clear(sh->seen);
}

static int32_t smap_get(pmu_state_t *sh, int64_t key)
{
    uint64_t mask = sh->mcap - 1;
    uint64_t i = mix64((uint64_t)key) & mask;
    for (;;) {
        int64_t k = sh->mkeys[i];
        if (k == key) return sh->mvals[i];
        if (k == EMPTY_KEY) return -1;
        i = (i + 1) & mask;
    }
}

static void smap_put(pmu_state_t *sh, int64_t key, int32_t val)
{
    uint64_t mask = sh->mcap - 1;
    uint64_t i = mix64((uint64_t)key) & mask;
    while (sh->mkeys[i] != EMPTY_KEY) i = (i + 1) & mask;
    sh->mkeys[i] = key; sh->mvals[i] = val;
}

static void smap_del(pmu_state_t *sh, int64_t key)
{
    uint64_t mask = sh->mcap - 1;
    uint64_t i = mix64((uint64_t)key) & mask;
    uint64_t j, h;
    while (sh->mkeys[i] != key) i = (i + 1) & mask;
    j = i;
    for (;;) {
        int64_t k;
        j = (j + 1) & mask;
        k = sh->mkeys[j];
        if (k == EMPTY_KEY) break;
        h = mix64((uint64_t)k) & mask;
        if (((j - h) & mask) >= ((j - i) & mask)) {
            sh->mkeys[i] = k; sh->mvals[i] = sh->mvals[j];
            i = j;
        }
    }
    sh->mkeys[i] = EMPTY_KEY;
}

static void sl_unlink(pmu_state_t *sh, int32_t nd)
{
    int32_t p = sh->prev[nd], nx = sh->next[nd];
    if (p >= 0) sh->next[p] = nx; else sh->head = nx;
    if (nx >= 0) sh->prev[nx] = p; else sh->tail = p;
}

static void sl_push_tail(pmu_state_t *sh, int32_t nd)
{
    sh->prev[nd] = sh->tail; sh->next[nd] = -1;
    if (sh->tail >= 0) sh->next[sh->tail] = nd; else sh->head = nd;
    sh->tail = nd;
}

/* Bump if present (returns 1), else insert evicting the LRU if full
 * (returns 0) — the ``observe``/``observe_install`` shadow step. */
static int shadow_touch(pmu_state_t *sh, int64_t line)
{
    int32_t nd = smap_get(sh, line);
    if (nd >= 0) {
        if (sh->tail != nd) { sl_unlink(sh, nd); sl_push_tail(sh, nd); }
        return 1;
    }
    if (sh->size >= sh->cap) {
        int32_t victim = sh->head;
        smap_del(sh, sh->line[victim]);
        sl_unlink(sh, victim);
        nd = victim;
        sh->size--;
    } else {
        nd = sh->free_head; sh->free_head = sh->next[nd];
    }
    sh->line[nd] = line;
    sl_push_tail(sh, nd);
    smap_put(sh, line, nd);
    sh->size++;
    return 0;
}

/* One level's op batch: replicate observe()/observe_install() op for op.
 * cls[i]: 0 compulsory, 1 capacity, 2 conflict, 255 unclassified (hit or
 * install).  conf_sets collects the set index of each conflict miss.
 * out = {comp, cap, conf, nconf, useful, polluting}. */
void pmu_batch(pmu_state_t *st, const int64_t *lines, const uint8_t *probe,
               const uint8_t *hits, const uint8_t *missed,
               const uint8_t *covered, int64_t n, int64_t num_sets,
               int64_t mask, uint8_t *cls, int32_t *conf_sets, int64_t *out)
{
    int64_t comp = 0, capn = 0, conf = 0, nconf = 0, useful = 0, poll = 0, i;
    for (i = 0; i < n; i++) {
        int64_t ln = lines[i];
        int in_shadow, hit;
        if (probe && !probe[i]) {
            /* Writeback install: tracked only when it allocated. */
            cls[i] = 255;
            if (missed[i]) { hset_add(st->seen, ln); shadow_touch(st, ln); }
            continue;
        }
        in_shadow = shadow_touch(st, ln);
        hit = hits[i];
        if (covered && covered[i]) { if (hit) poll++; else useful++; }
        if (hit) { cls[i] = 255; continue; }
        if (!hset_add(st->seen, ln)) { comp++; cls[i] = 0; }
        else if (in_shadow) {
            conf++; cls[i] = 2;
            conf_sets[nconf++] =
                (int32_t)(mask >= 0 ? (ln & mask) : pmod(ln, num_sets));
        } else { capn++; cls[i] = 1; }
    }
    out[0] = comp; out[1] = capn; out[2] = conf;
    out[3] = nconf; out[4] = useful; out[5] = poll;
}

/* ---- segment expansion ---------------------------------------------- */
/* Distinct lines / pages of one affine segment, by the exact engine's
 * rules (floor division throughout; straddling elements contribute their
 * last line with consecutive-duplicate suppression). */

/* kind of a segment's line walk: 0 span, 1 arithmetic, 2 general */
static int seg_kind(int64_t stride, int64_t count, int64_t base,
                    int64_t elem, int64_t line,
                    int64_t *lo, int64_t *hi, int64_t *step)
{
    if (stride == 0 || count == 1) {
        *lo = fdiv(base, line);
        *hi = fdiv(base + elem - 1, line);
        *step = 1;
        return 0;
    }
    if ((0 < stride && stride < line) || (-line < stride && stride < 0)) {
        int64_t lob = stride > 0 ? base : base + stride * (count - 1);
        int64_t hib = (stride > 0 ? base + stride * (count - 1) : base) + elem - 1;
        *lo = fdiv(lob, line);
        *hi = fdiv(hib, line);
        *step = stride > 0 ? 1 : -1;
        return 0;
    }
    if (stride % line == 0 && pmod(base, line) + elem <= line) {
        *lo = fdiv(base, line);
        *step = stride / line;
        *hi = count;  /* trip count, not a bound */
        return 1;
    }
    return 2;
}

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

void seg_measure(const int64_t *base, const int64_t *stride,
                 const int64_t *count, const int64_t *elem, int64_t nseg,
                 int64_t line, int64_t page, int tlb_on,
                 int64_t *distinct, int64_t *npages)
{
    int64_t i;
    for (i = 0; i < nseg; i++) {
        int64_t lo, hi, step;
        int kind = seg_kind(stride[i], count[i], base[i], elem[i], line,
                            &lo, &hi, &step);
        if (kind == 0) distinct[i] = hi - lo + 1;
        else if (kind == 1) distinct[i] = hi;
        else distinct[i] = walk_lines(base[i], stride[i], count[i],
                                      elem[i], line, (int64_t *)0);
        if (!tlb_on) { npages[i] = 0; continue; }
        if (stride[i] == 0 || count[i] == 1) {
            npages[i] = fdiv(base[i] + elem[i] - 1, page) - fdiv(base[i], page) + 1;
        } else if (stride[i] <= page && stride[i] >= -page) {
            int64_t lob = stride[i] > 0 ? base[i] : base[i] + stride[i] * (count[i] - 1);
            int64_t hib = (stride[i] > 0 ? base[i] + stride[i] * (count[i] - 1)
                                         : base[i]) + elem[i] - 1;
            npages[i] = fdiv(hib, page) - fdiv(lob, page) + 1;
        } else {
            /* |stride| > page: successive accesses always change page. */
            npages[i] = count[i];
        }
    }
}

void seg_expand(const int64_t *base, const int64_t *stride,
                const int64_t *count, const int64_t *elem, int64_t nseg,
                int64_t line, const int64_t *loff, int64_t *lines_out,
                int64_t page, int tlb_on, const int64_t *poff,
                int64_t *pages_out)
{
    int64_t i, k;
    for (i = 0; i < nseg; i++) {
        int64_t lo, hi, step;
        int64_t *dst = lines_out + loff[i];
        int kind = seg_kind(stride[i], count[i], base[i], elem[i], line,
                            &lo, &hi, &step);
        if (kind == 0) {
            int64_t n = hi - lo + 1;
            if (step > 0) for (k = 0; k < n; k++) dst[k] = lo + k;
            else for (k = 0; k < n; k++) dst[k] = hi - k;
        } else if (kind == 1) {
            for (k = 0; k < hi; k++) dst[k] = lo + k * step;
        } else {
            walk_lines(base[i], stride[i], count[i], elem[i], line, dst);
        }
        if (!tlb_on) continue;
        dst = pages_out + poff[i];
        if (stride[i] == 0 || count[i] == 1) {
            int64_t p0 = fdiv(base[i], page);
            int64_t n = fdiv(base[i] + elem[i] - 1, page) - p0 + 1;
            for (k = 0; k < n; k++) dst[k] = p0 + k;
        } else if (stride[i] <= page && stride[i] >= -page) {
            int64_t lob = stride[i] > 0 ? base[i] : base[i] + stride[i] * (count[i] - 1);
            int64_t hib = (stride[i] > 0 ? base[i] + stride[i] * (count[i] - 1)
                                         : base[i]) + elem[i] - 1;
            int64_t p0 = fdiv(lob, page), p1 = fdiv(hib, page);
            int64_t n = p1 - p0 + 1;
            if (stride[i] > 0) for (k = 0; k < n; k++) dst[k] = p0 + k;
            else for (k = 0; k < n; k++) dst[k] = p1 - k;
        } else {
            for (k = 0; k < count[i]; k++)
                dst[k] = fdiv(base[i] + k * stride[i], page);
        }
    }
}

/* ---- stride prefetcher ---------------------------------------------- */
/* Per-segment coverage with the cross-segment stream table: slots kept
 * in insertion order (eviction removes the oldest), matching the Python
 * dict's behaviour exactly. */

void coverage_batch(const int64_t *refs, const int64_t *bases,
                    const int64_t *strides, const int64_t *distinct,
                    int64_t nseg, int64_t line, int64_t max_stride,
                    int64_t train, int64_t nstreams, int cross_on,
                    int64_t *st_ref, int64_t *st_base, int64_t *st_delta,
                    int64_t *st_conf, uint8_t *st_dvalid, int64_t *st_n,
                    int64_t *cov_out, int64_t *counters)
{
    int64_t covered_total = counters[0], uncovered_total = counters[1];
    int64_t late_total = counters[2];
    int64_t n = *st_n;
    int64_t i;
    for (i = 0; i < nseg; i++) {
        int64_t d = distinct[i];
        int64_t within = 0, cross = 0, covered;
        int trainable = 0;
        if (max_stride <= 0 || d == 0) {
            uncovered_total += d;
            cov_out[i] = 0;
            continue;
        }
        if (d > 1) {
            int64_t s = strides[i] < 0 ? -strides[i] : strides[i];
            int64_t step = s / line;
            if (step < 1) step = 1;
            if (step <= max_stride) {
                trainable = 1;
                within = d - train;
                if (within < 0) within = 0;
            }
        }
        if (cross_on) {
            int64_t ref = refs[i], slot = -1, j;
            for (j = 0; j < n; j++)
                if (st_ref[j] == ref) { slot = j; break; }
            if (slot < 0) {
                if (n >= nstreams) {
                    for (j = 1; j < n; j++) {
                        st_ref[j - 1] = st_ref[j];
                        st_base[j - 1] = st_base[j];
                        st_delta[j - 1] = st_delta[j];
                        st_conf[j - 1] = st_conf[j];
                        st_dvalid[j - 1] = st_dvalid[j];
                    }
                    n--;
                }
                st_ref[n] = ref;
                st_base[n] = bases[i];
                st_conf[n] = 0;
                st_dvalid[n] = 0;
                n++;
            } else {
                int64_t delta = bases[i] - st_base[slot];
                int64_t dl = delta < 0 ? -delta : delta;
                dl /= line;
                if (st_dvalid[slot] && st_delta[slot] == delta && delta != 0)
                    st_conf[slot]++;
                else
                    st_conf[slot] = 0;
                st_delta[slot] = delta;
                st_dvalid[slot] = 1;
                st_base[slot] = bases[i];
                if (st_conf[slot] >= 1 && dl > 0 && dl <= max_stride)
                    cross = d;
            }
        }
        covered = within > cross ? within : cross;
        if (covered > d) covered = d;
        cov_out[i] = covered;
        covered_total += covered;
        uncovered_total += d - covered;
        if (trainable) late_total += d - covered;
    }
    *st_n = n;
    counters[0] = covered_total;
    counters[1] = uncovered_total;
    counters[2] = late_total;
}
"""

_lib = None
_ffi = None
_STATE = {"tried": False, "error": None}


def _repo_build_dir() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "build", "native")


def _load():
    """Compile (once, lock-guarded) and dlopen the C core; None on failure."""
    global _lib, _ffi
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
        _ffi, _lib = ffi, lib
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


def _selftest(ffi, lib) -> None:
    """One LRU set, three ops: catch a miscompiled or stale library."""
    ln = np.zeros(2, dtype=np.int64)
    dy = np.zeros(2, dtype=np.uint8)
    occ = np.zeros(1, dtype=np.int32)
    ops = np.array([7, 9, 7], dtype=np.int64)
    hits = np.empty(3, dtype=np.uint8)
    missed = np.empty(3, dtype=np.uint8)
    evict = np.empty(3, dtype=np.int64)
    st = np.zeros(4, dtype=np.int64)
    lib.lru_batch(
        1, 2, 0,
        ffi.cast("int64_t *", ln.ctypes.data),
        ffi.cast("uint8_t *", dy.ctypes.data),
        ffi.cast("int32_t *", occ.ctypes.data),
        ffi.cast("int64_t *", ops.ctypes.data),
        ffi.NULL, ffi.NULL, 1, 3,
        ffi.cast("uint8_t *", hits.ctypes.data),
        ffi.cast("uint8_t *", missed.ctypes.data),
        ffi.cast("int64_t *", evict.ctypes.data),
        ffi.cast("int64_t *", st.ctypes.data),
    )
    if hits.tolist() != [0, 0, 1] or st.tolist() != [1, 2, 2, 0]:
        raise RuntimeError("native self-test mismatch")


def native_available() -> bool:
    """Is the compiled core usable (and not disabled via ``REPRO_NATIVE``)?"""
    if os.environ.get(NATIVE_ENV, "").strip().lower() in ("0", "off", "no"):
        return False
    return _load() is not None


def native_status() -> str:
    """Human-readable availability (``repro perf``/debugging)."""
    if os.environ.get(NATIVE_ENV, "").strip().lower() in ("0", "off", "no"):
        return "disabled (REPRO_NATIVE)"
    if _load() is not None:
        return "available"
    return f"unavailable ({_STATE['error']})"


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
        return bool(hits[0]), None if ev < 0 else ev

    def process_batch(self, lines, probe, fill):
        """Same contract as ``FastLruCache.process_batch`` with array
        outputs (``evict`` uses ``-1`` for "none")."""
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
        self._rand_state = _PRNG_SEED

    def reset(self) -> None:
        super().reset()
        self._rand_state = _PRNG_SEED

    def _batch(self, arr, probe, fill_arr, fill_u, hits, missed, evict, st) -> None:
        self._rand_state = int(
            _lib.rand_batch(
                self.num_sets, self.ways, self._cmask,
                _i64(self._ln), _u8(self._dy), _i32(self._occ),
                self._rand_state,
                _i64(arr),
                _u8(probe) if probe is not None else _ffi.NULL,
                _u8(fill_arr) if fill_arr is not None else _ffi.NULL,
                fill_u, len(arr),
                _u8(hits), _u8(missed), _i64(evict), _i64(st),
            )
        )


_NATIVE_CACHES = {"lru": NativeLruCache, "random": NativeRandomCache}


def native_cache(name: str, size_bytes: int, ways: int, line_size: int, policy: str):
    """Native cache model for ``policy``, or ``None`` if unsupported."""
    cls = _NATIVE_CACHES.get(policy)
    if cls is None:
        return None
    return cls(name, size_bytes, ways, line_size)


class _NativeTlbLevel:
    """Array twin of the exact ``_TlbLevel`` (LRU position arrays)."""

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
        self._ln = np.zeros(self.num_sets * ways, dtype=np.int64)
        self._occ = np.zeros(self.num_sets, dtype=np.int32)

    def reset(self) -> None:
        self.stats.reset()
        self._occ.fill(0)


class NativeTlb:
    """Drop-in twin of :class:`repro.memsim.tlb.Tlb` walking whole page
    batches in C; hit/miss/walk counts identical page for page."""

    def __init__(self, spec: TlbSpec):
        self.spec = spec
        self.l1 = _NativeTlbLevel(spec.l1_entries, spec.l1_ways, "dTLB-L1")
        self.l2 = (
            _NativeTlbLevel(spec.l2_entries, spec.l2_ways, "dTLB-L2")
            if spec.l2_entries
            else None
        )

    def walk_batch(self, pages: np.ndarray, bounds: np.ndarray, walks: Optional[np.ndarray]) -> None:
        """Walk ``pages`` (segment slices delimited by ``bounds``); when
        ``walks`` is given it receives each segment's page-walk count."""
        l1 = self.l1
        l2 = self.l2
        st = np.zeros(4, dtype=np.int64)
        _lib.tlb_batch(
            l1.num_sets, l1.ways, _i64(l1._ln), _i32(l1._occ),
            l2.num_sets if l2 is not None else 0,
            l2.ways if l2 is not None else 0,
            _i64(l2._ln) if l2 is not None else _ffi.NULL,
            _i32(l2._occ) if l2 is not None else _ffi.NULL,
            _i64(pages), _i64(bounds), len(bounds) - 1,
            _i32(walks) if walks is not None else _ffi.NULL,
            _i64(st),
        )
        l1.stats.hits += int(st[0])
        l1.stats.misses += int(st[1])
        if l2 is not None:
            l2.stats.hits += int(st[2])
            l2.stats.misses += int(st[3])

    def access_page(self, page: int) -> None:
        arr = np.asarray([page], dtype=np.int64)
        self.walk_batch(arr, np.asarray([0, 1], dtype=np.int64), None)

    def access_pages(self, pages) -> None:
        arr = np.fromiter(pages, dtype=np.int64)
        if len(arr):
            self.walk_batch(arr, np.asarray([0, len(arr)], dtype=np.int64), None)

    @property
    def walks(self) -> int:
        if self.l2 is not None:
            return self.l2.stats.misses
        return self.l1.stats.misses

    @property
    def walk_cycles_total(self) -> int:
        return self.walks * self.spec.walk_cycles

    def reset(self) -> None:
        self.l1.reset()
        if self.l2 is not None:
            self.l2.reset()


class NativeHierarchy(MemoryHierarchy):
    """Memory hierarchy driving the compiled replay core.

    Same construction contract, counters, flush and snapshot behaviour
    as the exact hierarchy and the Python fast engine; segments small
    enough to buffer are concatenated into cross-segment op batches with
    per-segment TLB/PMU bookkeeping deferred to the (order-preserving)
    drain, so the per-segment Python overhead is a few appends.
    """

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
        self._pmu_states: List[object] = [None] * len(self.caches)
        # Queued work in stream order: column batches, then the segments
        # queued one at a time since the last batch.
        self._buf_cols: List[SegmentBatch] = []
        self._buf_segs: List[Segment] = []
        self._buf_ops = 0
        # Cross-segment prefetch stream table, owned here so the compiled
        # coverage loop can update it in place (the Python prefetcher
        # object keeps the spec and the covered/uncovered/late counters).
        slots = max(1, self.prefetcher.spec.streams)
        self._pf_ref = np.empty(slots, dtype=np.int64)
        self._pf_base = np.empty(slots, dtype=np.int64)
        self._pf_delta = np.empty(slots, dtype=np.int64)
        self._pf_conf = np.empty(slots, dtype=np.int64)
        self._pf_dvalid = np.empty(slots, dtype=np.uint8)
        self._pf_n = np.zeros(1, dtype=np.int64)

    # -- buffer management ---------------------------------------------------

    def _clear_buffers(self) -> None:
        self._buf_cols = []
        self._buf_segs = []
        self._buf_ops = 0
        self._pf_n[0] = 0

    def drain(self) -> None:
        """Replay any buffered ops (idempotent)."""
        self._drain_buffer()

    def attach_pmu(self):
        self._drain_buffer()
        self._pmu_states = [None] * len(self.caches)
        return super().attach_pmu()

    def reset(self) -> None:
        self._clear_buffers()
        self._pmu_states = [None] * len(self.caches)
        super().reset()

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
        self._stage_segments()
        queued = self._buf_cols
        if not queued:
            return
        self._buf_cols = []
        self._buf_ops = 0
        lib = _lib

        if len(queued) == 1:
            columns = [np.ascontiguousarray(col) for col in queued[0]]
        else:
            columns = [np.concatenate(cols) for cols in zip(*queued)]
        refs, base, stride, count, write, elem = columns
        write = write.view(np.uint8)
        nseg = len(refs)

        # Line/page expansion: measure, prefix-sum, fill.
        tlb_on = 1 if self.tlb is not None else 0
        dist = np.empty(nseg, dtype=np.int64)
        npages = np.empty(nseg, dtype=np.int64)
        line_size = self.line_size
        lib.seg_measure(
            _i64(base), _i64(stride), _i64(count), _i64(elem), nseg,
            line_size, PAGE_SIZE, tlb_on, _i64(dist), _i64(npages),
        )
        loff = np.empty(nseg + 1, dtype=np.int64)
        loff[0] = 0
        np.cumsum(dist, out=loff[1:])
        poff = np.empty(nseg + 1, dtype=np.int64)
        poff[0] = 0
        np.cumsum(npages, out=poff[1:])
        lines = np.empty(int(loff[-1]), dtype=np.int64)
        pages = np.empty(int(poff[-1]) if tlb_on else 0, dtype=np.int64)
        lib.seg_expand(
            _i64(base), _i64(stride), _i64(count), _i64(elem), nseg,
            line_size, _i64(loff), _i64(lines),
            PAGE_SIZE, tlb_on, _i64(poff), _i64(pages),
        )

        # Prefetcher coverage (sequential training, segment order).
        prefetcher = self.prefetcher
        spec = prefetcher.spec
        cov = np.empty(nseg, dtype=np.int64)
        counters = np.zeros(3, dtype=np.int64)
        lib.coverage_batch(
            _i64(refs), _i64(base), _i64(stride), _i64(dist), nseg,
            line_size, spec.max_stride_lines, spec.train_lines,
            len(self._pf_ref), 1 if spec.cross_segment else 0,
            _i64(self._pf_ref), _i64(self._pf_base), _i64(self._pf_delta),
            _i64(self._pf_conf), _u8(self._pf_dvalid), _i64(self._pf_n),
            _i64(cov), _i64(counters),
        )
        prefetcher.covered_lines += int(counters[0])
        prefetcher.uncovered_lines += int(counters[1])
        prefetcher.late_lines += int(counters[2])
        ncov = int(counters[0])  # == cov.sum(): the covered delta

        pmu = self.pmu

        # Deferred per-segment TLB walks (segment order preserved).
        if tlb_on and len(pages):
            if pmu is not None:
                walks = np.zeros(nseg, dtype=np.int32)
                self.tlb.walk_batch(pages, poff, walks)
                note = pmu.note_tlb
                for i in np.flatnonzero(walks).tolist():
                    note(int(refs[i]), int(walks[i]))
            else:
                self.tlb.walk_batch(pages, poff, None)

        # Deferred PMU segment accounting (order-free per-ref sums; the
        # byte/line magnitudes stay far below 2**53, so the float
        # accumulation in ``bincount`` is exact).
        if pmu is not None:
            uref, inv = np.unique(refs, return_inverse=True)
            byt = np.bincount(inv, weights=count * elem).astype(np.int64)
            acc = np.bincount(inv, weights=dist).astype(np.int64)
            rb = pmu.ref_bytes
            ra = pmu.ref_accesses
            for r, b, a in zip(uref.tolist(), byt.tolist(), acc.tolist()):
                rb[r] = rb.get(r, 0) + b
                ra[r] = ra.get(r, 0) + a
            pmu.current_ref = int(refs[-1])

        # Column construction and replay.
        fill_col = np.repeat(write, dist)
        if ncov:
            counts2 = np.empty(2 * nseg, dtype=np.int64)
            counts2[0::2] = dist - cov
            counts2[1::2] = cov
            cov_col = np.repeat(
                np.tile(np.asarray([0, 1], dtype=np.uint8), nseg), counts2
            )
        else:
            cov_col = np.zeros(len(lines), dtype=np.uint8)
        refs_col = np.repeat(refs, dist) if pmu is not None else 0
        self._replay(lines, fill_col, cov_col, refs_col, ncov)

    def _replay(self, lines, fill, covered, refs, ncov) -> None:
        """Walk one op batch through the levels and into DRAM (compiled
        per-level loops; Python only aggregates)."""
        pmu = self.pmu
        lib = _lib
        probe: Optional[np.ndarray] = None
        n = len(lines)
        if n == 0:
            return
        per_op_refs = isinstance(refs, np.ndarray)
        for level, cache in enumerate(self.caches):
            if level == 0 and isinstance(fill, np.ndarray):
                fill_arr: Optional[np.ndarray] = fill
                fill_u = 0
            else:
                fill_arr = None
                fill_u = 1 if (level == 0 and fill) else 0
            hits = np.empty(n, dtype=np.uint8)
            missed = np.empty(n, dtype=np.uint8)
            evict = np.empty(n, dtype=np.int64)
            st = np.zeros(4, dtype=np.int64)
            cache._batch(lines, probe, fill_arr, fill_u, hits, missed, evict, st)
            stats = cache.stats
            h = int(st[0])
            stats.hits += h
            stats.misses += int(st[1])
            stats.fills += int(st[2])
            stats.writebacks += int(st[3])
            cache.skips["replayed"] += n
            if pmu is not None:
                self._pmu_batch(
                    pmu, level, cache, lines, probe, hits, missed,
                    covered if level == 0 else None, refs, n,
                )
            if probe is None:
                # All-probe shortcuts from the stats deltas: all hit ->
                # nothing flows down; none hit and no dirty evictions ->
                # the stream passes through unchanged.
                if h == n:
                    return
                if h == 0 and not int(st[3]):
                    if ncov:
                        stats.prefetch_hits += ncov
                    continue
            nl = np.empty(2 * n, dtype=np.int64)
            npb = np.empty(2 * n, dtype=np.uint8)
            ncv = np.empty(2 * n, dtype=np.uint8)
            nrf = np.empty(2 * n, dtype=np.int64) if per_op_refs else None
            pf = np.zeros(1, dtype=np.int64)
            m = int(
                lib.assemble(
                    n, _i64(lines),
                    _u8(probe) if probe is not None else _ffi.NULL,
                    _u8(missed), _i64(evict), _u8(covered),
                    _i64(refs) if per_op_refs else _ffi.NULL,
                    _i64(nl), _u8(npb), _u8(ncv),
                    _i64(nrf) if per_op_refs else _ffi.NULL,
                    _i64(pf),
                )
            )
            pfn = int(pf[0])
            if pfn:
                stats.prefetch_hits += pfn
            if m == 0:
                return
            lines = nl[:m]
            probe = npb[:m]
            covered = ncv[:m]
            if per_op_refs:
                refs = nrf[:m]
            ncov = pfn
            n = m

        # Whatever passed the last level hits DRAM: probes fill from it,
        # installs write back to it.
        if probe is None:
            reads, writes = n, 0
        else:
            reads = int(probe.sum())
            writes = n - reads
        self.dram.read_lines += reads
        self.dram.written_lines += writes
        if pmu is not None and (reads or writes):
            if not per_op_refs:
                if reads:
                    t = pmu.ref_dram_read_lines
                    t[refs] = t.get(refs, 0) + reads
                if writes:
                    t = pmu.ref_dram_written_lines
                    t[refs] = t.get(refs, 0) + writes
            elif probe is None:
                vals, cnts = np.unique(refs, return_counts=True)
                t = pmu.ref_dram_read_lines
                for r, c in zip(vals.tolist(), cnts.tolist()):
                    t[r] = t.get(r, 0) + c
            else:
                mask = probe != 0
                if reads:
                    vals, cnts = np.unique(refs[mask], return_counts=True)
                    t = pmu.ref_dram_read_lines
                    for r, c in zip(vals.tolist(), cnts.tolist()):
                        t[r] = t.get(r, 0) + c
                if writes:
                    vals, cnts = np.unique(refs[~mask], return_counts=True)
                    t = pmu.ref_dram_written_lines
                    for r, c in zip(vals.tolist(), cnts.tolist()):
                        t[r] = t.get(r, 0) + c

    def _pmu_batch(self, pmu, level, cache, lines, probe, hits, missed, covered, refs, n) -> None:
        state = self._pmu_states[level]
        if state is None:
            state = _ffi.gc(
                _lib.pmu_state_new(pmu.levels[level].capacity_lines),
                _lib.pmu_state_free,
            )
            self._pmu_states[level] = state
        cls = np.empty(n, dtype=np.uint8)
        conf = np.empty(n, dtype=np.int32)
        out = np.zeros(6, dtype=np.int64)
        _lib.pmu_batch(
            state, _i64(lines),
            _u8(probe) if probe is not None else _ffi.NULL,
            _u8(hits), _u8(missed),
            _u8(covered) if covered is not None else _ffi.NULL,
            n, cache.num_sets, cache._cmask,
            _u8(cls), _i32(conf), _i64(out),
        )
        lvl = pmu.levels[level]
        comp, capn, confn, nconf, useful, poll = (int(v) for v in out)
        lvl.compulsory += comp
        lvl.capacity += capn
        lvl.conflict += confn
        if nconf:
            vals, cnts = np.unique(conf[:nconf], return_counts=True)
            sc = lvl.set_conflicts
            for v, c in zip(vals.tolist(), cnts.tolist()):
                sc[v] = sc.get(v, 0) + c
        nm = comp + capn + confn
        if nm:
            per_ref = lvl.per_ref
            if isinstance(refs, np.ndarray):
                msk = cls < 3
                keys = refs[msk] * 4 + cls[msk]
                vals, cnts = np.unique(keys, return_counts=True)
                for k, c in zip(vals.tolist(), cnts.tolist()):
                    r = k >> 2
                    counts = per_ref.get(r)
                    if counts is None:
                        counts = per_ref[r] = [0, 0, 0]
                    counts[k & 3] += c
            else:
                counts = per_ref.get(refs)
                if counts is None:
                    counts = per_ref[refs] = [0, 0, 0]
                if capn == 0 and confn == 0:
                    counts[0] += comp
                else:
                    bc = np.bincount(cls[cls < 3], minlength=3)
                    counts[0] += int(bc[0])
                    counts[1] += int(bc[1])
                    counts[2] += int(bc[2])
        if covered is not None:
            pmu.prefetch_useful += useful
            pmu.prefetch_polluting += poll
