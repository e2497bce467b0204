"""Batched columnar replay engine — fast, bit-exact cache simulation.

The exact simulator (:mod:`repro.memsim.hierarchy`) walks every distinct
line of every segment through every cache level one ``Cache.access`` call
at a time.  That per-reference loop is the bottleneck for everything on
the roadmap, so this module implements the same semantics *batched*: one
compressed affine segment becomes one columnar operation batch per cache
level, expanded and set-indexed with NumPy where the batch is long enough
to amortize it, and replayed per set with closed-form *skip paths* where
a certificate proves the outcome without replay.  Tiny segments (blocked
kernels emit millions of one-to-two-line segments) are concatenated into
cross-segment batches with per-op fill/coverage/reference columns, so the
per-batch machinery amortizes across segments too.

Bit-exactness is by construction, not by approximation:

* **Phased level ordering.** A cache level's state depends only on the
  order of its *own* operation stream (probes and writeback installs).
  The engine therefore replays a batch level by level, materializing
  the next level's op stream in the exact order the per-line cascade
  would have produced it: for op ``i``, the dirty eviction (an install)
  precedes the demand probe, and ops keep source order.
* **Cross-segment batching is sound** because the per-segment side
  effects that are *not* cache ops — TLB walks, prefetcher training,
  PMU segment accounting — are applied eagerly in segment order (their
  state never depends on cache contents), while the cache ops carry
  per-op columns (fill dirty bit, coverage flag, reference id) so the
  deferred replay reproduces the exact per-op semantics.  Buffered ops
  are flushed before any state is read (snapshots, flush, telemetry).
* **Per-set LRU state as an ordered dict.** ``{line: dirty}`` insertion
  order is exactly LRU recency order (Python dicts preserve insertion
  order; re-inserting after ``pop`` is a move-to-back).  Way identities
  are unobservable under LRU, so hits, misses, evictions, writebacks and
  final dirty contents match :class:`~repro.memsim.cache.Cache` with
  :class:`~repro.memsim.replacement.LruPolicy` op for op.
* **Certified skips.** Per set and batch, two certificates mirror the
  PR-8 cachemodel taxonomy (:mod:`repro.analysis.cachemodel`):

  - *RESIDENT* — every op line is already resident: probes all hit,
    installs are all found present, zero evictions; dirty bits are
    updated in closed form.
  - *ALL-MISS (streaming)* — if every op misses, each op allocates one
    line ("episode") and the set degenerates to a FIFO of episodes: op
    ``t`` evicts episode ``f + t - w`` (``f`` initial occupants, ``w``
    ways).  The certificate checks exactly that: a line's op misses iff
    its previous episode (initial rank, or an earlier op in the batch)
    sits strictly before ``f + t - w``.  Installs and repeated lines
    are allowed; hits anywhere void the certificate and the group falls
    back to replay.  Misses/fills/writebacks/final state follow in
    closed form, with NumPy doing the previous-occurrence scan on long
    groups.

  Anything else falls back to a scalar per-set replay of the same dict
  state, so the fallback is exact by definition, per batch and per set
  (``CONFLICT``/``UNKNOWN``-shaped runs replay exactly).
* **Random replacement replays scalar, in global order.** The U74's
  random policy consumes one PRNG draw per eviction in chronological
  order across *all* sets, so its op stream cannot be grouped by set;
  the engine runs a lean global-order loop with the identical xorshift64
  sequence.
* **The PMU is driven per level from recorded hit flags.** The shadow
  fully-associative LRU always holds the ``capacity_lines`` most
  recently touched distinct lines in last-touch order, so for *any*
  batch its maintenance is a bulk dedup + append + front trim; 3C
  classification is bulk whenever every probe miss in the batch is on a
  never-seen line (then *conflict*/*capacity* are impossible and no
  shadow membership reads are needed), else it replays per op.

Engine selection is by ``REPRO_ENGINE=exact|fast`` (default **fast**),
resolved by :func:`resolve_engine` and threaded through
``simulate(engine=...)`` and ``DeviceSpec.build_hierarchies``.  Devices
with replacement policies outside :data:`FAST_POLICIES` (tree-PLRU
ablations) fall back to the exact engine as a whole; everything else
falls back per batch and per set as described above.  The exact
simulator remains the oracle: ``tests/test_fast_engine.py`` asserts
bit-identity on every counter both engines expose.
"""

from __future__ import annotations

import os
import threading
from itertools import repeat
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.exec.trace import Segment
from repro.memsim.cache import CacheStats, set_indices, set_mask
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.prefetch import NO_PREFETCH, PrefetcherSpec
from repro.memsim.tlb import PAGE_SIZE, TlbSpec

#: Environment variable selecting the replay engine.
ENGINE_ENV = "REPRO_ENGINE"
ENGINE_EXACT = "exact"
ENGINE_FAST = "fast"
ENGINES = (ENGINE_EXACT, ENGINE_FAST)

#: Replacement policies the fast engine replays natively.  A device with
#: any other policy (``plru`` ablations) builds exact hierarchies even
#: under ``REPRO_ENGINE=fast``.
FAST_POLICIES = frozenset(("lru", "random"))

#: Minimum per-set batch size worth attempting a closed-form certificate.
_BULK_MIN = 8

#: Maximum batch size replayed by the direct scalar pass (no grouping).
_SCALAR_MAX = 16

#: Minimum batch length worth round-tripping through NumPy.
_NP_MIN = 256

#: Segments with at least this many distinct lines replay immediately
#: (their own certificates beat concatenation); smaller segments are
#: buffered into cross-segment batches.
_DIRECT_MIN = 128

#: Buffered ops replay once the batch reaches this size.
_FLUSH_OPS = 4096

_ABSENT = object()
_NEG = -(1 << 62)

_PRNG_MASK = 0xFFFFFFFFFFFFFFFF
_PRNG_SEED = 0x9E3779B97F4A7C15  # RandomPolicy's default seed


#: Skip-path names reported by ``skip_counts()`` implementations:
#: ``resident``/``streaming`` are the certified closed-form paths,
#: ``replayed`` is the scalar (or native-C) fallback.
SKIP_PATHS = ("resident", "streaming", "replayed")

#: Process-wide skip-path accumulator (telemetry only — never part of
#: cache records or counter sets, which must stay engine-free and
#: bit-identical across engines).  ``simulate()`` folds each run's
#: per-hierarchy counts in; long-lived processes (serve workers) read
#: deltas around a job to attribute skips per run.
_PROCESS_SKIPS: Dict[str, int] = {path: 0 for path in SKIP_PATHS}
_PROCESS_SKIPS_LOCK = threading.Lock()


def account_skips(counts: Dict[str, int]) -> None:
    """Fold one run's skip counts into the process-wide accumulator."""
    with _PROCESS_SKIPS_LOCK:
        for path, value in counts.items():
            if path in _PROCESS_SKIPS and value:
                _PROCESS_SKIPS[path] += int(value)


def process_skip_totals() -> Dict[str, int]:
    """Cumulative skip counts for this process (copy)."""
    with _PROCESS_SKIPS_LOCK:
        return dict(_PROCESS_SKIPS)


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve the replay engine: explicit argument, else ``REPRO_ENGINE``,
    else the fast engine."""
    value = engine if engine is not None else os.environ.get(ENGINE_ENV, "")
    value = (value or "").strip().lower() or ENGINE_FAST
    if value not in ENGINES:
        raise SimulationError(
            f"unknown replay engine {value!r}; pick one of {', '.join(ENGINES)}"
        )
    return value


def supports_fast(policies: Sequence[str]) -> bool:
    """Can the fast engine replay a hierarchy with these policies?"""
    return all(policy in FAST_POLICIES for policy in policies)


def _batch_set_indices(lines: List[int], num_sets: int, mask: Optional[int]) -> List[int]:
    """Set index of every line in the batch — the mask/modulo rule of
    :func:`repro.memsim.cache.set_mask`, vectorized when it pays."""
    if len(lines) >= _NP_MIN:
        arr = np.asarray(lines, dtype=np.int64)
        out = (arr & mask) if mask is not None else (arr % num_sets)
        return out.tolist()
    return set_indices(lines, num_sets, mask)


class _FastCacheBase:
    """Geometry, stats and state shared by the fast cache models."""

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
        #: Ops credited by each disposition: closed-form skips mirroring
        #: the cachemodel taxonomy vs. scalar replay fallback.
        self.skips: Dict[str, int] = {"resident": 0, "streaming": 0, "replayed": 0}

    def set_index(self, line: int) -> int:
        """Same rule as :meth:`repro.memsim.cache.Cache.set_index`."""
        mask = self._set_mask
        return line & mask if mask is not None else line % self.num_sets

    def access(self, line: int, is_write: bool):
        """Scalar compatibility shim over :meth:`process_batch`."""
        hits, _missed, evict = self.process_batch([line], None, is_write)
        return hits[0], evict[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kib = self.size_bytes / 1024
        return f"{type(self).__name__}({self.name}: {kib:g} KiB, {self.ways}-way)"


class FastLruCache(_FastCacheBase):
    """LRU cache level with per-set ordered-dict state and certified
    closed-form batch paths; observably identical to
    ``Cache(policy='lru')``."""

    policy_name = "lru"

    def __init__(self, name: str, size_bytes: int, ways: int, line_size: int = 64):
        super().__init__(name, size_bytes, ways, line_size)
        # Per set: {line: dirty} in LRU order (front = LRU victim).
        self._sets: List[dict] = [dict() for _ in range(self.num_sets)]

    # -- state views ---------------------------------------------------------

    def contains(self, line: int) -> bool:
        return line in self._sets[self.set_index(line)]

    def dirty_lines(self) -> List[int]:
        """Same definition as :meth:`repro.memsim.cache.Cache.dirty_lines`."""
        out: List[int] = []
        for entries in self._sets:
            for line, dirty in entries.items():
                if dirty:
                    out.append(line)
        return out

    def flush_dirty_count(self) -> int:
        return len(self.dirty_lines())

    def reset(self) -> None:
        self.stats.reset()
        for entries in self._sets:
            entries.clear()
        self.skips = {"resident": 0, "streaming": 0, "replayed": 0}

    # -- the batched replay path ---------------------------------------------

    def process_batch(self, lines, probe, fill):
        """Replay one op batch at this level.

        ``lines`` is the op line addresses in stream order; ``probe`` is
        ``None`` (every op is a demand probe) or a parallel bool list
        where ``False`` marks a writeback install from the level above;
        ``fill`` is the dirty bit a probe fill acquires — a bool, or
        (only when ``probe is None``) a parallel per-op bool list, as
        produced by cross-segment batches spanning read and write
        segments.

        Returns ``(hits, missed, evict)`` parallel to ``lines``: probe
        hit / install-found-present flags, fill-allocated flags, and the
        dirty line evicted by each op (``None`` if none) — everything
        the hierarchy needs to assemble the next level's op stream.
        """
        n = len(lines)
        hits = [False] * n
        missed = [False] * n
        evict: List[Optional[int]] = [None] * n
        all_probe = probe is None
        fl = fill if type(fill) is list else None
        fill_u = False if fl is not None else fill

        # Short batches skip set-index vectorization and grouping
        # entirely: one direct pass with the set index computed inline.
        if n <= _SCALAR_MAX:
            mask = self._set_mask
            num_sets = self.num_sets
            sets = self._sets
            ways = self.ways
            h_n = m_n = f_n = wb_n = 0
            for i in range(n):
                ln = lines[i]
                d = sets[ln & mask if mask is not None else ln % num_sets]
                dy = d.pop(ln, _ABSENT)
                if all_probe or probe[i]:
                    fd = fl[i] if fl is not None else fill_u
                    if dy is not _ABSENT:
                        d[ln] = dy or fd
                        hits[i] = True
                        h_n += 1
                    else:
                        m_n += 1
                        f_n += 1
                        if len(d) >= ways:
                            old = next(iter(d))
                            if d.pop(old):
                                wb_n += 1
                                evict[i] = old
                        d[ln] = fd
                        missed[i] = True
                elif dy is not _ABSENT:
                    d[ln] = True
                    hits[i] = True
                else:
                    if len(d) >= ways:
                        old = next(iter(d))
                        if d.pop(old):
                            wb_n += 1
                            evict[i] = old
                    d[ln] = True
                    missed[i] = True
            self.skips["replayed"] += n
            stats = self.stats
            stats.hits += h_n
            stats.misses += m_n
            stats.fills += f_n
            stats.writebacks += wb_n
            return hits, missed, evict

        sidx = _batch_set_indices(lines, self.num_sets, self._set_mask)

        # Group op positions by set, preserving per-set order.  A batch
        # aliasing one single set (the transpose column walk) skips the
        # dict entirely.
        if n and sidx.count(sidx[0]) == n:
            groups = ((sidx[0], range(n)),)
        else:
            by_set: Dict[int, List[int]] = {}
            for i, s in enumerate(sidx):
                g = by_set.get(s)
                if g is None:
                    by_set[s] = [i]
                else:
                    g.append(i)
            groups = by_set.items()

        sets = self._sets
        ways = self.ways
        stats = self.stats
        skips = self.skips
        h_n = m_n = f_n = wb_n = 0

        for s, idxs in groups:
            d = sets[s]
            k = len(idxs)
            if k >= _BULK_MIN:
                if isinstance(idxs, range):
                    batch_lines = lines if type(lines) is list else list(lines)
                else:
                    batch_lines = [lines[i] for i in idxs]

                # RESIDENT certificate: every op line already resident ->
                # probes all hit, installs all found present, no
                # evictions, closed-form dirty update.
                if all(map(d.__contains__, batch_lines)):
                    pop = d.pop
                    if all_probe:
                        if fl is not None:
                            for j, i in enumerate(idxs):
                                ln = batch_lines[j]
                                d[ln] = pop(ln) or fl[i]
                        elif fill_u:
                            for ln in batch_lines:
                                pop(ln)
                                d[ln] = True
                        else:
                            for ln in batch_lines:
                                d[ln] = pop(ln)
                        h_n += k
                    else:
                        for j, i in enumerate(idxs):
                            ln = batch_lines[j]
                            if probe[i]:
                                d[ln] = pop(ln) or fill_u
                                h_n += 1
                            else:
                                pop(ln)
                                d[ln] = True
                    for i in idxs:
                        hits[i] = True
                    skips["resident"] += k
                    continue

                # ALL-MISS certificate (installs and repeated lines
                # allowed): if every op misses, each op allocates one
                # "episode" and the set is a FIFO of episodes — op t
                # evicts episode f+t-w.  An op misses iff the line's
                # previous episode (its initial rank, or an earlier op
                # of this batch) sits strictly before f+t-w.
                f = len(d)
                base_off = f - ways
                if k >= _NP_MIN:
                    arr = np.asarray(batch_lines, dtype=np.int64)
                    order = np.argsort(arr, kind="stable")
                    sv = arr[order]
                    prev = np.full(k, _NEG, dtype=np.int64)
                    dup = sv[1:] == sv[:-1]
                    if dup.any():
                        prev[order[1:][dup]] = order[:-1][dup] + f
                    if f:
                        init = np.fromiter(d.keys(), dtype=np.int64, count=f)
                        present = np.isin(arr, init)
                        if present.any():
                            rank = {ln: r for r, ln in enumerate(d)}
                            for i in np.flatnonzero(present).tolist():
                                if prev[i] < 0:
                                    prev[i] = rank[batch_lines[i]]
                    ok = bool(
                        (prev < np.arange(k, dtype=np.int64) + base_off).all()
                    )
                else:
                    lastpos = {ln: r for r, ln in enumerate(d)} if f else {}
                    get = lastpos.get
                    ok = True
                    t = 0
                    for ln in batch_lines:
                        p = get(ln)
                        if p is not None and p >= base_off + t:
                            ok = False
                            break
                        lastpos[ln] = f + t
                        t += 1
                if ok:
                    # Per-op fill dirty bits and the probe count.
                    if all_probe:
                        pr = k
                        if fl is not None:
                            op_dirty = [fl[i] for i in idxs]
                        else:
                            op_dirty = [fill_u] * k
                    else:
                        pr = 0
                        op_dirty = []
                        ap = op_dirty.append
                        for i in idxs:
                            if probe[i]:
                                pr += 1
                                ap(fill_u)
                            else:
                                ap(True)
                    evict_n = f + k - ways
                    if evict_n > 0:
                        old_lines = list(d)
                        old_dirty = list(d.values())
                        for j in range(evict_n):
                            if old_dirty[j] if j < f else op_dirty[j - f]:
                                wb_n += 1
                                evict[idxs[j - base_off]] = (
                                    old_lines[j] if j < f else batch_lines[j - f]
                                )
                        # Final state: the last `ways` episodes (provably
                        # distinct: a repeat inside the window would hit).
                        newd = {}
                        for j in range(evict_n, f):
                            newd[old_lines[j]] = old_dirty[j]
                        start = evict_n - f if evict_n > f else 0
                        for j in range(start, k):
                            newd[batch_lines[j]] = op_dirty[j]
                        sets[s] = newd
                    else:
                        for j in range(k):
                            d[batch_lines[j]] = op_dirty[j]
                    for i in idxs:
                        missed[i] = True
                    m_n += pr
                    f_n += pr
                    skips["streaming"] += k
                    continue

            # Scalar per-set replay (conflicting / short batches): the
            # dict state makes each op a few C-level dict operations.
            skips["replayed"] += k
            if all_probe:
                if fl is not None:
                    for i in idxs:
                        ln = lines[i]
                        dy = d.pop(ln, _ABSENT)
                        if dy is not _ABSENT:
                            d[ln] = dy or fl[i]
                            hits[i] = True
                            h_n += 1
                        else:
                            m_n += 1
                            f_n += 1
                            if len(d) >= ways:
                                old = next(iter(d))
                                if d.pop(old):
                                    wb_n += 1
                                    evict[i] = old
                            d[ln] = fl[i]
                            missed[i] = True
                else:
                    for i in idxs:
                        ln = lines[i]
                        dy = d.pop(ln, _ABSENT)
                        if dy is not _ABSENT:
                            d[ln] = dy or fill_u
                            hits[i] = True
                            h_n += 1
                        else:
                            m_n += 1
                            f_n += 1
                            if len(d) >= ways:
                                old = next(iter(d))
                                if d.pop(old):
                                    wb_n += 1
                                    evict[i] = old
                            d[ln] = fill_u
                            missed[i] = True
            else:
                for i in idxs:
                    ln = lines[i]
                    if probe[i]:
                        dy = d.pop(ln, _ABSENT)
                        if dy is not _ABSENT:
                            d[ln] = dy or fill_u
                            hits[i] = True
                            h_n += 1
                        else:
                            m_n += 1
                            f_n += 1
                            if len(d) >= ways:
                                old = next(iter(d))
                                if d.pop(old):
                                    wb_n += 1
                                    evict[i] = old
                            d[ln] = fill_u
                            missed[i] = True
                    else:  # writeback install: allocate without fill-read
                        dy = d.pop(ln, _ABSENT)
                        if dy is not _ABSENT:
                            d[ln] = True
                            hits[i] = True
                        else:
                            if len(d) >= ways:
                                old = next(iter(d))
                                if d.pop(old):
                                    wb_n += 1
                                    evict[i] = old
                            d[ln] = True
                            missed[i] = True

        stats.hits += h_n
        stats.misses += m_n
        stats.fills += f_n
        stats.writebacks += wb_n
        return hits, missed, evict


class FastRandomCache(_FastCacheBase):
    """Random-replacement cache level, scalar global-order replay.

    The exact :class:`~repro.memsim.replacement.RandomPolicy` consumes
    one xorshift64 draw per eviction in chronological order across *all*
    sets of the cache, so its op stream cannot be grouped or skipped —
    the engine replays it with the identical PRNG sequence in a loop
    over way-indexed arrays (still several times leaner than the exact
    per-line call chain).
    """

    policy_name = "random"

    def __init__(self, name: str, size_bytes: int, ways: int, line_size: int = 64):
        super().__init__(name, size_bytes, ways, line_size)
        num_sets = self.num_sets
        self._where: List[dict] = [dict() for _ in range(num_sets)]
        self._lines: List[List[Optional[int]]] = [[None] * ways for _ in range(num_sets)]
        self._dirty: List[List[bool]] = [[False] * ways for _ in range(num_sets)]
        self._rand_state = _PRNG_SEED

    def contains(self, line: int) -> bool:
        return line in self._where[self.set_index(line)]

    def dirty_lines(self) -> List[int]:
        out: List[int] = []
        for set_lines, set_dirty in zip(self._lines, self._dirty):
            for line, dirty in zip(set_lines, set_dirty):
                if dirty and line is not None:
                    out.append(line)
        return out

    def flush_dirty_count(self) -> int:
        return len(self.dirty_lines())

    def reset(self) -> None:
        self.stats.reset()
        self._rand_state = _PRNG_SEED
        for set_idx in range(self.num_sets):
            self._where[set_idx].clear()
            self._lines[set_idx] = [None] * self.ways
            self._dirty[set_idx] = [False] * self.ways
        self.skips = {"resident": 0, "streaming": 0, "replayed": 0}

    def process_batch(self, lines, probe, fill):
        """Same contract as :meth:`FastLruCache.process_batch`."""
        n = len(lines)
        sidx = _batch_set_indices(lines, self.num_sets, self._set_mask)
        hits = [False] * n
        missed = [False] * n
        evict: List[Optional[int]] = [None] * n
        wh = self._where
        lns = self._lines
        dts = self._dirty
        ways = self.ways
        x = self._rand_state
        all_probe = probe is None
        fl = fill if type(fill) is list else None
        h_n = m_n = f_n = wb_n = 0
        for i in range(n):
            ln = lines[i]
            s = sidx[i]
            where = wh[s]
            way = where.get(ln)
            is_probe = all_probe or probe[i]
            if way is not None:
                hits[i] = True
                if is_probe:
                    h_n += 1
                    if fl is not None:
                        if fl[i]:
                            dts[s][way] = True
                    elif fill:
                        dts[s][way] = True
                else:
                    dts[s][way] = True
                continue
            slot_lines = lns[s]
            slot_dirty = dts[s]
            if len(where) < ways:
                way = slot_lines.index(None)
            else:
                x ^= (x << 13) & _PRNG_MASK
                x ^= x >> 7
                x ^= (x << 17) & _PRNG_MASK
                way = x % ways
                old = slot_lines[way]
                del where[old]
                if slot_dirty[way]:
                    wb_n += 1
                    evict[i] = old
            slot_lines[way] = ln
            slot_dirty[way] = (fl[i] if fl is not None else fill) if is_probe else True
            where[ln] = way
            if is_probe:
                m_n += 1
                f_n += 1
            missed[i] = True
        self._rand_state = x
        self.skips["replayed"] += n
        stats = self.stats
        stats.hits += h_n
        stats.misses += m_n
        stats.fills += f_n
        stats.writebacks += wb_n
        return hits, missed, evict


_FAST_CACHES = {"lru": FastLruCache, "random": FastRandomCache}


def fast_cache(name: str, size_bytes: int, ways: int, line_size: int, policy: str):
    """Fast cache model for ``policy``, or ``None`` if unsupported."""
    cls = _FAST_CACHES.get(policy)
    if cls is None:
        return None
    return cls(name, size_bytes, ways, line_size)


class _FastTlbLevel:
    """Dict-ordered reimplementation of the exact ``_TlbLevel`` (the
    per-set dict's insertion order *is* the LRU recency list)."""

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
        self._sets: List[dict] = [dict() for _ in range(self.num_sets)]

    def access(self, page: int) -> bool:
        entries = self._sets[page % self.num_sets]
        if page in entries:
            self.stats.hits += 1
            del entries[page]
            entries[page] = True
            return True
        self.stats.misses += 1
        if len(entries) >= self.ways:
            del entries[next(iter(entries))]
        entries[page] = True
        return False

    def reset(self) -> None:
        self.stats.reset()
        for entries in self._sets:
            entries.clear()


class FastTlb:
    """Drop-in fast twin of :class:`repro.memsim.tlb.Tlb` with a batched
    page walk; hit/miss/walk counts are identical page for page."""

    def __init__(self, spec: TlbSpec):
        self.spec = spec
        self.l1 = _FastTlbLevel(spec.l1_entries, spec.l1_ways, "dTLB-L1")
        self.l2 = (
            _FastTlbLevel(spec.l2_entries, spec.l2_ways, "dTLB-L2")
            if spec.l2_entries
            else None
        )

    def access_page(self, page: int) -> None:
        if self.l1.access(page):
            return
        if self.l2 is not None:
            self.l2.access(page)

    def access_pages(self, pages) -> None:
        """Walk a page stream with level state pre-bound (the hot path)."""
        l1 = self.l1
        l2 = self.l2
        sets1 = l1._sets
        n1 = l1.num_sets
        w1 = l1.ways
        st1 = l1.stats
        h1 = m1 = 0
        if l2 is None:
            for page in pages:
                d = sets1[page % n1]
                if page in d:
                    h1 += 1
                    del d[page]
                    d[page] = True
                    continue
                m1 += 1
                if len(d) >= w1:
                    del d[next(iter(d))]
                d[page] = True
            st1.hits += h1
            st1.misses += m1
            return
        sets2 = l2._sets
        n2 = l2.num_sets
        w2 = l2.ways
        st2 = l2.stats
        h2 = m2 = 0
        for page in pages:
            d = sets1[page % n1]
            if page in d:
                h1 += 1
                del d[page]
                d[page] = True
                continue
            m1 += 1
            if len(d) >= w1:
                del d[next(iter(d))]
            d[page] = True
            d = sets2[page % n2]
            if page in d:
                h2 += 1
                del d[page]
                d[page] = True
                continue
            m2 += 1
            if len(d) >= w2:
                del d[next(iter(d))]
            d[page] = True
        st1.hits += h1
        st1.misses += m1
        st2.hits += h2
        st2.misses += m2

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


def _pmu_observe_batch(pmu, level, cache, lines, probe, covered, hits, missed, refs):
    """Drive the shared :class:`~repro.memsim.pmu.Pmu` structures for one
    level's op batch, replicating ``observe``/``observe_install`` op for
    op from the recorded hit flags (probes) / found-present flags
    (installs).

    ``covered`` is the per-op prefetch-coverage column (only read at
    level 0, where it is always present); ``refs`` is the emitting
    reference id — one int for single-segment batches, a per-op list
    for cross-segment batches.

    The shadow fully-associative LRU holds the ``capacity_lines`` most
    recently *touched* distinct lines (probes + allocated installs) in
    last-touch order, an invariant preserved by any interleave — so its
    maintenance is always a bulk dedup + re-append + front trim.  3C
    classification is bulk whenever every probe miss is on a line never
    seen before this batch (conflict/capacity then impossible, no shadow
    membership reads needed); otherwise it replays per op.
    """
    lvl = pmu.levels[level]
    shadow = lvl.shadow
    seen = lvl.seen
    seen_add = seen.add
    cap = lvl.capacity_lines
    n = len(lines)
    at_l0 = level == 0 and covered is not None
    all_probe = probe is None
    uref = refs if type(refs) is int else None
    comp = capn = useful = poll = 0

    # The batch's touched sequence (probes + allocated installs), its
    # probe misses, and its allocated installs.
    if all_probe:
        miss_idx = [i for i in range(n) if missed[i]]
        miss_lines = [lines[i] for i in miss_idx]
        inst_lines: List[int] = []
        touched = lines
    else:
        miss_idx = []
        inst_lines = []
        touched = []
        t_ap = touched.append
        for i in range(n):
            if probe[i]:
                t_ap(lines[i])
                if missed[i]:
                    miss_idx.append(i)
            elif missed[i]:
                ln = lines[i]
                t_ap(ln)
                inst_lines.append(ln)
        miss_lines = [lines[i] for i in miss_idx]

    m = len(miss_lines)
    if (
        len(set(miss_lines)) == m
        and seen.isdisjoint(miss_lines)
        and (not inst_lines or set(inst_lines).isdisjoint(miss_lines))
    ):
        # Bulk: every probe miss is on a line never resident before it,
        # so each classifies *compulsory* regardless of shadow contents.
        comp = m
        if m:
            per_ref = lvl.per_ref
            if uref is not None:
                counts = per_ref.get(uref)
                if counts is None:
                    counts = per_ref[uref] = [0, 0, 0]
                counts[0] += m
            else:
                for i in miss_idx:
                    ref = refs[i]
                    counts = per_ref.get(ref)
                    if counts is None:
                        counts = per_ref[ref] = [0, 0, 0]
                    counts[0] += 1
            seen.update(miss_lines)
        if inst_lines:
            seen.update(inst_lines)
        if at_l0:
            useful = sum(map(covered.__getitem__, miss_idx))
            poll = sum(covered) - useful
        if touched:
            # Pop the batch's distinct touched lines, re-append them in
            # last-touch order, trim the overflow from the LRU front.
            last = dict.fromkeys(reversed(touched))
            pop = shadow.pop
            for ln in last:
                pop(ln, None)
            shadow.update(dict.fromkeys(reversed(last)))
            over = len(shadow) - cap
            while over > 0:
                shadow.popitem(last=False)
                over -= 1
    else:
        conf = 0
        set_conflicts = lvl.set_conflicts
        set_index = cache.set_index
        move = shadow.move_to_end
        pop_front = shadow.popitem
        per_ref = lvl.per_ref
        last_ref = uref if uref is not None else _ABSENT
        counts = per_ref.get(uref) if uref is not None else None
        for i in range(n):
            ln = lines[i]
            if not (all_probe or probe[i]):
                # Writeback install: the shadow and the seen set track the
                # contents only when the install actually allocated
                # (``observe_install``); a present install is invisible.
                if missed[i]:
                    seen_add(ln)
                    if ln in shadow:
                        move(ln)
                    else:
                        shadow[ln] = None
                        if len(shadow) > cap:
                            pop_front(last=False)
                continue
            in_shadow = ln in shadow
            if in_shadow:
                move(ln)
            else:
                shadow[ln] = None
                if len(shadow) > cap:
                    pop_front(last=False)
            hit = hits[i]
            if at_l0 and covered[i]:
                if hit:
                    poll += 1
                else:
                    useful += 1
            if hit:
                continue
            if ln not in seen:
                seen_add(ln)
                comp += 1
                cls = 0
            elif in_shadow:
                conf += 1
                set_idx = set_index(ln)
                set_conflicts[set_idx] = set_conflicts.get(set_idx, 0) + 1
                cls = 2
            else:
                capn += 1
                cls = 1
            if uref is None:
                ref = refs[i]
                if ref != last_ref:
                    counts = per_ref.get(ref)
                    if counts is None:
                        counts = per_ref[ref] = [0, 0, 0]
                    last_ref = ref
            if counts is None:
                counts = per_ref[last_ref] = [0, 0, 0]
            counts[cls] += 1
        lvl.conflict += conf

    lvl.compulsory += comp
    lvl.capacity += capn
    if at_l0:
        pmu.prefetch_useful += useful
        pmu.prefetch_polluting += poll


class FastHierarchy(MemoryHierarchy):
    """Memory hierarchy replaying whole segments columnar-batched.

    Same construction contract, counters, flush and snapshot behaviour
    as the exact :class:`~repro.memsim.hierarchy.MemoryHierarchy`; only
    ``process_segment`` is reimplemented (level-phased batch replay,
    with small segments concatenated into cross-segment batches) and
    the TLB is the order-exact :class:`FastTlb`.  Callers reading state
    after feeding raw segments must :meth:`drain` first — ``run()``,
    ``flush()`` and the telemetry accessors do it automatically, as
    does ``simulate()`` at repetition boundaries.
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
            self.tlb = FastTlb(tlb)
        # Cross-segment op buffer: parallel per-op columns.
        self._buf_lines: List[int] = []
        self._buf_fill: List[bool] = []
        self._buf_covered: List[bool] = []
        self._buf_refs: List[int] = []
        self._buf_ncov = 0

    # -- buffer management ---------------------------------------------------

    def drain(self) -> None:
        """Replay any buffered ops (idempotent)."""
        self._drain_buffer()

    def _drain_buffer(self) -> None:
        lines = self._buf_lines
        if not lines:
            return
        fill = self._buf_fill
        covered = self._buf_covered
        refs = self._buf_refs
        ncov = self._buf_ncov
        self._buf_lines = []
        self._buf_fill = []
        self._buf_covered = []
        self._buf_refs = []
        self._buf_ncov = 0
        self._replay(lines, fill, covered, refs if refs else 0, ncov)

    def attach_pmu(self):
        self._drain_buffer()
        return super().attach_pmu()

    def reset(self) -> None:
        self._buf_lines = []
        self._buf_fill = []
        self._buf_covered = []
        self._buf_refs = []
        self._buf_ncov = 0
        super().reset()

    def flush(self) -> None:
        self._drain_buffer()
        super().flush()

    # -- telemetry -----------------------------------------------------------

    def skip_counts(self) -> Dict[str, int]:
        """Ops credited by certified skips vs. scalar replay, summed over
        levels (keys: ``resident``, ``streaming``, ``replayed``)."""
        self._drain_buffer()
        total = {"resident": 0, "streaming": 0, "replayed": 0}
        for cache in self.caches:
            for key, value in cache.skips.items():
                total[key] += value
        return total

    # -- segment replay ------------------------------------------------------

    def process_segment(self, seg: Segment) -> None:
        count = seg.count
        if count <= 0:
            return
        base = seg.base
        stride = seg.stride
        elem_size = seg.elem_size
        line_size = self.line_size

        # Distinct lines in access order — the same expansion the exact
        # engine performs, vectorized for long affine walks.
        if stride == 0 or count == 1:
            first_line = base // line_size
            last_line = (base + elem_size - 1) // line_size
            lines: List[int] = list(range(first_line, last_line + 1))
        elif 0 < stride < line_size or -line_size < stride < 0:
            lo_byte = base if stride > 0 else base + stride * (count - 1)
            hi_byte = (base + stride * (count - 1) if stride > 0 else base) + elem_size - 1
            first = lo_byte // line_size
            last = hi_byte // line_size
            if stride > 0:
                lines = list(range(first, last + 1))
            else:
                lines = list(range(last, first - 1, -1))
        elif stride % line_size == 0 and base % line_size + elem_size <= line_size:
            step = stride // line_size
            start = base // line_size
            if count >= _NP_MIN:
                lines = (start + np.arange(count, dtype=np.int64) * step).tolist()
            else:
                lines = list(range(start, start + step * count, step))
        elif count >= _NP_MIN:
            addr = base + np.arange(count, dtype=np.int64) * stride
            first_arr = addr // line_size
            if ((addr % line_size) + elem_size > line_size).any():
                lines = self._strided_lines(base, stride, count, elem_size)
            else:
                keep = np.empty(count, dtype=bool)
                keep[0] = True
                np.not_equal(first_arr[1:], first_arr[:-1], out=keep[1:])
                lines = first_arr[keep].tolist()
        else:
            lines = self._strided_lines(base, stride, count, elem_size)

        # TLB walks, prefetcher training and PMU segment accounting are
        # applied eagerly in segment order: none of them depends on
        # cache contents, so deferring only the cache ops is sound.
        pmu = self.pmu
        if self.tlb is not None:
            if pmu is not None:
                walks_before = self.tlb.walks
                self._touch_pages_fast(base, stride, count, elem_size)
                pmu.note_tlb(seg.ref, self.tlb.walks - walks_before)
            else:
                self._touch_pages_fast(base, stride, count, elem_size)

        distinct = len(lines)
        covered_count = self.prefetcher.segment_coverage(seg, distinct)
        if pmu is not None:
            pmu.begin_segment(seg.ref, count * elem_size, distinct)

        if distinct >= _DIRECT_MIN:
            # Big segments replay immediately (their per-set certificates
            # beat concatenation), after any buffered predecessors.
            if self._buf_lines:
                self._drain_buffer()
            covered = [False] * (distinct - covered_count) + [True] * covered_count
            self._replay(lines, seg.is_write, covered, seg.ref, covered_count)
            return

        buf = self._buf_lines
        buf.extend(lines)
        self._buf_fill.extend(repeat(seg.is_write, distinct))
        cov = self._buf_covered
        if covered_count:
            cov.extend(repeat(False, distinct - covered_count))
            cov.extend(repeat(True, covered_count))
            self._buf_ncov += covered_count
        else:
            cov.extend(repeat(False, distinct))
        if pmu is not None:
            self._buf_refs.extend(repeat(seg.ref, distinct))
        if len(buf) >= _FLUSH_OPS:
            self._drain_buffer()

    def _replay(self, ops_lines, ops_fill, ops_covered, ops_refs, ncov) -> None:
        """Walk one op batch through the levels and into DRAM."""
        pmu = self.pmu
        ops_probe: Optional[List[bool]] = None  # None: every op is a probe
        for level, cache in enumerate(self.caches):
            fill = ops_fill if level == 0 else False
            stats = cache.stats
            hits_before = stats.hits
            wb_before = stats.writebacks
            hits, missed, evict = cache.process_batch(ops_lines, ops_probe, fill)
            if pmu is not None:
                _pmu_observe_batch(
                    pmu, level, cache, ops_lines, ops_probe,
                    ops_covered if level == 0 else None, hits, missed, ops_refs,
                )
            if ops_probe is None:
                # All-probe batches resolve from the stats deltas without
                # scanning the flag lists: every probe hit means nothing
                # flows downstream; every probe missed with zero dirty
                # evictions means the stream passes through to the next
                # level unchanged (clean evictions are invisible below).
                hit_delta = stats.hits - hits_before
                if hit_delta == len(ops_lines):
                    return
                if hit_delta == 0 and stats.writebacks == wb_before:
                    if ncov:
                        stats.prefetch_hits += ncov
                    continue
            # Assemble the next level's op stream in cascade order: for
            # each op, its dirty eviction (an install) precedes its
            # demand probe; source order is preserved.  Installs inherit
            # the reference id of the op whose eviction caused them.
            next_lines: List[int] = []
            next_probe: List[bool] = []
            next_covered: List[bool] = []
            probe = ops_probe
            prefetched = 0
            if type(ops_refs) is int:
                for i in range(len(ops_lines)):
                    evicted = evict[i]
                    if evicted is not None:
                        next_lines.append(evicted)
                        next_probe.append(False)
                        next_covered.append(False)
                    if missed[i] and (probe is None or probe[i]):
                        cov = ops_covered[i]
                        next_lines.append(ops_lines[i])
                        next_probe.append(True)
                        next_covered.append(cov)
                        if cov:
                            prefetched += 1
                next_refs = ops_refs
            else:
                next_refs = []
                for i in range(len(ops_lines)):
                    evicted = evict[i]
                    r = ops_refs[i]
                    if evicted is not None:
                        next_lines.append(evicted)
                        next_probe.append(False)
                        next_covered.append(False)
                        next_refs.append(r)
                    if missed[i] and (probe is None or probe[i]):
                        cov = ops_covered[i]
                        next_lines.append(ops_lines[i])
                        next_probe.append(True)
                        next_covered.append(cov)
                        next_refs.append(r)
                        if cov:
                            prefetched += 1
            if prefetched:
                stats.prefetch_hits += prefetched
            if not next_lines:
                return
            ops_lines = next_lines
            ops_probe = next_probe
            ops_covered = next_covered
            ops_refs = next_refs
            ncov = prefetched

        # Whatever passed the last level hits DRAM: probes fill from it,
        # installs write back to it.
        if ops_probe is None:
            reads = len(ops_lines)
        else:
            reads = sum(ops_probe)
        writes = len(ops_lines) - reads
        self.dram.read_lines += reads
        self.dram.written_lines += writes
        if pmu is not None:
            if type(ops_refs) is int:
                if reads:
                    table = pmu.ref_dram_read_lines
                    table[ops_refs] = table.get(ops_refs, 0) + reads
                if writes:
                    table = pmu.ref_dram_written_lines
                    table[ops_refs] = table.get(ops_refs, 0) + writes
            else:
                rd = pmu.ref_dram_read_lines
                wr = pmu.ref_dram_written_lines
                if ops_probe is None:
                    for r in ops_refs:
                        rd[r] = rd.get(r, 0) + 1
                else:
                    for i in range(len(ops_refs)):
                        r = ops_refs[i]
                        if ops_probe[i]:
                            rd[r] = rd.get(r, 0) + 1
                        else:
                            wr[r] = wr.get(r, 0) + 1

    def _touch_pages_fast(self, base: int, stride: int, count: int, elem_size: int) -> None:
        """Page enumeration identical to the exact ``_touch_pages``, fed
        to the batched TLB walk."""
        if stride == 0 or count == 1:
            first = base // PAGE_SIZE
            last = (base + elem_size - 1) // PAGE_SIZE
            pages = range(first, last + 1)
        elif abs(stride) <= PAGE_SIZE:
            lo = base if stride > 0 else base + stride * (count - 1)
            hi = (base + stride * (count - 1) if stride > 0 else base) + elem_size - 1
            first, last = lo // PAGE_SIZE, hi // PAGE_SIZE
            pages = range(first, last + 1) if stride > 0 else range(last, first - 1, -1)
        elif count >= _NP_MIN:
            arr = (base + np.arange(count, dtype=np.int64) * stride) // PAGE_SIZE
            keep = np.empty(count, dtype=bool)
            keep[0] = True
            np.not_equal(arr[1:], arr[:-1], out=keep[1:])
            pages = arr[keep].tolist()
        else:
            pages = []
            prev = None
            for k in range(count):
                page = (base + k * stride) // PAGE_SIZE
                if page != prev:
                    pages.append(page)
                    prev = page
        self.tlb.access_pages(pages)
