"""Composed memory hierarchy: caches + prefetcher + TLB + DRAM counters.

One :class:`MemoryHierarchy` instance models what a single core sees.
Shared levels (the U74's shared L2, the Xeon's shared L3) are modelled by
capacity partitioning: a device with ``n`` active cores builds each core's
hierarchy with ``shared_size / n`` at the shared levels (see
``repro.devices.build_hierarchy``), which keeps per-core streams
independent and the simulation single-pass.  DESIGN.md §5.3 discusses the
approximation; the ablation bench sweeps it.

The hierarchy consumes compressed trace segments.  Per segment it:

1. touches the TLB once per distinct page;
2. asks the prefetcher how many of the distinct lines are covered;
3. walks each distinct line through the cache levels with write-back /
   write-allocate semantics, cascading dirty evictions downward, counting
   DRAM line reads and writes at the bottom.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import SimulationError
from repro.exec.trace import Segment, SegmentBatch
from repro.memsim.cache import Cache
from repro.memsim.dram import DramCounters
from repro.memsim.prefetch import NO_PREFETCH, PrefetcherSpec, StridePrefetcher
from repro.memsim.tlb import PAGE_SIZE, TlbSpec


class MemoryHierarchy:
    """A single core's view of the memory system."""

    #: Replay engine this class implements (``SimulationResult.engine``).
    engine = "exact"

    #: Host nanoseconds replay threads spent inside compiled drains of
    #: this hierarchy (observability only).  The exact engine replays on
    #: the caller's thread, so it stays 0.
    replay_busy_ns = 0

    def __init__(
        self,
        caches: Sequence[Cache],
        prefetch: PrefetcherSpec = NO_PREFETCH,
        tlb: Optional[TlbSpec] = None,
        line_size: int = 64,
    ):
        if not caches:
            raise SimulationError("hierarchy needs at least one cache level")
        for cache in caches:
            if cache.line_size != line_size:
                raise SimulationError(
                    f"cache {cache.name} line size {cache.line_size} != {line_size}"
                )
        self.caches = list(caches)
        self.prefetcher = StridePrefetcher(prefetch, line_size)
        self.tlb = tlb.build() if tlb is not None else None
        self.dram = DramCounters(line_size=line_size)
        self.line_size = line_size
        self.pmu = None  # attach_pmu() installs a passive observer

    def attach_pmu(self, mode: str = "attribution"):
        """Attach (and return) a simulated PMU observing this hierarchy.

        Purely observational: hit/miss behaviour, replacement state and
        DRAM traffic are identical with or without a PMU attached.
        ``mode`` (:data:`~repro.memsim.pmu.PMU_MODES`) says what the
        caller reads: ``"attribution"`` every counter and table of the
        :class:`~repro.memsim.pmu.Pmu`, ``"counters"`` only its 3C and
        prefetch totals (:meth:`~repro.memsim.pmu.Pmu.counters`).  This
        engine, the oracle, attributes in both modes; the fast engine's
        counters mode leaves the per-reference and per-set tables empty.
        """
        from repro.memsim.pmu import PMU_MODES, Pmu

        if mode not in PMU_MODES:
            raise SimulationError(f"unknown PMU mode {mode!r} (expected one of {PMU_MODES})")
        self.pmu = Pmu(self)
        return self.pmu

    # -- core access paths ---------------------------------------------------

    def _access_line(self, line: int, is_write: bool, covered: bool, pmu=None) -> None:
        caches = self.caches
        last = len(caches) - 1
        level = 0
        while level <= last:
            cache = caches[level]
            hit, writeback = cache.access(line, is_write and level == 0)
            if pmu is not None:
                pmu.observe(level, line, hit, cache, covered)
            if writeback is not None:
                self._install_writeback(writeback, level + 1)
            if hit:
                return
            if covered:
                cache.stats.prefetch_hits += 1
            level += 1
        # Missed everywhere: fill from DRAM.
        self.dram.read_lines += 1
        if pmu is not None:
            pmu.dram_read()

    def _install_writeback(self, line: int, level: int) -> None:
        """A dirty line evicted from ``level - 1`` lands at ``level``."""
        if level >= len(self.caches):
            self.dram.written_lines += 1
            if self.pmu is not None:
                self.pmu.dram_write()
            return
        cache = self.caches[level]
        set_idx = cache.set_index(line)
        where = cache._where[set_idx]
        way = where.get(line)
        if way is not None:
            cache._dirty[set_idx][way] = True
            cache.policy.on_hit(set_idx, way)
            return
        # Allocate without a fill-read: the whole line is being written.
        lines = cache._lines[set_idx]
        dirty = cache._dirty[set_idx]
        if len(where) < cache.ways:
            way = lines.index(None)
        else:
            way = cache.policy.victim(set_idx)
            old = lines[way]
            del where[old]
            if dirty[way]:
                cache.stats.writebacks += 1
                self._install_writeback(old, level + 1)
        lines[way] = line
        dirty[way] = True
        where[line] = way
        cache.policy.on_fill(set_idx, way)
        if self.pmu is not None:
            self.pmu.observe_install(level, line)

    # -- segment processing ------------------------------------------------------

    def process_segment(self, seg: Segment) -> None:
        count = seg.count
        if count <= 0:
            return
        base = seg.base
        stride = seg.stride
        is_write = seg.is_write
        line_list = seg.lines(self.line_size)

        pmu = self.pmu
        if self.tlb is not None:
            if pmu is not None:
                walks_before = self.tlb.walks
                self._touch_pages(base, stride, count, seg.elem_size)
                pmu.note_tlb(seg.ref, self.tlb.walks - walks_before)
            else:
                self._touch_pages(base, stride, count, seg.elem_size)

        distinct = len(line_list)
        covered = self.prefetcher.segment_coverage(seg, distinct)
        uncovered_prefix = distinct - covered
        if pmu is not None:
            pmu.begin_segment(seg.ref, count * seg.elem_size, distinct)

        access = self._access_line
        for index, line in enumerate(line_list):
            access(line, is_write, index >= uncovered_prefix, pmu)

    def process_segments(self, batch: SegmentBatch) -> None:
        """Process a batch of segments in order, as consecutive
        :meth:`process_segment` calls would."""
        process = self.process_segment
        for seg in batch.segments():
            process(seg)

    def _touch_pages(self, base: int, stride: int, count: int, elem_size: int) -> None:
        tlb = self.tlb
        if stride == 0 or count == 1:
            span = elem_size
            first = base // PAGE_SIZE
            last = (base + span - 1) // PAGE_SIZE
            for page in range(first, last + 1):
                tlb.access_page(page)
            return
        if abs(stride) <= PAGE_SIZE:
            lo = base if stride > 0 else base + stride * (count - 1)
            hi = (base + stride * (count - 1) if stride > 0 else base) + elem_size - 1
            first, last = lo // PAGE_SIZE, hi // PAGE_SIZE
            pages = range(first, last + 1) if stride > 0 else range(last, first - 1, -1)
            for page in pages:
                tlb.access_page(page)
            return
        prev = None
        for k in range(count):
            page = (base + k * stride) // PAGE_SIZE
            if page != prev:
                tlb.access_page(page)
                prev = page

    # -- bookkeeping -----------------------------------------------------------

    def run(self, segments) -> None:
        process = self.process_segment
        for seg in segments:
            process(seg)
        self.drain()

    def drain(self) -> None:
        """Flush any internally buffered work.  The exact engine applies
        every segment immediately, so this is a no-op; the fast engine
        overrides it (it concatenates small segments into cross-segment
        batches and replays them on its replay threads) and it must be
        called before reading state after a raw ``process_segment``
        stream."""

    def submit(self) -> None:
        """Start replaying any buffered work without waiting for it; a
        no-op here, as for :meth:`drain`.  The fast engine queues its
        buffer on the hierarchy's replay lane, and only :meth:`drain`
        makes its state readable."""

    def reset(self) -> None:
        for cache in self.caches:
            cache.reset()
        self.prefetcher.reset()
        if self.tlb is not None:
            self.tlb.reset()
        self.dram.reset()
        if self.pmu is not None:
            self.pmu.reset()

    def flush(self) -> None:
        """Charge every currently dirty line as a DRAM writeback.

        Used by one-shot (non-steady-state) measurements so that written
        data is accounted even if it never got evicted.  A line dirty at
        several levels is charged once (it would coalesce on the way out).
        Built on :meth:`Cache.dirty_lines` — the same definition both
        engines and :meth:`Cache.flush_dirty_count` use — and reported to
        the PMU so per-reference DRAM-write attribution sums to
        ``dram.written_lines`` whether or not a flush happened.
        """
        dirty_lines = set()
        for cache in self.caches:
            dirty_lines.update(cache.dirty_lines())
        self.dram.written_lines += len(dirty_lines)
        if self.pmu is not None:
            self.pmu.dram_flush(len(dirty_lines))

    @property
    def dram_bytes(self) -> int:
        return self.dram.total_bytes
