"""Simulated performance-monitoring unit (PMU).

Real RISC-V boards attribute slowdowns with hardware counters (cycle,
cache-miss, TLB-miss events); since we *simulate* the hierarchy we can do
strictly better: exact, deterministic counters with full attribution.  A
:class:`Pmu` attached to one core's :class:`~repro.memsim.hierarchy.
MemoryHierarchy` observes every line probe at every level and maintains:

* **3C miss classification** per level (Hill's compulsory / capacity /
  conflict taxonomy): a miss on a never-before-seen line is *compulsory*;
  otherwise it is replayed against a fully-associative LRU *shadow* cache
  of the same capacity — present in the shadow means only the set mapping
  evicted it (*conflict*), absent means the working set simply does not
  fit (*capacity*).  The shadow tracks recency on every access (hits
  included) so it always models "same capacity, perfect associativity".
* **Per-set conflict histograms** — which sets the conflict misses pile
  into (the Fig. 2 Naive transpose aliases one set per column walk).
* **Prefetch accuracy** — covered lines that actually missed at L1 were
  *useful* prefetches; covered lines that hit anyway were *polluting*
  (the prefetch was redundant); trainable-stream lines the prefetcher
  did not cover are *late* (see :mod:`repro.memsim.prefetch`).
* **Per-reference attribution** — every counter above keyed by the static
  reference id (the "PC") each :class:`~repro.exec.trace.Segment`
  carries, which ``repro perf annotate`` joins back to IR statements.

A PMU attached in counters mode (:data:`PMU_MODES`) is read for its
totals only (:meth:`Pmu.counters`); the fast engine then keeps the
per-set and per-reference tables empty, and the exact engine, the
oracle, fills them anyway.

Observation is strictly passive: attaching a PMU never changes hit/miss
behaviour, replacement state or DRAM traffic (a property the test suite
asserts).  The flat counter view (:meth:`Pmu.counters`) uses stable
dotted names (``pmu.L1.conflict``) that merge into the profiling counter
registry and its committed baselines.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (hierarchy imports us)
    from repro.memsim.cache import Cache
    from repro.memsim.hierarchy import MemoryHierarchy

#: Index into a per-reference 3C count triple.
COMPULSORY, CAPACITY, CONFLICT = 0, 1, 2

#: The 3C class names, in triple order (stable counter/report order).
MISS_CLASSES = ("compulsory", "capacity", "conflict")

#: Flat prefetch-accuracy counter suffixes, in registry order.
PREFETCH_COUNTERS = ("issued", "useful", "late", "polluting")

#: What an attached PMU computes (``MemoryHierarchy.attach_pmu``): every
#: table below, or only the totals :meth:`Pmu.counters` reads.
PMU_MODES = ("attribution", "counters")


class LevelPmu:
    """3C classification state for one cache level."""

    __slots__ = (
        "name",
        "capacity_lines",
        "seen",
        "shadow",
        "compulsory",
        "capacity",
        "conflict",
        "set_conflicts",
        "per_ref",
    )

    def __init__(self, name: str, capacity_lines: int):
        self.name = name
        self.capacity_lines = max(1, capacity_lines)
        self.seen: set = set()                      # every line ever resident
        self.shadow: "OrderedDict[int, None]" = OrderedDict()  # FA LRU shadow
        self.compulsory = 0
        self.capacity = 0
        self.conflict = 0
        self.set_conflicts: Dict[int, int] = {}     # set index -> conflict count
        self.per_ref: Dict[int, List[int]] = {}     # ref id -> [comp, cap, conf]

    @property
    def misses(self) -> int:
        return self.compulsory + self.capacity + self.conflict

    def reset(self) -> None:
        self.seen.clear()
        self.shadow.clear()
        self.compulsory = self.capacity = self.conflict = 0
        self.set_conflicts.clear()
        self.per_ref.clear()


class Pmu:
    """Passive observer of one core's hierarchy; see the module docstring."""

    def __init__(self, hierarchy: "MemoryHierarchy"):
        self.levels = [
            LevelPmu(cache.name, cache.size_bytes // cache.line_size)
            for cache in hierarchy.caches
        ]
        self.prefetcher = hierarchy.prefetcher
        self.prefetch_useful = 0
        self.prefetch_polluting = 0
        self.current_ref = -1
        # Per-reference attribution (ref id -> count); -1 groups the rare
        # scalar-setup accesses emitted outside innermost loops.
        self.ref_accesses: Dict[int, int] = {}      # L1 line touches
        self.ref_bytes: Dict[int, int] = {}         # element bytes requested
        self.ref_dram_read_lines: Dict[int, int] = {}
        self.ref_dram_written_lines: Dict[int, int] = {}   # blamed on the evictor
        self.ref_tlb_walks: Dict[int, int] = {}

    # -- per-segment bookkeeping -------------------------------------------

    def begin_segment(self, ref: int, element_bytes: int, distinct_lines: int) -> None:
        self.current_ref = ref
        self.ref_bytes[ref] = self.ref_bytes.get(ref, 0) + element_bytes
        # L1 probes one line per distinct line in the segment; accounting
        # them here (instead of per probe) keeps the hot path lean.
        self.ref_accesses[ref] = self.ref_accesses.get(ref, 0) + distinct_lines

    def note_tlb(self, ref: int, walks: int) -> None:
        if walks:
            self.ref_tlb_walks[ref] = self.ref_tlb_walks.get(ref, 0) + walks

    # -- the hot observation path ------------------------------------------

    def observe(self, level: int, line: int, hit: bool, cache: "Cache", covered: bool) -> None:
        """One probe of ``line`` at ``level`` (called for hits and misses)."""
        lvl = self.levels[level]
        shadow = lvl.shadow
        in_shadow = line in shadow
        # The shadow is a true FA LRU over the probe stream: every probe
        # installs or bumps, hits included — membership before this probe
        # (``in_shadow``) is exactly "LRU stack distance < capacity".
        if in_shadow:
            shadow.move_to_end(line)
        else:
            shadow[line] = None
            if len(shadow) > lvl.capacity_lines:
                shadow.popitem(last=False)
        if covered and level == 0:
            if hit:
                self.prefetch_polluting += 1
            else:
                self.prefetch_useful += 1
        if hit:
            return
        if line not in lvl.seen:
            lvl.seen.add(line)
            lvl.compulsory += 1
            cls = COMPULSORY
        elif in_shadow:
            # A fully-associative cache of the same capacity would have hit:
            # the set mapping alone evicted this line.
            lvl.conflict += 1
            set_idx = cache.set_index(line)
            lvl.set_conflicts[set_idx] = lvl.set_conflicts.get(set_idx, 0) + 1
            cls = CONFLICT
        else:
            lvl.capacity += 1
            cls = CAPACITY
        counts = lvl.per_ref.get(self.current_ref)
        if counts is None:
            counts = lvl.per_ref[self.current_ref] = [0, 0, 0]
        counts[cls] += 1

    def observe_install(self, level: int, line: int) -> None:
        """A writeback from above installed ``line`` at ``level`` without a
        fill-read; the shadow (and the seen set) must track the contents."""
        lvl = self.levels[level]
        lvl.seen.add(line)
        shadow = lvl.shadow
        if line in shadow:
            shadow.move_to_end(line)
        else:
            shadow[line] = None
            if len(shadow) > lvl.capacity_lines:
                shadow.popitem(last=False)

    def dram_read(self) -> None:
        ref = self.current_ref
        self.ref_dram_read_lines[ref] = self.ref_dram_read_lines.get(ref, 0) + 1

    def dram_write(self) -> None:
        ref = self.current_ref
        self.ref_dram_written_lines[ref] = self.ref_dram_written_lines.get(ref, 0) + 1

    def dram_flush(self, lines: int) -> None:
        """End-of-run flush writebacks (no single evictor to blame: they
        join ref ``-1`` so per-reference DRAM-write attribution still sums
        to the hierarchy's ``dram.written_lines``)."""
        if lines:
            self.ref_dram_written_lines[-1] = self.ref_dram_written_lines.get(-1, 0) + lines

    # -- views --------------------------------------------------------------

    def counters(self) -> "OrderedDict[str, int]":
        """The flat, stable-named counter view (monotonic, snapshot-able)."""
        out: "OrderedDict[str, int]" = OrderedDict()
        for lvl in self.levels:
            out[f"pmu.{lvl.name}.compulsory"] = lvl.compulsory
            out[f"pmu.{lvl.name}.capacity"] = lvl.capacity
            out[f"pmu.{lvl.name}.conflict"] = lvl.conflict
        out["pmu.prefetch.issued"] = self.prefetcher.covered_lines
        out["pmu.prefetch.useful"] = self.prefetch_useful
        out["pmu.prefetch.late"] = getattr(self.prefetcher, "late_lines", 0)
        out["pmu.prefetch.polluting"] = self.prefetch_polluting
        return out

    def level(self, name: str) -> LevelPmu:
        for lvl in self.levels:
            if lvl.name == name:
                return lvl
        raise KeyError(name)

    def reset(self) -> None:
        for lvl in self.levels:
            lvl.reset()
        self.prefetch_useful = self.prefetch_polluting = 0
        self.current_ref = -1
        self.ref_accesses.clear()
        self.ref_bytes.clear()
        self.ref_dram_read_lines.clear()
        self.ref_dram_written_lines.clear()
        self.ref_tlb_walks.clear()
