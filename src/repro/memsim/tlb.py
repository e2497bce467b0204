"""TLB models (Sv39-style 4 KiB pages).

The paper lists each device's TLB organization (C906: 20-entry fully
associative uTLB + 128-entry 2-way jTLB; U74: 40-entry fully associative
L1 TLBs + 512-entry direct-mapped L2 TLB).  Strided kernels like the naive
transpose touch a new page per access once the matrix rows exceed a page,
so TLB misses contribute measurably on the small RISC-V TLBs.

The model is a two-level structure processed at page granularity from the
same compressed segments as the caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.memsim.cache import CacheStats
from repro.errors import SimulationError

PAGE_SIZE = 4096


@dataclass
class TlbSpec:
    """Geometry of a two-level TLB."""

    l1_entries: int
    l1_ways: int              # 0 = fully associative
    l2_entries: int = 0
    l2_ways: int = 0          # 0 = fully associative, 1 = direct mapped
    walk_cycles: int = 40     # page-walk cost on an L2 TLB miss

    def build(self) -> "Tlb":
        return Tlb(self)


class TlbLevel:
    """Geometry and hit/miss counts of one TLB level."""

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

    def reset(self) -> None:
        self.stats.reset()


class _TlbLevel(TlbLevel):
    """A tiny set-associative page-number cache (LRU)."""

    def __init__(self, entries: int, ways: int, name: str):
        super().__init__(entries, ways, name)
        self._sets: List[dict] = [dict() for _ in range(self.num_sets)]
        self._order: List[List[int]] = [[] for _ in range(self.num_sets)]

    def access(self, page: int) -> bool:
        set_idx = page % self.num_sets
        entries = self._sets[set_idx]
        order = self._order[set_idx]
        if page in entries:
            self.stats.hits += 1
            order.remove(page)
            order.append(page)
            return True
        self.stats.misses += 1
        if len(order) >= self.ways:
            victim = order.pop(0)
            del entries[victim]
        entries[page] = True
        order.append(page)
        return False

    def reset(self) -> None:
        super().reset()
        for set_idx in range(self.num_sets):
            self._sets[set_idx].clear()
            self._order[set_idx].clear()


class Tlb:
    """Two-level TLB; exposes total page-walks for the timing model."""

    #: The class of each level; this exact model keeps its pages per set.
    level_class = _TlbLevel

    def __init__(self, spec: TlbSpec):
        self.spec = spec
        self.l1 = self.level_class(spec.l1_entries, spec.l1_ways, "dTLB-L1")
        self.l2 = (
            self.level_class(spec.l2_entries, spec.l2_ways, "dTLB-L2")
            if spec.l2_entries
            else None
        )

    def access_page(self, page: int) -> None:
        if self.l1.access(page):
            return
        if self.l2 is not None:
            self.l2.access(page)

    @property
    def walks(self) -> int:
        """Full page walks performed (misses at the last TLB level)."""
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
