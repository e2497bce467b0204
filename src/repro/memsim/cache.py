"""Set-associative cache model.

Write-back, write-allocate (the organization of every cache in the paper's
four devices).  The model is line-granular: the hierarchy feeds it one
cache-line address per distinct line of a trace segment.

Performance note: this is the hottest loop of the whole simulator, so the
implementation favours flat lists and local variables over abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import SimulationError
from repro.memsim.replacement import make_policy


def set_mask(num_sets: int) -> Optional[int]:
    """Bit mask for power-of-two set counts, ``None`` otherwise.

    The single source of set-indexing truth: power-of-two set counts
    index with ``line & mask``; others (the Xeon's 15 MiB 12-way L3 has
    20480 sets) fall back to ``line % num_sets``.  Both the exact and
    the native engines derive their set indices from this mask.
    """
    return num_sets - 1 if not (num_sets & (num_sets - 1)) else None


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache level."""

    hits: int = 0
    misses: int = 0
    prefetch_hits: int = 0   # misses whose latency a prefetcher hid
    writebacks: int = 0      # dirty lines evicted downward
    fills: int = 0           # lines brought in from below

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.prefetch_hits = 0
        self.writebacks = self.fills = 0


class Cache:
    """One level of set-associative cache."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        line_size: int = 64,
        policy: str = "lru",
    ):
        if size_bytes % (ways * line_size):
            raise SimulationError(
                f"{name}: size {size_bytes} not divisible by ways*line "
                f"({ways}*{line_size})"
            )
        num_sets = size_bytes // (ways * line_size)
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        self.num_sets = num_sets
        self.policy_name = policy
        self.policy = make_policy(policy, num_sets, ways)
        self.stats = CacheStats()
        self._set_mask = set_mask(num_sets)
        # Per set: line -> way, plus way-indexed line and dirty arrays.
        self._where: List[dict] = [dict() for _ in range(num_sets)]
        self._lines: List[List[Optional[int]]] = [[None] * ways for _ in range(num_sets)]
        self._dirty: List[List[bool]] = [[False] * ways for _ in range(num_sets)]

    def access(self, line: int, is_write: bool) -> Tuple[bool, Optional[int]]:
        """Access one line.  Returns (hit, evicted_dirty_line_or_None).

        On a miss the line is filled (write-allocate); the caller is
        responsible for fetching it from the level below and for handling
        the writeback of any evicted dirty line.
        """
        set_idx = self.set_index(line)
        where = self._where[set_idx]
        way = where.get(line)
        if way is not None:
            self.stats.hits += 1
            self.policy.on_hit(set_idx, way)
            if is_write:
                self._dirty[set_idx][way] = True
            return True, None

        self.stats.misses += 1
        self.stats.fills += 1
        lines = self._lines[set_idx]
        dirty = self._dirty[set_idx]
        writeback = None
        if len(where) < self.ways:
            way = lines.index(None)
        else:
            way = self.policy.victim(set_idx)
            old = lines[way]
            del where[old]
            if dirty[way]:
                self.stats.writebacks += 1
                writeback = old
        lines[way] = line
        dirty[way] = is_write
        where[line] = way
        self.policy.on_fill(set_idx, way)
        return False, writeback

    def set_index(self, line: int) -> int:
        """Set a line maps to — the one mask/modulo rule (:func:`set_mask`),
        shared by :meth:`access` and the hierarchy's writeback path; the
        native engine's caches derive the same rule from :func:`set_mask`."""
        mask = self._set_mask
        return line & mask if mask is not None else line % self.num_sets

    def contains(self, line: int) -> bool:
        return line in self._where[self.set_index(line)]

    def dirty_lines(self) -> List[int]:
        """Dirty resident lines, set-major order.

        The one definition of end-of-run writeback traffic: both engines
        implement it, :meth:`flush_dirty_count` counts it, and
        :meth:`MemoryHierarchy.flush` charges the across-level dedup of it
        to DRAM — so ``dram.written_lines`` (hence total writeback bytes)
        cannot diverge between the accounting paths.
        """
        out: List[int] = []
        for set_lines, set_dirty in zip(self._lines, self._dirty):
            for line, dirty in zip(set_lines, set_dirty):
                if dirty and line is not None:
                    out.append(line)
        return out

    def flush_dirty_count(self) -> int:
        """Number of dirty lines currently resident (end-of-run writeback
        traffic owed to DRAM at this level, before cross-level dedup)."""
        return len(self.dirty_lines())

    def reset(self) -> None:
        self.stats.reset()
        self.policy = make_policy(self.policy_name, self.num_sets, self.ways)
        for set_idx in range(self.num_sets):
            self._where[set_idx].clear()
            self._lines[set_idx] = [None] * self.ways
            self._dirty[set_idx] = [False] * self.ways

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kib = self.size_bytes / 1024
        return f"Cache({self.name}: {kib:g} KiB, {self.ways}-way, {self.policy_name})"
