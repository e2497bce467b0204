"""Memory-trace representation.

Traces are streams of *segments*, not per-element events: a segment
``(ref, base, stride, count, is_write)`` describes one innermost-loop
execution of one array reference — ``count`` accesses of ``elem_size``
bytes, starting at byte address ``base``, ``stride`` bytes apart.

Compressing the trace this way is what makes pure-Python simulation of
multi-megabyte working sets tractable: the cache models consume *distinct
cache lines* per segment (a 512-element unit-stride f64 segment is 64 line
touches, not 512 events), while op counts are tracked exactly on the side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.analysis.opcount import OpCounts


class LineRun(NamedTuple):
    """Closed-form description of a segment's distinct-line walk.

    The ``count`` distinct line addresses are ``start + k * step`` for
    ``k in range(count)``, *in access order* (``step`` may be negative).
    Only segments whose line walk is exactly an arithmetic progression
    get a ``LineRun``; irregular walks (drifting super-line strides,
    line-straddling elements) return ``None`` from
    :meth:`Segment.line_run` and fall back to enumeration.
    """

    start: int
    step: int
    count: int

    @property
    def last(self) -> int:
        return self.start + (self.count - 1) * self.step

    @property
    def lo(self) -> int:
        """Smallest line address in the run."""
        return min(self.start, self.last)

    @property
    def hi(self) -> int:
        """Largest line address in the run."""
        return max(self.start, self.last)

    def __contains__(self, line: int) -> bool:
        if not self.lo <= line <= self.hi:
            return False
        if self.step == 0:
            return line == self.start
        return (line - self.start) % abs(self.step) == 0


class Segment(NamedTuple):
    """A strided run of accesses from one array reference."""

    ref: int        # reference id (plays the role of the load/store PC)
    base: int       # byte address of the first element
    stride: int     # byte distance between consecutive elements
    count: int      # number of elements accessed
    is_write: bool
    elem_size: int  # bytes per element

    @property
    def span_bytes(self) -> int:
        """Bytes from the first byte touched to one past the last."""
        if self.count <= 0:
            return 0
        return abs(self.stride) * (self.count - 1) + self.elem_size

    def lines(self, line_size: int = 64) -> Sequence[int]:
        """The cache lines the hierarchy probes for this segment, in access
        order: a ``range`` when they are contiguous, else a list.

        A point access (``stride == 0`` or ``count == 1``) probes its
        element's lines, and a sub-line stride the contiguous interval of
        lines it spans, walked in the direction of the accesses.  Any
        other stride probes each access's first line and, if the element
        straddles a line boundary, its last line, dropping a line equal
        to the one probed just before it.
        """
        base, stride, count, elem = self.base, self.stride, self.count, self.elem_size
        if count <= 0:
            return range(0)
        if stride == 0 or count == 1:
            return range(base // line_size, (base + elem - 1) // line_size + 1)
        if abs(stride) < line_size:
            lo = base if stride > 0 else base + stride * (count - 1)
            hi = (base + stride * (count - 1) if stride > 0 else base) + elem - 1
            first, last = lo // line_size, hi // line_size
            return range(first, last + 1) if stride > 0 else range(last, first - 1, -1)
        out: List[int] = []
        previous = None
        for k in range(count):
            addr = base + k * stride
            first = addr // line_size
            if first != previous:
                out.append(first)
                previous = first
            last = (addr + elem - 1) // line_size
            if last != first:
                out.append(last)
                previous = last
        return out

    def line_run(self, line_size: int = 64) -> Optional[LineRun]:
        """The distinct-line walk as an arithmetic progression, or ``None``.

        Mirrors the expansion :func:`repro.memsim.hierarchy.
        MemoryHierarchy.process_segment` performs (and :meth:`lines`): the
        returned run enumerates exactly the same line addresses in the
        same order.  Three closed-form shapes are recognised:

        * point / sub-line element (``stride == 0`` or ``count == 1``):
          one line, or ``None`` if the element straddles a boundary;
        * sub-line stride (``0 < |stride| < line_size``): the contiguous
          line interval walked in access direction;
        * line-multiple stride (``stride % line_size == 0``): one line
          per access, ``stride // line_size`` apart, provided no element
          straddles a line boundary.

        Anything else (drifting super-line strides such as the transpose
        column walk's ``stride = 8 * (n + 1)``) has an irregular walk and
        returns ``None`` — callers fall back to :meth:`lines`.
        """
        if self.count <= 0:
            return None
        if self.stride == 0 or self.count == 1:
            first = self.base // line_size
            last = (self.base + self.elem_size - 1) // line_size
            n = last - first + 1
            return LineRun(first, 1 if n > 1 else 0, n)
        if 0 < abs(self.stride) < line_size:
            lo = self.base if self.stride > 0 else self.base + (self.count - 1) * self.stride
            hi = lo + abs(self.stride) * (self.count - 1) + self.elem_size - 1
            first, last = lo // line_size, hi // line_size
            n = last - first + 1
            if self.stride > 0:
                return LineRun(first, 1 if n > 1 else 0, n)
            return LineRun(last, -1 if n > 1 else 0, n)
        if self.stride % line_size == 0:
            if self.base % line_size + self.elem_size > line_size:
                return None  # every access straddles a boundary
            return LineRun(self.base // line_size, self.stride // line_size, self.count)
        return None  # drifting walk: lines repeat/skip irregularly


class SegmentBatch(NamedTuple):
    """A run of segments in stream order, as parallel NumPy columns.

    Row ``k`` of the columns is one :class:`Segment`; the trace generator
    yields these so consumers can take whole columns (the native replay
    engine does) instead of one object per segment.
    """

    ref: np.ndarray        # int64
    base: np.ndarray       # int64
    stride: np.ndarray     # int64
    count: np.ndarray      # int64
    is_write: np.ndarray   # bool
    elem_size: np.ndarray  # int64

    def segments(self) -> List[Segment]:
        """The rows as :class:`Segment` objects."""
        return list(map(Segment._make, zip(*(col.tolist() for col in self))))


class Reference(NamedTuple):
    """Static identity of an array reference (the tracer's 'PC')."""

    ref_id: int
    array: str
    is_write: bool
    elem_size: int


class RefInfo(NamedTuple):
    """Full attribution record for one static reference.

    The trace generator assigns one of these to every reference id it
    emits; the simulated PMU keys its per-reference counters by the id,
    and ``repro perf annotate`` joins them back to IR statements through
    ``stmt_id`` (the program-order index of the leaf statement, matching
    the pretty printer's walk).  ``ref_id == -1`` groups the rare scalar
    setup accesses emitted outside any innermost loop.
    """

    ref_id: int
    array: str
    is_write: bool
    elem_size: int
    stmt_id: int    # program-order leaf index (-1: outside any leaf plan)
    loop: str       # innermost loop variable ('' for setup leaves)
    depth: int      # loop-nest depth of the reference (0 = top level)


@dataclass
class CoreWork:
    """Everything one core did: operations plus emitted trace volume.

    ``scalar`` counts work in scalar loops, ``vector`` work executed inside
    vectorized innermost loops (the timing model divides the latter by the
    device's vector lane count).
    """

    scalar: OpCounts = field(default_factory=OpCounts)
    vector: OpCounts = field(default_factory=OpCounts)
    segments: int = 0

    @property
    def total(self) -> OpCounts:
        return self.scalar + self.vector

    def merge(self, other: "CoreWork") -> "CoreWork":
        return CoreWork(
            scalar=self.scalar + other.scalar,
            vector=self.vector + other.vector,
            segments=self.segments + other.segments,
        )
