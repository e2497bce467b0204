"""Per-reference segment groups and the exact reuse-relation walk.

The classifier's unit of analysis is a **segment group**: all segments
one static reference emits into one core's stream, in program order.
Cross-reference interference is explicitly out of scope — each group is
modelled against a private, initially cold cache level, and the
differential harness replays under the same isolation (see
``validate.py``).  This is what makes per-segment claims *provable*: a
group's reuse structure is closed-form affine, the interleaving of four
references is not.

Pass 1 (this module, level-independent): walk the group once, resolving
every distinct line of every segment against the group's history:

* **fresh** — never touched before (a compulsory miss at every level);
* **revisit of segment s** — grouped into a :class:`RevisitClass` whose
  *exact* fully-associative reuse distance comes from the interval
  decomposition: between the line's touch in ``s`` and its touch now
  stand the rest of ``s`` after the line's position, every segment in
  the gap ``(s, t)``, and the current segment's prefix — mutually
  distinct whenever no gap segment re-touches a line from ``s`` or
  earlier (checked, not assumed; the certificate cites it).

Reuse distances here count *distinct cache lines touched in between*,
i.e. LRU stack distance, so "distance >= capacity" is exactly "a
fully-associative LRU cache of that capacity misses" — the same
predicate the PMU's shadow cache evaluates dynamically.

Pass 2 (``classify.py``) maps these level-independent relation records
onto each cache level's geometry (capacity, ways, set mapping, policy)
to produce verdicts and certificates.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cachemodel.setmath import LinesRep, rep_count, rep_lines
from repro.exec.trace import LineRun, RefInfo, Segment
from repro.exec.tracegen import TraceGenerator
from repro.ir.program import MemoryLayout, Program

#: Longest inter-segment gap the exact interval decomposition will walk.
#: Revisits that reach further back get distance *bounds* instead (and
#: classify UNKNOWN unless the bounds alone decide the level); every
#: paper kernel's reuse pattern closes within a handful of segments.
GAP_CAP = 96


@dataclass
class RevisitClass:
    """All lines of segment ``t`` whose previous toucher is segment ``s``."""

    s: int
    count: int
    exact: bool
    d_lo: int                    # reuse-distance lower bound (exact: min)
    d_hi: int                    # reuse-distance upper bound (exact: max)
    # Exact per-line data, one of the two (uniform-distance runs compress):
    run_pair: Optional[Tuple[LineRun, int]] = None   # (revisited lines, D)
    pairs: Optional[List[Tuple[int, int]]] = None    # [(line, D), ...]
    shift: Optional[int] = None  # positional offset vs s (same-step APs)

    def line_distance_pairs(self) -> List[Tuple[int, int]]:
        if self.pairs is not None:
            return self.pairs
        if self.run_pair is not None:
            run, dist = self.run_pair
            return [(line, dist) for line in rep_lines(run)]
        return []


@dataclass
class SegRecord:
    """Level-independent relation facts for one segment."""

    t: int
    touches: int                 # distinct lines (L1 probes) this segment
    fresh: int                   # never-before-touched lines
    classes: List[RevisitClass] = field(default_factory=list)
    max_prev: int = -1           # newest source segment among revisits

    @property
    def revisits(self) -> int:
        return self.touches - self.fresh


@dataclass
class SegmentGroup:
    """One reference's segment stream plus its relation records."""

    core: int
    ref: RefInfo
    segments: List[Segment]
    reps: List[LinesRep] = field(default_factory=list)
    records: List[SegRecord] = field(default_factory=list)
    line_set: Set[int] = field(default_factory=set)
    distinct_lines: int = 0
    touches: int = 0

    @property
    def key(self) -> Tuple[int, int]:
        return (self.core, self.ref.ref_id)


def extract_groups(
    program: Program,
    num_cores: int = 1,
    layout: Optional[MemoryLayout] = None,
    line_size: int = 64,
) -> List[SegmentGroup]:
    """Split a program's trace into per-(core, reference) segment groups."""
    gen = TraceGenerator(program, num_cores=num_cores, layout=layout)
    streams: List[List[Segment]] = []
    for core in range(num_cores):
        streams.append([seg for batch in gen.core_stream(core) for seg in batch.segments()])
    refs = gen.references()
    groups: Dict[Tuple[int, int], SegmentGroup] = {}
    order: List[Tuple[int, int]] = []
    for core, stream in enumerate(streams):
        for seg in stream:
            key = (core, seg.ref)
            group = groups.get(key)
            if group is None:
                info = refs.get(seg.ref)
                if info is None:
                    info = RefInfo(seg.ref, "?", seg.is_write, seg.elem_size, -1, "", 0)
                group = groups[key] = SegmentGroup(core=core, ref=info, segments=[])
                order.append(key)
            group.segments.append(seg)
    out = [groups[key] for key in order]
    for group in out:
        _walk_group(group, line_size)
    return out


# -- the relation walk --------------------------------------------------------


def _position_in(rep: LinesRep, line: int, index: Optional[Dict[int, int]]) -> int:
    if isinstance(rep, LineRun):
        if rep.step == 0:
            return 0
        return (line - rep.start) // rep.step
    assert index is not None
    return index[line]


def _walk_group(group: SegmentGroup, line_size: int) -> None:
    """Populate ``group.reps`` / ``group.records`` (pass 1)."""
    line_last: Dict[int, int] = {}
    reps = group.reps
    records = group.records
    cum_d = [0]          # prefix sums of per-segment distinct-line counts
    cum_fresh = [0]      # prefix sums of per-segment fresh-line counts
    touches_total = 0
    index_cache: Dict[int, Dict[int, int]] = {}  # tuple-rep position maps

    for t, seg in enumerate(group.segments):
        run = seg.line_run(line_size)
        rep: LinesRep
        if run is not None:
            rep = run
            lines = list(rep_lines(run))
        else:
            lines = list(seg.lines(line_size))
            rep = tuple(lines)
        reps.append(rep)
        d = len(lines)
        touches_total += d

        # Resolve each line's previous toucher (claims), in position order.
        claims = [line_last.get(line, -1) for line in lines]
        fresh = sum(1 for s in claims if s < 0)
        record = SegRecord(t=t, touches=d, fresh=fresh)

        by_source: Dict[int, List[int]] = {}
        for pos, s in enumerate(claims):
            if s >= 0:
                by_source.setdefault(s, []).append(pos)

        if by_source:
            record.max_prev = max(by_source)
            for s, positions in sorted(by_source.items()):
                record.classes.append(
                    _build_class(
                        records, cum_d, cum_fresh, reps, index_cache,
                        t, s, positions, lines, claims,
                    )
                )

        records.append(record)
        cum_d.append(cum_d[-1] + d)
        cum_fresh.append(cum_fresh[-1] + fresh)
        for line in lines:
            line_last[line] = t

        if isinstance(rep, tuple):
            index_cache[t] = {line: pos for pos, line in enumerate(lines)}
        # Evict stale position maps outside the exactness window.
        stale = t - GAP_CAP - 1
        if stale in index_cache:
            del index_cache[stale]

    group.line_set = set(line_last)
    group.distinct_lines = len(line_last)
    group.touches = touches_total


def _build_class(
    records: List[SegRecord],
    cum_d: List[int],
    cum_fresh: List[int],
    reps: List[LinesRep],
    index_cache: Dict[int, Dict[int, int]],
    t: int,
    s: int,
    positions: List[int],
    lines: List[int],
    claims: List[int],
) -> RevisitClass:
    """Exact reuse distances for the lines of ``t`` last touched by ``s``."""
    count = len(positions)
    gap_lo, gap_hi = s + 1, t            # gap segments: s+1 .. t-1
    gap_len = gap_hi - gap_lo
    d_s = rep_count(reps[s])

    # Exactness: every gap segment's revisits must reach *behind* s, so
    # that gap lines are mutually distinct and disjoint from segment s
    # (a shared line between two gap segments, or between a gap segment
    # and s, would surface as a claim >= s inside the gap).
    exact = gap_len <= GAP_CAP
    if exact:
        for u in range(gap_lo, gap_hi):
            if records[u].max_prev >= s:
                exact = False
                break

    if not exact:
        # Sound distance bounds from cumulative counts: fresh lines in
        # the gap are distinct and in-between (lower); every touch in the
        # gap plus both end segments bounds the distinct count (upper).
        fresh_gap = cum_fresh[gap_hi] - cum_fresh[gap_lo]
        touches_gap = cum_d[gap_hi] - cum_d[gap_lo]
        d_cur = len(lines)
        return RevisitClass(
            s=s, count=count, exact=False,
            d_lo=fresh_gap,
            d_hi=(d_s - 1) + touches_gap + (d_cur - 1),
        )

    gap_total = cum_d[gap_hi] - cum_d[gap_lo]

    s_rep = reps[s]
    s_index = index_cache.get(s) if isinstance(s_rep, tuple) else None
    if isinstance(s_rep, tuple) and s_index is None:
        s_index = {line: pos for pos, line in enumerate(s_rep)}
        index_cache[s] = s_index

    # Prefix lines that are new to the interval (s, t): everything except
    # lines whose own last toucher lies inside the gap (those are already
    # counted once in the gap total).
    prefix_new = [0] * (len(lines) + 1)
    for pos in range(len(lines)):
        inside_gap = gap_lo <= claims[pos] < gap_hi
        prefix_new[pos + 1] = prefix_new[pos] + (0 if inside_gap else 1)

    pairs: List[Tuple[int, int]] = []
    d_lo: Optional[int] = None
    d_hi: Optional[int] = None
    shift: Optional[int] = None
    uniform = True
    qs_seen: List[int] = []  # sorted s-positions of earlier class members
    for pos in positions:
        line = lines[pos]
        q = _position_in(s_rep, line, s_index)
        # Class members already re-walked earlier in this segment are in
        # the prefix AND (when their s-position exceeds q) in "rest of s
        # after q" — a reversal re-walk double-counts them; union once.
        overlap = len(qs_seen) - bisect_right(qs_seen, q)
        insort(qs_seen, q)
        dist = (d_s - 1 - q) + gap_total + prefix_new[pos] - overlap
        pairs.append((line, dist))
        if d_lo is None or dist < d_lo:
            d_lo = dist
        if d_hi is None or dist > d_hi:
            d_hi = dist
        if uniform:
            this_shift = q - pos
            if shift is None:
                shift = this_shift
            elif shift != this_shift:
                uniform = False
    assert d_lo is not None and d_hi is not None

    cls = RevisitClass(
        s=s, count=count, exact=True, d_lo=d_lo, d_hi=d_hi,
        shift=shift if uniform else None,
    )
    # Compress uniform-distance contiguous AP revisits (the steady-state
    # shape: re-walks, wrap-arounds) into a (run, distance) pair.
    rep_t = reps[t]
    if (
        d_lo == d_hi
        and isinstance(rep_t, LineRun)
        and positions == list(range(positions[0], positions[0] + count))
    ):
        first_line = rep_t.start + positions[0] * rep_t.step
        cls.run_pair = (LineRun(first_line, rep_t.step, count), d_lo)
    else:
        cls.pairs = pairs
    return cls
