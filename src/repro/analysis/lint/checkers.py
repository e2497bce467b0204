"""The lint checkers: each encodes one lesson from the paper.

A checker is a function ``(program, device) -> [Diagnostic]``; ``device``
may be ``None`` for device-independent checks (capacity checks then fall
back to a conservative 32 KiB L1).  :data:`CHECKERS` is the registry the
engine iterates.

* ``race`` — a ``parallel`` loop carries a dependence, proven by the
  symbolic engine (the reason the paper's transpose can be parallelized
  at all is that its swap pairs are disjoint; this checker is what would
  have caught the converse).
* ``false-sharing`` — two iterations of a parallel loop write the same
  64-byte line, the scaling killer of Section 5.
* ``stride`` — the innermost loop walks an array with a non-unit stride
  (Fig. 2 Naive transpose: one element per line per iteration), unless
  the walked footprint is a cache-resident tile.
* ``tile-fit`` — a blocking tile's footprint exceeds the L1 a core owns.
* ``uncertified-transform`` — a pass recorded in ``program.meta`` that it
  skipped its legality proof.
* ``analysis-quality`` — notes about the analysis itself: a certification
  whose enumeration cross-check was skipped over budget (RPR006), or a
  parallel loop where the symbolic solver had to answer conservatively
  (RPR007) — its dependences may be a superset of the real ones.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.footprint import ArrayFootprint, _walk
from repro.analysis.lint.diagnostics import Diagnostic, Severity, default_severity
from repro.analysis.lint.evidence import CacheEvidence
from repro.analysis.symbolic import carried_dependences
from repro.devices.spec import LINE_SIZE, DeviceSpec
from repro.ir.expr import loads_in
from repro.ir.program import Program
from repro.ir.stmt import Block, For, LocalAssign, Stmt, Store

#: Conservative L1 capacity assumed when no device is given (the smallest
#: L1 in the catalog is the Mango Pi's 32 KiB).
FALLBACK_L1_BYTES = 32 * 1024

#: A checker takes the program, optionally the device, and optionally
#: measured PMU evidence (``repro lint --measure``) to cite.
CheckerFn = Callable[
    [Program, Optional[DeviceSpec], Optional[CacheEvidence]], List[Diagnostic]
]


# ---------------------------------------------------------------------------
# Shared traversal helpers
# ---------------------------------------------------------------------------

def _loops_with_paths(stmt: Stmt, path: Tuple[For, ...] = ()) -> Iterator[Tuple[For, Tuple[For, ...]]]:
    """Yield every loop with its enclosing loops (outside-in, exclusive)."""
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            yield from _loops_with_paths(child, path)
    elif isinstance(stmt, For):
        yield stmt, path
        yield from _loops_with_paths(stmt.body, path + (stmt,))


def _has_loop(stmt: Stmt) -> bool:
    if isinstance(stmt, For):
        return True
    if isinstance(stmt, Block):
        return any(_has_loop(s) for s in stmt.stmts)
    return False


def _has_block_loop(stmt: Stmt) -> bool:
    if isinstance(stmt, For):
        return stmt.step > 1 or _has_block_loop(stmt.body)
    if isinstance(stmt, Block):
        return any(_has_block_loop(s) for s in stmt.stmts)
    return False


def _l1_per_core(device: Optional[DeviceSpec]) -> int:
    if device is None or not device.caches:
        return FALLBACK_L1_BYTES
    return device.caches[0].per_core_size(1)


def _tile_bytes(loop: For, outer_vars: Tuple[str, ...]) -> int:
    """Byte footprint of one iteration of ``loop`` (one tile).

    Every enclosing loop variable (and ``loop.var`` itself) is pinned to a
    single point; interval widths are translation-invariant for affine
    boxes, so pinning at 0 yields the correct tile extents.
    """
    return _pinned_footprint_bytes(loop.body, outer_vars + (loop.var,))


def _subtree_bytes(node: Stmt, pinned_vars: Tuple[str, ...]) -> int:
    """Byte footprint of one statement subtree with outer loops pinned."""
    return _pinned_footprint_bytes(node, pinned_vars)


def _pinned_footprint_bytes(node: Stmt, pinned_vars: Tuple[str, ...]) -> int:
    ranges = {var: (0, 0) for var in pinned_vars}
    out: Dict[str, ArrayFootprint] = {}
    _walk(node, ranges, out)
    total = 0
    for fp in out.values():
        boxes = [b for b in (fp.read_box, fp.write_box) if b is not None]
        if not boxes:
            continue
        merged = boxes[0]
        for box in boxes[1:]:
            merged = [
                (min(alo, blo), max(ahi, bhi))
                for (alo, ahi), (blo, bhi) in zip(merged, box)
            ]
        elements = 1
        for lo, hi in merged:
            elements *= max(0, hi - lo + 1)
        total += elements * fp.array.dtype.size
    return total


def _const_trip(loop: For) -> Optional[int]:
    """The loop's constant iteration count, or None for symbolic bounds."""
    if not (loop.lo.is_plain and loop.hi.is_plain):
        return None
    lo, hi = loop.lo.operands[0], loop.hi.operands[0]
    if not (lo.is_constant and hi.is_constant):
        return None
    return max(0, -(-(hi.const - lo.const) // loop.step))


def _affine_extremes(expr, env):
    # type: (object, Dict[str, Tuple[int, int]]) -> Optional[Tuple[int, int]]
    """Min/max of an affine expression over the variable ranges in ``env``."""
    lo = hi = expr.const
    for var, coef in expr.terms.items():
        rng = env.get(var)
        if rng is None:
            return None
        a, b = coef * rng[0], coef * rng[1]
        lo += min(a, b)
        hi += max(a, b)
    return lo, hi


def _max_trip(loop: For, path: Tuple[For, ...]) -> Optional[int]:
    """Peak iteration count of ``loop`` over all enclosing iterations.

    Handles triangular nests (``for j in range(i + 1, n)``) by bounding
    each loop variable through its enclosing loops' ranges, outermost
    first.  Exact for rectangular nests; for triangular ones it is the
    trip of the widest slice, which is what an existential thrashing
    claim needs.
    """
    env: Dict[str, Tuple[int, int]] = {}
    for enclosing in path + (loop,):
        if not (enclosing.lo.is_plain and enclosing.hi.is_plain):
            return None
        lo_r = _affine_extremes(enclosing.lo.operands[0], env)
        hi_r = _affine_extremes(enclosing.hi.operands[0], env)
        if lo_r is None or hi_r is None:
            return None
        if enclosing is loop:
            if loop.step > 0:
                return max(0, -(-(hi_r[1] - lo_r[0]) // loop.step))
            return max(0, -(-(lo_r[1] - hi_r[0]) // -loop.step))
        if enclosing.step > 0:
            env[enclosing.var] = (lo_r[0], hi_r[1] - 1)
        else:
            env[enclosing.var] = (hi_r[0] + 1, lo_r[1])
    return None


def _tile_resident(loop: For, path: Tuple[For, ...], l1: int) -> bool:
    """True when ``loop`` walks inside a cache-resident blocking tile
    (the RPR003 exemption; RPR008 honours the same one)."""
    block_index = None
    for k in range(len(path) - 1, -1, -1):
        if path[k].step > 1:
            block_index = k
            break
    if block_index is None:
        return False
    subtree: Stmt = path[block_index + 1] if block_index + 1 < len(path) else loop
    pinned = tuple(p.var for p in path[: block_index + 1])
    return _subtree_bytes(subtree, pinned) <= l1


def _global_refs(stmt: Stmt) -> Iterator[Tuple[object, Tuple, bool]]:
    """(array, indices, is_write) for every global reference in a body,
    without descending into nested loops (the caller walks those)."""
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            yield from _global_refs(child)
        return
    if isinstance(stmt, For):
        yield from _global_refs(stmt.body)
        return
    if isinstance(stmt, (Store, LocalAssign)):
        for load in loads_in(stmt.value):
            if load.array.scope == "global":
                yield load.array, load.indices, False
        if isinstance(stmt, Store) and stmt.array.scope == "global":
            yield stmt.array, stmt.indices, True


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def check_race(
    program: Program,
    device: Optional[DeviceSpec] = None,
    evidence: Optional[CacheEvidence] = None,
) -> List[Diagnostic]:
    """RPR001: a parallel loop carries a dependence — a data race."""
    out: List[Diagnostic] = []
    for loop, path in _loops_with_paths(program.body):
        if not loop.parallel:
            continue
        loop_path = tuple(p.var for p in path) + (loop.var,)
        for dep in carried_dependences(program, loop.var):
            qualifier = "" if dep.exact else " (conservative: solver could not exclude it)"
            out.append(
                Diagnostic(
                    code="RPR001",
                    severity=default_severity("RPR001"),
                    program=program.name,
                    loop_path=loop_path,
                    array=dep.array,
                    message=(
                        f"parallel loop {loop.var!r} carries a dependence: "
                        f"{dep}{qualifier}"
                    ),
                    hint=(
                        f"serialize {loop.var!r} or restructure the kernel so "
                        f"iterations touch disjoint elements"
                    ),
                    data={"dependence": str(dep), "exact": dep.exact},
                )
            )
    return out


def check_false_sharing(
    program: Program,
    device: Optional[DeviceSpec] = None,
    evidence: Optional[CacheEvidence] = None,
) -> List[Diagnostic]:
    """RPR002: iterations of a parallel loop write within one cache line.

    The per-iteration byte advance of each store with respect to the
    parallel variable is ``coeff * step * dtype.size``; when that is a
    nonzero value below the line size, writes from neighbouring iterations
    — which land on different cores at chunk boundaries — share a line.

    Severity scales with how much sharing that actually is.  A contiguous
    static split shares *one* line per chunk boundary (a note); but if the
    store's address also depends on inner loop variables, every inner
    iteration re-touches a boundary line (the Fig. 2 Parallel transpose
    column write shares n lines per boundary), and dynamic or finely
    chunked schedules interleave sub-line chunks pervasively — both
    warnings.
    """
    out: List[Diagnostic] = []
    for loop, path in _loops_with_paths(program.body):
        if not loop.parallel:
            continue
        loop_path = tuple(p.var for p in path) + (loop.var,)
        seen = set()
        for array, indices, is_write in _global_refs(loop.body):
            if not is_write:
                continue
            offset = array.linearize(indices)
            advance = offset.coefficient(loop.var) * loop.step * array.dtype.size
            if advance == 0 or abs(advance) >= LINE_SIZE:
                continue
            key = (array.name, advance)
            if key in seen:
                continue
            seen.add(key)
            inner_vars = [v for v in offset.variables if v != loop.var]
            fine_chunks = loop.chunk is not None and loop.chunk * abs(advance) < LINE_SIZE
            if loop.schedule == "dynamic" or fine_chunks:
                severity = Severity.WARNING
                extent = "every chunk boundary of the schedule"
            elif inner_vars:
                severity = Severity.WARNING
                extent = (
                    f"each boundary iteration of a static chunk (repeated "
                    f"per {', '.join(repr(v) for v in inner_vars)} iteration)"
                )
            else:
                severity = Severity.NOTE
                extent = "only the boundary iterations of each static chunk"
            out.append(
                Diagnostic(
                    code="RPR002",
                    severity=severity,
                    program=program.name,
                    loop_path=loop_path,
                    array=array.name,
                    message=(
                        f"iterations of parallel loop {loop.var!r} advance "
                        f"writes to {array.name!r} by only {abs(advance)} bytes "
                        f"— under the {LINE_SIZE}-byte line size, {extent} "
                        f"will ping-pong cache lines between cores"
                    ),
                    hint=(
                        f"make {loop.var!r} advance whole cache lines (e.g. "
                        f"parallelize an outer/blocked loop or pad rows to "
                        f"{LINE_SIZE} bytes)"
                    ),
                    data={"advance_bytes": advance, "line_bytes": LINE_SIZE},
                )
            )
    return out


def check_stride(
    program: Program,
    device: Optional[DeviceSpec] = None,
    evidence: Optional[CacheEvidence] = None,
) -> List[Diagnostic]:
    """RPR003: the innermost loop strides an array non-contiguously.

    Accesses that stay inside a cache-resident tile (an enclosing stepped
    loop whose per-tile footprint fits the L1 a core owns) are exempt —
    that is precisely what blocking is for.
    """
    out: List[Diagnostic] = []
    l1 = _l1_per_core(device)
    for loop, path in _loops_with_paths(program.body):
        if _has_loop(loop.body):
            continue  # not innermost
        # Tile residence: measure the sub-nest containing this loop directly
        # under the nearest enclosing stepped (block) loop.  If that walk
        # stays within the L1 a core owns, the stride is harmless — the
        # whole point of blocking.
        if _tile_resident(loop, path, l1):
            continue
        loop_path = tuple(p.var for p in path) + (loop.var,)
        seen = set()
        for array, indices, is_write in _global_refs(loop):
            offset = array.linearize(indices)
            stride = offset.coefficient(loop.var) * loop.step * array.dtype.size
            if abs(stride) <= array.dtype.size:
                continue  # contiguous (or loop-invariant)
            key = (array.name, stride, is_write)
            if key in seen:
                continue
            seen.add(key)
            severity = Severity.WARNING if abs(stride) >= LINE_SIZE else Severity.NOTE
            kind = "writes" if is_write else "reads"
            per_line = "one element per cache line" if abs(stride) >= LINE_SIZE else (
                f"{LINE_SIZE // abs(stride)} elements per line"
            )
            message = (
                f"innermost loop {loop.var!r} {kind} {array.name!r} "
                f"with a {abs(stride)}-byte stride ({per_line})"
            )
            data = {"stride_bytes": stride, "is_write": is_write}
            if evidence is not None:
                citation = evidence.citation(array.name)
                if citation:
                    message += f" — {citation}"
                    data["measured_conflict_misses"] = evidence.array_conflicts(array.name)
                    data["measured_misses"] = evidence.array_misses(array.name)
                    data["measured_level"] = evidence.level
            out.append(
                Diagnostic(
                    code="RPR003",
                    severity=severity,
                    program=program.name,
                    loop_path=loop_path,
                    array=array.name,
                    device=device.key if device else None,
                    message=message,
                    hint=(
                        f"interchange so a unit-stride loop is innermost, or "
                        f"block the nest so the strided walk stays cache-resident"
                    ),
                    data=data,
                )
            )
    return out


def check_tile_fit(
    program: Program,
    device: Optional[DeviceSpec] = None,
    evidence: Optional[CacheEvidence] = None,
) -> List[Diagnostic]:
    """RPR004: a blocking tile overflows the L1 a core owns.

    Applies to the innermost stepped loop of each blocked nest; a tile
    that misses L1 but fits L2 demotes to a note (still a real effect on
    the paper's boards, whose L2 is shared)."""
    out: List[Diagnostic] = []
    for loop, path in _loops_with_paths(program.body):
        if loop.step <= 1 or _has_block_loop(loop.body):
            continue
        tile = _tile_bytes(loop, tuple(p.var for p in path))
        l1 = _l1_per_core(device)
        if tile <= l1:
            continue
        level = "L1"
        severity = Severity.WARNING
        if device is not None and len(device.caches) > 1:
            l2 = device.caches[1].per_core_size(1)
            if tile <= l2:
                severity = Severity.NOTE
                level = f"L1 ({l1 // 1024} KiB) but fits {device.caches[1].name}"
        message = (
            f"tile of blocked loop {loop.var!r} touches "
            f"{tile} bytes, exceeding {level} "
            f"({_l1_per_core(device)} bytes per core)"
        )
        data = {"tile_bytes": tile, "l1_bytes": l1}
        if evidence is not None:
            citation = evidence.citation()
            if citation:
                message += (
                    f" — {citation}; an overflowing tile shows up as capacity "
                    f"misses ({evidence.capacity:,d} measured)"
                )
                data["measured_capacity_misses"] = evidence.capacity
                data["measured_conflict_misses"] = evidence.conflict
                data["measured_level"] = evidence.level
        out.append(
            Diagnostic(
                code="RPR004",
                severity=severity,
                program=program.name,
                loop_path=tuple(p.var for p in path) + (loop.var,),
                device=device.key if device else None,
                message=message,
                hint=f"shrink the block factor of {loop.var!r} so the tile fits L1",
                data=data,
            )
        )
    return out


def check_uncertified(
    program: Program,
    device: Optional[DeviceSpec] = None,
    evidence: Optional[CacheEvidence] = None,
) -> List[Diagnostic]:
    """RPR005: a transform recorded that it skipped its legality proof."""
    out: List[Diagnostic] = []
    for entry in program.meta.get("uncertified_transforms", ()):
        out.append(
            Diagnostic(
                code="RPR005",
                severity=default_severity("RPR005"),
                program=program.name,
                loop_path=tuple(entry.get("loops", ())),
                message=(
                    f"{entry.get('transform', 'transform')} on loop(s) "
                    f"{', '.join(entry.get('loops', ())) or '?'} was applied "
                    f"without a legality proof ({entry.get('reason', 'certification disabled')})"
                ),
                hint="re-run the pass with certify='symbolic' (the default) or add a waiver",
                data=dict(entry),
            )
        )
    return out


def check_analysis_quality(
    program: Program,
    device: Optional[DeviceSpec] = None,
    evidence: Optional[CacheEvidence] = None,
) -> List[Diagnostic]:
    """RPR006/RPR007: how trustworthy the other answers are.

    RPR006 surfaces certifications whose enumeration cross-check was
    skipped over budget (the symbolic proof stands alone); RPR007 flags
    parallel loops where the symbolic solver answered conservatively, so
    a reported dependence may not be realizable.
    """
    out: List[Diagnostic] = []
    for entry in program.meta.get("oracle_skipped", ()):
        out.append(
            Diagnostic(
                code="RPR006",
                severity=default_severity("RPR006"),
                program=program.name,
                message=entry.get("note", "enumeration cross-check skipped"),
                hint="re-certify a smaller size of the same kernel family to cross-check",
                data=dict(entry),
            )
        )
    for loop, path in _loops_with_paths(program.body):
        if not loop.parallel:
            continue
        inexact = [d for d in carried_dependences(program, loop.var) if not d.exact]
        if inexact:
            out.append(
                Diagnostic(
                    code="RPR007",
                    severity=default_severity("RPR007"),
                    program=program.name,
                    loop_path=tuple(p.var for p in path) + (loop.var,),
                    array=inexact[0].array,
                    message=(
                        f"the symbolic solver answered conservatively on "
                        f"{len(inexact)} dependence(s) of parallel loop "
                        f"{loop.var!r}; the reported set may be a superset"
                    ),
                    hint=(
                        "simplify the subscripts (unit coefficients) or certify "
                        "a concrete size so enumeration can decide"
                    ),
                    data={"inexact": [str(d) for d in inexact]},
                )
            )
    return out


def check_conflict_proof(
    program: Program,
    device: Optional[DeviceSpec] = None,
    evidence: Optional[CacheEvidence] = None,
) -> List[Diagnostic]:
    """RPR008: *proved* conflict-thrashing set mapping.

    Where RPR003 heuristically flags any non-unit stride, this checker
    derives the actual set mapping — the same arithmetic
    :class:`repro.memsim.cache.Cache` uses — and fires only when it can
    cite a complete certificate: the walk's line step aliases
    ``p = S / gcd(line_step mod S, S)`` sets with per-set occupancy
    above the associativity, *and* an enclosing loop re-walks the same
    lines (sub-line advance), so the revisits provably conflict-miss.
    Engine-side, a proved RPR008 supersedes the heuristic RPR003 on the
    same (loop, array).

    Needs a device (ways and set count are the whole point) and a
    line-multiple stride (drifting walks stay with RPR003).
    """
    if device is None or not device.caches:
        return []
    out: List[Diagnostic] = []
    from repro.analysis.cachemodel.proof import Proof  # lazy: avoids an import cycle
    from repro.analysis.cachemodel.setmath import num_sets

    l1 = device.caches[0]
    size = l1.per_core_size(1)
    ways = l1.ways
    sets = num_sets(size, ways, LINE_SIZE)
    for loop, path in _loops_with_paths(program.body):
        if _has_loop(loop.body):
            continue  # not innermost
        if _tile_resident(loop, path, size):
            continue  # blocked walks that fit L1 are the fix, not the bug
        trip = _max_trip(loop, path)
        if trip is None or trip <= ways:
            continue
        loop_path = tuple(p.var for p in path) + (loop.var,)
        seen = set()
        for array, indices, is_write in _global_refs(loop):
            offset = array.linearize(indices)
            stride = offset.coefficient(loop.var) * loop.step * array.dtype.size
            if abs(stride) < LINE_SIZE or stride % LINE_SIZE:
                continue
            key = (array.name, stride, is_write)
            if key in seen:
                continue
            line_step = abs(stride) // LINE_SIZE
            g = line_step % sets
            period = 1 if g == 0 else sets // math.gcd(g, sets)
            if trip <= period:
                continue  # every line lands in its own set: no aliasing
            occupancy = -(-trip // period)
            if occupancy <= ways:
                continue
            # Reuse: an enclosing loop advancing the same walk by less
            # than a line re-touches these lines on its next iteration.
            rewalk = None
            for outer in path:
                advance = (
                    offset.coefficient(outer.var) * outer.step * array.dtype.size
                )
                if advance != 0 and abs(advance) < LINE_SIZE:
                    rewalk = (outer.var, advance)
                    break
            if rewalk is None:
                continue
            seen.add(key)
            proof = Proof()
            proof.arith(
                f"stride {abs(stride)} B is a whole number of "
                f"{LINE_SIZE}-byte lines",
                abs(stride) % LINE_SIZE, "==", 0,
            )
            proof.arith(
                f"line step {line_step} aliases the walk onto "
                f"p = {sets}/gcd({g or sets}, {sets}) = {period} of "
                f"{sets} {l1.name} sets",
                period * math.gcd(g or sets, sets), "==", sets,
            )
            proof.arith(
                f"per-set occupancy ceil({trip}/{period}) = {occupancy} "
                f"exceeds the associativity",
                occupancy, ">", ways,
            )
            proof.arith(
                f"enclosing loop {rewalk[0]!r} re-walks the same lines "
                f"({abs(rewalk[1])} B advance < {LINE_SIZE} B line)",
                abs(rewalk[1]), "<", LINE_SIZE,
            )
            kind = "writes" if is_write else "reads"
            message = (
                f"proved conflict thrashing: innermost loop "
                f"{loop.var!r} {kind} {array.name!r} with a "
                f"{abs(stride)}-byte stride ({line_step} lines), so "
                f"its {trip} lines alias only {period} of {sets} "
                f"{l1.name} sets at occupancy {occupancy} > "
                f"{ways} ways, and loop {rewalk[0]!r} re-walks them "
                f"{abs(rewalk[1])} B apart — the revisits must "
                f"conflict-miss under {l1.policy.upper()}"
            )
            measured: Dict[str, object] = {}
            if evidence is not None:
                citation = evidence.citation(array.name)
                if citation:
                    message += f" — {citation}"
                    measured["measured_conflict_misses"] = (
                        evidence.array_conflicts(array.name)
                    )
                    measured["measured_misses"] = evidence.array_misses(array.name)
                    measured["measured_level"] = evidence.level
            out.append(
                Diagnostic(
                    code="RPR008",
                    severity=default_severity("RPR008"),
                    program=program.name,
                    loop_path=loop_path,
                    array=array.name,
                    device=device.key,
                    message=message,
                    hint=(
                        "pad the leading dimension off the power of two, or "
                        "block the nest so the walk stays set-resident"
                    ),
                    data={
                        "stride_bytes": stride,
                        "line_step": line_step,
                        "sets": sets,
                        "ways": ways,
                        "aliased_sets": period,
                        "occupancy": occupancy,
                        "trip": trip,
                        "rewalk_var": rewalk[0],
                        "rewalk_advance_bytes": rewalk[1],
                        "supersedes": "RPR003",
                        "proof": proof.render(),
                        "proof_verified": proof.verified,
                        **measured,
                    },
                )
            )
    return out


#: RPR009 fires below this fraction of statically classifiable traffic.
COVERAGE_TARGET = 0.8


def check_coverage(
    program: Program,
    device: Optional[DeviceSpec] = None,
    evidence: Optional[CacheEvidence] = None,
) -> List[Diagnostic]:
    """RPR009: how much traffic the symbolic cache analysis can certify.

    A static, trip-weighted estimate of the fraction of this program's
    accesses ``repro analyze`` will classify non-UNKNOWN on this device:
    references under a non-LRU first-level cache are only certifiable
    when they never revisit lines (cold streaming), because eviction
    proofs need an ordering the policy does not provide.  The estimate is
    optimistic (it ignores distance-bound straddles); the measured
    coverage is what the ``repro analyze`` gate enforces.
    """
    if device is None or not device.caches:
        return []
    lru = device.caches[0].policy == "lru"
    if lru:
        return []  # every affine walk is classifiable; nothing to report
    total = 0
    classifiable = 0
    for loop, path in _loops_with_paths(program.body):
        if _has_loop(loop.body):
            continue
        weight = 1
        for enclosing in path + (loop,):
            trip = _const_trip(enclosing)
            if trip is not None:
                weight *= max(trip, 1)
        for array, indices, is_write in _global_refs(loop):
            offset = array.linearize(indices)
            total += weight
            # Cold-streaming references never need an eviction proof; a
            # sub-line re-walk by any enclosing loop means revisits whose
            # hit/miss outcome depends on the (unprovable) policy state.
            revisits = any(
                offset.coefficient(outer.var) != 0
                and abs(offset.coefficient(outer.var) * outer.step * array.dtype.size)
                < LINE_SIZE
                for outer in path
            )
            if not revisits:
                classifiable += weight
    if not total:
        return []
    coverage = classifiable / total
    if coverage >= COVERAGE_TARGET:
        return []
    policy = device.caches[0].policy
    return [
        Diagnostic(
            code="RPR009",
            severity=default_severity("RPR009"),
            program=program.name,
            device=device.key,
            message=(
                f"symbolic cache analysis certifies ~{coverage:.0%} of this "
                f"kernel's traffic on {device.key}: its {policy!r}-policy "
                f"{device.caches[0].name} admits no eviction-order proofs, "
                f"so revisiting references fall back to simulator replay"
            ),
            hint=(
                "expected on random-replacement levels; rely on the "
                "differential replay gate there instead of certificates"
            ),
            data={
                "estimated_coverage": round(coverage, 4),
                "classifiable_weight": classifiable,
                "total_weight": total,
                "policy": policy,
                "target": COVERAGE_TARGET,
            },
        )
    ]


#: Registry: checker name -> function, in report order.
CHECKERS: Dict[str, CheckerFn] = {
    "race": check_race,
    "false-sharing": check_false_sharing,
    "stride": check_stride,
    "conflict-proof": check_conflict_proof,
    "tile-fit": check_tile_fit,
    "uncertified-transform": check_uncertified,
    "analysis-quality": check_analysis_quality,
    "coverage": check_coverage,
}
