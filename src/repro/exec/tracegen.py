"""Symbolic trace generation.

Expands a program's loop nests *without computing values* and produces,
for each core of the target device, the stream of memory-access segments
that core issues, plus its exact operation counts.

Key properties:

* **Batch emission**: a loop nest is expanded over arrays of *contexts*
  — bindings of the enclosing loop variables, held as int64 columns —
  so one loop level costs a handful of NumPy operations for a whole
  family of executions instead of one Python frame per iteration.
* **Descriptor rows**: emitters produce *rows*, not segments.  A plain
  row is one segment.  A loop that runs a body of fixed shape — leaves,
  and innermost loops and pairs whose bounds do not read the loop
  variable — emits that body once per loop execution, as a *descriptor
  group*: the body's rows for the first iteration plus, per row, the
  base step per iteration and the trip count.  A pair whose references
  do not chain is one such loop over its inner loop.  So the blur's
  19-tap stencil loops cost one row per reference per pair execution,
  not one per outer iteration.  ``_expand`` turns rows into segments in
  exactly the walker's order (execution, then outer iteration, then
  reference) just before the stream yields them.
* **Bounded batches**: streams come out as
  :class:`~repro.exec.trace.SegmentBatch` column batches of at most
  ``BATCH_SEGMENTS`` segments.  No context, row or expanded array grows
  past that bound either: contexts are processed in ranges weighed by
  the rows they emit, one context whose subtree alone is larger
  descends into its children in order, and the expander cuts a
  descriptor group larger than a batch by position.
* **Parallel-loop scheduling is simulated faithfully**: ``static``
  schedules split the iteration space into contiguous slabs (or
  round-robin chunks when ``chunk`` is given), ``dynamic`` schedules are
  simulated by greedy least-loaded assignment using exact per-iteration
  costs (:func:`~repro.analysis.opcount.iteration_cost`, counted for all
  iterations at once over the same expansion) — which is how real OpenMP
  dynamic scheduling balances the triangular transpose loop.
* **Innermost loops are emitted as whole segments**: one segment per
  array reference per innermost-loop execution, in program order of the
  references; a perfect (outer, innermost) pair whose accesses chain
  contiguously collapses further, to one segment per reference per pair
  execution.  The per-iteration interleaving of references *within* one
  innermost iteration is abstracted away.  That abstraction is not yet
  validated against the exact per-access order (DESIGN.md §5.1, ROADMAP
  item 5).
* **Per-core streams are independent**: a consumer can process core 0's
  stream to completion before core 1's.  Shared cache levels are handled
  by the hierarchy model (capacity partitioning), DRAM contention by the
  timing model.

The generator is the single source of truth for both the cache simulator
(addresses) and the timing model (operation counts) so they can never
disagree about what the program did.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis.opcount import OpCounts, leaf_counts
from repro.errors import SimulationError
from repro.exec.trace import CoreWork, RefInfo, SegmentBatch
from repro.ir.expr import loads_in
from repro.ir.program import MemoryLayout, Program
from repro.ir.stmt import Block, For, LocalAssign, Stmt, Store, walk_stmts
from repro.profiling import tracer
from repro.runtime import faults

#: Most segments in one yielded batch, and most entries in any context
#: or row array the emitter builds on the way.
BATCH_SEGMENTS = 2048

# An emitted chunk is an (8, n) int64 array of rows.  A row is the
# provisional reference key, byte stride, element count, outer step,
# base byte address, outer trip count, rank in its group and the index
# of the context (within the emitting call) it belongs to.  A group is
# the rows ranked 0..w-1 that one context emitted.  With one trip it is
# ``w`` plain segments; a descriptor group, which a fixed-shape loop
# body emits for one loop execution, stands for ``reps`` rounds of its
# ``w`` segments, each round's bases one ``step`` further on.
_KEY, _STRIDE, _COUNT, _STEP, _BASE, _REPS, _RANK, _CTX = range(8)
_ROWS = 8

# The context column holding how many loop iterations each context of a
# descriptor body stands for (the body's work counts that many times).
_REPEAT = "*"

_UNASSIGNED = -2  # a plan whose reference ids are not handed out yet

Env = Dict[str, np.ndarray]


def split_static(values: List[int], num_cores: int, chunk: Optional[int]) -> List[List[int]]:
    """OpenMP static schedule: contiguous slabs, or round-robin chunks."""
    n = len(values)
    if chunk is None:
        per = (n + num_cores - 1) // num_cores
        return [values[c * per : (c + 1) * per] for c in range(num_cores)]
    out: List[List[int]] = [[] for _ in range(num_cores)]
    for index in range(0, n, chunk):
        core = (index // chunk) % num_cores
        out[core].extend(values[index : index + chunk])
    return out


def split_dynamic(
    values: List[int],
    num_cores: int,
    chunk: int,
    cost: Callable[[int], int],
) -> List[List[int]]:
    """Greedy dynamic schedule: each chunk goes to the least-loaded core.

    Models OpenMP ``schedule(dynamic, chunk)``: a core finishing its chunk
    grabs the next one, so cores accumulate roughly equal *cost* (not
    iteration count) — which is why the paper's "Dynamic" variant fixes
    the triangular imbalance that "static" leaves behind.
    """
    out: List[List[int]] = [[] for _ in range(num_cores)]
    heap: List[Tuple[int, int]] = [(0, core) for core in range(num_cores)]
    heapq.heapify(heap)
    for index in range(0, len(values), chunk):
        piece = values[index : index + chunk]
        load, core = heapq.heappop(heap)
        out[core].extend(piece)
        heapq.heappush(heap, (load + sum(cost(v) for v in piece), core))
    return out


# -- vectorised context helpers -----------------------------------------------


def _take(env: Env, index: np.ndarray) -> Env:
    return {var: col[index] for var, col in env.items()}


def _slice(env: Env, a: int, b: int) -> Env:
    return {var: col[a:b] for var, col in env.items()}


def _ranges(weights: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Consecutive context ranges ``[a, b)`` whose weights sum to at most
    ``BATCH_SEGMENTS``; a context heavier than that gets a range alone."""
    cum = np.cumsum(weights)
    m = len(cum)
    a = done = 0
    while a < m:
        b = max(int(np.searchsorted(cum, done + BATCH_SEGMENTS, side="right")), a + 1)
        yield a, b
        done = int(cum[b - 1])
        a = b


def _affine(expr, env: Env, m: int) -> np.ndarray:
    out = np.full(m, expr.const, dtype=np.int64)
    for var, coeff in expr.terms.items():
        out += coeff * env[var]
    return out


class _Bounds:
    """A loop's ``max``/``min`` affine bounds, evaluated over contexts."""

    __slots__ = ("loop", "var", "step", "variables")

    def __init__(self, loop: For):
        self.loop = loop
        self.var = loop.var
        self.step = loop.step
        self.variables = loop.lo.variables | loop.hi.variables

    def eval(self, env: Env, m: int) -> Tuple[np.ndarray, np.ndarray]:
        """(first value, trip count) per context."""
        lo_ops = self.loop.lo.operands
        hi_ops = self.loop.hi.operands
        lo = _affine(lo_ops[0], env, m)
        for op in lo_ops[1:]:
            np.maximum(lo, _affine(op, env, m), out=lo)
        hi = _affine(hi_ops[0], env, m)
        for op in hi_ops[1:]:
            np.minimum(hi, _affine(op, env, m), out=hi)
        trips = (hi - lo + (self.step - 1)) // self.step
        np.maximum(trips, 0, out=trips)
        return lo, trips

    def expand(self, env: Env, lo: np.ndarray, trips: np.ndarray):
        """Bind the loop variable over every context's iterations, at most
        ``BATCH_SEGMENTS`` child contexts at a time.

        Yields ``(parent, child_env, n)``: child contexts in (context,
        iteration) order and the index of the context each came from.
        """
        var, step = self.var, self.step
        for a, b in _ranges(trips):
            if b - a == 1:
                total = int(trips[a])
                for first in range(0, total, BATCH_SEGMENTS):
                    n = min(total - first, BATCH_SEGMENTS)
                    parent = np.full(n, a, dtype=np.int64)
                    child = _take(env, parent)
                    child[var] = lo[a] + step * np.arange(first, first + n, dtype=np.int64)
                    yield parent, child, n
                continue
            t = trips[a:b]
            total = int(t.sum())
            if not total:
                continue
            parent = np.repeat(np.arange(a, b, dtype=np.int64), t)
            within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(t) - t, t)
            child = _take(env, parent)
            child[var] = lo[parent] + step * within
            yield parent, child, total


def _chunk_rows(keys, base, stride, count, ctx, step=0, reps=1) -> np.ndarray:
    """Context-major, reference-minor rows, one group per context.

    ``base`` is (R, n), reference-major (NumPy is fastest along the long
    context axis); the other columns broadcast to that shape, except
    ``ctx``, one entry per context.
    """
    refs, n = base.shape
    out = np.empty((_ROWS, n, refs), dtype=np.int64)
    for row, value in ((_KEY, keys), (_BASE, base), (_STRIDE, stride), (_COUNT, count),
                       (_STEP, step), (_REPS, reps)):
        out[row] = value.T if isinstance(value, np.ndarray) else value
    out[_RANK] = np.arange(refs)
    out[_CTX] = ctx[:, None]
    return out.reshape(_ROWS, n * refs)


def _weighted(env: Env, values: np.ndarray) -> int:
    """``values`` summed over contexts, each counted as often as it
    repeats (once outside descriptor bodies)."""
    repeat = env.get(_REPEAT)
    return int(values.sum() if repeat is None else (values * repeat).sum())


def _expand(batch: SegmentBatch, rows: np.ndarray) -> Iterator[SegmentBatch]:
    """The segments of resolved ``rows`` (``batch`` holds their columns),
    at most ``BATCH_SEGMENTS`` at a time; rows without a descriptor
    among them are plain segments already.

    A descriptor group expands in the walker's order: every round of its
    loop execution, and within a round each row of the group, the base
    advanced by ``round * step``.  A window holds whole groups, except
    that a group larger than a batch is cut by position alone.

    A window whose groups have the previous window's shapes and whose
    rows differ from that window's only in base gathers the base alone
    and shares the other columns, read-only, with the previous batch.
    On the fig. 6 benchmark cells that is 92 % of the windows of the
    blur's Naive and Unit-stride variants, and 26-53 % of the others.
    """
    reps = rows[_REPS]
    if not (reps > 1).any():
        for a in range(0, len(reps), BATCH_SEGMENTS):
            yield SegmentBatch(*(col[a : a + BATCH_SEGMENTS] for col in batch))
        return
    starts = np.flatnonzero(rows[_RANK] == 0)
    width = np.diff(starts, append=len(reps))
    reps = reps[starts]
    size = width * reps
    step = rows[_STEP]
    last = None
    for g0, g1 in _ranges(size):
        if g1 - g0 == 1:
            total = int(size[g0])
            for a in range(0, total, BATCH_SEGMENTS):
                rounds, rank = np.divmod(np.arange(a, min(a + BATCH_SEGMENTS, total)), width[g0])
                row = starts[g0] + rank
                out = SegmentBatch(*(col[row] for col in batch))
                np.add(out.base, rounds * step[row], out=out.base)
                yield out
            continue
        r0 = starts[g0]
        signature = (width[g0:g1].tobytes(), reps[g0:g1].tobytes(),
                     rows[_KEY : _STEP + 1, r0 : starts[g1 - 1] + width[g1 - 1]].tobytes())
        if signature != last:
            group = np.repeat(np.arange(g1 - g0), size[g0:g1])
            offset = np.arange(len(group)) - (np.cumsum(size[g0:g1]) - size[g0:g1])[group]
            w = width[g0:g1][group]
            rounds = offset // w
            rank = (starts[g0:g1] - r0)[group] + offset - rounds * w
            delta = rounds * step[r0 + rank]
            shared = SegmentBatch(*(col[r0 + rank] for col in batch))
            for col in shared:
                col.setflags(write=False)
            last = signature
        base = batch.base[r0 + rank]
        base += delta
        yield shared._replace(base=base)


# -- plans: the references of one emitting statement ------------------------


class _Plan:
    """The references a loop body (or a leaf) emits, with provisional keys.

    A plan's reference ids are handed out when the stream first reaches
    it, so they follow the program's execution order exactly as the
    per-segment walker numbered them.
    """

    __slots__ = (
        "index", "keys", "arrays", "const", "coeffs", "per_iter", "vectorized", "infos", "marker",
    )

    def __init__(self, gen: "TraceGenerator", targets, loop: Optional[For], share: Optional[int] = None):
        # ``targets``: (array, element offset, is_write, leaf) per reference;
        # ``share``: an existing plan whose id base the references take.
        self.arrays = np.array([gen._array_index[t[0].name] for t in targets], dtype=np.int64)
        sizes = [t[0].dtype.size for t in targets]
        self.const = np.array([t[1].const * s for t, s in zip(targets, sizes)], dtype=np.int64)
        variables = sorted({v for t in targets for v in t[1].terms})
        self.coeffs = [
            (v, np.array([t[1].coefficient(v) * s for t, s in zip(targets, sizes)], dtype=np.int64))
            for v in variables
        ]
        self.per_iter = OpCounts()
        self.vectorized = False
        depth = gen._loop_depths.get(id(loop), -1) + 1 if loop is not None else 0
        self.infos = [
            (t[0].name, t[2], s, gen._stmt_ids.get(id(t[3]), -1),
             loop.var if loop is not None else "", depth)
            for t, s in zip(targets, sizes)
        ]
        self.index, self.keys, self.marker = gen._register_plan(self, share)

    @property
    def refs(self) -> int:
        return len(self.infos)

    def coefficient(self, var: str) -> np.ndarray:
        for name, coeff in self.coeffs:
            if name == var:
                return coeff
        return np.zeros(self.refs, dtype=np.int64)

    def bases(self, core_bases: np.ndarray, env: Env, n: int) -> np.ndarray:
        """(refs, n) byte addresses of every reference under each context."""
        out = np.empty((self.refs, n), dtype=np.int64)
        out[:] = (core_bases[self.arrays] + self.const)[:, None]
        for var, coeff in self.coeffs:
            out += coeff[:, None] * env[var]
        return out


def _leaf_targets(leaf: Stmt):
    """A leaf's memory references in emission order: its loads, then for
    a store the accumulate read and the write (register arrays emit none),
    each as (array, element offset, is_write, leaf)."""
    if not isinstance(leaf, (LocalAssign, Store)):
        raise SimulationError(f"unexpected leaf statement {leaf!r}")
    refs = [(load.array, load.indices, False) for load in loads_in(leaf.value)]
    if isinstance(leaf, Store):
        if leaf.accumulate:
            refs.append((leaf.array, leaf.indices, False))
        refs.append((leaf.array, leaf.indices, True))
    return [
        (array, array.linearize(indices), is_write, leaf)
        for array, indices, is_write in refs
        if array.scope != "register"
    ]


def _body_targets(body: Stmt):
    """An innermost body's references in emission order, plus its
    per-iteration op counts (the induction update included)."""
    targets = []
    counts = OpCounts(int_ops=1)
    for leaf in _children(body):
        targets += _leaf_targets(leaf)
        counts = counts + leaf_counts(leaf)
    return targets, counts


def _children(stmt: Stmt):
    """A body's statements (blocks are flat: ``Block`` flattens nesting)."""
    return stmt.stmts if isinstance(stmt, Block) else (stmt,)


# -- emitter nodes ------------------------------------------------------------
#
# Every node has ``emit(run, env, m)``, yielding chunks for ``m`` contexts
# in stream order, and ``sizes(run, env, m)``, the exact number of rows
# it emits per context (a descriptor row counts once, however many
# segments it expands to).


class _Leaf:
    """A statement outside any innermost loop (rare: scalar setup code)."""

    def __init__(self, gen: "TraceGenerator", stmt: Stmt):
        self.plan = gen._setup_plan(_leaf_targets(stmt))
        # Setup code counts no loop iteration, and a local's accumulate
        # no flop.
        self.counts = leaf_counts(stmt)
        if isinstance(stmt, Store):
            self.counts.iterations -= 1
        elif stmt.accumulate:
            self.counts.flops -= 1

    def sizes(self, run, env, m):
        return np.full(m, self.plan.refs, dtype=np.int64)

    def emit(self, run, env, m):
        runs = _weighted(env, np.ones(m, dtype=np.int64))
        run.leaf_runs[self] = run.leaf_runs.get(self, 0) + runs
        plan = self.plan
        if not plan.refs:
            return
        per = max(1, BATCH_SEGMENTS // plan.refs)
        ctx = np.arange(m, dtype=np.int64)
        for a in range(0, m, per):
            sub = _slice(env, a, a + per) if m > per else env
            n = min(m - a, per)
            yield _chunk_rows(plan.keys, plan.bases(run.bases, sub, n), 0, 1, ctx[a : a + n])


class _Innermost:
    """An innermost loop run serially: one segment per reference per
    context with at least one iteration."""

    def __init__(self, gen: "TraceGenerator", loop: For):
        self.bounds = _Bounds(loop)
        self.plan = gen._loop_plan(loop)
        self.strides = self.plan.coefficient(loop.var) * loop.step
        self.point = self.strides == 0

    def sizes(self, run, env, m):
        _lo, trips = self.bounds.eval(env, m)
        return (trips > 0) * self.plan.refs

    def emit(self, run, env, m):
        lo, trips = self.bounds.eval(env, m)
        live = np.flatnonzero(trips)
        if not live.size:
            return
        if live.size < m:
            env, lo, trips = _take(env, live), lo[live], trips[live]
        else:
            env = dict(env)
        env[self.bounds.var] = lo
        yield from self.rows(run, env, trips, live)

    def rows(self, run, env: Env, trips: np.ndarray, ctx: np.ndarray):
        """Segments of executions starting at ``env[var]`` with ``trips``."""
        plan = self.plan
        run.add_trips(plan, _weighted(env, trips))
        if not plan.refs:
            return
        n = len(ctx)
        per = max(1, BATCH_SEGMENTS // plan.refs)
        for a in range(0, n, per):
            sub = _slice(env, a, a + per) if n > per else env
            k = min(n - a, per)
            count = np.where(self.point[:, None], 1, trips[a : a + k])
            yield _chunk_rows(plan.keys, plan.bases(run.bases, sub, k), self.strides, count, ctx[a : a + k])


class _InnermostParallel(_Innermost):
    """An innermost parallel loop at serial level: this core runs its
    scheduled values, contiguous runs of them coalesced into segments."""

    def __init__(self, gen: "TraceGenerator", loop: For):
        super().__init__(gen, loop)
        self.loop = loop

    def _runs(self, run, env, m):
        ctx, starts, lens = [], [], []
        step = self.loop.step
        for c in range(m):
            values = run.assigned(self.loop, env, c)
            if not values:
                continue
            v = np.asarray(values, dtype=np.int64)
            breaks = np.flatnonzero(np.diff(v) != step) + 1
            first = np.concatenate(([0], breaks))
            ctx.append(np.full(len(first), c, dtype=np.int64))
            starts.append(v[first])
            lens.append(np.diff(np.concatenate((first, [len(v)]))))
        if not ctx:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        return np.concatenate(ctx), np.concatenate(starts), np.concatenate(lens)

    def sizes(self, run, env, m):
        ctx, _starts, _lens = self._runs(run, env, m)
        return np.bincount(ctx, minlength=m).astype(np.int64) * self.plan.refs

    def emit(self, run, env, m):
        ctx, starts, lens = self._runs(run, env, m)
        for a in range(0, len(ctx), BATCH_SEGMENTS):
            part = ctx[a : a + BATCH_SEGMENTS]
            sub = _take(env, part)
            sub[self.bounds.var] = starts[a : a + BATCH_SEGMENTS]
            yield from self.rows(run, sub, lens[a : a + BATCH_SEGMENTS], part)


class _Pair:
    """A perfect (outer, innermost) pair whose inner bounds do not depend
    on the outer variable: one row per reference per pair execution.

    Contexts whose every reference chains contiguously across outer
    iterations (``stride_out == stride_in * trips_in``) emit one segment
    per reference for the whole pair — the 3-iteration channel loop of
    the blur's "Unit-stride" variant merges into its parent this way.
    Other contexts emit the inner loop's own references as a descriptor
    group: one inner-loop segment per reference, repeated for every
    outer iteration with the base one outer step further on.
    """

    def __init__(self, gen: "TraceGenerator", outer: For, inner: For):
        self.outer = _Bounds(outer)
        self.inner = _Bounds(inner)
        self.variables = self.outer.variables | self.inner.variables
        self.plan = gen._pair_plan(outer, inner)
        self.inner_plan = gen._loop_plan(inner)
        plan = self.plan
        self.s_in = plan.coefficient(inner.var) * inner.step
        self.s_out = plan.coefficient(outer.var) * outer.step
        both = (self.s_in == 0) & (self.s_out == 0)
        self.kinds = [
            np.flatnonzero(both),                                  # count 1
            np.flatnonzero((self.s_in == 0) & ~both),              # trips_out
            np.flatnonzero((self.s_out == 0) & ~both),             # trips_in
            np.flatnonzero((self.s_in != 0) & (self.s_out != 0)),  # both
        ]
        self.strides = np.where(self.s_in == 0, self.s_out, self.s_in)

    def _shape(self, env, m):
        out_lo, t_out = self.outer.eval(env, m)
        in_lo, t_in = self.inner.eval(env, m)
        live = (t_out > 0) & (t_in > 0)
        chained = ~live
        ok = np.ones(m, dtype=bool)
        for r in self.kinds[3]:
            ok &= self.s_out[r] == self.s_in[r] * t_in
        chained |= ok
        return out_lo, t_out, in_lo, t_in, live, chained

    def sizes(self, run, env, m):
        live = self._shape(env, m)[4]
        return live * self.plan.refs

    def emit(self, run, env, m):
        if not m:
            return
        plan, inner = self.plan, self.inner_plan
        if run.gen._plan_base[plan.index] == _UNASSIGNED:
            # A pair's references are numbered when the stream reaches
            # the loop, even where it emits nothing: mark the spot.
            mark = np.zeros((_ROWS, 1), dtype=np.int64)
            mark[_KEY] = plan.marker
            mark[_REPS] = 1
            yield mark
        out_lo, t_out, in_lo, t_in, live, chained = self._shape(env, m)
        idx = np.flatnonzero(live)
        if not idx.size:
            return
        to, ti, merged = t_out[idx], t_in[idx], chained[idx]
        sub = _take(env, idx)
        body = to * ti
        run.add_trips(plan, _weighted(sub, body * merged), _weighted(sub, to * merged))
        run.add_trips(inner, _weighted(sub, body * ~merged))
        if not plan.refs:
            return
        sub[self.outer.var] = out_lo[idx]
        sub[self.inner.var] = in_lo[idx]
        per = max(1, BATCH_SEGMENTS // plan.refs)
        for a in range(0, len(idx), per):
            b = a + per
            yield self._rows(run, _slice(sub, a, b), to[a:b], ti[a:b], merged[a:b], idx[a:b])

    def _rows(self, run, env, to, ti, merged, ctx):
        """The rows of live pair executions: a chained one's merged
        segments, any other's inner-loop descriptor group."""
        plan, n = self.plan, len(ctx)
        count = np.empty((plan.refs, n), dtype=np.int64)
        for kind, value in zip(self.kinds, (1, to, ti, to * ti)):
            if kind.size:
                count[kind] = value
        return _chunk_rows(
            np.where(merged, plan.keys[:, None], self.inner_plan.keys[:, None]),
            plan.bases(run.bases, env, n),
            np.where(merged, self.strides[:, None], self.s_in[:, None]),
            np.where(merged, count, np.where(self.s_in[:, None] == 0, 1, ti)),
            ctx,
            np.where(merged, 0, self.s_out[:, None]),
            np.where(merged, 1, to)[None, :],
        )


class _Loop:
    """A serial loop over non-innermost bodies.

    A body whose shape does not depend on the loop variable (leaves, and
    innermost loops and pairs whose bounds do not read it) is emitted
    once per loop execution, at the first value, as descriptor rows: the
    group of rows one context emits repeats once per iteration, each
    reference's base advancing by its step per iteration.  Any other
    body (and a pair that does not chain in some context) runs once per
    iteration over expanded contexts.
    """

    def __init__(self, loop: For, body):
        self.bounds = _Bounds(loop)
        self.body = body
        self.pairs: List[_Pair] = []
        plans = _fixed_plans(body, loop.var, self.pairs)
        self.steps = None  # provisional key -> byte step per iteration
        if plans is not None:
            self.steps = np.zeros(max(plan.marker for plan in plans) + 1, dtype=np.int64)
            for plan in plans:
                self.steps[plan.keys] = plan.coefficient(loop.var) * loop.step

    def _first(self, env, m):
        """(first values, trip counts, the contexts bound to their first
        value), the last ``None`` unless the body emits descriptors:
        its shape is fixed and it emits plain rows in every context."""
        lo, trips = self.bounds.eval(env, m)
        if self.steps is None:
            return lo, trips, None
        at = dict(env)
        at[self.bounds.var] = lo
        for pair in self.pairs:
            if not (pair._shape(at, m)[5] | (trips == 0)).all():
                return lo, trips, None
        return lo, trips, at

    def sizes(self, run, env, m):
        lo, trips, at = self._first(env, m)
        if at is not None:
            return (trips > 0) * self.body.sizes(run, at, m)
        out = np.zeros(m, dtype=np.int64)
        for parent, child, n in self.bounds.expand(env, lo, trips):
            weights = self.body.sizes(run, child, n)
            out += np.bincount(parent, weights=weights, minlength=m).astype(np.int64)
        return out

    def emit(self, run, env, m):
        lo, trips, at = self._first(env, m)
        body = self.body
        if at is None:
            for parent, child, n in self.bounds.expand(env, lo, trips):
                for chunk in body.emit(run, child, n):
                    chunk[_CTX] = parent[chunk[_CTX]]
                    yield chunk
            return
        live = np.flatnonzero(trips)
        if live.size < m:
            at = _take(at, live)
        at[_REPEAT] = trips[live]
        n = live.size
        for a, b in _ranges(body.sizes(run, at, n)):
            sub = _slice(at, a, b) if b - a < n else at
            parts = list(body.emit(run, sub, b - a))
            if not parts:
                continue
            rows = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
            ctx = rows[_CTX]
            rows[_STEP] = self.steps[rows[_KEY]]
            rows[_REPS] = sub[_REPEAT][ctx]
            rows[_RANK] = np.arange(ctx.size) - np.searchsorted(ctx, ctx)
            rows[_CTX] = live[a + ctx]
            yield rows


def _fixed_plans(node, var: str, pairs: List["_Pair"]) -> Optional[List[_Plan]]:
    """The plans of an emitter subtree whose emitted shape does not
    depend on ``var`` (its pairs appended to ``pairs``), or ``None``."""
    if isinstance(node, _Block):
        plans: List[_Plan] = []
        for child in node.children:
            found = _fixed_plans(child, var, pairs)
            if found is None:
                return None
            plans += found
        return plans
    if isinstance(node, _Leaf):
        return [node.plan]
    if type(node) is _Innermost and var not in node.bounds.variables:
        return [node.plan]
    if isinstance(node, _Pair) and var not in node.variables:
        pairs.append(node)
        return [node.plan]
    return None


class _ParallelLoop:
    """A non-innermost parallel loop at serial level: this core's
    scheduled values bind the loop variable, the body runs in parallel."""

    def __init__(self, loop: For, body):
        self.loop = loop
        self.body = body

    def _children(self, run, env, c):
        values = run.assigned(self.loop, env, c)
        for a in range(0, len(values), BATCH_SEGMENTS):
            part = np.asarray(values[a : a + BATCH_SEGMENTS], dtype=np.int64)
            child = {var: np.full(len(part), col[c], dtype=np.int64) for var, col in env.items()}
            child[self.loop.var] = part
            yield child, len(part)

    def sizes(self, run, env, m):
        out = np.zeros(m, dtype=np.int64)
        for c in range(m):
            for child, n in self._children(run, env, c):
                out[c] += int(self.body.sizes(run, child, n).sum())
        return out

    def emit(self, run, env, m):
        for c in range(m):
            for child, n in self._children(run, env, c):
                for chunk in self.body.emit(run, child, n):
                    chunk[_CTX] = c
                    yield chunk


class _Block:
    """Statements in sequence: per context, every child's segments in
    child order (merged with a stable sort on the context index)."""

    def __init__(self, children):
        self.children = children

    def sizes(self, run, env, m):
        total = np.zeros(m, dtype=np.int64)
        for child in self.children:
            total += child.sizes(run, env, m)
        return total

    def emit(self, run, env, m):
        children = self.children
        if m == 1:
            for child in children:
                yield from child.emit(run, env, 1)
            return
        for a, b in _ranges(self.sizes(run, env, m)):
            sub = _slice(env, a, b)
            if b - a == 1:
                for child in children:
                    for chunk in child.emit(run, sub, 1):
                        chunk[_CTX] = a
                        yield chunk
                continue
            parts = [chunk for child in children for chunk in child.emit(run, sub, b - a)]
            if not parts:
                continue
            rows = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
            rows = rows[:, np.argsort(rows[_CTX], kind="stable")]
            rows[_CTX] += a
            yield rows


class _Run:
    """Per-stream state: the core, its array bases, and work tallies."""

    def __init__(self, gen: "TraceGenerator", core: int):
        self.gen = gen
        self.core = core
        self.bases = gen._core_bases[core]
        self.trips: Dict[int, list] = {}
        self.leaf_runs: Dict[_Leaf, int] = {}

    def add_trips(self, plan: _Plan, trips: int, outer: int = 0) -> None:
        """Tally ``trips`` body iterations of a plan (and, for a pair,
        ``outer`` iterations of its outer loop)."""
        acc = self.trips.get(plan.index)
        if acc is None:
            self.trips[plan.index] = [plan, trips, outer]
        else:
            acc[1] += trips
            acc[2] += outer

    def assigned(self, loop: For, env: Env, c: int) -> List[int]:
        binding = {var: int(col[c]) for var, col in env.items()}
        return self.gen._assigned(loop, binding)[self.core]

    def work(self, segments: int) -> CoreWork:
        work = CoreWork(segments=segments)
        for plan, trips, outer in self.trips.values():
            counts = plan.per_iter * trips
            counts.int_ops += outer  # a pair's outer induction updates
            if plan.vectorized:
                work.vector = work.vector + counts
            else:
                work.scalar = work.scalar + counts
        for leaf, runs in self.leaf_runs.items():
            work.scalar = work.scalar + leaf.counts * runs
        return work


class TraceGenerator:
    """Generates per-core segment streams and per-core work summaries."""

    def __init__(
        self,
        program: Program,
        num_cores: int = 1,
        layout: Optional[MemoryLayout] = None,
    ):
        self.program = program
        self.num_cores = max(1, int(num_cores))
        self.layout = layout or MemoryLayout(program, num_threads=self.num_cores)
        self._array_index = {arr.name: k for k, arr in enumerate(program.arrays)}
        self._core_bases = [
            np.array(
                [
                    self.layout.address_of(arr, core) if arr.scope != "register" else 0
                    for arr in program.arrays
                ],
                dtype=np.int64,
            )
            for core in range(self.num_cores)
        ]
        # Attribution: leaf statements numbered in program (printer) order,
        # loop-nest depths, and the ref id -> RefInfo table filled in as
        # the streams reach each plan (the PMU's attribution join key).
        self._stmt_ids: Dict[int, int] = {}
        self._loop_depths: Dict[int, int] = {}
        self._index_statements(program.body, 0)
        self.ref_info: Dict[int, RefInfo] = {
            -1: RefInfo(-1, "(setup)", False, 0, -1, "", 0)
        }
        self._next_ref = 0
        self._assignments: Dict[tuple, List[List[int]]] = {}
        self.work: List[CoreWork] = [CoreWork() for _ in range(self.num_cores)]
        # Rows each core's last stream materialised before expansion: the
        # emitter's own unit of work (``work[core].segments`` counts the
        # segments they expanded to).
        self.rows: List[int] = [0] * self.num_cores

        # Provisional reference keys, resolved to ref ids at the top of
        # the stream: one per plan reference plus one reach marker per
        # plan, each a (plan, index in plan, is_write, elem_size, marker).
        self._plans: List[_Plan] = []
        self._keys: List[tuple] = []
        self._loop_plans: Dict[int, _Plan] = {}
        self._pair_plans: Dict[int, Optional[_Plan]] = {}
        self._setup = _Plan(self, [], None)  # plan 0: setup leaves, ref -1

        self._roots = [self._compile(program.body, False, True)]
        if self.num_cores > 1:
            self._roots.append(self._compile(program.body, False, False))
        plans, local, write, elem, marker = zip(*self._keys)
        self._k_plan = np.array(plans, dtype=np.int64)
        self._k_local = np.array(local, dtype=np.int64)
        self._k_write = np.array(write, dtype=bool)
        self._k_elem = np.array(elem, dtype=np.int64)
        self._k_marker = np.array(marker, dtype=bool)
        self._plan_base = np.full(len(self._plans), _UNASSIGNED, dtype=np.int64)
        self._plan_base[self._setup.index] = -1

    # -- compilation ------------------------------------------------------------

    def _index_statements(self, stmt: Stmt, depth: int) -> None:
        """Number leaf statements in program order (the same walk the
        pretty printer performs) and record loop-nest depths."""
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                self._index_statements(child, depth)
        elif isinstance(stmt, For):
            self._loop_depths[id(stmt)] = depth
            self._index_statements(stmt.body, depth + 1)
        else:
            self._stmt_ids[id(stmt)] = len(self._stmt_ids)

    def _register_plan(self, plan: _Plan, share: Optional[int]):
        if share is None:
            index = len(self._plans)
            self._plans.append(plan)
        else:
            index = share
        first = len(self._keys)
        for local, (_array, is_write, elem, *_where) in enumerate(plan.infos):
            self._keys.append((index, local if share is None else 0, is_write, elem, False))
        marker = len(self._keys)
        self._keys.append((index, 0, False, 0, True))
        return index, np.arange(first, marker, dtype=np.int64), marker

    def _setup_plan(self, targets) -> _Plan:
        """Leaf references outside innermost loops all carry ref id -1:
        they share the setup plan's id base, each with its own key."""
        return _Plan(self, targets, None, share=self._setup.index)

    def _loop_plan(self, loop: For) -> _Plan:
        plan = self._loop_plans.get(id(loop))
        if plan is None:
            targets, counts = _body_targets(loop.body)
            plan = self._loop_plans[id(loop)] = _Plan(self, targets, loop)
            plan.per_iter = counts
            plan.vectorized = loop.vectorized
        return plan

    def _pair_plan(self, outer: For, inner: For) -> _Plan:
        plan = self._pair_plans.get(id(outer))
        if plan is None:
            targets, counts = _body_targets(inner.body)
            plan = self._pair_plans[id(outer)] = _Plan(self, targets, inner)
            plan.per_iter = counts
            plan.vectorized = inner.vectorized or outer.vectorized
        return plan

    def _compile(self, stmt: Stmt, in_parallel: bool, master: bool):
        """The emitter tree for one core class; ``master`` is core 0,
        which alone runs the serial region's work.  Subtrees another
        core never executes compile to ``None``."""
        if isinstance(stmt, Block):
            children = [self._compile(child, in_parallel, master) for child in stmt.stmts]
            children = [child for child in children if child is not None]
            if len(children) <= 1:
                return children[0] if children else None
            return _Block(children)
        if isinstance(stmt, For):
            if _innermost(stmt):
                if stmt.parallel and not in_parallel:
                    return _InnermostParallel(self, stmt)
                if not in_parallel and not master:
                    return None  # serial region: master core only
                return _Innermost(self, stmt)
            if stmt.parallel and not in_parallel:
                body = self._compile(stmt.body, True, master)
                return _ParallelLoop(stmt, body) if body is not None else None
            if not in_parallel and not master and not _contains_parallel(stmt):
                return None  # serial subtree executed by the master core only
            inner = _pair_inner(stmt)
            if inner is not None:
                return _Pair(self, stmt, inner)
            body = self._compile(stmt.body, in_parallel, master)
            return _Loop(stmt, body) if body is not None else None
        if not in_parallel and not master:
            return None
        return _Leaf(self, stmt)

    def _assign(self, index: int) -> None:
        """Hand out the next reference ids to plan ``index``."""
        plan = self._plans[index]
        base = self._next_ref
        self._plan_base[index] = base
        for local, (array, is_write, elem, stmt_id, loop, depth) in enumerate(plan.infos):
            self.ref_info[base + local] = RefInfo(
                ref_id=base + local,
                array=array,
                is_write=is_write,
                elem_size=elem,
                stmt_id=stmt_id,
                loop=loop,
                depth=depth,
            )
        self._next_ref += plan.refs

    def _resolve(self, rows: np.ndarray) -> Tuple[SegmentBatch, np.ndarray]:
        """Turn provisional keys into ref ids (numbering plans in the
        order the stream first reaches them) and drop reach markers.

        Returns the rows' columns and the rows left.  A plan's first
        row comes first in the expanded stream too (a group's first
        round holds all its rows), so numbering needs no expansion.
        """
        keys = rows[_KEY]
        plans = self._k_plan[keys]
        base = self._plan_base[plans]
        fresh = base == _UNASSIGNED
        if fresh.any():
            for index in dict.fromkeys(plans[fresh].tolist()):
                self._assign(index)
            base = self._plan_base[plans]
        markers = self._k_marker[keys]
        if markers.any():
            keep = ~markers
            group = np.cumsum(rows[_RANK] == 0)[keep]
            rows, keys, base = rows[:, keep], keys[keep], base[keep]
            rows[_RANK] = np.diff(group, prepend=0) == 0  # a group may lose its lead
        batch = SegmentBatch(
            base + self._k_local[keys],
            rows[_BASE],
            rows[_STRIDE],
            rows[_COUNT],
            self._k_write[keys],
            self._k_elem[keys],
        )
        return batch, rows

    def references(self) -> Dict[int, RefInfo]:
        """The ref id -> :class:`RefInfo` attribution table.

        Ids are handed out as the streams first reach each plan, so
        consume the streams before reading this (``simulate`` does).
        """
        return dict(self.ref_info)

    # -- public API ----------------------------------------------------------

    def core_stream(self, core: int) -> Iterator[SegmentBatch]:
        """The segments issued by ``core``, in program order, as batches
        of at most ``BATCH_SEGMENTS`` segments.

        Also (re)accumulates ``self.work[core]`` and ``self.rows[core]``
        as a side effect; consume the stream fully before reading them.
        """
        if not 0 <= core < self.num_cores:
            raise SimulationError(f"core {core} out of range 0..{self.num_cores - 1}")
        faults.before_tracegen()
        self.work[core] = CoreWork()
        run = _Run(self, core)
        root = self._roots[min(core, 1)]
        self.rows[core] = 0
        emitted = rows = held = 0
        pending: List[np.ndarray] = []  # at most a batch of rows: each flush empties it
        chunks = root.emit(run, {}, 1) if root is not None else ()
        for chunk in chunks:
            if held + chunk.shape[1] > BATCH_SEGMENTS:
                for batch in self._flush(pending):
                    emitted += len(batch.ref)
                    yield batch
                held = 0
            pending.append(chunk)
            held += chunk.shape[1]
            rows += chunk.shape[1]
        for batch in self._flush(pending):
            emitted += len(batch.ref)
            yield batch
        self.work[core] = run.work(emitted)
        self.rows[core] = rows

    def _flush(self, pending: List[np.ndarray]) -> Iterator[SegmentBatch]:
        if not pending:
            return
        rows = np.concatenate(pending, axis=1) if len(pending) > 1 else pending[0]
        pending.clear()
        batch, rows = self._resolve(rows)
        yield from _expand(batch, rows)

    # -- scheduling ---------------------------------------------------------------

    def _assigned(self, loop: For, env: Dict[str, int]) -> List[List[int]]:
        key = (id(loop), tuple(sorted(env.items())))
        cached = self._assignments.get(key)
        if cached is not None:
            return cached
        values = list(loop.iter_values(env))
        with tracer.span(
            "tracegen.schedule",
            cat="tracegen",
            loop=loop.var,
            schedule=loop.schedule,
            iterations=len(values),
        ):
            if loop.schedule == "dynamic":
                costs = dict(zip(values, self.iteration_costs(loop, values, env)))
                assignment = split_dynamic(values, self.num_cores, loop.chunk or 1, costs.__getitem__)
            else:
                assignment = split_static(values, self.num_cores, loop.chunk)
        self._assignments[key] = assignment
        return assignment

    def iteration_costs(self, loop: For, values: List[int], env: Dict[str, int]) -> List[int]:
        """``[iteration_cost(loop, v, env) for v in values]``, counted for
        all values at once over the emitter's loop expansion."""
        cost = np.ones(len(values), dtype=np.int64)
        for a in range(0, len(values), BATCH_SEGMENTS):
            part = np.asarray(values[a : a + BATCH_SEGMENTS], dtype=np.int64)
            ctx = {var: np.full(len(part), value, dtype=np.int64) for var, value in env.items()}
            ctx[loop.var] = part
            cost[a : a + len(part)] += self._body_cost(loop.body, ctx, len(part))
        return cost.tolist()

    def _body_cost(self, stmt: Stmt, env: Env, m: int) -> np.ndarray:
        if isinstance(stmt, Block):
            total = np.zeros(m, dtype=np.int64)
            for child in stmt.stmts:
                total += self._body_cost(child, env, m)
            return total
        if isinstance(stmt, For):
            bounds = _Bounds(stmt)
            lo, trips = bounds.eval(env, m)
            if _innermost(stmt):
                return trips * (1 + sum(_weight(leaf) for leaf in _children(stmt.body)))
            total = trips.copy()  # induction updates
            for parent, child, n in bounds.expand(env, lo, trips):
                weights = self._body_cost(stmt.body, child, n)
                total += np.bincount(parent, weights=weights, minlength=m).astype(np.int64)
            return total
        return np.full(m, _weight(stmt), dtype=np.int64)


def _weight(leaf: Stmt) -> int:
    counts = leaf_counts(leaf)
    return counts.flops + counts.loads + counts.stores + counts.int_ops


def _innermost(loop: For) -> bool:
    return not any(isinstance(s, For) for s in walk_stmts(loop.body))


def _contains_parallel(stmt: Stmt) -> bool:
    return any(isinstance(node, For) and node.parallel for node in walk_stmts(stmt))


def _pair_inner(loop: For) -> Optional[For]:
    """The inner loop when ``loop`` and its only child form a pair."""
    body = _children(loop.body)
    if len(body) != 1 or not isinstance(body[0], For):
        return None
    inner = body[0]
    if inner.parallel or not _innermost(inner):
        return None
    if loop.var in inner.lo.variables or loop.var in inner.hi.variables:
        return None
    return inner
