"""A per-segment loop-nest walker: the differential oracle for
:class:`repro.exec.tracegen.TraceGenerator`.

It walks every loop nest recursively, one generator frame per loop
level, and yields one :class:`~repro.exec.trace.Segment` per reference
per innermost-loop execution; ``schedule(dynamic)`` chunks are costed by
brute-force :func:`~repro.analysis.opcount.iteration_cost`.  The batch
emitter must match it segment for segment, ref ids and ``CoreWork``
included.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.analysis.opcount import OpCounts, count_expr, iteration_cost
from repro.errors import SimulationError
from repro.exec.trace import CoreWork, RefInfo, Segment
from repro.exec.tracegen import split_dynamic, split_static
from repro.ir.affine import Affine
from repro.ir.expr import loads_in
from repro.ir.program import MemoryLayout, Program
from repro.ir.stmt import Block, For, LocalAssign, Stmt, Store, walk_stmts


class _RefPlan:
    """Precompiled emission plan for one array reference in an innermost
    loop: evaluate base cheaply, emit one segment."""

    __slots__ = ("ref_id", "array", "is_write", "elem_size", "const", "terms", "coeff", "stmt")

    def __init__(self, ref_id: int, array, is_write: bool, offset: Affine, var: str, stmt=None):
        self.ref_id = ref_id
        self.array = array
        self.is_write = is_write
        self.elem_size = array.dtype.size
        self.stmt = stmt  # the leaf statement this reference belongs to
        size = self.elem_size
        self.const = offset.const * size
        self.coeff = offset.coefficient(var) * size  # byte stride per iteration
        self.terms = tuple(
            (v, c * size) for v, c in offset.terms.items() if v != var
        )


class _LoopPlan:
    """Precompiled plan for an innermost loop body."""

    __slots__ = ("refs", "per_iter", "vectorized", "step")

    def __init__(self, loop: For):
        self.refs: List[_RefPlan] = []
        self.vectorized = loop.vectorized
        self.step = loop.step
        counts = OpCounts()
        ref_id = 0
        for leaf in _leaves(loop.body):
            if isinstance(leaf, LocalAssign):
                for load in loads_in(leaf.value):
                    if load.array.scope == "register":
                        continue
                    self.refs.append(
                        _RefPlan(ref_id, load.array, False, load.array.linearize(load.indices), loop.var, leaf)
                    )
                    ref_id += 1
                counts = counts + count_expr(leaf.value)
                if leaf.accumulate:
                    counts.flops += 1
            elif isinstance(leaf, Store):
                for load in loads_in(leaf.value):
                    if load.array.scope == "register":
                        continue
                    self.refs.append(
                        _RefPlan(ref_id, load.array, False, load.array.linearize(load.indices), loop.var, leaf)
                    )
                    ref_id += 1
                counts = counts + count_expr(leaf.value)
                counts.iterations += 1
                if leaf.array.scope == "register":
                    if leaf.accumulate:
                        counts.flops += 1
                    continue
                offset = leaf.array.linearize(leaf.indices)
                if leaf.accumulate:
                    self.refs.append(_RefPlan(ref_id, leaf.array, False, offset, loop.var, leaf))
                    ref_id += 1
                    counts.loads += 1
                    counts.bytes_loaded += leaf.array.dtype.size
                    counts.flops += 1
                self.refs.append(_RefPlan(ref_id, leaf.array, True, offset, loop.var, leaf))
                ref_id += 1
                counts.stores += 1
                counts.bytes_stored += leaf.array.dtype.size
            else:
                raise SimulationError(f"unexpected statement in innermost body: {leaf!r}")
        counts.int_ops += 1  # induction update
        self.per_iter = counts


def _leaves(stmt: Stmt):
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            yield from _leaves(child)
    else:
        yield stmt


class _PairRef:
    """One reference of a two-level (outer, inner) loop pair."""

    __slots__ = ("ref_id", "array", "is_write", "elem_size", "const", "terms", "coeff_out", "coeff_in", "stmt")

    def __init__(self, ref_id: int, array, is_write: bool, offset: Affine, outer: str, inner: str, stmt=None):
        self.ref_id = ref_id
        self.array = array
        self.is_write = is_write
        self.stmt = stmt
        size = array.dtype.size
        self.elem_size = size
        self.const = offset.const * size
        self.coeff_out = offset.coefficient(outer) * size
        self.coeff_in = offset.coefficient(inner) * size
        self.terms = tuple(
            (v, c * size) for v, c in offset.terms.items() if v not in (outer, inner)
        )


class _PairPlan:
    """Emission plan for a perfect (outer, inner) pair whose inner loop is
    innermost and has outer-independent bounds.

    Lets tiny innermost loops (the 3-iteration channel loop of the blur's
    "Unit-stride" variant) merge with their parent into one segment per
    reference per *pair* execution instead of per inner-loop execution —
    an order-of-magnitude reduction in emitted segments.
    """

    __slots__ = ("inner", "refs", "per_iter", "vectorized")

    def __init__(self, outer: For, inner: For):
        self.inner = inner
        self.vectorized = inner.vectorized or outer.vectorized
        inner_plan = _LoopPlan(inner)
        self.per_iter = inner_plan.per_iter
        self.refs: List[_PairRef] = []
        ref_id = 0
        for leaf in _leaves(inner.body):
            targets = []
            for load in loads_in(leaf.value):
                targets.append((load.array, load.array.linearize(load.indices), False))
            if isinstance(leaf, Store):
                offset = leaf.array.linearize(leaf.indices)
                if leaf.accumulate:
                    targets.append((leaf.array, offset, False))
                targets.append((leaf.array, offset, True))
            for array, offset, is_write in targets:
                if array.scope == "register":
                    continue
                self.refs.append(_PairRef(ref_id, array, is_write, offset, outer.var, inner.var, leaf))
                ref_id += 1

    @staticmethod
    def try_build(loop: For) -> Optional["_PairPlan"]:
        body = [s for s in _leaves_or_loops(loop.body)]
        if len(body) != 1 or not isinstance(body[0], For):
            return None
        inner = body[0]
        if inner.parallel:
            return None
        if any(isinstance(s, For) for s in walk_stmts(inner.body)):
            return None
        if loop.var in inner.lo.variables or loop.var in inner.hi.variables:
            return None
        try:
            return _PairPlan(loop, inner)
        except SimulationError:
            return None


def _leaves_or_loops(stmt: Stmt):
    """Direct children after block flattening (loops NOT descended)."""
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            yield from _leaves_or_loops(child)
    else:
        yield stmt


class WalkerTraceGenerator:
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
        self._plans: Dict[int, _LoopPlan] = {}
        self._trip_acc: Dict[int, list] = {}
        self._pair_chain: Dict[tuple, Optional[list]] = {}
        self._pair_plans: Dict[int, Optional[_PairPlan]] = {}
        self._innermost: Dict[int, bool] = {}
        self._next_ref = 0
        # Attribution: leaf statements numbered in program (printer) order,
        # loop-nest depths, and the ref id -> RefInfo table filled in as
        # emission plans are built (the PMU's attribution join key).
        self._stmt_ids: Dict[int, int] = {}
        self._loop_depths: Dict[int, int] = {}
        self._index_statements(program.body, 0)
        self.ref_info: Dict[int, RefInfo] = {
            -1: RefInfo(-1, "(setup)", False, 0, -1, "", 0)
        }
        self._assignments: Dict[tuple, List[List[int]]] = {}
        self.work: List[CoreWork] = [CoreWork() for _ in range(self.num_cores)]
        self._bases: List[Dict[str, int]] = [
            {
                arr.name: self.layout.address_of(arr, core)
                for arr in program.arrays
                if arr.scope != "register"
            }
            for core in range(self.num_cores)
        ]

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

    def _register_ref(self, ref, loop: Optional[For]) -> None:
        self.ref_info[ref.ref_id] = RefInfo(
            ref_id=ref.ref_id,
            array=ref.array.name,
            is_write=ref.is_write,
            elem_size=ref.elem_size,
            stmt_id=self._stmt_ids.get(id(ref.stmt), -1),
            loop=loop.var if loop is not None else "",
            depth=self._loop_depths.get(id(loop), -1) + 1 if loop is not None else 0,
        )

    def references(self) -> Dict[int, RefInfo]:
        """The ref id -> :class:`RefInfo` attribution table.

        Plans are built lazily during emission, so consume the streams
        before reading this (``simulate`` does).
        """
        return dict(self.ref_info)

    # -- public API ----------------------------------------------------------

    def core_stream(self, core: int) -> Iterator[Segment]:
        """The segments issued by ``core``, in program order.

        Also (re)accumulates ``self.work[core]`` as a side effect; consume
        the stream fully before reading the work summary.
        """
        if not 0 <= core < self.num_cores:
            raise SimulationError(f"core {core} out of range 0..{self.num_cores - 1}")
        self.work[core] = CoreWork()
        # Innermost-loop op counts accumulate as per-plan trip totals and
        # fold into the work summary once the walk finishes: one OpCounts
        # multiply-add per *plan* instead of two allocations per emission.
        self._trip_acc = {}
        yield from self._walk(self.program.body, {}, core, in_parallel=False)
        work = self.work[core]
        for plan, trips in self._trip_acc.values():
            counts = plan.per_iter * trips
            if plan.vectorized:
                work.vector = work.vector + counts
            else:
                work.scalar = work.scalar + counts
        self._trip_acc = {}

    # -- walk ------------------------------------------------------------------

    def _walk(self, stmt: Stmt, env: Dict[str, int], core: int, in_parallel: bool):
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                yield from self._walk(child, env, core, in_parallel)
            return
        if isinstance(stmt, For):
            if self._is_innermost(stmt):
                if stmt.parallel and not in_parallel:
                    values = self._assigned(stmt, env)[core]
                    yield from self._emit_innermost_values(stmt, env, core, values)
                else:
                    if not in_parallel and core != 0:
                        return  # serial region: master core only
                    yield from self._emit_innermost(stmt, env, core)
                return
            if stmt.parallel and not in_parallel:
                values = self._assigned(stmt, env)[core]
                for value in values:
                    env[stmt.var] = value
                    yield from self._walk(stmt.body, env, core, True)
                env.pop(stmt.var, None)
                return
            if not in_parallel and core != 0 and not self._contains_parallel(stmt):
                return  # serial subtree executed by the master core only
            pair = self._pair(stmt)
            if pair is not None:
                yield from self._emit_pair(stmt, pair, env, core)
                return
            if not in_parallel and self._contains_parallel(stmt):
                # A parallel loop nested under serial loops: all cores walk
                # the serial part (control flow only, no work double count:
                # serial leaves still go to core 0 only via the checks above).
                for value in stmt.iter_values(env):
                    env[stmt.var] = value
                    yield from self._walk(stmt.body, env, core, False)
                env.pop(stmt.var, None)
                return
            for value in stmt.iter_values(env):
                env[stmt.var] = value
                yield from self._walk(stmt.body, env, core, in_parallel)
            env.pop(stmt.var, None)
            return
        # A leaf outside any innermost loop (rare: scalar setup code).
        if not in_parallel and core != 0:
            return
        yield from self._emit_leaf(stmt, env, core)

    def _contains_parallel(self, stmt: Stmt) -> bool:
        return any(
            isinstance(node, For) and node.parallel for node in walk_stmts(stmt)
        )

    def _is_innermost(self, loop: For) -> bool:
        key = id(loop)
        cached = self._innermost.get(key)
        if cached is None:
            cached = not any(isinstance(s, For) for s in walk_stmts(loop.body))
            self._innermost[key] = cached
        return cached

    # -- scheduling ---------------------------------------------------------------

    def _assigned(self, loop: For, env: Dict[str, int]) -> List[List[int]]:
        env_key = tuple(sorted(env.items()))
        key = (id(loop), env_key)
        cached = self._assignments.get(key)
        if cached is not None:
            return cached
        values = list(loop.iter_values(env))
        if loop.schedule == "dynamic":
            costs = {value: iteration_cost(loop, value, env) for value in values}
            assignment = split_dynamic(values, self.num_cores, loop.chunk or 1, costs.__getitem__)
        else:
            assignment = split_static(values, self.num_cores, loop.chunk)
        self._assignments[key] = assignment
        return assignment

    # -- emission -------------------------------------------------------------------

    def _plan(self, loop: For) -> _LoopPlan:
        key = id(loop)
        plan = self._plans.get(key)
        if plan is None:
            plan = _LoopPlan(loop)
            # Make reference ids globally unique: they act as the stride
            # prefetcher's training key, like a load/store PC.
            for ref in plan.refs:
                ref.ref_id = self._next_ref
                self._next_ref += 1
                self._register_ref(ref, loop)
            self._plans[key] = plan
        return plan

    def _pair(self, loop: For) -> Optional[_PairPlan]:
        key = id(loop)
        if key not in self._pair_plans:
            plan = _PairPlan.try_build(loop)
            if plan is not None:
                for ref in plan.refs:
                    ref.ref_id = self._next_ref
                    self._next_ref += 1
                    self._register_ref(ref, plan.inner)
            self._pair_plans[key] = plan
        return self._pair_plans[key]

    def _emit_pair(self, loop: For, pair: _PairPlan, env: Dict[str, int], core: int):
        """Emit the whole (outer, inner) iteration space in one shot.

        Falls back to per-outer-iteration emission when a reference's
        access pattern does not chain contiguously for this binding.
        """
        inner = pair.inner
        out_lo = loop.lo.evaluate(env)
        out_hi = loop.hi.evaluate(env)
        if out_hi <= out_lo:
            return
        trips_out = (out_hi - out_lo + loop.step - 1) // loop.step
        in_lo = inner.lo.evaluate(env)
        in_hi = inner.hi.evaluate(env)
        if in_hi <= in_lo:
            return
        trips_in = (in_hi - in_lo + inner.step - 1) // inner.step

        # Validate chaining for this binding (pure function of the trip
        # counts, so the decision is cached per binding shape).
        cache_key = (id(loop), trips_out, trips_in)
        plans = self._pair_chain.get(cache_key, False)
        if plans is False:
            plans = []
            for ref in pair.refs:
                stride_in = ref.coeff_in * inner.step
                stride_out = ref.coeff_out * loop.step
                if stride_in == 0 and stride_out == 0:
                    plans.append((ref, 0, 1))
                elif stride_in == 0:
                    plans.append((ref, stride_out, trips_out))
                elif stride_out == 0:
                    plans.append((ref, stride_in, trips_in))
                elif stride_out == stride_in * trips_in:
                    plans.append((ref, stride_in, trips_in * trips_out))
                else:
                    plans = None
                    break
            self._pair_chain[cache_key] = plans
        if plans is None:
            # Not contiguous: emit the inner loop per outer value.
            for value in range(out_lo, out_hi, loop.step):
                env[loop.var] = value
                yield from self._emit_innermost(inner, env, core)
            env.pop(loop.var, None)
            return

        work = self.work[core]
        counts = pair.per_iter * (trips_in * trips_out)
        counts.int_ops += trips_out  # outer induction updates
        if pair.vectorized:
            work.vector = work.vector + counts
        else:
            work.scalar = work.scalar + counts

        bases = self._bases[core]
        for ref, stride, count in plans:
            base = bases[ref.array.name] + ref.const
            base += ref.coeff_out * out_lo + ref.coeff_in * in_lo
            for var, coeff in ref.terms:
                base += coeff * env[var]
            work.segments += 1
            yield Segment(ref.ref_id, base, stride, count, ref.is_write, ref.elem_size)

    def _emit_innermost(self, loop: For, env: Dict[str, int], core: int):
        lo = loop.lo.evaluate(env)
        hi = loop.hi.evaluate(env)
        if hi <= lo:
            return
        trips = (hi - lo + loop.step - 1) // loop.step
        yield from self._emit_plan(loop, env, core, lo, trips)

    def _emit_innermost_values(self, loop: For, env, core: int, values: List[int]):
        """Innermost *parallel* loop: this core runs ``values``.

        Contiguous runs of assigned values are coalesced into segments.
        """
        if not values:
            return
        run_start = values[0]
        run_len = 1
        for value in values[1:]:
            if value == run_start + run_len * loop.step:
                run_len += 1
                continue
            yield from self._emit_plan(loop, env, core, run_start, run_len)
            run_start = value
            run_len = 1
        yield from self._emit_plan(loop, env, core, run_start, run_len)

    def _emit_plan(self, loop: For, env: Dict[str, int], core: int, lo: int, trips: int):
        plan = self._plans.get(id(loop))
        if plan is None:
            plan = self._plan(loop)
        bases = self._bases[core]
        work = self.work[core]
        acc = self._trip_acc.get(id(plan))
        if acc is None:
            self._trip_acc[id(plan)] = [plan, trips]
        else:
            acc[1] += trips
        step = loop.step
        for ref in plan.refs:
            base = bases[ref.array.name] + ref.const + ref.coeff * lo
            for var, coeff in ref.terms:
                base += coeff * env[var]
            stride = ref.coeff * step
            if stride == 0:
                work.segments += 1
                yield Segment(ref.ref_id, base, 0, 1, ref.is_write, ref.elem_size)
            else:
                work.segments += 1
                yield Segment(ref.ref_id, base, stride, trips, ref.is_write, ref.elem_size)

    def _emit_leaf(self, stmt: Stmt, env: Dict[str, int], core: int):
        bases = self._bases[core]
        work = self.work[core]

        def one(array, indices, is_write: bool):
            offset = array.linearize(indices).evaluate(env)
            base = bases[array.name] + offset * array.dtype.size
            work.segments += 1
            return Segment(-1, base, 0, 1, is_write, array.dtype.size)

        if isinstance(stmt, LocalAssign):
            for load in loads_in(stmt.value):
                if load.array.scope != "register":
                    yield one(load.array, load.indices, False)
            work.scalar = work.scalar + count_expr(stmt.value)
            return
        if isinstance(stmt, Store):
            for load in loads_in(stmt.value):
                if load.array.scope != "register":
                    yield one(load.array, load.indices, False)
            counts = count_expr(stmt.value)
            if stmt.array.scope == "register":
                if stmt.accumulate:
                    counts.flops += 1
                work.scalar = work.scalar + counts
                return
            counts.stores += 1
            counts.bytes_stored += stmt.array.dtype.size
            if stmt.accumulate:
                yield one(stmt.array, stmt.indices, False)
                counts.loads += 1
                counts.bytes_loaded += stmt.array.dtype.size
                counts.flops += 1
            work.scalar = work.scalar + counts
            yield one(stmt.array, stmt.indices, True)
            return
        raise SimulationError(f"unknown leaf statement {stmt!r}")
