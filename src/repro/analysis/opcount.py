"""Static operation and memory-reference counting.

Produces exact dynamic counts (floating-point operations, loads, stores,
bytes referenced) for a program, using closed-form summation over loops so
that counting a 16384x16384 kernel costs microseconds, not a traversal of
2^28 iterations.

These counts feed:

* the timing model's compute-cycle estimate;
* the "dynamic" OpenMP schedule simulation (per-iteration cost estimates);
* the paper's Section 3.3 utilization metric denominator inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.errors import AnalysisError
from repro.analysis.summation import MAX_DEGREE, _newton_eval, newton_sum
from repro.ir.expr import BinOp, Cast, Const, Expr, IndexValue, Load, LocalRef
from repro.ir.program import Program
from repro.ir.stmt import Block, For, LocalAssign, Stmt, Store


@dataclass
class OpCounts:
    """Dynamic operation totals of one program execution."""

    flops: int = 0          # floating point adds/subs/muls/divs
    fmas: int = 0           # multiply-add pairs fusable into one FMA
    loads: int = 0          # scalar element loads from arrays
    stores: int = 0         # scalar element stores to arrays
    bytes_loaded: int = 0   # loads weighted by element size
    bytes_stored: int = 0   # stores weighted by element size
    int_ops: int = 0        # address/induction arithmetic (approximate)
    iterations: int = 0     # innermost-loop body executions

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            flops=self.flops + other.flops,
            fmas=self.fmas + other.fmas,
            loads=self.loads + other.loads,
            stores=self.stores + other.stores,
            bytes_loaded=self.bytes_loaded + other.bytes_loaded,
            bytes_stored=self.bytes_stored + other.bytes_stored,
            int_ops=self.int_ops + other.int_ops,
            iterations=self.iterations + other.iterations,
        )

    def __mul__(self, factor: int) -> "OpCounts":
        return OpCounts(
            flops=self.flops * factor,
            fmas=self.fmas * factor,
            loads=self.loads * factor,
            stores=self.stores * factor,
            bytes_loaded=self.bytes_loaded * factor,
            bytes_stored=self.bytes_stored * factor,
            int_ops=self.int_ops * factor,
            iterations=self.iterations * factor,
        )

    __rmul__ = __mul__

    @property
    def bytes_referenced(self) -> int:
        """Total bytes named by load+store instructions (not DRAM traffic)."""
        return self.bytes_loaded + self.bytes_stored

    def as_dict(self) -> Dict[str, int]:
        return {
            "flops": self.flops,
            "fmas": self.fmas,
            "loads": self.loads,
            "stores": self.stores,
            "bytes_loaded": self.bytes_loaded,
            "bytes_stored": self.bytes_stored,
            "int_ops": self.int_ops,
            "iterations": self.iterations,
        }


def count_expr(expr: Expr) -> OpCounts:
    """Operation counts of one evaluation of ``expr``."""
    counts = OpCounts()
    if isinstance(expr, (Const, LocalRef, IndexValue)):
        return counts
    if isinstance(expr, Load):
        if expr.array.scope == "register":
            return counts  # scalar-replaced: a register read, not a load
        counts.loads = 1
        counts.bytes_loaded = expr.array.dtype.size
        counts.int_ops = max(0, len(expr.indices) - 1)  # address arithmetic
        return counts
    if isinstance(expr, BinOp):
        counts = count_expr(expr.lhs) + count_expr(expr.rhs)
        counts.flops += 1
        # A multiply feeding an add is one fused multiply-add on every
        # device in the paper (all four support scalar FMA).
        if expr.op in ("+", "-") and any(
            isinstance(side, BinOp) and side.op == "*" for side in (expr.lhs, expr.rhs)
        ):
            counts.fmas += 1
        return counts
    if isinstance(expr, Cast):
        return count_expr(expr.operand)
    raise AnalysisError(f"cannot count unknown expression {expr!r}")


def _count_stmt(stmt: Stmt, env: Dict[str, int]) -> OpCounts:
    if isinstance(stmt, Block):
        total = OpCounts()
        for child in stmt.stmts:
            total = total + _count_stmt(child, env)
        return total
    if isinstance(stmt, For):
        lo = stmt.lo.evaluate(env)
        hi = stmt.hi.evaluate(env)

        body_uses_var = _subtree_uses(stmt.body, stmt.var)
        if not body_uses_var:
            trips = stmt.trip_count(env)
            if trips == 0:
                return OpCounts()
            env_inner = dict(env)
            env_inner[stmt.var] = lo
            per_iter = _count_stmt(stmt.body, env_inner)
            per_iter.int_ops += 1  # induction variable update
            return per_iter * trips

        # Sum each field independently with the closed-form machinery; the
        # handful of probe evaluations are shared across fields via `memo`.
        memo: Dict[int, tuple] = {}

        def counts_at(value: int) -> tuple:
            cached = memo.get(value)
            if cached is None:
                env_inner = dict(env)
                env_inner[stmt.var] = value
                cached = memo[value] = _field_tuple(_count_stmt(stmt.body, env_inner))
            return cached

        total = _sum_counts_over_range(counts_at, lo, hi, stmt.step)
        total.int_ops += stmt.trip_count(env)  # induction updates
        return total
    return leaf_counts(stmt)


def leaf_counts(stmt: Stmt) -> OpCounts:
    """Operation counts of one execution of a leaf statement (a ``Store``
    or ``LocalAssign``); they do not depend on the loop variables."""
    if isinstance(stmt, Store):
        counts = count_expr(stmt.value)
        counts.iterations += 1
        if stmt.array.scope == "register":
            if stmt.accumulate:
                counts.flops += 1
            return counts
        counts.stores += 1
        counts.bytes_stored += stmt.array.dtype.size
        if stmt.accumulate:
            counts.loads += 1
            counts.bytes_loaded += stmt.array.dtype.size
            counts.flops += 1
        return counts
    if isinstance(stmt, LocalAssign):
        counts = count_expr(stmt.value)
        if stmt.accumulate:
            counts.flops += 1
        return counts
    raise AnalysisError(f"cannot count unknown statement {stmt!r}")


def _field_tuple(counts: OpCounts) -> tuple:
    """The eight count fields in declaration (``as_dict``) order."""
    return (
        counts.flops,
        counts.fmas,
        counts.loads,
        counts.stores,
        counts.bytes_loaded,
        counts.bytes_stored,
        counts.int_ops,
        counts.iterations,
    )


def _sum_counts_over_range(counts_at, lo: int, hi: int, step: int) -> OpCounts:
    """Field-wise :func:`~repro.analysis.summation.sum_over_range` with one
    shared probe pass: the same per-field fit, validation and fallback as
    eight independent calls (identical results), without re-walking the
    statement tree or rebuilding dict views per field."""
    if hi <= lo:
        return OpCounts()
    trips = (hi - lo + step - 1) // step
    probe = min(trips, MAX_DEGREE + 2)
    samples = [counts_at(lo + t * step) for t in range(probe)]
    if trips <= MAX_DEGREE + 2:
        return OpCounts(*(sum(col) for col in zip(*samples)))
    last_t = trips - 1
    last = None
    totals = []
    for index, col in enumerate(zip(*samples)):
        fit = col[: MAX_DEGREE + 1]
        if _newton_eval(fit, MAX_DEGREE + 1) != col[MAX_DEGREE + 1]:
            totals.append(
                sum(counts_at(lo + t * step)[index] for t in range(trips))
            )
            continue
        if last is None:
            last = counts_at(lo + last_t * step)
        if _newton_eval(fit, last_t) != last[index]:
            totals.append(
                sum(counts_at(lo + t * step)[index] for t in range(trips))
            )
            continue
        totals.append(newton_sum(fit, trips))
    return OpCounts(*totals)


def _subtree_uses(stmt: Stmt, var: str) -> bool:
    from repro.ir.stmt import walk_stmts
    from repro.ir.expr import walk_expr

    for node in walk_stmts(stmt):
        if isinstance(node, For):
            if var in node.lo.variables or var in node.hi.variables:
                return True
        if isinstance(node, Store):
            if any(var in ix.variables for ix in node.indices):
                return True
        if hasattr(node, "value"):
            for sub in walk_expr(node.value):
                if isinstance(sub, Load) and any(var in ix.variables for ix in sub.indices):
                    return True
                if isinstance(sub, IndexValue) and var in sub.affine.variables:
                    return True
    return False


def count_program(program: Program) -> OpCounts:
    """Exact dynamic operation counts for one run of ``program``."""
    return _count_stmt(program.body, {})


def iteration_cost(loop: For, value: int, env: Mapping[str, int] = None) -> int:
    """Cost (ops) of one iteration of ``loop`` at ``value``: one, plus the
    trips of every loop execution and the flops, loads, stores and integer
    ops of every leaf execution in its body.

    The dynamic-schedule simulator weighs chunks by this cost — mirroring
    how real OpenMP dynamic scheduling balances the triangular transpose
    loop.  It computes the same quantity for all values at once over the
    trace generator's loop expansion; this scalar form is its reference.
    """
    inner_env = dict(env or {})
    inner_env[loop.var] = value
    counts = _count_stmt(loop.body, inner_env)
    return counts.flops + counts.loads + counts.stores + counts.int_ops + 1
