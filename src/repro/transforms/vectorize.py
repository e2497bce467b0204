"""Innermost-loop vectorization marking.

Models compiler auto-vectorization: GCC vectorizes a loop when it is
innermost, countable, and all accesses are unit-stride (or invariant) with
no cross-iteration dependence.  The paper attributes the >19x speedup of
the blur "Memory" variant on the Xeon to exactly this, and its absence on
the strided variants to exactly its failure.

The pass checks those conditions on the linearized element offsets and
marks the loop ``vectorized``; the trace generator and timing model then
issue vector memory operations and vector arithmetic whose width comes
from the *device* (AVX-512 on the Xeon, NEON on the A72, RVV on the C906,
none on the U74 — matching Section 3.1).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import TransformError
from repro.ir.expr import loads_in
from repro.ir.program import Program
from repro.ir.stmt import For, LocalAssign, Stmt, Store, map_loops, walk_stmts
from repro.transforms.base import Pass


def _linear_coeff_const(array, indices, var: str) -> Tuple[int, int]:
    """(coefficient of var, constant part) of the linearized element offset."""
    offset = array.linearize(indices)
    return offset.coefficient(var), offset.const


def vectorizable(loop: For, min_trips: int = 0) -> Tuple[bool, str]:
    """Whether ``loop`` satisfies the auto-vectorization conditions.

    ``min_trips`` rejects statically short loops (compilers do not
    profitably vectorize a 3-iteration channel loop).  Returns
    (ok, reason-if-not).
    """
    if min_trips:
        trips = _static_trips(loop)
        if trips is not None and trips < min_trips:
            return False, f"only {trips} iterations (< {min_trips})"
    for node in walk_stmts(loop.body):
        if isinstance(node, For):
            return False, f"contains nested loop {node.var!r}"

    writes: List[Tuple[str, int, int, bool]] = []  # (array, coeff, const, accumulate)
    reads: List[Tuple[str, int, int]] = []
    for node in walk_stmts(loop.body):
        if isinstance(node, LocalAssign):
            if node.accumulate:
                return False, f"scalar reduction into local {node.name!r}"
            for load in loads_in(node.value):
                coeff, const = _linear_coeff_const(load.array, load.indices, loop.var)
                reads.append((load.array.name, coeff, const))
        elif isinstance(node, Store):
            for load in loads_in(node.value):
                coeff, const = _linear_coeff_const(load.array, load.indices, loop.var)
                reads.append((load.array.name, coeff, const))
            coeff, const = _linear_coeff_const(node.array, node.indices, loop.var)
            writes.append((node.array.name, coeff, const, node.accumulate))

    for name, coeff, const in reads:
        if coeff not in (0, loop.step):
            return False, f"strided load from {name!r} (stride {coeff} elements)"
    for name, coeff, const, _acc in writes:
        if coeff != loop.step:
            return False, f"non-unit-stride store to {name!r} (stride {coeff} elements)"

    # Cross-iteration dependence between a store and any other reference to
    # the same array at a different offset (e.g. a[i] = a[i-1] + ...).
    for w_name, w_coeff, w_const, _acc in writes:
        for r_name, r_coeff, r_const in reads:
            if r_name != w_name:
                continue
            if r_coeff == 0:
                return False, f"loop-invariant read of stored array {w_name!r}"
            if r_const != w_const:
                return False, (
                    f"cross-iteration dependence on {w_name!r} "
                    f"(distance {w_const - r_const} elements)"
                )
        for w2_name, w2_coeff, w2_const, _acc2 in writes:
            if w2_name == w_name and w2_const != w_const:
                return False, f"two stores to {w_name!r} at different offsets"
    return True, ""


def _static_trips(loop: For):
    """Trip count when both bounds are constants, else None."""
    if not (loop.lo.is_plain and loop.lo.plain.is_constant):
        return None
    if not (loop.hi.is_plain and loop.hi.plain.is_constant):
        return None
    span = loop.hi.plain.const - loop.lo.plain.const
    if span <= 0:
        return 0
    return (span + loop.step - 1) // loop.step


class Vectorize(Pass):
    """Mark loop ``var`` as vectorized after checking legality."""

    def __init__(self, var: str):
        self.var = var

    def describe(self) -> str:
        return f"vectorize({self.var})"

    def run(self, program: Program) -> Program:
        state = {"applied": False}

        def rewrite(loop: For) -> Stmt:
            if loop.var != self.var:
                return loop
            ok, reason = vectorizable(loop)
            if not ok:
                raise TransformError(f"loop {self.var!r} is not vectorizable: {reason}")
            state["applied"] = True
            return loop.with_(vectorized=True)

        body = map_loops(program.body, rewrite)
        if not state["applied"]:
            raise TransformError(f"no loop {self.var!r} to vectorize")
        return program.with_body(body)


class AutoVectorize(Pass):
    """Mark every legal innermost loop vectorized (what ``-O3`` attempts).

    Loops that fail the legality test — or are statically shorter than
    ``min_trips`` — are silently left scalar, matching compiler behaviour
    (vectorization failure is not an error, and short loops are not
    profitable).
    """

    def __init__(self, min_trips: int = 8):
        self.min_trips = min_trips

    def describe(self) -> str:
        return "auto_vectorize"

    def run(self, program: Program) -> Program:
        def rewrite(loop: For) -> Stmt:
            ok, _reason = vectorizable(loop, min_trips=self.min_trips)
            if ok and not loop.vectorized:
                return loop.with_(vectorized=True)
            return loop

        return program.with_body(map_loops(program.body, rewrite))


def for_device(program: Program, device) -> Program:
    """The program ``device`` runs: auto-vectorized (what ``-O3`` does)
    when its CPU has vector units, unchanged otherwise."""
    if device.cpu.vector_bits:
        return AutoVectorize().run(program)
    return program
