"""Shared hypothesis strategies: random affine loop nests.

Nests have triangular lower bounds (``j in [i+k, hi)``), steps, sibling
loops, and bodies mixing leaves with loops, over global and thread-local
arrays.  ``extended=True`` adds what the trace generator schedules and
emits specially: parallel loops (static, chunked static and dynamic
schedules) anywhere in the nest, ``min``/``max`` and affine upper
bounds, and a register-promoted array.
"""

from hypothesis import strategies as st

from repro.ir import Affine, DType
from repro.ir.affine import AffineBound, AffineLowerBound
from repro.ir.expr import Const, Load
from repro.ir.program import Array
from repro.ir.stmt import Block, For, LocalAssign, Store

ARRAYS = (
    Array("g", DType.F64, (64,)),
    Array("h", DType.F64, (64,)),
    Array("s", DType.F64, (64,), scope="local"),
)
REGISTER = Array("r", DType.F64, (64,), scope="register")


@st.composite
def nests(draw, extended: bool = False):
    names = iter(f"v{k}" for k in range(64))
    arrays = ARRAYS + (REGISTER,) if extended else ARRAYS

    def subscript(bound):
        used = [v for v in bound if draw(st.booleans())]
        return Affine(draw(st.integers(0, 3)), {v: 1 for v in used})

    def leaf(bound):
        value = Const(1.0)
        for _ in range(draw(st.integers(0, 3))):
            value = value + Load(draw(st.sampled_from(arrays)), [subscript(bound)])
        if draw(st.booleans()):
            return LocalAssign("t", value, draw(st.booleans()))
        target = draw(st.sampled_from(arrays))
        return Store(target, [subscript(bound)], value, draw(st.booleans()))

    def lower(bound):
        if bound and draw(st.booleans()):
            lo = Affine.var(draw(st.sampled_from(bound))) + draw(st.integers(0, 2))
            if extended and draw(st.booleans()):
                return AffineLowerBound(lo, draw(st.integers(0, 3)))
            return lo
        return draw(st.integers(0, 3))

    def upper(bound):
        hi = draw(st.integers(0, 6))
        if extended and bound and draw(st.booleans()):
            other = Affine.var(draw(st.sampled_from(bound))) + draw(st.integers(1, 4))
            return AffineBound(other, hi + 2) if draw(st.booleans()) else other
        return hi

    def schedule():
        if not extended or not draw(st.booleans()):
            return {}
        if draw(st.booleans()):
            return {"parallel": True, "schedule": "dynamic", "chunk": draw(st.integers(1, 3))}
        return {"parallel": True, "chunk": draw(st.one_of(st.none(), st.integers(1, 3)))}

    def body(bound, depth):
        stmts = []
        for _ in range(draw(st.integers(1, 3))):
            if depth < 3 and draw(st.booleans()):
                var = next(names)
                lo = lower(bound)
                stmts.append(
                    For(var, lo, upper(bound), body(bound + [var], depth + 1),
                        step=draw(st.integers(1, 2)), **schedule())
                )
            else:
                stmts.append(leaf(bound))
        return Block(stmts)

    return body([], 0)
