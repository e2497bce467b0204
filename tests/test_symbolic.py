"""The symbolic dependence engine vs the concrete enumeration oracle.

Every claim the size-generic engine makes is cross-checked here against
brute-force enumeration at small sizes: a loop the engine calls parallel
must have zero concrete conflicts, a carried dependence it reports must
show up as concrete conflicting iteration pairs, and the distances must
match the observed iteration gaps exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dependence import loop_conflicts
from repro.analysis.symbolic import (
    carried_dependences,
    certify_interchange_symbolic,
    certify_parallel_symbolic,
    dependence_relations,
)
from repro.errors import AnalysisError
from repro.ir import Affine, DType, LoopBuilder
from repro.ir.stmt import Block, For

from tests.conftest import fresh_modules


def _loop_vars(stmt, out):
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            _loop_vars(child, out)
    elif isinstance(stmt, For):
        out.append(stmt.var)
        _loop_vars(stmt.body, out)
    return out


def _agree(program, var):
    """Symbolic carried-dependence claim == concrete enumeration result."""
    symbolic = carried_dependences(program, var)
    concrete = loop_conflicts(program, var)
    assert bool(symbolic) == bool(concrete), (
        f"{program.name}/{var}: symbolic={symbolic} concrete={len(concrete)}"
    )
    if symbolic and all(dep.exact for dep in symbolic):
        # Every concrete conflict's iteration gap must be one the symbolic
        # distance ranges admit.  A range may be reported under either
        # source/sink labeling when both orders occur, so the magnitude is
        # admitted if either sign of it lies in the range.
        gaps = {
            abs(c.second.loop_value - c.first.loop_value) for c in concrete
        }
        admitted = set()
        fixed = set()
        for dep in symbolic:
            lo, hi = dep.distance_range
            if dep.distance is not None:
                fixed.add(abs(dep.distance))
            for gap in gaps:
                if lo <= gap <= hi or lo <= -gap <= hi:
                    admitted.add(gap)
        assert gaps == admitted, f"{program.name}/{var}: gaps {gaps} vs {admitted}"
        if fixed:
            assert fixed <= gaps, f"{program.name}/{var}: {fixed} never observed"
    return symbolic


# ---------------------------------------------------------------------------
# Paper kernel families, every loop, small sizes
# ---------------------------------------------------------------------------

def _family_programs():
    from repro.kernels import blur, scan, stream, transpose

    programs = []
    for variant in transpose.VARIANT_ORDER:
        programs.append(transpose.build(variant, 16, block=4))
    for variant in blur.VARIANT_ORDER:
        programs.append(blur.build(variant, 12, 10, 3))
    for test in stream.TESTS:
        programs.append(stream.build(test, 24))
    programs.append(scan.naive(20))
    programs.append(scan.parallel(20))
    return programs


@pytest.mark.parametrize(
    "program", _family_programs(), ids=lambda p: p.name
)
def test_symbolic_agrees_with_enumeration_on_kernels(program):
    for var in _loop_vars(program.body, []):
        _agree(program, var)


def test_paper_parallel_loops_certify_symbolically():
    from repro.kernels import blur, transpose

    certify_parallel_symbolic(transpose.parallel(16), "i")
    certify_parallel_symbolic(transpose.blocking(16, block=4), "i_blk")
    certify_parallel_symbolic(transpose.manual_blocking(16, block=4), "i_blk")
    certify_parallel_symbolic(transpose.dynamic(16, block=4), "i_blk")
    certify_parallel_symbolic(blur.parallel(12, 10, 3), "i")
    certify_parallel_symbolic(blur.parallel(12, 10, 3), "i2")


def test_scan_recurrence_distance_is_one():
    from repro.kernels import scan

    deps = carried_dependences(scan.naive(32), "i")
    assert deps and all(dep.array == "a" for dep in deps)
    assert any(dep.distance == 1 for dep in deps)
    with pytest.raises(AnalysisError, match="carries dependences"):
        certify_parallel_symbolic(scan.naive(32), "i")


def test_transpose_swap_pairs_are_disjoint():
    # The reason the paper can parallelize the triangular swap at all.
    from repro.kernels import transpose

    for var in ("i", "j"):
        assert carried_dependences(transpose.naive(16), var) == []


# ---------------------------------------------------------------------------
# Property tests: randomly sized/shifted subscripts
# ---------------------------------------------------------------------------

def _shift_program(n, shift):
    """a[i] = a[i - shift] + 1 — carried iff 0 < shift <= n-1-lo."""
    b = LoopBuilder(f"shift_{n}_{shift}")
    a = b.array("a", DType.F64, (n + abs(shift),))
    lo = max(0, shift)
    with b.loop("i", lo, n + (shift if shift > 0 else 0)) as i:
        b.store(a, i, a[i - shift] + 1.0)
    return b.build()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 24), shift=st.integers(-4, 4))
def test_shift_recurrence_distance_matches_enumeration(n, shift):
    program = _shift_program(n, shift)
    deps = _agree(program, "i")
    if 0 < abs(shift) < n:
        # The carried distance is exactly |shift| (orientation-normalized).
        assert any(dep.distance == abs(shift) for dep in deps)
    elif shift == 0:
        assert deps == []
    # |shift| >= n: the loop has n iterations, the ranges never overlap;
    # _agree already asserted symbolic == concrete == empty.


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 16),
    coeff_a=st.integers(1, 3),
    coeff_b=st.integers(1, 3),
    off=st.integers(0, 3),
)
def test_strided_writes_agree_with_enumeration(n, coeff_a, coeff_b, off):
    # a[coeff_a * i] vs read a[coeff_b * i + off]: carried iff the affine
    # equation has a solution within range at distinct iterations.
    b = LoopBuilder("strided")
    size = 3 * n + 4
    a = b.array("a", DType.F64, (size,))
    with b.loop("i", 0, n) as i:
        b.store(a, i * coeff_a, a[i * coeff_b + off] + 1.0)
    _agree(b.build(), "i")


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 10), m=st.integers(3, 10))
def test_2d_skew_stencil_agrees(n, m):
    # out[i][j] = out[i-1][j+1]: the classic (1, -1) dependence.
    b = LoopBuilder("skew")
    out = b.array("out", DType.F64, (n, m))
    with b.loop("i", 1, n) as i:
        with b.loop("j", 0, m - 1) as j:
            b.store(out, (i, j), out[i - 1, j + 1] + 1.0)
    program = b.build()
    _agree(program, "i")
    _agree(program, "j")
    deps = [d for d in dependence_relations(program) if any(d.distances)]
    assert any(d.distances == (1, -1) for d in deps)
    with pytest.raises(AnalysisError):
        certify_interchange_symbolic(program, "i", "j")


def test_copy_nest_interchange_certifies():
    b = LoopBuilder("copy2d")
    src = b.array("src", DType.F64, (8, 8))
    dst = b.array("dst", DType.F64, (8, 8))
    with b.loop("i", 0, 8) as i:
        with b.loop("j", 0, 8) as j:
            b.store(dst, (i, j), src[i, j])
    certify_interchange_symbolic(b.build(), "i", "j")


def test_certifying_a_parallel_variant_leaves_the_linter_unimported():
    """Building a figure variant certifies its parallel loop through
    :mod:`repro.analysis.symbolic` without importing the linter."""
    code = "from repro.kernels import transpose\ntranspose.build('Parallel', 64)"
    loaded = fresh_modules(code, ("repro.analysis.symbolic", "repro.analysis.lint"))
    assert loaded == ["repro.analysis.symbolic"]
