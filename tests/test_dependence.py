"""Tests for dependence analysis and legality certification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    certify_interchange,
    certify_parallel,
    dependence,
    gcd_independent,
    loop_conflicts,
    may_alias,
    ziv_independent,
)
from repro.errors import AnalysisError
from repro.ir import Affine, DType, LoopBuilder

from tests.conftest import transpose_program, triad_program
from tests.strategies import nests
from tests.test_symbolic import _loop_vars, _shift_program


class TestConservativeTests:
    def test_ziv(self):
        assert ziv_independent(Affine(3), Affine(5))
        assert not ziv_independent(Affine(3), Affine(3))
        assert not ziv_independent(Affine.var("i"), Affine(3))

    def test_gcd_disproves(self):
        # 2i and 2j+1 can never be equal.
        assert gcd_independent(Affine.var("i") * 2, Affine.var("j") * 2 + 1)

    def test_gcd_cannot_disprove_unit_coefficients(self):
        assert not gcd_independent(Affine.var("i"), Affine.var("j") + 1)

    def test_may_alias(self):
        a = [Affine.var("i") * 2]
        b = [Affine.var("j") * 2 + 1]
        assert not may_alias(a, b)
        assert may_alias([Affine.var("i")], [Affine.var("j")])


def _scan_program(n):
    """a[i] = a[i-1] + 1: a genuinely sequential loop."""
    b = LoopBuilder("scan")
    a = b.array("a", DType.F64, (n,))
    with b.loop("i", 1, n) as i:
        b.store(a, i, a[i - 1] + 1.0)
    return b.build()


class TestConcreteCertification:
    def test_triad_parallel_legal(self):
        certify_parallel(triad_program(64), "i")

    def test_scan_parallel_illegal(self):
        with pytest.raises(AnalysisError, match="carries dependences"):
            certify_parallel(_scan_program(32), "i")

    def test_scan_conflicts_identify_elements(self):
        conflicts = loop_conflicts(_scan_program(16), "i")
        assert conflicts
        assert all(c.array == "a" for c in conflicts)

    def test_transpose_outer_parallel_legal(self):
        certify_parallel(transpose_program(24), "i")

    def test_all_paper_parallel_schedules_legal(self):
        from repro.kernels import blur, transpose

        certify_parallel(transpose.parallel(16), "i")
        certify_parallel(transpose.blocking(16, block=4), "i_blk")
        certify_parallel(transpose.manual_blocking(16, block=4), "i_blk")
        certify_parallel(transpose.dynamic(16, block=4), "i_blk")
        certify_parallel(blur.parallel(12, 10, 3), "i")
        certify_parallel(blur.parallel(12, 10, 3), "i2")

    def test_budget_exceeded_enumeration_still_raises(self):
        # Direct enumeration keeps its hard budget...
        with pytest.raises(AnalysisError, match="too large"):
            loop_conflicts(triad_program(1024), "i", budget=100)

    def test_budget_exceeded_downgrades_to_skipped_oracle(self):
        # ...but certification is symbolic-first: blowing the oracle budget
        # only skips the cross-check (reported in the return value).
        note = certify_parallel(triad_program(1024), "i", budget=100)
        assert note is not None and "skipped" in note

    def test_oracle_runs_clean_within_budget(self):
        assert certify_parallel(triad_program(64), "i") is None

    def test_enumeration_oracle_none_on_overflow(self):
        from repro.analysis.dependence import enumeration_oracle

        assert enumeration_oracle(triad_program(1024), "i", budget=100) is None
        assert enumeration_oracle(triad_program(16), "i") == []

    def test_reduction_into_array_conflicts(self):
        b = LoopBuilder("reduce")
        a = b.array("a", DType.F64, (8,))
        out = b.array("out", DType.F64, (1,))
        with b.loop("i", 0, 8) as i:
            b.accumulate(out, 0, a[i])
        with pytest.raises(AnalysisError):
            certify_parallel(b.build(), "i")


class TestInterchangeCertification:
    def test_tiling_preserves_accesses(self):
        from repro.transforms import TileTriangular2D, apply_passes

        original = transpose_program(16)
        tiled = apply_passes(original, [TileTriangular2D("i", "j", 4)])
        certify_interchange(original, tiled)

    def test_strip_mine_preserves_accesses(self):
        from repro.transforms import StripMine, apply_passes

        original = triad_program(37)  # deliberately not a multiple
        mined = apply_passes(original, [StripMine("i", 8)])
        certify_interchange(original, mined)

    def test_detects_changed_access_multiset(self):
        small = triad_program(16)
        big = triad_program(17)
        with pytest.raises(AnalysisError, match="multiset"):
            certify_interchange(small, big)


# ---------------------------------------------------------------------------
# The exact early-exit access count that decides "over budget"
# ---------------------------------------------------------------------------

_UNLIMITED = 10 ** 12


def _walker_count(stmt, var):
    """The walker's final access counter (the quantity the count must equal)."""
    counter = [0]
    dependence._accesses(stmt, {}, var, [], counter, _UNLIMITED)
    return counter[0]


def _assert_count_exact(stmt, var):
    exact = _walker_count(stmt, var)
    assert dependence._count_accesses(stmt, {}, var, _UNLIMITED) == exact, var
    return exact


def _kernel_programs():
    from repro.kernels import blur, transpose
    from repro.transforms import AutoVectorize, apply_passes

    programs = []
    for n, block in ((16, 4), (18, 3)):
        programs += [transpose.build(v, n, block) for v in transpose.VARIANT_ORDER]
    for h, w, size in ((12, 10, 3), (15, 13, 5)):
        programs += [blur.build(v, h, w, size) for v in blur.VARIANT_ORDER]
    return programs + [apply_passes(p, [AutoVectorize()]) for p in programs]


class TestAccessCount:
    @pytest.mark.parametrize("program", _kernel_programs(), ids=lambda p: p.name)
    def test_count_equals_walker_on_kernels(self, program):
        for var in _loop_vars(program.body, []) + [None]:
            exact = _assert_count_exact(program.body, var)
            # At the budget threshold the early exit decides as the walk does.
            assert dependence._count_accesses(program.body, {}, var, exact) == exact
            assert dependence._count_accesses(program.body, {}, var, exact - 1) > exact - 1

    def test_count_equal_to_budget_enumerates(self):
        # triad: two loads and one store per iteration.
        program = triad_program(64)
        assert dependence._count_accesses(program.body, {}, "i", _UNLIMITED) == 3 * 64
        assert dependence.enumeration_oracle(program, "i", budget=3 * 64) == []
        assert certify_parallel(program, "i", budget=3 * 64) is None
        assert len(dependence.execution_order_signature(program, budget=3 * 64)) == 3 * 64

    def test_count_of_budget_plus_one_skips(self):
        program = triad_program(64)
        assert dependence.enumeration_oracle(program, "i", budget=3 * 64 - 1) is None
        with pytest.raises(dependence.EnumerationBudgetError, match="too large"):
            dependence.execution_order_signature(program, budget=3 * 64 - 1)

    def test_trailing_stores_count_against_the_budget(self):
        # A nest of stores alone: the walker's own budget check (the
        # backstop behind the count) must trip on stores, not only loads.
        b = LoopBuilder("fill")
        a = b.array("a", DType.F64, (8,))
        with b.loop("i", 0, 8) as i:
            b.store(a, i, 0.0)
        program = b.build()
        assert _assert_count_exact(program.body, "i") == 8
        assert dependence.enumeration_oracle(program, "i", budget=7) is None
        with pytest.raises(dependence.EnumerationBudgetError):
            dependence._accesses(program.body, {}, "i", [], [0], 7)

    def test_over_budget_count_exits_early(self):
        from repro.kernels import transpose

        # ~134 M accesses in all; the count stops after row i = 0, whose
        # 8191 swaps (two loads, two stores each) already exceed the limit.
        program = transpose.naive(8192)
        assert dependence._count_accesses(program.body, {}, "i", 1000) == 4 * 8191

    def test_skip_does_not_enumerate(self, monkeypatch):
        from repro.kernels import transpose
        from repro.transforms import TileTriangular2D, apply_passes

        original = transpose.naive(512)
        tiled = apply_passes(original, [TileTriangular2D("i", "j", 64)])

        def enumerate_forbidden(*args, **kwargs):
            raise AssertionError("an over-budget oracle must not enumerate")

        monkeypatch.setattr(dependence, "_accesses", enumerate_forbidden)
        budget = dependence.PASS_CERTIFY_POINTS
        assert certify_parallel(original, "i", budget) == (
            "enumeration oracle skipped for loop 'i': iteration space exceeds "
            "the 200000-access budget (symbolic proof stands alone)"
        )
        assert certify_interchange(original, tiled, budget) == (
            "enumeration oracle skipped for 'transpose_naive_512': iteration "
            "space exceeds the 200000-access budget"
        )

    def test_rectangular_nest_of_a_trillion_accesses_counts_exactly(self):
        """Loops whose nested bounds do not read their variable multiply
        out: 2 x 10**12 accesses count exactly under a larger limit,
        where a walk of the two outer loops would make 10**8 calls."""
        n = 10 ** 4
        b = LoopBuilder("cube")
        a = b.array("a", DType.F64, (n, n, n))
        with b.loop("i", 0, n) as i:
            with b.loop("j", 0, n) as j:
                with b.loop("k", 0, n) as k:
                    b.store(a, (i, j, k), a[i, j, k] + 1.0)
        body = b.build().body
        for var in ("i", "j", "k", None):
            assert dependence._count_accesses(body, {}, var, 10 ** 13) == 2 * n ** 3
            assert dependence._count_accesses(body, {}, var, 2 * n ** 3 - 1) > 2 * n ** 3 - 1


@settings(max_examples=150, deadline=None)
@given(nest=nests(), limit=st.integers(0, 300))
def test_count_equals_walker_on_random_nests(nest, limit):
    for var in _loop_vars(nest, []) + [None]:
        exact = _assert_count_exact(nest, var)
        # Early exit may stop anywhere past the limit, but never decides
        # the budget differently from the exact count.
        early = dependence._count_accesses(nest, {}, var, limit)
        assert (early > limit) == (exact > limit)
        if exact <= limit:
            assert early == exact


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 24), block=st.integers(2, 8), shift=st.integers(-3, 3))
def test_count_equals_walker_on_tiled_nests(n, block, shift):
    from repro.transforms import StripMine, TileTriangular2D, apply_passes

    tiled = apply_passes(transpose_program(n), [TileTriangular2D("i", "j", block)])
    mined = apply_passes(_shift_program(n, shift), [StripMine("i", block)])
    for program in (tiled, mined):
        for var in _loop_vars(program.body, []) + [None]:
            _assert_count_exact(program.body, var)
