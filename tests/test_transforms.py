"""Tests for the compiler passes."""

import numpy as np
import pytest

from repro.analysis import certify_interchange
from repro.errors import TransformError, ValidationError
from repro.exec import run_program
from repro.ir import DType, LoopBuilder, find_loop, loop_nest_vars, loops_in, validate_program
from repro.transforms import (
    AutoVectorize,
    Interchange,
    Parallelize,
    PassManager,
    Serialize,
    StripMine,
    TileTriangular2D,
    Unroll,
    Vectorize,
    apply_passes,
    for_device,
    vectorizable,
)

from tests.conftest import transpose_program, triad_program


def _copy2d(h, w):
    b = LoopBuilder("copy2d")
    a = b.array("a", DType.F64, (h, w))
    out = b.array("out", DType.F64, (h, w))
    with b.loop("i", 0, h) as i:
        with b.loop("j", 0, w) as j:
            b.store(out, (i, j), a[i, j] * 2.0)
    return b.build()


class TestInterchange:
    def test_swaps_loop_order(self):
        program = apply_passes(_copy2d(6, 8), [Interchange("i", "j")])
        assert loop_nest_vars(program.body) == ("j", "i")

    def test_preserves_semantics(self, rng):
        original = _copy2d(6, 8)
        swapped = apply_passes(original, [Interchange("i", "j")])
        data = rng.random((6, 8))
        assert np.array_equal(
            run_program(original, {"a": data})["out"],
            run_program(swapped, {"a": data})["out"],
        )
        certify_interchange(original, swapped)

    def test_triangular_rejected(self):
        with pytest.raises(TransformError, match="depend"):
            apply_passes(transpose_program(8), [Interchange("i", "j")])

    def test_missing_pair_rejected(self):
        with pytest.raises(TransformError):
            apply_passes(_copy2d(4, 4), [Interchange("j", "zz")])

    def test_not_perfectly_nested_rejected(self):
        b = LoopBuilder("p")
        a = b.array("a", DType.F64, (4, 4))
        with b.loop("i", 0, 4) as i:
            b.local("t", a[i, 0])
            with b.loop("j", 0, 4) as j:
                b.store(a, (i, j), b.ref("t"))
        with pytest.raises(TransformError):
            apply_passes(b.build(), [Interchange("i", "j")])


class TestStripMine:
    @pytest.mark.parametrize("n,factor", [(32, 4), (37, 8), (8, 16)])
    def test_same_results(self, n, factor, rng):
        original = triad_program(n)
        mined = apply_passes(original, [StripMine("i", factor)])
        inputs = {"b": rng.random(n), "c": rng.random(n)}
        assert np.array_equal(
            run_program(original, inputs)["a"], run_program(mined, inputs)["a"]
        )

    def test_structure(self):
        mined = apply_passes(triad_program(32), [StripMine("i", 8)])
        vars_ = [loop.var for loop in loops_in(mined.body)]
        assert vars_ == ["i_blk", "i"]

    def test_factor_validation(self):
        with pytest.raises(TransformError):
            StripMine("i", 1)

    def test_missing_loop(self):
        with pytest.raises(TransformError):
            apply_passes(triad_program(8), [StripMine("zz", 4)])

    def test_parallel_flag_moves_to_block_loop(self):
        program = apply_passes(
            triad_program(32), [Parallelize("i"), StripMine("i", 8)]
        )
        loops = {loop.var: loop for loop in loops_in(program.body)}
        assert loops["i_blk"].parallel
        assert not loops["i"].parallel


class TestTriangularTiling:
    @pytest.mark.parametrize("n,tile", [(16, 4), (24, 8), (30, 7), (20, 32)])
    def test_transpose_equivalence(self, n, tile, rng):
        original = transpose_program(n)
        tiled = apply_passes(original, [TileTriangular2D("i", "j", tile)])
        validate_program(tiled)
        mat = rng.random((n, n))
        assert np.array_equal(
            run_program(original, {"mat": mat})["mat"],
            run_program(tiled, {"mat": mat})["mat"],
        )
        certify_interchange(original, tiled)

    def test_rectangular_nest_tiles_too(self, rng):
        original = _copy2d(12, 12)
        tiled = apply_passes(original, [TileTriangular2D("i", "j", 4)])
        data = rng.random((12, 12))
        assert np.array_equal(
            run_program(original, {"a": data})["out"],
            run_program(tiled, {"a": data})["out"],
        )

    def test_produces_paper_listing_shape(self):
        tiled = apply_passes(transpose_program(16), [TileTriangular2D("i", "j", 4)])
        vars_ = [loop.var for loop in loops_in(tiled.body)]
        assert vars_ == ["i_blk", "j_blk", "i", "j"]
        j_loop = find_loop(tiled.body, "j")
        assert not j_loop.lo.is_plain  # max(j_blk, i+1)
        assert not j_loop.hi.is_plain  # min(j_blk+B, n)

    def test_tile_size_validation(self):
        with pytest.raises(TransformError):
            TileTriangular2D("i", "j", 1)

    def test_offset_bigger_than_tile_rejected(self):
        b = LoopBuilder("p")
        a = b.array("a", DType.F64, (32, 32))
        with b.loop("i", 0, 16) as i:
            with b.loop("j", i + 10, 32) as j:
                b.store(a, (i, j), 1.0)
        with pytest.raises(TransformError, match="outside"):
            apply_passes(b.build(), [TileTriangular2D("i", "j", 4)])


class TestParallelize:
    def test_marks_loop(self):
        program = apply_passes(triad_program(16), [Parallelize("i", schedule="dynamic", chunk=2)])
        loop = find_loop(program.body, "i")
        assert loop.parallel and loop.schedule == "dynamic" and loop.chunk == 2

    def test_certify_option(self):
        apply_passes(triad_program(16), [Parallelize("i", certify=True)])

    def test_certify_rejects_sequential_loop(self):
        b = LoopBuilder("scan")
        a = b.array("a", DType.F64, (16,))
        with b.loop("i", 1, 16) as i:
            b.store(a, i, a[i - 1])
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            apply_passes(b.build(), [Parallelize("i", certify=True)])

    def test_serialize_undoes(self):
        program = apply_passes(
            triad_program(16), [Parallelize("i"), Serialize("i")]
        )
        assert not find_loop(program.body, "i").parallel

    def test_missing_loop(self):
        with pytest.raises(TransformError):
            apply_passes(triad_program(8), [Parallelize("zz")])


class TestUnroll:
    @pytest.mark.parametrize("n,factor", [(16, 4), (17, 4), (6, 8), (3, 2)])
    def test_same_results(self, n, factor, rng):
        original = triad_program(n)
        unrolled = apply_passes(original, [Unroll("i", factor)])
        validate_program(unrolled)
        inputs = {"b": rng.random(n), "c": rng.random(n)}
        assert np.array_equal(
            run_program(original, inputs)["a"], run_program(unrolled, inputs)["a"]
        )

    def test_non_constant_bounds_rejected(self):
        with pytest.raises(TransformError, match="non-constant"):
            apply_passes(transpose_program(8), [Unroll("j", 2)])

    def test_factor_validation(self):
        with pytest.raises(TransformError):
            Unroll("i", 1)


class TestVectorize:
    def test_stream_is_vectorizable(self):
        program = apply_passes(triad_program(64), [Vectorize("i")])
        assert find_loop(program.body, "i").vectorized

    def test_strided_store_rejected(self):
        b = LoopBuilder("p")
        a = b.array("a", DType.F64, (8, 8))
        with b.loop("i", 0, 8) as i:
            b.store(a, (i, 0), 1.0)  # store stride = 8 elements
        with pytest.raises(TransformError, match="stride"):
            apply_passes(b.build(), [Vectorize("i")])

    def test_cross_iteration_dependence_rejected(self):
        b = LoopBuilder("p")
        a = b.array("a", DType.F64, (16,))
        with b.loop("i", 1, 16) as i:
            b.store(a, i, a[i - 1])
        with pytest.raises(TransformError, match="dependence"):
            apply_passes(b.build(), [Vectorize("i")])

    def test_scalar_reduction_rejected(self):
        b = LoopBuilder("p")
        a = b.array("a", DType.F64, (16,))
        with b.loop("i", 0, 16) as i:
            b.local("s", a[i], accumulate=True)
        program = b.build()
        ok, reason = vectorizable(find_loop(program.body, "i"))
        assert not ok and "reduction" in reason

    def test_accumulate_same_element_allowed(self):
        b = LoopBuilder("p")
        a = b.array("a", DType.F64, (16,))
        x = b.array("x", DType.F64, (16,))
        with b.loop("i", 0, 16) as i:
            b.accumulate(a, i, x[i])
        apply_passes(b.build(), [Vectorize("i")])  # no raise

    def test_auto_vectorize_skips_short_loops(self):
        b = LoopBuilder("p")
        a = b.array("a", DType.F64, (3,))
        with b.loop("i", 0, 3) as i:
            b.store(a, i, 1.0)
        program = AutoVectorize(min_trips=8).run(b.build())
        assert not find_loop(program.body, "i").vectorized

    def test_auto_vectorize_marks_stream_not_transpose(self):
        triad = AutoVectorize().run(triad_program(64))
        assert find_loop(triad.body, "i").vectorized
        transpose = AutoVectorize().run(transpose_program(16))
        assert not find_loop(transpose.body, "j").vectorized

    def test_for_device_vectorizes_only_on_vector_cpus(self):
        from repro.devices import get_device

        triad = triad_program(64)
        assert find_loop(for_device(triad, get_device("xeon_4310t")).body, "i").vectorized
        assert for_device(triad, get_device("visionfive_jh7100")) is triad

    def test_vectorized_interp_matches_scalar(self, rng):
        n = 40
        plain = triad_program(n)
        vectorized = apply_passes(plain, [Vectorize("i")])
        inputs = {"b": rng.random(n), "c": rng.random(n)}
        assert np.array_equal(
            run_program(plain, inputs)["a"], run_program(vectorized, inputs)["a"]
        )


class TestPassManager:
    def test_describe(self):
        manager = PassManager([Parallelize("i"), StripMine("i", 4)])
        assert "parallelize(i" in manager.describe()

    def test_validation_catches_broken_pass(self):
        class Broken:
            name = "broken"

            def run(self, program):
                from repro.ir import Affine, Block, Store

                arr = program.arrays[0]
                bad = Store(arr, [Affine.var("ghost")] * len(arr.shape), 1.0)
                return program.with_body(Block([bad]))

            def describe(self):
                return "broken"

        with pytest.raises(ValidationError):
            PassManager([Broken()]).run(triad_program(8))

    def test_rename(self):
        program = apply_passes(triad_program(8), [], rename="renamed")
        assert program.name == "renamed"
