"""Tests for the interpreter and the symbolic trace generator."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.analysis import count_program
from repro.errors import SimulationError
from repro.exec import Segment, TraceGenerator, run_program, split_dynamic, split_static
from repro.ir import DType, LoopBuilder, MemoryLayout
from repro.transforms import Parallelize, apply_passes

from tests.conftest import stream_segments, transpose_program, triad_program


class TestInterpreter:
    def test_triad(self, rng):
        n = 64
        x, y = rng.random(n), rng.random(n)
        out = run_program(triad_program(n), {"b": x, "c": y})
        assert np.allclose(out["a"], x + 3.0 * y)

    def test_transpose(self, rng):
        n = 16
        mat = rng.random((n, n))
        out = run_program(transpose_program(n), {"mat": mat})
        assert np.array_equal(out["mat"], mat.T)

    def test_initial_data_used(self):
        b = LoopBuilder("p")
        k = b.constant_array("k", np.arange(4, dtype=np.float64))
        a = b.array("a", DType.F64, (4,))
        with b.loop("i", 0, 4) as i:
            b.store(a, i, k[i] * 2.0)
        out = run_program(b.build())
        assert np.array_equal(out["a"], [0.0, 2.0, 4.0, 6.0])

    def test_zeros_default(self):
        out = run_program(triad_program(8))
        assert np.array_equal(out["a"], np.zeros(8))

    def test_bad_input_shape(self):
        with pytest.raises(SimulationError, match="shape"):
            run_program(triad_program(8), {"b": np.zeros(9)})

    def test_accumulate_store(self):
        b = LoopBuilder("p")
        a = b.array("a", DType.F64, (4,))
        with b.loop("r", 0, 3):
            with b.loop("i", 0, 4) as i:
                b.accumulate(a, i, 2.0)
        out = run_program(b.build())
        assert np.array_equal(out["a"], [6.0] * 4)

    def test_f32_arrays_round(self, rng):
        from repro.kernels import blur, common

        img = common.random_image(12, 10)
        out = run_program(blur.build("Memory", 12, 10, 3), {"src": img})
        assert out["dst"].dtype == np.float32

    def test_min_max_ops(self):
        from repro.ir.expr import BinOp

        b = LoopBuilder("p")
        a = b.array("a", DType.F64, (4,))
        x = b.array("x", DType.F64, (4,))
        with b.loop("i", 0, 4) as i:
            b.store(a, i, BinOp("min", x[i], 0.5))
        out = run_program(b.build(), {"x": np.array([0.1, 0.9, 0.4, 0.7])})
        assert np.array_equal(out["a"], [0.1, 0.5, 0.4, 0.5])


class TestSchedules:
    def test_static_slabs(self):
        values = list(range(10))
        parts = split_static(values, 3, None)
        assert parts == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_static_chunked_round_robin(self):
        values = list(range(8))
        parts = split_static(values, 2, 2)
        assert parts == [[0, 1, 4, 5], [2, 3, 6, 7]]

    def test_dynamic_balances_cost(self):
        values = list(range(8))
        cost = lambda v: 100 if v == 0 else 1
        parts = split_dynamic(values, 2, 1, cost)
        loads = [sum(cost(v) for v in part) for part in parts]
        # One core takes the expensive iteration, the other everything else.
        assert min(loads) >= 1 and abs(loads[0] - loads[1]) <= 100
        assert sorted(values) == sorted(parts[0] + parts[1])

    def test_dynamic_partitions_everything(self):
        values = list(range(23))
        parts = split_dynamic(values, 4, 3, lambda v: v + 1)
        assert sorted(v for part in parts for v in part) == values


class TestTraceGenerator:
    def test_triad_segments(self):
        n = 64
        gen = TraceGenerator(triad_program(n), num_cores=1)
        segments = stream_segments(gen, 0)
        # One segment per reference: loads of b and c, store of a.
        assert len(segments) == 3
        reads = [s for s in segments if not s.is_write]
        writes = [s for s in segments if s.is_write]
        assert len(reads) == 2 and len(writes) == 1
        assert all(s.count == n and s.stride == 8 for s in segments)

    def test_work_counts_match_analysis(self):
        program = transpose_program(32)
        gen = TraceGenerator(program, num_cores=1)
        for _ in gen.core_stream(0):
            pass
        static = count_program(program)
        traced = gen.work[0].total
        assert traced.loads == static.loads
        assert traced.stores == static.stores
        assert traced.flops == static.flops

    def test_parallel_partitions_work(self):
        n = 64
        program = apply_passes(triad_program(n), [Parallelize("i")])
        gen = TraceGenerator(program, num_cores=4)
        totals = []
        for core in range(4):
            for _ in gen.core_stream(core):
                pass
            totals.append(gen.work[core].total.stores)
        assert sum(totals) == n
        assert max(totals) == 16

    def test_serial_program_only_runs_on_core0(self):
        gen = TraceGenerator(triad_program(16), num_cores=2)
        assert list(gen.core_stream(1)) == []
        assert len(stream_segments(gen, 0)) == 3

    def test_line_footprint_matches_exact_enumeration(self):
        """The compressed segments touch exactly the element footprint."""
        n = 16
        program = transpose_program(n)
        layout = MemoryLayout(program)
        gen = TraceGenerator(program, num_cores=1, layout=layout)
        touched = set()
        for seg in stream_segments(gen, 0):
            for k in range(seg.count):
                touched.add(seg.base + k * seg.stride)
        base = layout.address_of(program.array("mat"))
        expected = {
            base + (i * n + j) * 8 for i in range(n) for j in range(n) if i != j
        }
        assert touched == expected

    def test_pair_merge_equivalence(self):
        """The (outer, inner) merged emission touches the same bytes as the
        per-innermost-loop fallback."""
        b = LoopBuilder("pair")
        a = b.array("a", DType.F32, (8, 12))
        out = b.array("out", DType.F32, (8, 12))
        with b.loop("i", 0, 8) as i:
            with b.loop("j", 0, 4) as j:
                with b.loop("c", 0, 3) as c:
                    b.store(out, (i, j * 3 + c), a[i, j * 3 + c])
        program = b.build()
        gen = TraceGenerator(program, num_cores=1)
        merged_bytes = set()
        merged_segments = 0
        for seg in stream_segments(gen, 0):
            merged_segments += 1
            for k in range(seg.count):
                merged_bytes.add((seg.base + k * seg.stride, seg.is_write))
        # 8 outer iterations x 2 refs = 16 segments (vs 8*4*2 = 64 unmerged)
        assert merged_segments == 16
        layout = gen.layout
        a_base = layout.address_of(program.array("a"))
        out_base = layout.address_of(program.array("out"))
        expected = set()
        for i in range(8):
            for jj in range(12):
                expected.add((a_base + (i * 12 + jj) * 4, False))
                expected.add((out_base + (i * 12 + jj) * 4, True))
        assert merged_bytes == expected

    def test_local_arrays_have_per_core_addresses(self):
        from repro.kernels import transpose

        program = transpose.manual_blocking(16, block=4)
        gen = TraceGenerator(program, num_cores=2)
        layout = gen.layout
        buf = program.array("buf1")
        assert layout.address_of(buf, 0) != layout.address_of(buf, 1)

    def test_register_arrays_emit_no_segments(self):
        b = LoopBuilder("p")
        r = b.array("r", DType.F32, (3,), scope="register")
        a = b.array("a", DType.F32, (12,))
        with b.loop("i", 0, 4) as i:
            with b.loop("c", 0, 3) as c:
                b.accumulate(r, c, a[i * 3 + c])
        gen = TraceGenerator(b.build(), num_cores=1)
        segments = stream_segments(gen, 0)
        assert all(seg.base >= 0x10000 for seg in segments)
        # only reads of `a`
        assert all(not seg.is_write for seg in segments)

    def test_dynamic_schedule_balances_triangular(self):
        program = apply_passes(
            transpose_program(64), [Parallelize("i", schedule="dynamic")]
        )
        gen = TraceGenerator(program, num_cores=4)
        loads = []
        for core in range(4):
            for _ in gen.core_stream(core):
                pass
            loads.append(gen.work[core].total.loads)
        assert sum(loads) == count_program(program).loads
        # Dynamic scheduling keeps the imbalance small.
        assert max(loads) <= 1.35 * (sum(loads) / 4)

    def test_static_schedule_imbalanced_on_triangular(self):
        program = apply_passes(transpose_program(64), [Parallelize("i")])
        gen = TraceGenerator(program, num_cores=4)
        loads = []
        for core in range(4):
            for _ in gen.core_stream(core):
                pass
            loads.append(gen.work[core].total.loads)
        # First slab of rows is by far the heaviest.
        assert loads[0] > 2 * loads[3]

    def test_bad_core_index(self):
        gen = TraceGenerator(triad_program(8), num_cores=2)
        with pytest.raises(SimulationError):
            list(gen.core_stream(5))


class TestSegment:
    def test_lines(self):
        seg = Segment(0, 0, 8, 16, False, 8)
        assert list(seg.lines(64)) == [0, 1]

    def test_strided_lines(self):
        seg = Segment(0, 0, 128, 4, False, 8)
        assert list(seg.lines(64)) == [0, 2, 4, 6]

    @given(
        base=st.integers(min_value=-(1 << 14), max_value=1 << 14),
        stride=st.sampled_from([0, 4, -8, 24, -40, 64, -128, 320, 80, -72, 136, 4104]),
        count=st.integers(min_value=1, max_value=40),
        elem=st.integers(min_value=4, max_value=48),
    )
    @example(base=48, stride=128, count=4, elem=32)   # every element straddles
    def test_lines_follow_the_hierarchy_rule(self, base, stride, count, elem):
        """``lines`` against a per-access enumeration: each access's
        lines, lowest first, a line equal to the one before it dropped.  A
        point access or a sub-line stride probes that walk's lines as one
        contiguous interval, in access direction; every other stride
        probes the walk itself.  ``line_run``, where it has a closed form,
        lists the same lines."""
        seg = Segment(0, base, stride, count, False, elem)
        walk = []
        for k in range(count):
            addr = base + k * stride
            for line in range(addr // 64, (addr + elem - 1) // 64 + 1):
                if not walk or walk[-1] != line:
                    walk.append(line)
        if stride == 0 or count == 1 or abs(stride) < 64:
            walk = sorted(set(walk), reverse=count > 1 and stride < 0)
        assert list(seg.lines(64)) == walk
        run = seg.line_run(64)
        if run is not None:
            assert [run.start + k * run.step for k in range(run.count)] == walk

    def test_span(self):
        assert Segment(0, 0, 8, 16, False, 8).span_bytes == 128
        assert Segment(0, 0, 0, 1, False, 4).span_bytes == 4
