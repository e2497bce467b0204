"""The batch emitter against the per-segment walker it replaced.

:mod:`tests.tracegen_walker` is the oracle: on every figure cell and on
random affine nests, :class:`~repro.exec.tracegen.TraceGenerator` must
yield the walker's segment stream element for element (ref ids
included), the same ``CoreWork`` per core and the same reference table,
in batches no larger than ``BATCH_SEGMENTS``.  The dynamic schedule's
vectorised cost table must equal brute-force ``iteration_cost``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.opcount import iteration_cost
from repro.devices import get_device
from repro.experiments.config import BLUR_FILTER, CACHE_SCALE, TRANSPOSE_BLOCK, scaled_device
from repro.exec import tracegen
from repro.exec.tracegen import BATCH_SEGMENTS, TraceGenerator, split_dynamic
from repro.ir import DType, LoopBuilder
from repro.ir.program import Program
from repro.ir.stmt import For, walk_stmts
from repro.kernels import blur, transpose
from repro.simulate import has_parallel_loop
from repro.transforms import AutoVectorize, for_device

from tests.strategies import nests
from tests.tracegen_walker import WalkerTraceGenerator

DEVICES = ["xeon_4310t", "raspberry_pi_4", "mango_pi_d1", "visionfive_jh7100"]


def assert_streams_identical(program, cores, repetitions=1):
    fast = TraceGenerator(program, num_cores=cores)
    slow = WalkerTraceGenerator(program, num_cores=cores)
    for _ in range(repetitions):
        for core in range(cores):
            batches = list(fast.core_stream(core))
            assert all(0 < len(batch.ref) <= BATCH_SEGMENTS for batch in batches)
            got = [seg for batch in batches for seg in batch.segments()]
            assert got == list(slow.core_stream(core)), f"core {core}"
            assert fast.work[core] == slow.work[core], f"core {core}"
            assert fast.work[core].segments == len(got)
    assert fast.references() == slow.references()


def _figure_programs():
    for variant in transpose.VARIANT_ORDER:
        for n in (32, 48):
            yield transpose.build(variant, n, block=16)
    for variant in blur.VARIANT_ORDER:
        yield blur.build(variant, 14, 12, 5)
        yield blur.build(variant, 9, 11, 3)


@pytest.mark.parametrize("device_key", DEVICES)
@pytest.mark.parametrize("vectorize", [False, True])
def test_figure_cells_match_walker(device_key, vectorize):
    device = get_device(device_key)
    for program in _figure_programs():
        if vectorize:
            program = AutoVectorize().run(program)
        cores = device.cores if has_parallel_loop(program) else 1
        assert_streams_identical(program, cores)


#: The benchmark's cells (``perfbench`` ``fig6_visionfive`` and the
#: ``fig2_fresh`` cells that emit descriptors): unlike the small cells,
#: each flush's descriptors expand to many batches, and windows repeat
#: their group shapes.
BENCHMARK_CELLS = [
    ("blur", v, (40, 192, BLUR_FILTER), "visionfive_jh7100") for v in blur.VARIANT_ORDER
]
BENCHMARK_CELLS += [
    ("transpose", v, (512, TRANSPOSE_BLOCK), "xeon_4310t") for v in ("Manual_blocking", "Dynamic")
]


@pytest.mark.parametrize("kernel, variant, dims, device_key", BENCHMARK_CELLS)
def test_benchmark_cells_match_walker(kernel, variant, dims, device_key):
    device = scaled_device(device_key, CACHE_SCALE)
    if kernel == "blur":
        program = blur.build(variant, dims[0], dims[1], dims[2])
    else:
        program = transpose.build(variant, dims[0], block=dims[1])
    program = for_device(program, device)
    assert_streams_identical(program, device.cores if has_parallel_loop(program) else 1)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nest=nests(extended=True), cores=st.integers(1, 4))
def test_random_nests_match_walker(nest, cores):
    assert_streams_identical(Program("nest", nest), cores, repetitions=2)


def test_zero_trip_first_context_pins_ref_order():
    """A sibling that first runs at a later context is numbered after
    one that runs at the first context, as the walker numbers them."""
    b = LoopBuilder("late")
    a = b.array("a", DType.F64, (64,))
    c = b.array("c", DType.F64, (64,))
    with b.loop("i", 0, 6) as i:
        with b.loop("j", 3, i + 1) as j:  # zero trips while i < 3
            b.store(a, j, a[j] + 1.0)
        with b.loop("k", 0, 4) as k:
            with b.loop("l", 0, 2) as l:  # a pair: numbered on reach
                b.store(c, k * 2 + l, 1.0)
    program = b.build()
    assert_streams_identical(program, 1)
    refs = TraceGenerator(program)
    for _ in refs.core_stream(0):
        pass
    arrays = [info.array for ref_id, info in sorted(refs.references().items()) if ref_id >= 0]
    assert arrays[0] == "c"


@pytest.mark.parametrize("cores", [2, 3, 4])
@pytest.mark.parametrize(
    "schedule", [("static", None), ("static", 1), ("static", 2), ("dynamic", 1), ("dynamic", 3)]
)
def test_innermost_parallel_runs_coalesce_like_walker(cores, schedule):
    """Scheduled values of an innermost parallel loop: contiguous runs
    merge into one segment, gaps split them."""
    b = LoopBuilder("runs")
    a = b.array("a", DType.F64, (8, 64))
    with b.loop("t", 0, 3) as t:
        with b.loop("i", t, 23, parallel=True, schedule=schedule[0], chunk=schedule[1]) as i:
            b.store(a, (t, i), a[t, i] + 1.0)
    assert_streams_identical(b.build(), cores)


# -- descriptor rows: edges -----------------------------------------------------


def assert_descriptors_match_walker(program, cores=1):
    """The walker differential, plus: descriptors did stand in for
    segments (fewer rows than segments were materialised)."""
    assert_streams_identical(program, cores)
    gen = TraceGenerator(program, num_cores=cores)
    for core in range(cores):
        for _ in gen.core_stream(core):
            pass
    assert sum(gen.rows) < sum(work.segments for work in gen.work)


def test_descriptor_loops_with_zero_and_one_trips():
    b = LoopBuilder("trips")
    a = b.array("a", DType.F64, (8, 16))
    c = b.array("c", DType.F64, (8, 16))
    with b.loop("i", 0, 6) as i:
        with b.loop("k", 3, i + 1) as k:  # 0 trips while i < 3, then 1, 2, 3
            with b.loop("l", 0, 4) as l:  # a pair whose rows do not chain
                b.store(a, (k, l), a[k, l] + 1.0)
        with b.loop("m", 4, i) as m:  # 0 trips while i <= 4, 1 at i = 5
            b.store(c, (m, 0), 1.0)
            with b.loop("n", 0, 3) as n:
                b.store(c, (m, n + 4), c[m, n] * 2.0)
    assert_descriptors_match_walker(b.build())


def test_one_descriptor_expanding_past_a_batch():
    """A single execution whose rounds hold several batches' worth of
    segments: a pair that does not chain, and a loop over a leaf and an
    innermost loop."""
    b = LoopBuilder("long")
    a = b.array("a", DType.F64, (3000, 8))
    c = b.array("c", DType.F64, (4000, 4))
    with b.loop("k", 0, 3000) as k:
        with b.loop("l", 0, 5) as l:
            b.store(a, (k, l), a[k, l] * 2.0 + a[k, l + 1])
    with b.loop("r", 0, 4000) as r:
        b.store(c, (r, 0), 0.0)
        with b.loop("s", 1, 3) as s:
            b.accumulate(c, (r, 0), c[r, s])
    program = b.build()
    assert_descriptors_match_walker(program)
    gen = TraceGenerator(program)
    sizes = [len(batch.ref) for batch in gen.core_stream(0)]
    assert gen.rows[0] < 20 and max(sizes) == BATCH_SEGMENTS
    assert sum(sizes) == gen.work[0].segments > 9 * BATCH_SEGMENTS


def test_windows_of_equal_group_shapes_keep_their_own_columns():
    """Consecutive expansion windows whose groups have the same shapes
    but other references or counts: nothing carries over but the
    pattern."""
    b = LoopBuilder("shapes")
    a = b.array("a", DType.F64, (310, 8))
    c = b.array("c", DType.F64, (310, 8))
    d = b.array("d", DType.F64, (4, 1000))
    with b.loop("i", 0, 300) as i:  # 300 groups of 2 references x 5 rounds,
        with b.loop("k", 0, 5) as k:
            with b.loop("l", 0, 2) as l:
                b.store(a, (i + k, l), a[i, l] + 1.0)
    with b.loop("i2", 0, 300) as i2:  # then as many of other references
        with b.loop("k2", 0, 5) as k2:
            with b.loop("l2", 0, 2) as l2:
                b.store(c, (i2 + k2, l2), c[i2, l2] * 2.0)
    with b.loop("j", 1, 1000) as j:  # and groups of one shape, counts growing
        with b.loop("p", 0, 4) as p:
            with b.loop("q", 0, j) as q:
                b.store(d, (p, q), d[p, q] + 1.0)
    assert_descriptors_match_walker(b.build())


def _sibling_program(rows, cols):
    b = LoopBuilder("siblings")
    a = b.array("a", DType.F64, (rows + 5, cols + 3))
    out = b.array("out", DType.F64, (rows + 5, cols))
    with b.loop("i", 0, rows) as i:
        with b.loop("j", 0, cols) as j:
            b.store(out, (i, j), 0.0)  # a leaf before a pair's descriptor group
            with b.loop("p", 0, 5) as p:
                with b.loop("q", 0, 3) as q:
                    b.accumulate(out, (i, j), a[i + p, j + q])
            b.store(out, (i + 1, j), out[i, j])  # a leaf between
            with b.loop("r", 0, 4) as r:  # a loop over a leaf and an innermost loop
                b.store(out, (i, r), 1.0)
                with b.loop("s", 0, 2) as s:
                    b.store(out, (i + r, s), a[r, s])
            b.store(out, (i, 0), out[i, 1])  # and a leaf after
    return b.build()


def test_descriptors_merge_in_blocks_beside_leaves():
    assert_descriptors_match_walker(_sibling_program(30, 20))
    assert_descriptors_match_walker(_sibling_program(1, 1))


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize(
    "schedule", [("static", None), ("static", 2), ("dynamic", 1), ("dynamic", 3)]
)
def test_descriptors_under_parallel_schedules(cores, schedule):
    b = LoopBuilder("scheduled")
    a = b.array("a", DType.F64, (13, 80))
    c = b.array("c", DType.F64, (16, 8))
    with b.loop("i", 0, 13, parallel=True, schedule=schedule[0], chunk=schedule[1]) as i:
        with b.loop("k", 0, i) as k:  # triangular: the dynamic costs differ per value
            with b.loop("l", 0, 4) as l:
                b.store(a, (i, k * 5 + l), a[i, k * 5 + l] + 1.0)
        with b.loop("m", 0, 3) as m:
            b.store(c, (i + m, 0), 0.0)
            with b.loop("n", 1, 8) as n:
                b.accumulate(c, (i + m, 0), c[i, n])
    assert_descriptors_match_walker(b.build(), cores)


def _deep_program(rows, cols):
    b = LoopBuilder("deep")
    a = b.array("a", DType.F64, (rows, cols))
    out = b.array("out", DType.F64, (rows, cols))
    with b.loop("i", 0, rows) as i:
        b.store(out, (i, 0), 0.0)  # leaves beside loops: Block merges
        with b.loop("j", 0, cols) as j:
            b.store(out, (i, j), 0.0)
            with b.loop("k", 0, 3) as k:
                b.accumulate(out, (i, j), a[i, j] * 2.0)
    return b.build()


def _loop_over_pair_program(outer):
    """A loop directly over a pair that does not chain: the loop hands
    the pair more contexts than a batch holds rows of its references."""
    b = LoopBuilder("loop_over_pair")
    a = b.array("a", DType.F64, (3, outer + 4))
    src = b.array("src", DType.F64, (3, outer + 4))
    with b.loop("i", 0, outer) as i:
        with b.loop("k", 0, 3) as k:
            with b.loop("l", 0, 4) as l:
                b.store(a, (k, l + i), src[k, l + i] + src[k, l])
    return b.build()


def test_windows_that_repeat_share_columns_read_only():
    """Windows whose rows differ only in base share the other columns
    with the previous batch; those columns cannot be written."""
    batches = list(TraceGenerator(_loop_over_pair_program(1100)).core_stream(0))
    shared = 0
    for prev, batch in zip(batches, batches[1:]):
        assert batch.base is not prev.base and batch.base.flags.writeable
        for old, new in zip(prev, batch):
            if new is old:
                assert not new.flags.writeable
                shared += 1
    assert shared


def test_batches_and_intermediates_stay_bounded(monkeypatch):
    widest = {"rows": 0, "contexts": 0, "flushed": 0, "expanded": 0}
    expanded = []  # widths the expander yielded for the current program
    chunk_rows, take, expand = tracegen._chunk_rows, tracegen._take, tracegen._expand

    def counting_rows(*args):
        out = chunk_rows(*args)
        widest["rows"] = max(widest["rows"], out.shape[1])
        return out

    def counting_take(env, index):
        widest["contexts"] = max(widest["contexts"], len(index))
        return take(env, index)

    def counting_expand(batch, rows):
        widest["flushed"] = max(widest["flushed"], rows.shape[1])
        for out in expand(batch, rows):
            widest["expanded"] = max(widest["expanded"], len(out.ref))
            expanded.append(len(out.ref))
            yield out

    monkeypatch.setattr(tracegen, "_chunk_rows", counting_rows)
    monkeypatch.setattr(tracegen, "_take", counting_take)
    monkeypatch.setattr(tracegen, "_expand", counting_expand)
    # Many small contexts, and single contexts whose subtree alone is
    # larger than the bound; the deep programs' middle loops emit
    # descriptor rows, and the loop over a pair emits them per context.
    programs = (_deep_program(40, 300), _deep_program(3, 5000), _loop_over_pair_program(1100),
                transpose.naive(1500))
    for program in programs:
        if not program.name.startswith("transpose"):
            assert_streams_identical(program, 1)
        expanded.clear()
        gen = TraceGenerator(program)
        sizes = [len(batch.ref) for batch in gen.core_stream(0)]
        assert sum(sizes) == sum(expanded) == gen.work[0].segments > 2 * BATCH_SEGMENTS
        assert max(sizes) <= BATCH_SEGMENTS
        if program.name == "deep":
            assert gen.rows[0] < gen.work[0].segments
    assert 0 < widest["rows"] <= BATCH_SEGMENTS
    assert 0 < widest["contexts"] <= BATCH_SEGMENTS
    assert 0 < widest["flushed"] <= BATCH_SEGMENTS
    assert 0 < widest["expanded"] <= BATCH_SEGMENTS


# -- dynamic-schedule costs ----------------------------------------------------


def _parallel_loops(program):
    return [node for node in walk_stmts(program.body) if isinstance(node, For) and node.parallel]


@pytest.mark.parametrize("n", [32, 64, 96])
def test_cost_table_equals_iteration_cost_on_figure_kernels(n):
    programs = [transpose.build(variant, n, block=16) for variant in transpose.VARIANT_ORDER]
    programs += [blur.build(variant, n // 2, n // 2 + 3, 5) for variant in blur.VARIANT_ORDER]
    checked = 0
    for program in programs:
        gen = TraceGenerator(program, num_cores=4)
        for loop in _parallel_loops(program):
            values = list(loop.iter_values({}))
            assert gen.iteration_costs(loop, values, {}) == [
                iteration_cost(loop, v, {}) for v in values
            ]
            checked += 1
    assert checked >= 5


@settings(max_examples=150, deadline=None)
@given(nest=nests(extended=True), data=st.data())
def test_cost_table_equals_iteration_cost_on_random_nests(nest, data):
    gen = TraceGenerator(Program("nest", nest))

    def visit(stmt, bound):
        if isinstance(stmt, For):
            env = {var: data.draw(st.integers(0, 5)) for var in bound}
            values = list(stmt.iter_values(env))
            assert gen.iteration_costs(stmt, values, env) == [
                iteration_cost(stmt, v, env) for v in values
            ]
            visit(stmt.body, bound + [stmt.var])
        elif hasattr(stmt, "stmts"):
            for child in stmt.stmts:
                visit(child, bound)

    visit(nest, [])


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("cores", [2, 4])
def test_dynamic_assignments_unchanged(n, cores):
    program = transpose.dynamic(n, block=16)
    (loop,) = _parallel_loops(program)
    values = list(loop.iter_values({}))
    costs = {v: iteration_cost(loop, v, {}) for v in values}
    expected = split_dynamic(values, cores, loop.chunk or 1, costs.__getitem__)
    assert TraceGenerator(program, num_cores=cores)._assigned(loop, {}) == expected
