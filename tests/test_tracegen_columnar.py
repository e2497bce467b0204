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
from repro.exec import tracegen
from repro.exec.tracegen import BATCH_SEGMENTS, TraceGenerator, split_dynamic
from repro.ir import DType, LoopBuilder
from repro.ir.program import Program
from repro.ir.stmt import For, walk_stmts
from repro.kernels import blur, transpose
from repro.simulate import has_parallel_loop
from repro.transforms import AutoVectorize

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


def test_batches_and_intermediates_stay_bounded(monkeypatch):
    widest = {"rows": 0, "contexts": 0}
    chunk_rows, take = tracegen._chunk_rows, tracegen._take

    def counting_rows(keys, base, stride, count, ctx):
        out = chunk_rows(keys, base, stride, count, ctx)
        widest["rows"] = max(widest["rows"], out.shape[1])
        return out

    def counting_take(env, index):
        widest["contexts"] = max(widest["contexts"], len(index))
        return take(env, index)

    monkeypatch.setattr(tracegen, "_chunk_rows", counting_rows)
    monkeypatch.setattr(tracegen, "_take", counting_take)
    # Many small contexts, and single contexts whose subtree alone is
    # larger than the bound.
    for program in (_deep_program(40, 300), _deep_program(3, 5000), transpose.naive(1500)):
        if program.name == "deep":
            assert_streams_identical(program, 1)
        gen = TraceGenerator(program)
        sizes = [len(batch.ref) for batch in gen.core_stream(0)]
        assert sum(sizes) == gen.work[0].segments > 2 * BATCH_SEGMENTS
        assert max(sizes) <= BATCH_SEGMENTS
    assert 0 < widest["rows"] <= BATCH_SEGMENTS
    assert 0 < widest["contexts"] <= BATCH_SEGMENTS


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
