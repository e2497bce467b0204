"""Differential testing over randomly generated affine programs.

Hypothesis generates small loop-nest programs (random nests, bounds,
subscripts and expressions, in-bounds by construction) and cross-checks
the independent implementations against each other:

* the scalar interpreter vs the RISC-V code generator + emulator
  (bit-exact f64);
* the symbolic trace generator's element footprint vs an exact
  enumeration of the program's accesses;
* static operation counts vs counts accumulated while tracing.

Any divergence between these stacks is a real bug in one of them.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import count_program
from repro.exec import TraceGenerator, run_program
from repro.ir import Affine, Block, DType, For, Program, Store
from repro.ir.expr import BinOp, Const, Load
from repro.ir.program import Array, MemoryLayout
from repro.ir.validate import validate_program
from tests.conftest import stream_segments

DIM = 6  # every array axis and loop range is [0, DIM)


@st.composite
def programs(draw):
    """A random valid affine program over f64 arrays."""
    n_arrays = draw(st.integers(1, 3))
    arrays = []
    for index in range(n_arrays):
        rank = draw(st.integers(1, 2))
        arrays.append(Array(f"arr{index}", DType.F64, (DIM,) * rank))

    depth = draw(st.integers(1, 3))
    loop_vars = [f"v{k}" for k in range(depth)]

    def subscript() -> Affine:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return Affine(draw(st.integers(0, DIM - 1)))
        var = draw(st.sampled_from(loop_vars))
        if kind == 1:
            return Affine.var(var)
        return Affine(DIM - 1) - Affine.var(var)  # reversed walk

    def expression(budget: int):
        if budget <= 0 or draw(st.booleans()):
            if draw(st.booleans()):
                array = draw(st.sampled_from(arrays))
                return Load(array, [subscript() for _ in array.shape])
            return Const(float(draw(st.integers(-4, 4))))
        op = draw(st.sampled_from(["+", "-", "*"]))
        return BinOp(op, expression(budget - 1), expression(budget - 1))

    stores = []
    for _ in range(draw(st.integers(1, 2))):
        target = draw(st.sampled_from(arrays))
        stores.append(
            Store(
                target,
                [subscript() for _ in target.shape],
                expression(draw(st.integers(0, 2))),
                accumulate=draw(st.booleans()),
            )
        )

    body = Block(stores)
    for var in reversed(loop_vars):
        body = Block([For(var, 0, DIM, body)])
    return Program("random_program", body, arrays=arrays)


def _inputs(program, seed=0):
    rng = np.random.default_rng(seed)
    return {
        arr.name: np.round(rng.uniform(-2, 2, arr.shape), 3) for arr in program.arrays
    }


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_interpreter_matches_riscv_emulator(program):
    """Two entirely independent executions must agree bit-for-bit."""
    from repro.riscv import compile_and_run

    validate_program(program)
    inputs = _inputs(program)
    expected = run_program(program, inputs)
    got, _ = compile_and_run(program, inputs)
    for arr in program.arrays:
        # Compare bit patterns: value equality fails on NaN == NaN (random
        # programs can overflow) and would pass -0.0 == 0.0.
        got_bits = np.ascontiguousarray(got[arr.name]).view(np.uint8)
        expected_bits = np.ascontiguousarray(expected[arr.name]).view(np.uint8)
        assert np.array_equal(got_bits, expected_bits), arr.name


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_trace_footprint_matches_exact_enumeration(program):
    """Segments must touch exactly the elements the program accesses."""
    validate_program(program)
    layout = MemoryLayout(program)
    generator = TraceGenerator(program, num_cores=1, layout=layout)
    traced = set()
    for seg in stream_segments(generator, 0):
        for k in range(seg.count):
            traced.add((seg.base + k * seg.stride, seg.is_write))

    expected = set()

    def walk(stmt, env):
        from repro.ir.expr import loads_in
        from repro.ir.stmt import Block as B, For as F, Store as S

        if isinstance(stmt, B):
            for child in stmt.stmts:
                walk(child, env)
        elif isinstance(stmt, F):
            for value in stmt.iter_values(env):
                env[stmt.var] = value
                walk(stmt.body, env)
            env.pop(stmt.var, None)
        elif isinstance(stmt, S):
            for load in loads_in(stmt.value):
                offset = load.array.linearize(load.indices).evaluate(env)
                expected.add(
                    (layout.address_of(load.array) + offset * 8, False)
                )
            offset = stmt.array.linearize(stmt.indices).evaluate(env)
            base = layout.address_of(stmt.array) + offset * 8
            if stmt.accumulate:
                expected.add((base, False))
            expected.add((base, True))

    walk(program.body, {})
    assert traced == expected


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_traced_counts_match_static_counts(program):
    """The tracer's running op counts must equal the closed-form analysis."""
    validate_program(program)
    generator = TraceGenerator(program, num_cores=1)
    for _ in generator.core_stream(0):
        pass
    traced = generator.work[0].total
    static = count_program(program)
    assert traced.loads == static.loads
    assert traced.stores == static.stores
    assert traced.flops == static.flops
    assert traced.bytes_loaded == static.bytes_loaded
    assert traced.bytes_stored == static.bytes_stored


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.integers(2, 4))
def test_parallel_cores_cover_serial_footprint(program, cores):
    """However the scheduler splits a parallelized outermost loop, the
    union of all cores' element footprints equals the serial footprint."""
    from repro.ir.stmt import For

    outer = program.body.stmts[0]
    assert isinstance(outer, For)
    parallel = program.with_body(
        Block([outer.with_(parallel=True, schedule="dynamic")])
    )
    # One shared layout (from the original, whose array list is a superset)
    # so both runs resolve identical addresses.
    layout = MemoryLayout(program, num_threads=cores)

    def footprint(prog, n_cores):
        generator = TraceGenerator(prog, num_cores=n_cores, layout=layout)
        touched = set()
        for core in range(n_cores):
            for seg in stream_segments(generator, core):
                for k in range(seg.count):
                    touched.add((seg.base + k * seg.stride, seg.is_write))
        return touched

    assert footprint(parallel, cores) == footprint(program, 1)
