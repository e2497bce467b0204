"""Tests for timing emulated machine-code runs on the device models."""

import numpy as np
import pytest

from repro.devices import mango_pi_d1
from repro.errors import SimulationError
from repro.kernels import stream
from repro.riscv import compile_and_run, time_emulated_run, time_program_on_device
from repro.riscv.timing import work_from_stats
from repro.transforms import AutoVectorize


@pytest.fixture
def triad_inputs(rng):
    n = 512
    return n, {"b": rng.random(n), "c": rng.random(n)}


class TestWorkFromStats:
    def test_counts_plumbed(self, triad_inputs):
        n, inputs = triad_inputs
        _, emulator = compile_and_run(stream.triad(n, parallel=False), inputs)
        work = work_from_stats(emulator)
        assert work.scalar.loads == emulator.stats.loads
        assert work.scalar.stores == emulator.stats.stores
        assert work.scalar.flops == emulator.stats.flops
        assert work.scalar.int_ops > 0
        # The triad does 2n loads, n stores, 2n flops.
        assert work.scalar.loads == 2 * n
        assert work.scalar.stores == n


class TestTimeEmulatedRun:
    def test_requires_trace(self, triad_inputs):
        n, inputs = triad_inputs
        _, emulator = compile_and_run(stream.triad(n, parallel=False), inputs)
        with pytest.raises(SimulationError, match="trace"):
            time_emulated_run(emulator, mango_pi_d1())

    def test_requires_halted(self, triad_inputs):
        from repro.riscv import assemble
        from repro.riscv.emulator import Emulator

        emulator = Emulator(assemble("nop\nebreak\n"))
        with pytest.raises(SimulationError, match="finished"):
            time_emulated_run(emulator, mango_pi_d1())

    def test_timing_result(self, triad_inputs):
        n, inputs = triad_inputs
        result = time_program_on_device(
            stream.triad(n, parallel=False), mango_pi_d1(), inputs
        )
        assert result.seconds > 0
        assert result.cycles > result.instructions / 2  # single-issue core
        assert 0 < result.ipc <= 1.0  # in-order 1-wide cannot exceed 1

    def test_replays_on_the_engine_repro_engine_names(self, triad_inputs, monkeypatch):
        """Under ``REPRO_ENGINE=fast`` the trace replays on the compiled
        core, with the exact engine's counters."""
        from repro.devices.spec import DeviceSpec
        from repro.memsim.native import NativeHierarchy
        from repro.memsim.stats import snapshot
        from tests.conftest import require_native

        require_native()
        n, inputs = triad_inputs
        _, emulator = compile_and_run(stream.triad(n, parallel=False), inputs, trace=True)
        built = []
        build = DeviceSpec.build_hierarchies

        def spy(self, *args, **kwargs):
            built.extend(build(self, *args, **kwargs))
            return built[-1:]

        monkeypatch.setattr(DeviceSpec, "build_hierarchies", spy)
        timings = {}
        for engine in ("fast", "exact"):
            monkeypatch.setenv("REPRO_ENGINE", engine)
            timings[engine] = time_emulated_run(emulator, mango_pi_d1(), flush_writebacks=True)
        fast, exact = built
        assert isinstance(fast, NativeHierarchy) and type(exact).engine == "exact"
        assert snapshot(fast) == snapshot(exact)
        assert snapshot(fast).levels[0].misses > 0
        assert timings["fast"].seconds == timings["exact"].seconds

    def test_rvv_faster_than_scalar_on_c906_model(self, triad_inputs):
        """The paper's outlook: the C906 carries a vector unit that compiled
        C code does not use; RVV code should beat scalar on its model."""
        n, inputs = triad_inputs
        device = mango_pi_d1()
        program = stream.triad(n, parallel=False)
        scalar = time_program_on_device(program, device, inputs)
        vector = time_program_on_device(
            AutoVectorize().run(program), device, inputs, use_rvv=True, vlen_bits=128
        )
        assert vector.instructions < scalar.instructions
        assert vector.seconds < scalar.seconds

    def test_machine_code_timing_close_to_ir_timing(self, triad_inputs):
        """The two independent paths to a time estimate (IR symbolic trace
        vs emulated machine-code trace) must land in the same ballpark."""
        from repro.simulate import simulate

        n, inputs = triad_inputs
        device = mango_pi_d1()
        program = stream.triad(n, parallel=False)
        ir_time = simulate(program, device).seconds
        mc_time = time_program_on_device(program, device, inputs).seconds
        # Machine code pays real address-arithmetic instructions the IR
        # model only approximates; within 4x is agreement here.
        assert mc_time / ir_time < 4.0
        assert ir_time / mc_time < 4.0
