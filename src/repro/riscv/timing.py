"""Timing of emulated machine-code runs on the device models.

The IR pipeline times kernels from symbolic traces; this module closes
the same loop for *machine code*: run a compiled kernel on the functional
emulator with memory tracing enabled, replay the access trace through the
target device's cache/TLB/prefetcher models, convert the emulator's
retired-instruction statistics into the timing model's operation counts,
and reuse :func:`repro.timing.model.time_run`.

This is how the repository answers "how long would this RV64(+RVV) binary
take on the Mango Pi?" — e.g. comparing scalar vs RVV STREAM on the C906
model (``examples/riscv_codegen_demo.py``).

Limitations (documented, tested): single core; the emulator does not
distinguish FP from integer *instruction* counts exactly (FMA retires one
instruction but counts two flops), so the instruction mix is reconstructed
approximately; vector instructions are costed one-per-instruction, which
is correct for LMUL=1 on a 1-lane-per-cycle unit like the C906's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.opcount import OpCounts
from repro.devices.spec import DeviceSpec
from repro.errors import SimulationError
from repro.exec.trace import CoreWork, SegmentBatch
from repro.memsim.columnar import resolve_engine
from repro.memsim.stats import snapshot
from repro.riscv.emulator import Emulator
from repro.timing.model import TimingResult, time_run


@dataclass
class EmulatedTiming:
    """Result of timing one emulated run."""

    seconds: float
    cycles: float
    instructions: int
    timing: TimingResult

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def work_from_stats(emulator: Emulator) -> CoreWork:
    """Reconstruct timing-model operation counts from retired-instruction
    statistics of a finished emulation."""
    stats = emulator.stats
    mem = stats.loads + stats.stores
    # FMA retires one instruction but contributes two flops; treat the
    # flop count as instruction-equivalent with that fusion already
    # reflected (fmas unknown -> approximate fp instructions by flops).
    fp = stats.flops
    integer = max(0, stats.instructions - mem - fp)
    counts = OpCounts(
        flops=stats.flops,
        fmas=0,
        loads=stats.loads,
        stores=stats.stores,
        bytes_loaded=stats.loads * 8,
        bytes_stored=stats.stores * 8,
        int_ops=integer,
    )
    work = CoreWork()
    work.scalar = counts
    return work


def time_emulated_run(
    emulator: Emulator,
    device: DeviceSpec,
    flush_writebacks: bool = False,
) -> EmulatedTiming:
    """Time a finished, memory-traced emulation on ``device``.

    The emulator must have been run with ``memory.trace`` enabled (pass
    ``trace=True`` to :func:`repro.riscv.codegen.compile_and_run`).  The
    trace replays on the engine ``REPRO_ENGINE`` names, as in
    :func:`repro.simulate.simulate`.
    """
    if not emulator.halted:
        raise SimulationError("emulator has not finished running")
    trace = emulator.memory.trace
    if trace is None:
        raise SimulationError(
            "no memory trace recorded; run with memory.trace enabled "
            "(compile_and_run(..., trace=True))"
        )

    hierarchy = device.build_hierarchies(1, engine=resolve_engine())[0]
    if trace:
        hierarchy.process_segments(SegmentBatch(*(np.array(col) for col in zip(*trace))))
    hierarchy.drain()
    if flush_writebacks:
        hierarchy.flush()

    work = work_from_stats(emulator)
    timing = time_run(device, [work], [snapshot(hierarchy)], active_cores=1)
    cycles = timing.seconds * device.cpu.freq_ghz * 1e9
    return EmulatedTiming(
        seconds=timing.seconds,
        cycles=cycles,
        instructions=emulator.stats.instructions,
        timing=timing,
    )


def time_program_on_device(
    program,
    device: DeviceSpec,
    inputs: Optional[dict] = None,
    use_rvv: bool = False,
    vlen_bits: int = 128,
) -> EmulatedTiming:
    """Compile an IR program to RV64, emulate it with tracing, and time it
    on ``device`` — the one-call machine-code analogue of
    :func:`repro.simulate.simulate`."""
    from repro.riscv.codegen import compile_and_run

    _, emulator = compile_and_run(
        program, inputs, use_rvv=use_rvv, vlen_bits=vlen_bits, trace=True
    )
    return time_emulated_run(emulator, device)
