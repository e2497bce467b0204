"""Program execution: reference interpretation and symbolic tracing.

* :mod:`repro.exec.interp` — numpy-backed correctness interpreter;
* :mod:`repro.exec.trace` — compressed segment trace representation;
* :mod:`repro.exec.tracegen` — per-core symbolic trace generation in
  column batches, with OpenMP-style schedule simulation.
"""

from repro.exec.interp import Interpreter, run_program
from repro.exec.trace import CoreWork, RefInfo, Reference, Segment, SegmentBatch
from repro.exec.tracegen import TraceGenerator, split_dynamic, split_static

__all__ = [
    "CoreWork",
    "Interpreter",
    "RefInfo",
    "Reference",
    "Segment",
    "SegmentBatch",
    "TraceGenerator",
    "run_program",
    "split_dynamic",
    "split_static",
]
