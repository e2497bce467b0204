"""Observability for the simulator: perf counters, time attribution,
span tracing and profile baselines.

* :mod:`repro.profiling.counters` — the counter registry: flattens a
  :class:`~repro.simulate.SimulationResult` into named perf counters
  (the simulated analog of ``perf stat``);
* :mod:`repro.profiling.tracer` — zero-dependency span tracer across the
  pipeline (tracegen → memsim → timing → figure harness → cache/journal)
  with Chrome trace-event JSON export and a plain-text tree view;
* :mod:`repro.profiling.profile` — the ``repro profile`` implementation:
  counter table, time-attribution breakdown, roofline position, and
  :func:`~repro.profiling.profile.simulate_cell`, the resolve → build →
  simulate path ``repro perf`` shares;
* :mod:`repro.profiling.baseline` — the one committed counter baseline
  (``benchmarks/counter_baseline.json``) that ``repro profile`` and
  ``repro perf`` save to and check exactly, the simulator's own
  regression guard.

Time attribution itself lives in :mod:`repro.timing.model`
(:class:`~repro.timing.model.TimeAttribution`): the per-core breakdown
that provably sums to the reported wall-clock.

This ``__init__`` deliberately imports only the dependency-free leaf
modules; :mod:`repro.profiling.profile` imports the kernel registry and
the simulator and is imported lazily by the CLI.
"""

from repro.profiling.counters import (
    core_counters,
    counter_set,
    diff_counters,
    per_core_counter_sets,
)
from repro.profiling.tracer import Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "core_counters",
    "counter_set",
    "diff_counters",
    "per_core_counter_sets",
]
