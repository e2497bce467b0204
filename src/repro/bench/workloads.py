"""Deterministic bench workloads.

Each workload is one Fig. 2 transpose cell run through ``simulate()``,
the pipeline users run, plus a RunCache round trip of its record.  The
per-repeat callable returns the seconds of each phase, which is what
makes regression verdicts attributable:

``build`` / ``plan`` / ``tracegen`` / ``replay`` / ``timing``
               the call's own stage timers
               (:attr:`repro.simulate.SimulationResult.stage_s`);
``cache_io``   a RunCache store + reload round trip of the record.

The two Naive cells differ only in the replay engine, so the ratio of
their ``replay`` phases is the engine speedup (:data:`DERIVED_RATIOS`).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Fixed transpose size for the bench cells: big enough that replay
#: dominates timer resolution, small enough for interactive repeats.
BENCH_N = 256

#: Device every bench cell simulates (the paper's VisionFive board: two
#: cache levels + stride prefetcher exercise every replay path).
BENCH_DEVICE = "visionfive_jh7100"

BENCH_BLOCK = 16

#: Cache scale matching the figure harness (so the bench slice measures
#: the same simulated configuration the figures regenerate).
BENCH_SCALE = 16

#: A workload callable: one timed repeat, returning seconds per phase.
PhaseFn = Callable[[], Dict[str, float]]


@dataclass(frozen=True)
class Workload:
    """One deterministic measurement target."""

    id: str
    description: str
    build: Callable[[], PhaseFn]


def _build_cell(variant: str, engine: str) -> PhaseFn:
    """One PMU-on ``simulate()`` of a bench cell, then its cache round trip."""
    from repro.experiments.config import scaled_device
    from repro.kernels import transpose as tr
    from repro.runtime.cache import RunCache, canonical_key
    from repro.simulate import simulate

    device = scaled_device(BENCH_DEVICE, BENCH_SCALE)
    program = tr.build(variant, BENCH_N, block=BENCH_BLOCK)
    tmp = tempfile.mkdtemp(prefix="repro-bench-")
    cache_path = os.path.join(tmp, "bench_cache.json")

    def run() -> Dict[str, float]:
        result = simulate(program, device, pmu=True, engine=engine)
        start = time.perf_counter()
        cache = RunCache(cache_path)
        key = canonical_key(("bench", variant, engine, BENCH_N))
        cache.put(key, {
            "seconds": result.seconds,
            "counters": [delta.as_dict() for delta in result.snapshots],
        })
        if cache.reload(key) is None:
            raise AssertionError("bench cache round trip lost the record")
        return dict(result.stage_s, cache_io=time.perf_counter() - start)

    run.close = lambda: shutil.rmtree(tmp, ignore_errors=True)  # type: ignore[attr-defined]
    return run


def _cell(variant: str, engine: str, suffix: str = "") -> Workload:
    block = f" block={BENCH_BLOCK}" if variant != "Naive" else ""
    return Workload(
        id=f"fig2_{variant.lower()}{suffix}",
        description=(
            f"transpose/{variant} n={BENCH_N}{block} on {BENCH_DEVICE} "
            f"(scale {BENCH_SCALE}), {engine} engine"
        ),
        build=lambda: _build_cell(variant, engine),
    )


WORKLOADS: Dict[str, Workload] = {
    w.id: w
    for w in (
        _cell("Naive", "fast"),
        _cell("Blocking", "fast"),
        _cell("Naive", "exact", suffix="_exact"),
    )
}

#: Dimensionless ratios derived from workload pairs: name -> (numerator
#: workload, denominator workload, phase whose medians are divided).
#: Ratios survive host changes, so the gate can enforce floors on them
#: even against a foreign baseline.
DERIVED_RATIOS: Dict[str, Tuple[str, str, str]] = {
    "engine_speedup": ("fig2_naive_exact", "fig2_naive", "replay"),
}


def select_workloads(only: Optional[List[str]] = None) -> List[Workload]:
    """Every workload, or just the ``only`` ids (in registry order)."""
    if not only:
        return list(WORKLOADS.values())
    unknown = [wid for wid in only if wid not in WORKLOADS]
    if unknown:
        raise ValueError(
            f"unknown workload(s) {', '.join(unknown)} "
            f"(have: {', '.join(WORKLOADS)})"
        )
    return [w for wid, w in WORKLOADS.items() if wid in only]
