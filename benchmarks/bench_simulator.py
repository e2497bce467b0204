"""Micro-benchmarks of the simulator itself (host-side performance).

These are genuine pytest-benchmark measurements (multiple rounds): they
track the throughput of the hot loops that make whole-figure regeneration
tractable, so a performance regression in the simulator shows up here.
"""

import numpy as np

from repro.devices import visionfive_jh7100
from repro.exec import TraceGenerator, run_program
from repro.exec.trace import Segment
from repro.kernels import stream, transpose
from repro.memsim import Cache, MemoryHierarchy, U74_PREFETCH
from repro.riscv import compile_and_run
from repro.transforms import AutoVectorize


def test_cache_line_throughput(benchmark):
    """Line touches per second through a 2-level hierarchy."""
    hierarchy = MemoryHierarchy(
        [Cache("L1", 32 * 1024, 4), Cache("L2", 128 * 1024, 8)],
        prefetch=U74_PREFETCH,
    )
    segments = [Segment(0, 0, 8, 8192, False, 8), Segment(1, 0, 8, 8192, True, 8)]

    def run():
        for seg in segments:
            hierarchy.process_segment(seg)

    benchmark(run)


def test_tracegen_throughput(benchmark):
    """Segment generation rate for a blocked transpose."""
    program = transpose.blocking(256, block=16)
    generator = TraceGenerator(program, num_cores=2)

    def run():
        count = 0
        for batch in generator.core_stream(0):
            count += len(batch.ref)
        return count

    assert benchmark(run) > 0


def test_interpreter_vector_path(benchmark):
    """Numpy fast-path interpretation of a vectorizable kernel."""
    n = 65536
    program = stream.triad(n, parallel=False)
    rng = np.random.default_rng(0)
    inputs = {"b": rng.random(n), "c": rng.random(n)}
    out = benchmark(lambda: run_program(program, inputs))
    assert np.allclose(out["a"], inputs["b"] + 3.0 * inputs["c"])


def test_emulator_instruction_rate(benchmark):
    """RV64 functional emulation rate (instructions/second)."""
    program = stream.triad(256, parallel=False)
    rng = np.random.default_rng(0)
    inputs = {"b": rng.random(256), "c": rng.random(256)}

    def run():
        _, emulator = compile_and_run(program, inputs)
        return emulator.stats.instructions

    assert benchmark(run) > 1000


def test_end_to_end_simulation(benchmark):
    """Full pipeline: trace + hierarchy + timing for one kernel/device."""
    from repro.simulate import simulate

    device = visionfive_jh7100().scaled(16)
    program = transpose.blocking(128, block=16)

    result = benchmark(lambda: simulate(program, device))
    assert result.seconds > 0


# ---------------------------------------------------------------------------
# Runnable mode: exact-vs-fast engine wall-clock over the Fig. 2 grid.
#
#     PYTHONPATH=src python benchmarks/bench_simulator.py
#
# Writes benchmarks/BENCH_simulator.json (committed).  Two metrics per
# engine, both over every (panel x device x variant) cell of Fig. 2 and
# both read off the same ``simulate()`` call:
#
# * ``engine``     — the call's ``replay`` stage
#                    (``SimulationResult.stage_s``): feeding, draining
#                    and flushing the hierarchies, the component the two
#                    engines implement differently.  This is the metric
#                    the CI speedup gate checks.
# * ``end_to_end`` — the call's wall-clock (hierarchy build, plan, trace
#                    generation, replay, timing model), i.e. what a
#                    figure cell costs.  The other stages are shared
#                    code, so Amdahl caps this ratio below the engine
#                    ratio.
#
# Every cell also cross-checks the two engines' snapshots, so a run that
# produced different counters fails instead of reporting a speedup.
# ---------------------------------------------------------------------------

import argparse
import json
import os
import platform
import time

OUTPUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_simulator.json")


def _fig2_cells():
    """(paper_n, sim_n, device_key, variant, block, scale) for every cell."""
    from repro.experiments.config import (
        CACHE_SCALE,
        TRANSPOSE_BLOCK,
        TRANSPOSE_SIZES,
        all_device_keys,
        device_fits_paper_workload,
        transpose_workload,
    )
    from repro.kernels import transpose as tr

    for paper_n, sim_n in TRANSPOSE_SIZES:
        workload = transpose_workload(paper_n)
        for key in all_device_keys():
            if not device_fits_paper_workload(key, workload.paper_bytes):
                continue
            for variant in tr.VARIANT_ORDER:
                yield paper_n, sim_n, key, variant, TRANSPOSE_BLOCK, CACHE_SCALE


def _measure_cell(paper_n, sim_n, key, variant, block, scale):
    """Both metrics for one cell from one ``simulate()`` per engine."""
    from repro.experiments.config import scaled_device
    from repro.kernels import transpose as tr
    from repro.simulate import simulate

    device = scaled_device(key, scale)
    out = {"panel": paper_n, "device": key, "variant": variant}
    results = {}
    for engine in ("exact", "fast"):
        # PMU attached, as the figure pipeline runs it.
        program = tr.build(variant, sim_n, block=block)
        start = time.perf_counter()
        result = simulate(program, device, pmu=True, engine=engine)
        out[f"end_to_end_{engine}_s"] = time.perf_counter() - start
        out[f"engine_{engine}_s"] = result.stage_s["replay"]
        results[engine] = result
    if results["exact"].seconds != results["fast"].seconds:
        raise AssertionError(f"{key}/{variant}/{sim_n}: engines disagree on seconds")
    for se, sf in zip(results["exact"].snapshots, results["fast"].snapshots):
        if se.as_dict() != sf.as_dict():
            raise AssertionError(f"{key}/{variant}/{sim_n}: engines disagree on counters")
    return out


def main() -> int:
    from repro.bench.harness import fingerprint_hash, host_fingerprint
    from repro.bench.stats import summarize
    from repro.bench.trend import current_commit

    parser = argparse.ArgumentParser(
        description="exact-vs-fast engine wall-clock over the Fig. 2 grid"
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="full-grid measurement repeats (default 3)",
    )
    parser.add_argument("--output", default=OUTPUT, help="result JSON path")
    args = parser.parse_args()
    repeats = max(1, args.repeats)

    # Each repeat is one full pass over the grid; the per-repeat grid
    # totals are the samples the harness statistics summarise.
    series = {
        f"{metric}_{engine}": []
        for metric in ("engine", "end_to_end")
        for engine in ("exact", "fast")
    }
    cells = []
    for rep in range(repeats):
        cells = []
        for cell in _fig2_cells():
            result = _measure_cell(*cell)
            cells.append(result)
            if rep == 0:
                print(
                    f"{result['device']:18s} {result['variant']:16s} "
                    f"n={result['panel']:6d} "
                    f"engine {result['engine_exact_s']:.3f}s -> "
                    f"{result['engine_fast_s']:.3f}s"
                )
        for name in series:
            series[name].append(sum(c[f"{name}_s"] for c in cells))
        print(
            f"repeat {rep + 1}/{repeats}: engine exact "
            f"{series['engine_exact'][-1]:.1f}s, fast "
            f"{series['engine_fast'][-1]:.1f}s"
        )

    summaries = {name: summarize(values) for name, values in series.items()}

    def ratio_block(metric: str) -> dict:
        exact = summaries[f"{metric}_exact"]
        fast = summaries[f"{metric}_fast"]
        return {
            "exact": round(exact.median, 3),
            "fast": round(fast.median, 3),
            "speedup": round(exact.median / fast.median, 2),
            # Conservative interval for the ratio of two medians.
            "speedup_ci": [
                round(exact.ci_low / fast.ci_high, 2) if fast.ci_high > 0 else 0.0,
                round(exact.ci_high / fast.ci_low, 2) if fast.ci_low > 0 else 0.0,
            ],
        }

    payload = {
        "benchmark": "fig2 grid, exact vs fast replay engine (PMU attached)",
        "host": platform.machine(),
        "host_cores": os.cpu_count() or 1,
        "engine": ratio_block("engine"),
        "end_to_end": ratio_block("end_to_end"),
        "summaries": {name: s.as_dict() for name, s in summaries.items()},
        "fingerprint": host_fingerprint(),
        "host_hash": fingerprint_hash(),
        "commit": current_commit(),
        "cells": [
            {k: (round(v, 4) if isinstance(v, float) else v) for k, v in c.items()}
            for c in cells
        ],
        "note": (
            "'engine' is the replay stage of each simulate() call "
            "(SimulationResult.stage_s['replay']: the component the engines "
            "implement differently; CI gates on its speedup CI lower bound); "
            "'end_to_end' is the wall-clock of the same call, including the "
            "shared build, plan, trace generation and timing stages.  "
            "exact/fast are medians over --repeats full-grid passes; 'cells' "
            "is the last pass."
        ),
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({k: payload[k] for k in ("engine", "end_to_end")}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
