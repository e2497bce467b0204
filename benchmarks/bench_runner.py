"""Wall-clock benchmark of the parallel figure pipeline.

Times the full Fig. 2 grid (both panels, every variant x device cell)
serially and fanned across worker processes, with the run cache disabled
so every cell actually simulates.  Writes the measurements to
``benchmarks/BENCH_runner.json`` (committed, so the repo records what the
fan-out bought on the measuring host — the speedup is bounded by the
host's core count, which is recorded alongside).

Each configuration is repeated and reduced with the :mod:`repro.bench`
statistics: outliers are MAD-rejected and the medians carry bootstrap
confidence intervals plus the measuring host's fingerprint.  The legacy
top-level keys (``serial_seconds``/``parallel_seconds``/``speedup``) are
kept — now medians rather than single shots.

Not a pytest-benchmark module: run it directly.

    PYTHONPATH=src python benchmarks/bench_runner.py [--jobs N] [--repeats R]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

OUTPUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_runner.json")


def measure(jobs: int) -> float:
    """Seconds to regenerate the whole Fig. 2 grid with ``jobs`` workers."""
    from repro.experiments import fig2
    from repro.experiments.runner import reset_default_runner
    from repro.runtime import WorkPool

    reset_default_runner()  # drop memory-cached records between measurements
    start = time.perf_counter()
    with WorkPool(jobs=jobs) as pool:
        panels = fig2.run(pool=pool)
    elapsed = time.perf_counter() - start
    assert panels and all(panel.rows for panel in panels)
    return elapsed


def main() -> int:
    from repro.bench import current_commit, fingerprint_hash, host_fingerprint, summarize

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker count for the parallel measurement (default: all cores, min 2)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="measurement repeats per configuration (default 3)",
    )
    parser.add_argument("--output", default=OUTPUT, help="result JSON path")
    args = parser.parse_args()

    # Disable the run cache so both measurements simulate every cell.
    os.environ["REPRO_CACHE"] = "off"
    cores = os.cpu_count() or 1
    jobs = args.jobs if args.jobs else max(2, cores)
    repeats = max(1, args.repeats)

    samples = {"serial": [], "parallel": []}
    for rep in range(repeats):
        samples["serial"].append(measure(1))
        samples["parallel"].append(measure(jobs))
        print(
            f"repeat {rep + 1}/{repeats}: serial {samples['serial'][-1]:.1f}s, "
            f"parallel({jobs}) {samples['parallel'][-1]:.1f}s"
        )

    serial = summarize(samples["serial"])
    parallel = summarize(samples["parallel"])
    # Conservative interval for the ratio of two independent medians.
    speedup_ci = [
        round(serial.ci_low / parallel.ci_high, 3) if parallel.ci_high > 0 else 0.0,
        round(serial.ci_high / parallel.ci_low, 3) if parallel.ci_low > 0 else 0.0,
    ]

    payload = {
        "benchmark": "fig2 grid (both panels, run cache disabled)",
        "host": platform.machine(),
        "host_cores": cores,
        "serial_seconds": round(serial.median, 3),
        "jobs": jobs,
        "parallel_seconds": round(parallel.median, 3),
        "speedup": round(serial.median / parallel.median, 3),
        "speedup_ci": speedup_ci,
        "summaries": {
            "serial": serial.as_dict(),
            "parallel": parallel.as_dict(),
        },
        "fingerprint": host_fingerprint(),
        "host_hash": fingerprint_hash(),
        "commit": current_commit(),
        "note": (
            "speedup is bounded by host_cores; on a single-core host the "
            "parallel run only measures spawn/pickle overhead. "
            "serial/parallel_seconds are medians; summaries carry the "
            "bootstrap CIs."
        ),
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({k: payload[k] for k in (
        "serial_seconds", "parallel_seconds", "speedup", "speedup_ci"
    )}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
