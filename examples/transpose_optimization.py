#!/usr/bin/env python3
"""Walk the paper's Section 4.2 optimization ladder for the in-place
transpose and explain *why* each step helps, using the library's
analyses: reuse-distance histograms, per-level miss counts and the
timing-model breakdown.

Run:  python examples/transpose_optimization.py
"""

from repro.analysis import essential_traffic_bytes, lines_of_segments, reuse_histogram
from repro.devices import visionfive_jh7100
from repro.exec import TraceGenerator
from repro.experiments.report import render_table, seconds_label
from repro.kernels import transpose
from repro.metrics.utilization import relative_bandwidth_utilization
from repro.simulate import simulate

N = 256
BLOCK = 16
DEVICE = visionfive_jh7100().scaled(16)


def reuse_summary(program, capacity_lines: int) -> float:
    """Predicted fully-associative miss ratio at a given capacity."""
    generator = TraceGenerator(program, num_cores=1)
    segments = (seg for batch in generator.core_stream(0) for seg in batch.segments())
    histogram = reuse_histogram(lines_of_segments(segments))
    return histogram.miss_ratio(capacity_lines)


def main() -> None:
    print(f"device: {DEVICE.key}   matrix: {N}x{N} f64   block: {BLOCK}")
    print()

    l1_lines = DEVICE.cache_level("L1").size_bytes // 64
    rows = []
    naive_seconds = None
    for variant in transpose.VARIANT_ORDER:
        program = transpose.build(variant, N, block=BLOCK)
        result = simulate(program, DEVICE)
        if naive_seconds is None:
            naive_seconds = result.seconds
        miss_ratio = reuse_summary(program, l1_lines)
        l1_misses = result.level_misses("L1")
        rows.append(
            [
                variant,
                seconds_label(result.seconds),
                f"{naive_seconds / result.seconds:.2f}x",
                f"{miss_ratio:.3f}",
                l1_misses,
                f"{result.dram_bytes / 2**20:.2f} MiB",
                result.timing.bottleneck,
            ]
        )

    print(
        render_table(
            [
                "variant",
                "time",
                "speedup",
                "reuse miss@L1",
                "L1 line misses",
                "DRAM traffic",
                "bottleneck",
            ],
            rows,
            title="Section 4.2 optimization ladder (StarFive VisionFive)",
        )
    )

    essential = essential_traffic_bytes(transpose.naive(N))
    print(
        "\nessential traffic (read+write every element once): "
        f"{essential / 2**20:.2f} MiB"
    )
    best = transpose.dynamic(N, block=BLOCK)
    result = simulate(best, DEVICE)
    util = relative_bandwidth_utilization(result.seconds, 0.7, essential)
    print(
        f"relative bandwidth utilization of Dynamic (vs ~0.7 GB/s STREAM): {util:.2f}"
    )
    print(
        "\nReading the table: blocking cuts the reuse distance under the L1\n"
        "capacity, which collapses line misses and DRAM traffic; manual\n"
        "blocking additionally makes all DRAM accesses sequential; dynamic\n"
        "scheduling balances the triangular row lengths across the cores."
    )


if __name__ == "__main__":
    main()
