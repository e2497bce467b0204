"""STREAM bandwidth measurement (Fig. 1 machinery).

Implements the paper's methodology (Section 4.1):

* array sizes chosen per memory level — small enough to live in the level
  under test, too large to be cached by the level above;
* the multi-threaded version for shared resources (shared caches, DRAM),
  the sequential version multiplied by the core count for private
  resources (per-core L1/L2);
* warm caches: the kernel repeats and the steady-state repetition is
  measured (the paper takes the maximum over many repetitions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.devices.spec import DeviceSpec
from repro.errors import DeviceError
from repro.kernels import stream
from repro.simulate import simulate
from repro.transforms import for_device


@dataclass
class BandwidthPoint:
    """Measured bandwidth of one STREAM test at one memory level."""

    device_key: str
    level: str           # "L1", "L2", "L3" or "DRAM"
    test: str            # copy | scale | add | triad
    gbs: float           # reported bandwidth (STREAM byte convention)
    elements: int        # vector length used
    sequential: bool     # per-core run scaled by core count?


def level_footprint_bytes(device: DeviceSpec, level: str) -> int:
    """Array footprint targeting one memory level.

    Private levels: half the capacity (one core runs the test).  Shared
    levels: ~90% of capacity — a multithreaded run splits the arrays into
    per-core slices, and the slices must exceed the *private* capacity
    above (on the Xeon the aggregate private L2 is within 20% of the L3,
    exactly as on the real part, so the L3 number is a mix by nature).
    DRAM: several times the last cache level.
    """
    names = device.memory_levels
    if level not in names:
        raise DeviceError(f"{device.key} has no memory level {level!r}")
    index = names.index(level)
    if level == "DRAM":
        last = device.caches[-1]
        return max(6 * last.size_bytes, 6 * 64 * 8)
    spec = device.cache_level(level)
    if spec.shared:
        target = spec.size_bytes * 9 // 10
    else:
        target = spec.size_bytes // 2
    if index > 0:
        above = device.caches[index - 1]
        cores = device.cores if (spec.shared and not above.shared) else 1
        target = max(target, 3 * above.size_bytes * cores)
    return min(max(target, 3 * 64 * 8), spec.size_bytes)


def _is_private(device: DeviceSpec, level: str) -> bool:
    if level == "DRAM":
        return False
    return not device.cache_level(level).shared


def measure(
    device: DeviceSpec,
    level: str,
    test: str,
    repetitions: int = 3,
) -> BandwidthPoint:
    """Simulate one STREAM test at one memory level of one device."""
    footprint = level_footprint_bytes(device, level)
    n = stream.array_elements_for_footprint(test, footprint)
    private = _is_private(device, level)
    parallel = not private and device.cores > 1

    program = for_device(stream.build(test, n, parallel=parallel), device)

    result = simulate(
        program,
        device,
        active_cores=device.cores if parallel else 1,
        repetitions=repetitions,
        steady_state=True,
        check_capacity=False,
    )
    gbs = stream.stream_bytes(test, n) / result.seconds / 1e9
    if private and device.cores > 1:
        # Paper: sequential runs on an individual resource are multiplied
        # by the number of cores.
        gbs *= device.cores
    return BandwidthPoint(
        device_key=device.key,
        level=level,
        test=test,
        gbs=gbs,
        elements=n,
        sequential=private,
    )


def measure_all(
    device: DeviceSpec,
    tests: Optional[List[str]] = None,
    levels: Optional[List[str]] = None,
) -> List[BandwidthPoint]:
    """The full STREAM sweep of Fig. 1 for one device."""
    tests = tests or list(stream.TESTS)
    levels = levels or device.memory_levels
    return [measure(device, level, test) for level in levels for test in tests]


def dram_bandwidth_gbs(device: DeviceSpec, test: str = "triad") -> float:
    """The device's achieved DRAM bandwidth — the denominator of the
    paper's Section 3.3 utilization metric."""
    return measure(device, "DRAM", test).gbs


def best_dram_bandwidth_gbs(device: DeviceSpec) -> float:
    """Maximum achieved DRAM bandwidth over the four STREAM tests."""
    return max(measure(device, "DRAM", test).gbs for test in stream.TESTS)
