"""Parameter-sweep extension experiments (beyond the paper's figures).

The paper samples two matrix sizes and one image size; these sweeps trace
the full curves the samples come from:

* :func:`transpose_size_sweep` — blocking speedup vs matrix size: the
  speedup grows as the matrix falls further out of cache, then plateaus
  at the bandwidth ratio (the regime Fig. 2's two sizes sample);
* :func:`blur_filter_sweep` — separable-vs-naive speedup vs filter size
  F: the complexity argument says F, memory says much less (Section 4.3's
  "one would expect a substantial speedup ... it did not happen");
* :func:`core_scaling_sweep` — parallel speedup vs active core count:
  saturates at the DRAM-bandwidth ceiling ("speedup is limited by the
  number of available memory channels").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.config import CACHE_SCALE, scaled_device
from repro.kernels import blur, transpose
from repro.runtime import WorkPool
from repro.simulate import simulate
from repro.transforms import for_device


def _seconds(program, device, **kwargs) -> float:
    return simulate(for_device(program, device), device, check_capacity=False, **kwargs).seconds


def _transpose_cell(task: Tuple[str, str, int, int, int]) -> float:
    """One transpose sweep point; runs in a work-pool worker process."""
    device_key, variant, n, block, scale = task
    device = scaled_device(device_key, scale)
    program = transpose.naive(n) if variant == "naive" else transpose.blocking(n, block=block)
    return _seconds(program, device)


def transpose_size_sweep(
    device_key: str = "raspberry_pi_4",
    sizes: List[int] = (64, 128, 256, 512),
    block: int = 16,
    scale: int = CACHE_SCALE,
    pool: Optional[WorkPool] = None,
) -> Dict[int, float]:
    """Blocking-over-naive speedup per matrix size."""
    pool = pool or WorkPool.serial()
    tasks = [
        (device_key, variant, n, block, scale)
        for n in sizes
        for variant in ("naive", "blocking")
    ]
    seconds = dict(zip(tasks, pool.map(_transpose_cell, tasks)))
    return {
        n: seconds[(device_key, "naive", n, block, scale)]
        / seconds[(device_key, "blocking", n, block, scale)]
        for n in sizes
    }


def _blur_cell(task: Tuple[str, str, int, int, int, int]) -> float:
    """One blur sweep point; runs in a work-pool worker process."""
    device_key, variant, h, w, size, scale = task
    device = scaled_device(device_key, scale)
    program = blur.naive(h, w, size) if variant == "naive" else blur.one_d(h, w, size)
    return _seconds(program, device)


def blur_filter_sweep(
    device_key: str = "visionfive_jh7100",
    filter_sizes: List[int] = (5, 9, 13, 19),
    h: int = 96,
    w: int = 112,
    scale: int = CACHE_SCALE,
    pool: Optional[WorkPool] = None,
) -> Dict[int, float]:
    """1D_kernels-over-naive speedup per filter size F (expected << F)."""
    pool = pool or WorkPool.serial()
    tasks = [
        (device_key, variant, h, w, size, scale)
        for size in filter_sizes
        for variant in ("naive", "one_d")
    ]
    seconds = dict(zip(tasks, pool.map(_blur_cell, tasks)))
    return {
        size: seconds[(device_key, "naive", h, w, size, scale)]
        / seconds[(device_key, "one_d", h, w, size, scale)]
        for size in filter_sizes
    }


def _core_cell(task: Tuple[str, int, int, int, int]) -> float:
    """One core-count point; runs in a work-pool worker process."""
    device_key, n, block, count, scale = task
    device = scaled_device(device_key, scale)
    return _seconds(transpose.dynamic(n, block=block), device, active_cores=count)


def core_scaling_sweep(
    device_key: str = "xeon_4310t",
    n: int = 512,
    block: int = 16,
    cores: Optional[List[int]] = None,
    scale: int = CACHE_SCALE,
    pool: Optional[WorkPool] = None,
) -> Dict[int, float]:
    """Dynamic-transpose speedup over 1 core, per active core count."""
    pool = pool or WorkPool.serial()
    device = scaled_device(device_key, scale)
    if cores is None:
        cores = sorted({1, 2, device.cores // 2, device.cores} - {0})
    tasks = [(device_key, n, block, count, scale) for count in cores]
    seconds = pool.map(_core_cell, tasks)
    baseline = seconds[0] if seconds else 0.0
    return {count: baseline / s for count, s in zip(cores, seconds)}
