"""Ablation studies for the design choices DESIGN.md calls out.

Not part of the paper's figures — these quantify how sensitive the
reproduction is to its own modelling decisions:

* transpose block-size sweep (the classic blocking U-curve);
* U74 replacement policy: documented random vs counterfactual LRU;
* prefetcher on/off per device;
* water-filling vs equal-share DRAM contention;
* cache-scale sensitivity (does the figure shape survive other scales?).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.devices.catalog import get_device
from repro.devices.spec import DeviceSpec
from repro.errors import SimulationError
from repro.experiments.config import CACHE_SCALE, all_device_keys, scaled_device
from repro.experiments.report import render_table
from repro.kernels import transpose
from repro.memsim.prefetch import NO_PREFETCH
from repro.runtime import OutcomeStatus, RetryPolicy, WorkPool, supervise
from repro.simulate import simulate
from repro.transforms import for_device
from repro.timing.contention import equal_share_makespan, makespan


def _run(program, device: DeviceSpec, **kwargs) -> float:
    """One supervised ablation point: transient failures retry with
    backoff; persistent failures raise (the CLI isolates whole blocks)."""

    def execute() -> float:
        result = simulate(for_device(program, device), device, check_capacity=False, **kwargs)
        return result.seconds

    outcome = supervise(execute, RetryPolicy.from_env(), label=f"ablation:{program.name}")
    if outcome.status is OutcomeStatus.COMPLETED:
        return outcome.value
    if outcome.error is not None:
        raise outcome.error
    raise SimulationError(outcome.reason)


# -- block size sweep ---------------------------------------------------------

def _block_cell(task: Tuple[str, int, int, int]) -> float:
    """One block-size point; runs in a work-pool worker process."""
    device_key, n, block, scale = task
    device = scaled_device(device_key, scale)
    return _run(transpose.blocking(n, block=block), device)


def block_size_sweep(
    device_key: str = "xeon_4310t",
    n: int = 512,
    blocks: List[int] = (4, 8, 16, 32, 64, 128),
    scale: int = CACHE_SCALE,
    pool: Optional[WorkPool] = None,
) -> Dict[int, float]:
    """Blocking-transpose time per block size (expect a U-shape: tiny
    blocks pay loop overhead, huge blocks stop fitting in L1)."""
    pool = pool or WorkPool.serial()
    used = [block for block in blocks if block < n]
    times = pool.map(_block_cell, [(device_key, n, block, scale) for block in used])
    return dict(zip(used, times))


# -- replacement policy -------------------------------------------------------

def replacement_policy_swap(
    device_key: str = "visionfive_jh7100",
    n: int = 512,
    scale: int = CACHE_SCALE,
) -> Dict[str, Dict[str, float]]:
    """Blocking transpose under the U74's documented random replacement
    vs a counterfactual LRU."""
    base = get_device(device_key).scaled(scale)
    out: Dict[str, Dict[str, float]] = {}
    for policy in ("random", "lru"):
        caches = [replace(c, policy=policy) for c in base.caches]
        device = replace(base, key=f"{base.key}+{policy}", caches=caches)
        out[policy] = {
            "Naive": _run(transpose.naive(n), device),
            "Blocking": _run(transpose.blocking(n), device),
        }
    return out


# -- prefetcher ---------------------------------------------------------------

def _prefetch_cell(task: Tuple[str, int, int, bool]) -> float:
    """One (device, prefetch on/off) point; runs in a work-pool worker."""
    key, n, scale, prefetch_on = task
    device = scaled_device(key, scale)
    if not prefetch_on:
        device = replace(device, key=f"{device.key}+nopf", prefetch=NO_PREFETCH)
    return _run(transpose.naive(n), device)


def prefetch_ablation(
    n: int = 512, scale: int = CACHE_SCALE, pool: Optional[WorkPool] = None
) -> List[List]:
    """Naive transpose with the device prefetcher on vs off."""
    pool = pool or WorkPool.serial()
    keys = all_device_keys()
    tasks = [(key, n, scale, on) for key in keys for on in (True, False)]
    seconds = dict(zip(tasks, pool.map(_prefetch_cell, tasks)))
    rows = []
    for key in keys:
        with_pf = seconds[(key, n, scale, True)]
        without = seconds[(key, n, scale, False)]
        rows.append([key, with_pf, without, without / with_pf])
    return rows


# -- contention model ---------------------------------------------------------

def contention_model_comparison(
    device_key: str = "xeon_4310t",
    n: int = 512,
    scale: int = CACHE_SCALE,
) -> Dict[str, float]:
    """Makespan of the Dynamic transpose under water-filling vs the naive
    equal-share DRAM split."""
    device = scaled_device(device_key, scale)
    program = transpose.dynamic(n)
    result = simulate(program, device, check_capacity=False)
    freq = device.cpu.freq_ghz
    other = [core.seconds(freq) for core in result.timing.per_core]
    traffic = [float(core.dram_bytes) for core in result.timing.per_core]
    total_bw = device.dram.bandwidth_gbs * 1e9
    core_bw = device.dram.core_bandwidth_gbs * 1e9
    return {
        "water_filling": makespan(other, traffic, total_bw, core_bw),
        "equal_share": equal_share_makespan(other, traffic, total_bw, core_bw),
    }


# -- cache-scale sensitivity ----------------------------------------------------

def scale_sensitivity(
    device_key: str = "raspberry_pi_4",
    scales: List[int] = (8, 16, 32),
) -> Dict[int, float]:
    """Blocking-over-naive transpose speedup at several cache scales (the
    problem size co-scales so the footprint/LLC ratio is constant)."""
    out: Dict[int, float] = {}
    for scale in scales:
        n = 8192 // scale
        device = scaled_device(device_key, scale)
        naive_t = _run(transpose.naive(n), device)
        blocked_t = _run(transpose.blocking(n, block=max(4, 256 // scale)), device)
        out[scale] = naive_t / blocked_t
    return out


def render_block_sweep(times: Dict[int, float]) -> str:
    return render_table(
        ["block", "seconds"],
        [(b, t) for b, t in sorted(times.items())],
        title="Ablation — transpose block-size sweep",
    )
