"""Fig. 6 — Gaussian blur computation time and speedups over naive.

Five variants per device on a color image (paper: 2544 x 2027, F = 19;
simulated: 192 x 160 with 1/16-scaled caches — one image row ~ L1, the
19-row filter window fits only where it fits on the real machines, and
the full image exceeds every scaled last-level cache).

The figure is one :mod:`repro.experiments.grid` speedup grid: failed
cells render as ``—`` with a footnote, and a
:class:`~repro.runtime.WorkPool` fans the cells out without changing
the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.experiments import grid
from repro.experiments.config import BLUR_FILTER, BLUR_SIM_WH, CACHE_SCALE, blur_workload
from repro.experiments.report import CellFailure
from repro.kernels import blur
from repro.metrics.speedup import SpeedupRow
from repro.runtime import WorkPool

CSV_FILE = "fig6_blur.csv"
CSV_HEADER = ["width", "height", "filter", "device", "variant", "seconds", "speedup"]


@dataclass
class Fig6Result(grid.SpeedupGrid):
    width: int
    height: int
    filter_size: int
    rows: List[SpeedupRow] = field(default_factory=list)
    excluded: List[str] = field(default_factory=list)
    failures: List[CellFailure] = field(default_factory=list)


def _build(variant: str, w: int, h: int, filter_size: int):
    return blur.build(variant, h, w, filter_size)


def run(
    scale: int = CACHE_SCALE,
    variants: Optional[List[str]] = None,
    pool: Optional[WorkPool] = None,
) -> Fig6Result:
    w, h = BLUR_SIM_WH
    return grid.run(
        Fig6Result(width=w, height=h, filter_size=BLUR_FILTER),
        "fig6",
        _build,
        dims=(w, h, BLUR_FILTER),
        paper_bytes=blur_workload().paper_bytes,  # all four devices hold the image
        variants=variants or blur.VARIANT_ORDER,
        scale=scale,
        pool=pool,
    )


def render(result: Fig6Result) -> str:
    return grid.render(
        result,
        blur.VARIANT_ORDER,
        title=(
            f"Fig. 6 — Gaussian blur {result.width}x{result.height} F={result.filter_size} "
            f"(paper 2544x2027, caches 1/{CACHE_SCALE})"
        ),
        oom_note="{key}: paper-size image does not fit in DRAM — bar absent",
    )


def csv_rows(result: Fig6Result) -> List[Tuple]:
    prefix = (result.width, result.height, result.filter_size)
    return grid.csv_rows(result, prefix, blur.VARIANT_ORDER)
