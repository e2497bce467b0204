"""Fig. 7 — relative memory-bandwidth utilization of the Gaussian blur.

The paper computes the Section 3.3 metric for the three optimized
implementations (1D_kernels, Memory, Parallel), using the 1D_kernels
algorithm as the traffic baseline; labels show the improvement relative
to 1D_kernels.

Devices whose upstream Fig. 6 runs failed, that the capacity rule
excluded, or whose 1D_kernels baseline is missing degrade to ``—`` cells
with a footnote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.footprint import essential_traffic_bytes
from repro.experiments import fig6, grid
from repro.experiments.config import BLUR_FILTER, BLUR_SIM_WH, CACHE_SCALE
from repro.experiments.report import DASH, render_table, with_footnotes
from repro.kernels import blur
from repro.metrics.utilization import relative_bandwidth_utilization
from repro.runtime import WorkPool

VARIANTS = ["1D_kernels", "Memory", "Parallel"]

CSV_FILE = "fig7_blur_utilization.csv"
CSV_HEADER = ["device", "variant", "utilization", "improvement_vs_1d"]


@dataclass
class Fig7Row:
    device_key: str
    utilization: dict          # variant -> metric (missing variants omitted)
    improvement: dict          # variant -> metric / metric(1D_kernels)
    status: str = "completed"
    note: str = ""


def baseline_bytes() -> int:
    """Essential DRAM traffic of the 1D_kernels algorithm (the paper's
    metric baseline): src in, tmp out+in, dst out."""
    w, h = BLUR_SIM_WH
    return essential_traffic_bytes(blur.one_d(h, w, BLUR_FILTER))


def run(scale: int = CACHE_SCALE, pool: Optional[WorkPool] = None) -> List[Fig7Row]:
    """The blur runs fan out through ``pool`` (via Fig. 6's grid); the
    derived utilization metric is computed serially on top."""
    traffic = baseline_bytes()

    def measured(speed_row, dram_gbs) -> Fig7Row:
        utilization = {
            variant: relative_bandwidth_utilization(speed_row.seconds[variant], dram_gbs, traffic)
            for variant in VARIANTS
            if variant in speed_row.seconds
        }
        base = utilization["1D_kernels"]
        improvement = {v: (u / base if base else float("inf")) for v, u in utilization.items()}
        return Fig7Row(speed_row.device_key, utilization, improvement)

    return grid.utilization(
        fig6.run(scale, pool=pool),
        scale,
        measured,
        lambda key, status, note: Fig7Row(key, {}, {}, status=status, note=note),
        oom_note="{key}: paper-size image does not fit in DRAM (out of memory) — bar absent",
        upstream_note="{key}: blur runs failed upstream (see Fig. 6 footnotes)",
        missing=lambda speed_row: (
            "" if "1D_kernels" in speed_row.seconds
            else f"{speed_row.device_key}: 1D_kernels baseline missing; metric undefined"
        ),
    )


def render(rows: List[Fig7Row]) -> str:
    table = []
    notes: List[str] = []
    for row in rows:
        cells = [row.device_key]
        for variant in VARIANTS:
            if variant in row.utilization:
                cells.append(f"{row.utilization[variant]:.3f} ({row.improvement[variant]:.2f}x)")
            else:
                cells.append(DASH)
        table.append(cells)
        if row.status != "completed":
            notes.append(row.note or f"{row.device_key}: {row.status}")
    text = render_table(
        ["device"] + [f"{v} util (vs 1D)" for v in VARIANTS],
        table,
        title="Fig. 7 — relative memory bandwidth utilization (Gaussian blur)",
    )
    return with_footnotes(text, notes)


def csv_rows(rows: List[Fig7Row]) -> List[Tuple]:
    out = []
    for row in rows:
        if row.status != "completed":
            out.append((row.device_key, row.status.upper(), "", ""))
            continue
        for variant in VARIANTS:
            if variant in row.utilization:
                out.append(
                    (row.device_key, variant, row.utilization[variant], row.improvement[variant])
                )
    return out
