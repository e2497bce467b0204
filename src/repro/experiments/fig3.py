"""Fig. 3 — relative memory-bandwidth utilization of the transpose.

For each device and each matrix size, the Section 3.3 metric for the
naive implementation and for the best optimized implementation (the paper
plots exactly these two bars per device).

The metric's numerator uses the bytes that *must* cross the DRAM boundary
(2 * 8 * n^2: read everything once, write everything once) and the
denominator is the STREAM-achieved DRAM bandwidth from Fig. 1.

Devices the capacity rule excludes (the 16384^2 Mango Pi case) render as
``—`` cells with an OOM footnote instead of silently vanishing; failed
upstream runs degrade the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.experiments import fig2, grid
from repro.experiments.config import CACHE_SCALE, TRANSPOSE_SIZES
from repro.experiments.report import DASH, render_table, with_footnotes
from repro.metrics.speedup import best_variant
from repro.metrics.utilization import relative_bandwidth_utilization
from repro.runtime import WorkPool

COMPLETED = "completed"

CSV_FILE = "fig3_transpose_utilization.csv"
CSV_HEADER = ["device", "paper_n", "naive_utilization", "best_variant", "best_utilization"]


@dataclass
class Fig3Row:
    device_key: str
    paper_n: int
    naive_utilization: Optional[float] = None
    best_variant: str = ""
    best_utilization: Optional[float] = None
    status: str = COMPLETED
    note: str = ""


def _panel_rows(paper_n: int, sim_n: int, scale: int, pool: Optional[WorkPool]) -> List[Fig3Row]:
    essential = 2 * 8 * sim_n * sim_n  # read + write every element

    def measured(speed_row, dram_gbs) -> Fig3Row:
        best = best_variant(speed_row)
        return Fig3Row(
            device_key=speed_row.device_key,
            paper_n=paper_n,
            naive_utilization=relative_bandwidth_utilization(
                speed_row.naive_seconds, dram_gbs, essential
            ),
            best_variant=best,
            best_utilization=relative_bandwidth_utilization(
                speed_row.seconds[best], dram_gbs, essential
            ),
        )

    return grid.utilization(
        fig2.run_panel(paper_n, scale, pool=pool),
        scale,
        measured,
        lambda key, status, note: Fig3Row(
            device_key=key, paper_n=paper_n, status=status, note=note
        ),
        oom_note=(
            f"{{key}}: {paper_n}^2 matrix does not fit in DRAM (out of memory) "
            "— bar absent, as in the paper"
        ),
        upstream_note="{key}: transpose runs failed upstream (see Fig. 2 footnotes)",
    )


def run(scale: int = CACHE_SCALE, pool: Optional[WorkPool] = None) -> List[Fig3Row]:
    """The transpose runs fan out through ``pool`` (via Fig. 2's grid);
    the derived utilization metric is computed serially on top."""
    return [
        row
        for paper_n, sim_n in TRANSPOSE_SIZES
        for row in _panel_rows(paper_n, sim_n, scale, pool)
    ]


def render(rows: List[Fig3Row]) -> str:
    table_rows = []
    notes: List[str] = []
    for r in rows:
        if r.status == COMPLETED:
            table_rows.append(
                (r.device_key, f"{r.paper_n}^2", r.naive_utilization, r.best_variant, r.best_utilization)
            )
        else:
            table_rows.append((r.device_key, f"{r.paper_n}^2", DASH, DASH, DASH))
            notes.append(r.note or f"{r.device_key}: {r.status}")
    table = render_table(
        ["device", "matrix (paper)", "naive util", "best variant", "best util"],
        table_rows,
        title="Fig. 3 — relative memory bandwidth utilization (transpose)",
    )
    return with_footnotes(table, notes)


def csv_rows(rows: List[Fig3Row]) -> List[Tuple]:
    return [
        (r.device_key, r.paper_n, r.naive_utilization, r.best_variant, r.best_utilization)
        if r.status == COMPLETED
        else (r.device_key, r.paper_n, "", r.status.upper(), "")
        for r in rows
    ]
