"""Fig. 2 — transpose computation time and speedups over naive.

Two panels (8192^2 and 16384^2 in the paper; 512^2 and 1024^2 simulated
with 1/16-scaled caches), five variants per device.  The Mango Pi is
absent from the large panel because the paper-size matrix (2 GiB) exceeds
its 1 GiB of DRAM — the same capacity rule the paper applies.

Each panel is one :mod:`repro.experiments.grid` speedup grid: failed
cells render as ``—`` with a footnote, and a
:class:`~repro.runtime.WorkPool` fans the cells out without changing
the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.experiments import grid
from repro.experiments.config import (
    CACHE_SCALE,
    TRANSPOSE_BLOCK,
    TRANSPOSE_SIZES,
    transpose_workload,
)
from repro.experiments.report import CellFailure
from repro.kernels import transpose
from repro.metrics.speedup import SpeedupRow
from repro.runtime import WorkPool

CSV_FILE = "fig2_transpose.csv"
CSV_HEADER = ["paper_n", "sim_n", "device", "variant", "seconds", "speedup"]


@dataclass
class Fig2Panel(grid.SpeedupGrid):
    """One matrix size: a bar group (naive time + speedups) per device."""

    paper_n: int
    sim_n: int
    rows: List[SpeedupRow] = field(default_factory=list)
    excluded: List[str] = field(default_factory=list)  # devices that OOM
    failures: List[CellFailure] = field(default_factory=list)


def _build(variant: str, sim_n: int, block: int):
    return transpose.build(variant, sim_n, block=block)


def run_panel(
    paper_n: int,
    scale: int = CACHE_SCALE,
    block: int = TRANSPOSE_BLOCK,
    variants: Optional[List[str]] = None,
    pool: Optional[WorkPool] = None,
) -> Fig2Panel:
    sim_n = dict(TRANSPOSE_SIZES)[paper_n]
    return grid.run(
        Fig2Panel(paper_n=paper_n, sim_n=sim_n),
        "fig2",
        _build,
        dims=(sim_n, block),
        paper_bytes=transpose_workload(paper_n).paper_bytes,
        variants=variants or transpose.VARIANT_ORDER,
        scale=scale,
        pool=pool,
    )


def run(scale: int = CACHE_SCALE, pool: Optional[WorkPool] = None) -> List[Fig2Panel]:
    """Both panels of Fig. 2."""
    return [run_panel(paper_n, scale, pool=pool) for paper_n, _sim_n in TRANSPOSE_SIZES]


def render(panels: List[Fig2Panel]) -> str:
    return "\n\n".join(
        grid.render(
            panel,
            transpose.VARIANT_ORDER,
            title=(
                f"Fig. 2 — transpose, paper {panel.paper_n}^2 "
                f"(simulated {panel.sim_n}^2, caches 1/{CACHE_SCALE})"
            ),
            oom_note=(
                f"{{key}}: paper-size matrix ({panel.paper_n}^2 f64) does not fit in DRAM "
                "— bar absent, as in the paper"
            ),
        )
        for panel in panels
    )


def csv_rows(panels: List[Fig2Panel]) -> List[Tuple]:
    return [
        row
        for panel in panels
        for row in grid.csv_rows(panel, (panel.paper_n, panel.sim_n), transpose.VARIANT_ORDER)
    ]
