"""Figure-regeneration harnesses.

One module per figure of the paper's evaluation (there are no numbered
tables — the figures carry the data):

* :mod:`repro.experiments.fig1` — STREAM bandwidth per memory level;
* :mod:`repro.experiments.fig2` — transpose times/speedups, both sizes;
* :mod:`repro.experiments.fig3` — transpose bandwidth utilization;
* :mod:`repro.experiments.fig6` — Gaussian blur times/speedups;
* :mod:`repro.experiments.fig7` — blur bandwidth utilization;
* :mod:`repro.experiments.ablations` — sensitivity studies for the
  simulator's own design decisions.

(Figures 4 and 5 of the paper are illustrative diagrams, not data.)

Figs. 2 and 6 are one experiment on two kernels, so both are a
:mod:`repro.experiments.grid` speedup grid, and Figs. 3 and 7 derive
their utilization rows from those grids through the same module.
:data:`FIGURES` is the one table of figures: the CLI, the CSV and the
JSON exports all resolve a figure name through it.
"""

from repro.experiments import ablations, fig1, fig2, fig3, fig6, fig7, sweeps
from repro.experiments.config import (
    BLUR_FILTER,
    BLUR_SIM_WH,
    CACHE_SCALE,
    TRANSPOSE_BLOCK,
    TRANSPOSE_SIZES,
    scaled_device,
)
from repro.experiments.runner import Runner, RunRecord, default_runner

#: Figure name -> figure module.  Each module provides ``run(scale,
#: pool)``, ``render(result)`` and its CSV layout (``CSV_FILE``,
#: ``CSV_HEADER``, ``csv_rows(result)``); callers look these attributes
#: up at call time, so a patched ``run``/``render`` takes effect.
FIGURES = {"fig1": fig1, "fig2": fig2, "fig3": fig3, "fig6": fig6, "fig7": fig7}

__all__ = [
    "BLUR_FILTER",
    "BLUR_SIM_WH",
    "CACHE_SCALE",
    "FIGURES",
    "Runner",
    "RunRecord",
    "TRANSPOSE_BLOCK",
    "TRANSPOSE_SIZES",
    "ablations",
    "default_runner",
    "fig1",
    "fig2",
    "fig3",
    "fig6",
    "fig7",
    "scaled_device",
    "sweeps",
]
