"""Fig. 1 — STREAM bandwidth per memory level per device.

Reproduces the paper's Section 4.1 sweep: for every device and every
memory level it can address (L1/L2/L3/DRAM), the four STREAM tests are
run with arrays sized for that level, multithreaded for shared levels and
per-core-scaled for private ones.

Each (device, level) measurement runs under the runtime supervisor: a
failed level renders as ``—`` cells with a footnote instead of killing
the whole sweep.

Qualitative shape asserted by the test-suite (the paper's findings):

* Xeon >> Raspberry Pi > both RISC-V boards at every common level;
* the Mango Pi has only an L1, and a slow one;
* the VisionFive has the lowest DRAM bandwidth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.config import CACHE_SCALE, all_device_keys, scaled_device
from repro.experiments.report import DASH, render_table, with_footnotes
from repro.kernels import stream
from repro.metrics import bandwidth
from repro.runtime import WorkPool, supervise

CSV_FILE = "fig1_stream.csv"
CSV_HEADER = ["device", "level", "copy_gbs", "scale_gbs", "add_gbs", "triad_gbs"]


@dataclass
class Fig1Row:
    device_key: str
    level: str
    copy_gbs: float
    scale_gbs: float
    add_gbs: float
    triad_gbs: float
    status: str = "completed"
    note: str = ""

    @property
    def best_gbs(self) -> float:
        return max(self.copy_gbs, self.scale_gbs, self.add_gbs, self.triad_gbs)


@functools.lru_cache(maxsize=None)
def _measure_level(device_key: str, level: str, scale: int) -> Fig1Row:
    device = scaled_device(device_key, scale)
    values: Dict[str, float] = {}
    for test in stream.TESTS:
        values[test] = bandwidth.measure(device, level, test).gbs
    return Fig1Row(
        device_key=device_key,
        level=level,
        copy_gbs=values["copy"],
        scale_gbs=values["scale"],
        add_gbs=values["add"],
        triad_gbs=values["triad"],
    )


def _cell(task: Tuple[str, str, int]) -> Fig1Row:
    """One supervised (device, level) measurement; failures degrade to a
    placeholder row.  Runs in a work-pool worker when one is active."""
    key, level, scale = task
    outcome = supervise(
        lambda: _measure_level(key, level, scale),
        label=f"{key}/{level}",
    )
    if outcome.ok:
        return outcome.value
    return Fig1Row(
        device_key=key,
        level=level,
        copy_gbs=0.0,
        scale_gbs=0.0,
        add_gbs=0.0,
        triad_gbs=0.0,
        status=outcome.status.value,
        note=outcome.note(),
    )


def run(scale: int = CACHE_SCALE, pool: Optional[WorkPool] = None) -> List[Fig1Row]:
    """All rows of Fig. 1; failed levels degrade to placeholder rows.

    The (device × level) grid fans out across ``pool`` when given; rows
    come back in task order, so the figure is byte-identical for any
    worker count.
    """
    pool = pool or WorkPool.serial()
    tasks = [
        (key, level, scale)
        for key in all_device_keys()
        for level in scaled_device(key, scale).memory_levels
    ]
    return pool.map(_cell, tasks)


@functools.lru_cache(maxsize=None)
def dram_bandwidth(device_key: str, scale: int = CACHE_SCALE) -> float:
    """Best achieved DRAM bandwidth (the Section 3.3 denominator)."""
    return _measure_level(device_key, "DRAM", scale).best_gbs


def render(rows: List[Fig1Row]) -> str:
    table_rows = []
    notes: List[str] = []
    for r in rows:
        if r.status == "completed":
            table_rows.append(
                (r.device_key, r.level, r.copy_gbs, r.scale_gbs, r.add_gbs, r.triad_gbs)
            )
        else:
            table_rows.append((r.device_key, r.level, DASH, DASH, DASH, DASH))
            notes.append(r.note or f"{r.device_key}/{r.level}: {r.status}")
    table = render_table(
        ["device", "level", "copy GB/s", "scale GB/s", "add GB/s", "triad GB/s"],
        table_rows,
        title="Fig. 1 — STREAM bandwidth by memory level",
    )
    return with_footnotes(table, notes)


def csv_rows(rows: List[Fig1Row]) -> List[Tuple]:
    return [
        (r.device_key, r.level, r.copy_gbs, r.scale_gbs, r.add_gbs, r.triad_gbs)
        if r.status == "completed"
        else (r.device_key, r.level, "", "", "", r.status.upper())
        for r in rows
    ]
