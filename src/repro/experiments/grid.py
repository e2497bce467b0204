"""The speedup grid behind Figs. 2 and 6 and the utilization step behind
Figs. 3 and 7.

Figs. 2 and 6 are the same experiment on two kernels: every (device ×
variant) cell of a device set filtered by the paper's DRAM-capacity rule
is simulated under the runtime supervisor, and each device's bar group
is its naive time plus the speedup of every other variant.  A cell that
is skipped, times out or fails renders as ``—`` with a footnote, and a
device whose naive cell failed keeps its other times only as a footnote
(speedups over a missing baseline are undefined).

The cells are independent, so they fan out across a
:class:`~repro.runtime.WorkPool`; collection follows the task list, so
the grid is byte-identical for any worker count.  A variant's program is
device-independent (each device's cell derives its own program from it
through ``for_device``, and passes never mutate their input), so each
process builds and certifies it once per ``(variant, dims)`` and shares
it across devices.  The build stays inside the supervised cell: a cached
cell never builds, and a build that raises fails only its cell and is
not remembered.

Figs. 3 and 7 turn a finished grid into the Section 3.3 utilization
metric, whose denominator is Fig. 1's achieved DRAM bandwidth.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.experiments import fig1
from repro.experiments.config import all_device_keys, device_fits_paper_workload, scaled_device
from repro.experiments.report import (
    DASH,
    CellFailure,
    render_table,
    seconds_label,
    with_footnotes,
)
from repro.experiments.runner import CellResult, cell_result, default_runner
from repro.ir.program import Program
from repro.metrics.speedup import SpeedupRow, speedup_row
from repro.runtime import WorkPool, supervise

Row = TypeVar("Row")

#: The baseline variant every speedup is taken over (first in both kernels'
#: ``VARIANT_ORDER``).
NAIVE = "Naive"


class SpeedupGrid:
    """Behaviour shared by a speedup figure's result dataclass.

    Subclasses are dataclasses that declare their size fields first and
    then ``rows``, ``excluded`` (devices the paper-size workload does
    not fit) and ``failures``.
    """

    rows: List[SpeedupRow]
    excluded: List[str]
    failures: List[CellFailure]

    def row(self, device_key: str) -> SpeedupRow:
        for row in self.rows:
            if row.device_key == device_key:
                return row
        raise KeyError(device_key)

    def failed_devices(self) -> List[str]:
        """Devices with failures and no renderable row at all."""
        have_rows = {row.device_key for row in self.rows}
        out: List[str] = []
        for failure in self.failures:
            if failure.device_key not in have_rows and failure.device_key not in out:
                out.append(failure.device_key)
        return out


Grid = TypeVar("Grid", bound=SpeedupGrid)

#: Programs this process has built, keyed by ``(build, variant, *dims)``:
#: one per figure variant and size, so it stays as small as the figures.
_PROGRAMS: Dict[Tuple, Program] = {}


def _program(build: Callable[..., Program], variant: str, dims: Sequence) -> Program:
    """``build(variant, *dims)``, built once per process."""
    key = (build, variant, *dims)
    program = _PROGRAMS.get(key)
    if program is None:
        program = _PROGRAMS[key] = build(variant, *dims)
    return program


def _cell(task: Tuple[Callable[..., Program], Tuple]) -> CellResult:
    """One (variant, device) cell; runs in a work-pool worker process.

    ``task`` is ``(build, key)``: ``key`` is the runner cache key
    ``(figure, variant, *dims, device, scale)`` and the program is
    ``build(variant, *dims)``, shared with the variant's other devices.
    """
    build, key = task
    _figure, variant, *dims, device_key, scale = key
    outcome = default_runner().run_supervised(
        key, lambda: _program(build, variant, dims), scaled_device(device_key, scale)
    )
    return cell_result(outcome)


def run(
    grid: Grid,
    figure: str,
    build: Callable[..., Program],
    dims: Tuple,
    paper_bytes: int,
    variants: Sequence[str],
    scale: int,
    pool: Optional[WorkPool] = None,
) -> Grid:
    """Fill ``grid`` with one supervised cell per fitting device and
    variant in ``variants``."""
    pool = pool or WorkPool.serial()
    included: List[str] = []
    for device in all_device_keys():
        if device_fits_paper_workload(device, paper_bytes):
            included.append(device)
        else:
            grid.excluded.append(device)

    keys = [(figure, variant, *dims, device, scale) for device in included for variant in variants]
    results = dict(zip(keys, pool.map(_cell, [(build, key) for key in keys])))
    runner = default_runner()
    for device in included:
        seconds: Dict[str, float] = {}
        for variant in variants:
            key = (figure, variant, *dims, device, scale)
            result = results[key]
            if result.ok:
                seconds[variant] = result.record.seconds
                runner.adopt(key, result.record)
            else:
                grid.failures.append(CellFailure(device, variant, result.status, result.reason))
        if NAIVE in seconds:
            grid.rows.append(speedup_row(device, seconds, NAIVE))
        elif seconds:
            grid.failures.append(
                CellFailure(device, NAIVE, "skipped", "no naive baseline; speedups undefined")
            )
    return grid


def render(grid: SpeedupGrid, variants: Sequence[str], title: str, oom_note: str) -> str:
    """The speedup table over ``variants`` (the kernel's full order, naive
    first), plus footnotes.  ``oom_note`` is formatted with ``key`` for
    each excluded device."""
    rows = []
    for row in grid.rows:
        cells = [row.device_key, seconds_label(row.naive_seconds)]
        for variant in variants[1:]:
            cells.append(f"{row.speedups[variant]:.2f}x" if variant in row.speedups else DASH)
        rows.append(cells)
    for key in grid.failed_devices():
        rows.append([key] + [DASH] * len(variants))
    for key in grid.excluded:
        rows.append([key, "— does not fit in DRAM —"] + [""] * (len(variants) - 1))
    table = render_table(["device"] + list(variants), rows, title=title)
    notes = [oom_note.format(key=key) for key in grid.excluded]
    notes += [failure.note() for failure in grid.failures]
    return with_footnotes(table, notes)


def csv_rows(grid: SpeedupGrid, prefix: Tuple, variants: Sequence[str]) -> List[Tuple]:
    """``prefix + (device, variant, seconds, speedup)`` per completed cell,
    then one row per excluded device and per failed cell."""
    rows = [
        prefix + (row.device_key, variant, row.seconds[variant], row.speedups[variant])
        for row in grid.rows
        for variant in variants
        if variant in row.seconds
    ]
    rows += [prefix + (key, "EXCLUDED_OOM", "", "") for key in grid.excluded]
    rows += [
        prefix + (failure.device_key, failure.item, failure.status.upper(), "")
        for failure in grid.failures
    ]
    return rows


def utilization(
    grid: SpeedupGrid,
    scale: int,
    measured: Callable[[SpeedupRow, float], Row],
    placeholder: Callable[[str, str, str], Row],
    oom_note: str,
    upstream_note: str,
    missing: Callable[[SpeedupRow], str] = lambda row: "",
) -> List[Row]:
    """One utilization row per device of ``grid``.

    A device row gets ``measured(speed_row, dram_gbs)`` from the
    supervised Fig. 1 DRAM bandwidth.  Every other case is a
    ``placeholder(device, status, note)`` row: a non-empty
    ``missing(speed_row)`` note (the metric's baseline is absent), a
    failed bandwidth lookup, an excluded device (``oom_note``) or a device
    whose runs all failed upstream (``upstream_note``); both notes are
    formatted with ``key``.
    """
    rows: List[Row] = []
    for speed_row in grid.rows:
        key = speed_row.device_key
        note = missing(speed_row)
        if note:
            rows.append(placeholder(key, "skipped", note))
            continue
        bw = supervise(
            lambda key=key: fig1.dram_bandwidth(key, scale),
            label=f"fig1 DRAM bandwidth for {key}",
        )
        if bw.ok:
            rows.append(measured(speed_row, bw.value))
        else:
            rows.append(placeholder(key, bw.status.value, bw.note()))
    rows += [placeholder(key, "skipped", oom_note.format(key=key)) for key in grid.excluded]
    rows += [
        placeholder(key, "failed", upstream_note.format(key=key))
        for key in grid.failed_devices()
    ]
    return rows
