"""The shared speedup grid of Figs. 2 and 6, driven end to end.

Cells are faked (no simulation) so one grid holds every degraded case at
once: a failed non-naive cell, a device with no naive time and a device
the capacity rule excludes.  Each case must survive run → render → CSV →
canonical JSON, and the utilization figures built on the grids (Figs. 3
and 7) must turn it into placeholder rows.

Real (small) cells check that each variant's program is built once per
process and shared across devices: cached cells never build, a failed
build is not remembered, and a panel leaves the shared programs as it
found them.
"""

from __future__ import annotations

import csv
import json

import pytest

from repro.experiments import export, fig1, fig2, fig3, fig6, fig7, grid
from repro.experiments.config import CACHE_SCALE, all_device_keys
from repro.experiments.runner import CellResult, RunRecord, reset_default_runner
from repro.ir.printer import format_program
from repro.kernels import blur, transpose

EXCLUDED = "mango_pi_d1"
PARTIAL = "raspberry_pi_4"       # one non-naive cell fails
NO_NAIVE = "visionfive_jh7100"   # the naive cell fails, the others complete


def _fake_cell(task):
    _build, key = task
    _figure, variant, *_dims, device, _scale = key
    failing = (device, variant) in {(PARTIAL, "Parallel"), (NO_NAIVE, "Naive")}
    if failing:
        return CellResult(status="failed", reason="injected")
    return CellResult(
        status="completed",
        reason="",
        record=RunRecord(f"{variant}-{device}", device, 1.0 + len(variant), 0, 0, 1, 0),
    )


@pytest.fixture
def fake_grid(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    reset_default_runner()
    monkeypatch.setattr(grid, "_cell", _fake_cell)
    monkeypatch.setattr(grid, "device_fits_paper_workload", lambda key, _bytes: key != EXCLUDED)
    monkeypatch.setattr(fig1, "dram_bandwidth", lambda key, scale: 10.0)
    yield
    reset_default_runner()


def _grids(name, result):
    return result if name == "fig2" else [result]


@pytest.mark.parametrize(
    "name, module, variants",
    [("fig2", fig2, transpose.VARIANT_ORDER), ("fig6", fig6, blur.VARIANT_ORDER)],
)
def test_degraded_grid_through_render_csv_and_json(fake_grid, tmp_path, name, module, variants):
    result = module.run()
    for g in _grids(name, result):
        assert [row.device_key for row in g.rows] == ["xeon_4310t", PARTIAL]
        assert "Parallel" not in g.row(PARTIAL).seconds
        assert g.excluded == [EXCLUDED]
        assert g.failed_devices() == [NO_NAIVE]
        assert (NO_NAIVE, "Naive", "skipped") in {
            (f.device_key, f.item, f.status) for f in g.failures
        }

    text = module.render(result)
    assert f"† {PARTIAL}/Parallel failed: injected" in text
    assert f"† {NO_NAIVE}/Naive skipped: no naive baseline; speedups undefined" in text
    assert "— does not fit in DRAM —" in text
    assert f"† {EXCLUDED}: paper-size" in text
    no_naive_row = next(line for line in text.splitlines() if line.startswith(NO_NAIVE))
    assert no_naive_row.count("—") == len(variants)

    with open(export.export_figure_csv(name, str(tmp_path), result)) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == module.CSV_HEADER
    tails = [tuple(row[-4:]) for row in rows[1:]]
    assert (EXCLUDED, "EXCLUDED_OOM", "", "") in tails
    assert (PARTIAL, "Parallel", "FAILED", "") in tails
    assert (NO_NAIVE, "Naive", "SKIPPED", "") in tails
    assert (NO_NAIVE, "Naive", "FAILED", "") in tails
    completed = sum(len(row.seconds) for g in _grids(name, result) for row in g.rows)
    assert sum(row[-2] not in ("", "FAILED", "SKIPPED") for row in rows[1:]) == completed

    path = export.export_figure_json(name, str(tmp_path), result)
    with open(path) as fh:
        data = json.load(fh)
    for panel in data if name == "fig2" else [data]:
        assert panel["excluded"] == [EXCLUDED]
        assert {f["device_key"] for f in panel["failures"]} == {PARTIAL, NO_NAIVE}
    again = export.export_figure_json(name, str(tmp_path / "again"), result)
    with open(path, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("module", [fig3, fig7])
def test_utilization_rows_from_degraded_grid(fake_grid, module):
    rows = module.run()
    by_status = {}
    for row in rows:
        by_status.setdefault(row.status, []).append(row.device_key)
    assert set(by_status["completed"]) == {"xeon_4310t", PARTIAL}
    assert set(by_status["skipped"]) == {EXCLUDED}
    assert set(by_status["failed"]) == {NO_NAIVE}
    text = module.render(rows)
    assert f"{EXCLUDED}: " in text and "does not fit in DRAM (out of memory)" in text
    assert f"{NO_NAIVE}: " in text and "failed upstream" in text


# -- one build per (variant, dims), shared across devices ----------------

DIMS = (64, 16)                       # transpose n and block: subsecond cells
TWO_DEVICES = ["xeon_4310t", "mango_pi_d1"]


class CountingBuild:
    """``fig2._build`` that counts its calls and can fail the first ones."""

    def __init__(self, fail_first: int = 0):
        self.calls = 0
        self.fail_first = fail_first

    def __call__(self, variant, *dims):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise RuntimeError("injected build failure")
        return fig2._build(variant, *dims)


@pytest.fixture
def real_cells(monkeypatch):
    """Uncached, PMU-off real cells with an empty program memo."""
    monkeypatch.setenv("REPRO_CACHE", "off")
    monkeypatch.setenv("REPRO_PMU", "off")
    monkeypatch.setattr(grid, "_PROGRAMS", {})
    reset_default_runner()
    yield
    reset_default_runner()


@pytest.fixture
def two_devices(monkeypatch):
    monkeypatch.setattr(grid, "all_device_keys", lambda: list(TWO_DEVICES))


def _run(build, variants):
    return grid.run(
        fig2.Fig2Panel(paper_n=0, sim_n=DIMS[0]), "fig2", build, DIMS,
        paper_bytes=1, variants=variants, scale=CACHE_SCALE,
    )


def test_each_variant_builds_once_across_devices(real_cells, two_devices):
    build = CountingBuild()
    panel = _run(build, ["Naive", "Blocking"])
    assert [row.device_key for row in panel.rows] == TWO_DEVICES
    assert not panel.failures
    assert build.calls == 2


def test_cached_cells_never_build(real_cells, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache.json"))
    reset_default_runner()
    key = ("fig2", "Naive", *DIMS, "mango_pi_d1", CACHE_SCALE)
    first = grid._cell((CountingBuild(), key))
    assert first.ok

    never = CountingBuild(fail_first=1)
    monkeypatch.setattr(grid, "_PROGRAMS", {})
    for hit in ("memory-cache hit", "disk-cache hit"):
        cached = grid._cell((never, key))
        assert (cached.status, cached.reason, cached.record) == ("completed", hit, first.record)
        reset_default_runner()
    assert never.calls == 0


def test_failed_build_fails_one_cell_and_is_not_remembered(real_cells, two_devices):
    build = CountingBuild(fail_first=1)
    panel = _run(build, ["Naive"])
    first, second = TWO_DEVICES
    assert [(f.device_key, f.item, f.status) for f in panel.failures] == [
        (first, "Naive", "failed")
    ]
    assert "injected build failure" in panel.failures[0].reason
    assert [row.device_key for row in panel.rows] == [second]
    assert build.calls == 2


def _digest(program):
    """Structural digest: the pretty-printed body (loop flags, bounds,
    subscripts), ``meta`` and every array's fields and data."""
    arrays = [
        (a.name, a.dtype, a.shape, a.scope, None if a.data is None else a.data.tobytes())
        for a in program.arrays
    ]
    return (program.name, format_program(program), repr(program.meta), arrays)


def test_a_panel_leaves_the_shared_programs_unchanged(real_cells, monkeypatch):
    """Passes never mutate their input, so the program a variant's cells
    share reads the same after all four devices derived and simulated
    their own program from it (PMU on, the full cell path)."""
    monkeypatch.setenv("REPRO_PMU", "on")
    variants = transpose.VARIANT_ORDER
    shared = {v: grid._program(fig2._build, v, DIMS) for v in variants}
    before = {v: _digest(p) for v, p in shared.items()}

    panel = _run(fig2._build, variants)
    assert [row.device_key for row in panel.rows] == all_device_keys()
    assert not panel.failures
    assert all(grid._PROGRAMS[(fig2._build, v, *DIMS)] is p for v, p in shared.items())
    assert {v: _digest(p) for v, p in shared.items()} == before
