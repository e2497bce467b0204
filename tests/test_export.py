"""Tests for the CSV figure export."""

import csv

from repro.experiments import FIGURES, export, fig1, fig2, fig3, fig6, fig7
from repro.metrics.speedup import speedup_row


def _read(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_export_fig1(tmp_path):
    rows = [fig1.Fig1Row("dev", "L1", 1.0, 2.0, 3.0, 4.0)]
    path = export.export_figure_csv("fig1", str(tmp_path), rows)
    data = _read(path)
    assert data[0][:2] == ["device", "level"]
    assert data[1][0] == "dev" and data[1][5] == "4.0"


def test_export_fig2_includes_exclusions(tmp_path):
    panel = fig2.Fig2Panel(paper_n=16384, sim_n=1024)
    panel.rows.append(
        speedup_row(
            "dev",
            {"Naive": 1.0, "Parallel": 0.5, "Blocking": 0.25, "Manual_blocking": 0.2, "Dynamic": 0.1},
        )
    )
    panel.excluded.append("mango_pi_d1")
    path = export.export_figure_csv("fig2", str(tmp_path), [panel])
    data = _read(path)
    assert len(data) == 1 + 5 + 1  # header + five variants + exclusion row
    assert any("EXCLUDED_OOM" in row for row in data)


def test_export_fig3(tmp_path):
    rows = [fig3.Fig3Row("dev", 8192, 0.1, "Dynamic", 0.8)]
    data = _read(export.export_figure_csv("fig3", str(tmp_path), rows))
    assert data[1] == ["dev", "8192", "0.1", "Dynamic", "0.8"]


def test_export_fig6_and_fig7(tmp_path):
    result = fig6.Fig6Result(width=192, height=160, filter_size=19)
    result.rows.append(
        speedup_row(
            "dev",
            {"Naive": 1.0, "Unit-stride": 0.9, "1D_kernels": 0.5, "Memory": 0.1, "Parallel": 0.05},
        )
    )
    data6 = _read(export.export_figure_csv("fig6", str(tmp_path), result))
    assert len(data6) == 1 + 5

    rows7 = [
        fig7.Fig7Row(
            "dev",
            {"1D_kernels": 0.1, "Memory": 0.2, "Parallel": 0.4},
            {"1D_kernels": 1.0, "Memory": 2.0, "Parallel": 4.0},
        )
    ]
    data7 = _read(export.export_figure_csv("fig7", str(tmp_path), rows7))
    assert len(data7) == 1 + 3


def test_exporters_cover_all_figures():
    assert set(FIGURES) == {"fig1", "fig2", "fig3", "fig6", "fig7"}
    files = {module.CSV_FILE for module in FIGURES.values()}
    assert len(files) == len(FIGURES)  # no two figures share a CSV file
    for module in FIGURES.values():
        assert callable(module.run) and callable(module.render)
        assert callable(module.csv_rows) and module.CSV_HEADER


def test_cli_csv_flag(tmp_path, capsys, monkeypatch):
    from repro import cli

    monkeypatch.setattr(fig1, "run", lambda pool=None: [])
    monkeypatch.setattr(fig1, "render", lambda rows: "TABLE")
    assert cli.main(["fig1", "--csv-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "TABLE" in captured.out
    assert "csv written" in captured.err  # diagnostics are logged, not printed
    assert (tmp_path / "fig1_stream.csv").exists()
