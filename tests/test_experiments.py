"""Tests for the experiment harness plumbing (config, runner, reports)."""

import pytest

from repro.devices import get_device
from repro.experiments import CACHE_SCALE, Runner, RunRecord, fig1, fig2, fig3, fig6, fig7
from repro.experiments.config import (
    blur_workload,
    device_fits_paper_workload,
    scaled_device,
    transpose_workload,
)
from repro.experiments.report import render_table, seconds_label
from repro.metrics.speedup import speedup_row

from tests.conftest import triad_program


class TestConfig:
    def test_scaled_device_cache_ratio(self):
        real = get_device("xeon_4310t")
        scaled = scaled_device("xeon_4310t")
        ratio = real.cache_level("L1").size_bytes / scaled.cache_level("L1").size_bytes
        assert ratio == CACHE_SCALE

    def test_transpose_workloads(self):
        small = transpose_workload(8192)
        big = transpose_workload(16384)
        assert small.paper_bytes == 8192**2 * 8
        assert big.paper_bytes == 4 * small.paper_bytes
        assert small.sim_bytes < small.paper_bytes

    def test_simulated_matrix_exceeds_scaled_llc(self):
        """The scaling must preserve 'matrix does not fit in LLC'."""
        for key in ("xeon_4310t", "raspberry_pi_4", "visionfive_jh7100", "mango_pi_d1"):
            device = scaled_device(key)
            llc = device.caches[-1].size_bytes
            assert transpose_workload(8192).sim_bytes > 2 * llc

    def test_simulated_blur_exceeds_scaled_llc(self):
        for key in ("xeon_4310t", "raspberry_pi_4"):
            device = scaled_device(key)
            assert blur_workload().sim_bytes > device.caches[-1].size_bytes

    def test_capacity_rule_uses_paper_sizes(self):
        assert not device_fits_paper_workload("mango_pi_d1", transpose_workload(16384).paper_bytes)
        assert device_fits_paper_workload("mango_pi_d1", transpose_workload(8192).paper_bytes)
        assert device_fits_paper_workload("xeon_4310t", transpose_workload(16384).paper_bytes)


class TestRunner:
    def test_memoizes(self, tmp_path):
        runner = Runner(str(tmp_path / "cache.json"))
        calls = []

        def build():
            calls.append(1)
            return triad_program(64)

        device = get_device("mango_pi_d1")
        first = runner.run(("k", 1), build, device)
        second = runner.run(("k", 1), build, device)
        assert len(calls) == 1
        assert first == second
        assert isinstance(first, RunRecord)

    def test_disk_cache_survives_new_runner(self, tmp_path):
        path = str(tmp_path / "cache.json")
        device = get_device("mango_pi_d1")
        Runner(path).run(("k", 2), lambda: triad_program(64), device)
        calls = []
        reloaded = Runner(path)
        record = reloaded.run(("k", 2), lambda: calls.append(1) or triad_program(64), device)
        assert not calls
        assert record.device_key == "mango_pi_d1"

    def test_distinct_keys_distinct_runs(self, tmp_path):
        runner = Runner(str(tmp_path / "cache.json"))
        device = get_device("mango_pi_d1")
        a = runner.run(("a",), lambda: triad_program(64), device)
        b = runner.run(("b",), lambda: triad_program(128), device)
        assert a.flops != b.flops


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["x", "value"], [["a", 1.5], ["bb", 0.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "x" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_seconds_label(self):
        assert seconds_label(2.5) == "2.50 s"
        assert seconds_label(0.0025) == "2.50 ms"
        assert seconds_label(2.5e-6) == "2.5 us"

    def test_fig_render_functions_on_synthetic_rows(self):
        rows = [fig1.Fig1Row("dev", "L1", 1.0, 2.0, 3.0, 4.0)]
        assert "Fig. 1" in fig1.render(rows)
        assert rows[0].best_gbs == 4.0

        panel = fig2.Fig2Panel(paper_n=8192, sim_n=512)
        panel.rows.append(
            speedup_row("dev", {"Naive": 1.0, "Parallel": 0.5, "Blocking": 0.25, "Manual_blocking": 0.2, "Dynamic": 0.1})
        )
        panel.excluded.append("mango_pi_d1")
        text = fig2.render([panel])
        assert "does not fit" in text and "4.00x" in text

        f3 = [fig3.Fig3Row("dev", 8192, 0.1, "Dynamic", 0.8)]
        assert "Dynamic" in fig3.render(f3)

        result = fig6.Fig6Result(width=192, height=160, filter_size=19)
        result.rows.append(
            speedup_row("dev", {"Naive": 1.0, "Unit-stride": 0.9, "1D_kernels": 0.5, "Memory": 0.1, "Parallel": 0.05})
        )
        assert "Fig. 6" in fig6.render(result)

        f7 = [fig7.Fig7Row("dev", {"1D_kernels": 0.1, "Memory": 0.2, "Parallel": 0.4}, {"1D_kernels": 1.0, "Memory": 2.0, "Parallel": 4.0})]
        assert "Fig. 7" in fig7.render(f7)

    def test_fig7_baseline_bytes_positive(self):
        assert fig7.baseline_bytes() > 0


class TestCli:
    def test_figure_choices(self, capsys, monkeypatch):
        from repro import cli

        monkeypatch.setattr(fig1, "run", lambda pool=None: [])
        monkeypatch.setattr(fig1, "render", lambda rows: "FIG1OUT")
        assert cli.main(["fig1"]) == 0
        assert "FIG1OUT" in capsys.readouterr().out

    def test_bad_figure_rejected(self):
        from repro import cli

        with pytest.raises(SystemExit):
            cli.main(["fig99"])
