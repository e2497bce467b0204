"""The ``repro perf`` CLI: stat / annotate / diff, exports, baselines.

The transpose cells run at the perf default scale (real cache sizes) so
the 3C story matches Section 4.2: the Naive column walk aliases cache
sets and its misses classify as conflict; Blocking collapses them.
"""

import json

import pytest

from repro import cli

from tests.conftest import require_native

DIFF_ARGS = ["perf", "diff", "transpose", "Naive", "Blocking", "--device", "visionfive"]


def test_stat_renders_3c_breakdown(capsys):
    assert cli.main(["perf", "stat", "transpose", "Naive", "--device", "visionfive"]) == 0
    out = capsys.readouterr().out
    assert "Perf stat — transpose/Naive on visionfive_jh7100" in out
    assert "compulsory" in out and "conflict" in out
    assert "L1.misses" in out and "conflict_sets" in out
    assert "prefetch.lines" in out


def test_diff_shows_conflict_collapse(capsys):
    """The ISSUE acceptance scenario: conflict misses dominate Naive and
    drop by an order of magnitude under Blocking."""
    assert cli.main(DIFF_ARGS) == 0
    out = capsys.readouterr().out
    assert "Perf diff — transpose" in out
    assert "conflict misses:" in out
    # Parse the closing summary line for the actual collapse.
    summary = next(line for line in out.splitlines() if line.startswith("conflict misses:"))
    naive_pct = float(summary.split("(")[1].split("%")[0])
    blocking_pct = float(summary.split("(")[2].split("%")[0])
    assert naive_pct > 50.0          # conflict-dominated baseline
    assert blocking_pct < naive_pct / 2


def test_annotate_joins_statements(capsys):
    args = ["perf", "annotate", "transpose", "Naive", "--device", "visionfive"]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert "Annotate — transpose/Naive" in out
    assert "mat[i][j] = mat[j][i];" in out
    assert "| source" in out


def test_json_output_and_3c_partition(capsys):
    assert cli.main(DIFF_ARGS + ["--json"]) == 0
    cells = json.loads(capsys.readouterr().out)
    assert [c["variant"] for c in cells] == ["Naive", "Blocking"]
    for cell in cells:
        for level in cell["levels"]:
            assert (
                level["compulsory"] + level["capacity"] + level["conflict"]
                == level["misses"]
            )


def test_jobs_determinism(capsys):
    """--jobs 2 must produce byte-identical output to the serial run."""
    args = DIFF_ARGS + ["--json"]
    assert cli.main(args + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert cli.main(args + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_openmetrics_export(tmp_path, capsys):
    om = tmp_path / "perf.om"
    args = ["perf", "stat", "transpose", "Naive", "--device", "mango_pi_d1",
            "--openmetrics", str(om)]
    assert cli.main(args) == 0
    capsys.readouterr()
    text = om.read_text()
    assert text.endswith("# EOF\n")
    assert "# TYPE repro_cache_misses_3c_total counter" in text
    assert (
        'repro_cache_misses_3c_total{kernel="transpose",variant="Naive",'
        'device="mango_pi_d1",level="L1",class="conflict"}' in text
    )


def test_save_baseline_then_check_and_drift(tmp_path, capsys):
    baseline = str(tmp_path / "counter_baseline.json")
    args = ["perf", "stat", "transpose", "Naive", "--device", "mango_pi_d1",
            "--baseline", baseline]
    assert cli.main(args + ["--save-baseline"]) == 0
    assert cli.main(args + ["--check"]) == 0
    capsys.readouterr()

    data = json.loads(open(baseline).read())
    entry = next(iter(data["entries"].values()))
    entry["counters"]["pmu.L1.conflict"] += 1
    open(baseline, "w").write(json.dumps(data))
    assert cli.main(args + ["--check"]) == 1


def test_unknown_device_prefix_errors(capsys):
    """Every single-cell front-end rejects an unknown device with exit 2
    and a message, not a traceback."""
    for args in (
        ["perf", "stat", "transpose", "Naive", "--device", "nonexistent"],
        ["lint", "transpose", "Naive", "--device", "nonexistent"],
        ["analyze", "transpose", "Naive", "--device", "nonexistent", "--n", "32"],
        ["profile", "transpose", "Naive", "nonexistent", "--n", "32"],
    ):
        assert cli.main(args) == 2, args
        assert "unknown device 'nonexistent'" in capsys.readouterr().err


def test_unique_device_prefix_accepted(capsys):
    assert cli.main(["lint", "transpose", "Naive", "--device", "visionfive", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["devices"] == ["visionfive_jh7100"]
    args = ["analyze", "transpose", "Naive", "--device", "visionfive", "--n", "32", "--json"]
    assert cli.main(args) == 0
    (cell,) = json.loads(capsys.readouterr().out)["cells"]
    assert cell["base_device"] == "visionfive_jh7100"


def test_analyze_prints_canonical_names(capsys):
    """``repro analyze`` stores and prints the resolved names, like
    ``repro profile`` does."""
    args = ["analyze", "transpose", "naive", "--device", "VISIONFIVE_JH7100", "--n", "32"]
    assert cli.main(args) == 0
    assert capsys.readouterr().out.startswith("transpose/Naive on visionfive_jh7100")
    assert cli.main(args + ["--json"]) == 0
    (cell,) = json.loads(capsys.readouterr().out)["cells"]
    assert (cell["kernel"], cell["variant"], cell["base_device"]) == (
        "transpose", "Naive", "visionfive_jh7100"
    )
    assert cli.main(args + ["--sarif"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = {
        loc["fullyQualifiedName"]
        for result in doc["runs"][0]["results"]
        for entry in result["locations"]
        for loc in entry["logicalLocations"]
    }
    assert names and all(name.startswith("transpose/Naive@") for name in names)


PROFILE_CELL = ["profile", "transpose", "Naive", "visionfive_jh7100", "--scale", "1",
                "--n", "64"]
PERF_CELL = ["perf", "stat", "transpose", "Naive", "--device", "visionfive_jh7100",
             "--n", "64"]


@pytest.mark.parametrize("saver, checker", [(PROFILE_CELL, PERF_CELL),
                                             (PERF_CELL, PROFILE_CELL)],
                         ids=["profile-then-perf", "perf-then-profile"])
def test_profile_and_perf_share_one_baseline(saver, checker, tmp_path, capsys):
    """One cell has one baseline entry, whichever command saved it."""
    baseline = str(tmp_path / "counter_baseline.json")
    flags = ["--baseline", baseline, "--quiet"]
    assert cli.main(saver + flags + ["--save-baseline"]) == 0
    assert cli.main(checker + flags + ["--check"]) == 0
    data = json.loads(open(baseline).read())
    (entry,) = data["entries"].values()
    entry["counters"]["L1.misses"] += 1
    open(baseline, "w").write(json.dumps(data))
    assert cli.main(saver + flags + ["--check"]) == 1
    assert cli.main(checker + flags + ["--check"]) == 1
    capsys.readouterr()


def test_lint_measure_cites_counts(capsys):
    args = ["lint", "transpose", "Naive", "--device", "visionfive_jh7100", "--measure"]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert "measured on visionfive_jh7100" in out
    assert "conflict misses" in out


def test_runner_perf_json_export(tmp_path, monkeypatch):
    """The runner records PMU counters and the export collects them by figure."""
    from repro.devices import get_device
    from repro.experiments import runner as runner_mod
    from repro.experiments.export import export_figure_perf_json
    from repro.kernels import transpose

    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache.json"))
    runner_mod.reset_default_runner()
    try:
        r = runner_mod.default_runner()
        rec = r.run(("fig2", "Naive", 64), lambda: transpose.naive(64),
                    get_device("mango_pi_d1"))
        assert rec.counters["pmu.L1.compulsory"] > 0
        path = export_figure_perf_json("fig2", str(tmp_path))
        data = json.loads(open(path).read())
        (key,) = data
        assert data[key] == rec.counters
    finally:
        runner_mod.reset_default_runner()


def test_runner_pmu_gate_off(tmp_path, monkeypatch):
    from repro.devices import get_device
    from repro.experiments import runner as runner_mod
    from repro.kernels import transpose

    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache.json"))
    monkeypatch.setenv("REPRO_PMU", "off")
    runner_mod.reset_default_runner()
    try:
        rec = runner_mod.default_runner().run(
            ("fig2", "Naive", 64), lambda: transpose.naive(64),
            get_device("mango_pi_d1"))
        assert rec.counters == {}
    finally:
        runner_mod.reset_default_runner()


def test_status_dashes_quantiles_below_three_runs(tmp_path, monkeypatch, capsys):
    from repro.experiments.report import DASH
    from repro.runtime.journal import Journal, JournalEntry, default_journal_path

    cache_path = str(tmp_path / "cache.json")
    journal = Journal(default_journal_path(cache_path))
    for figure, runs in (("fig2", 2), ("fig6", 3)):
        for i in range(runs):
            journal.append(JournalEntry(
                ts=0.0, key=f'v2:["{figure}","Naive",{i}]', outcome="completed",
                duration_s=1.0 + i, attempts=1,
            ))
    monkeypatch.setenv("REPRO_CACHE", cache_path)
    assert cli.main(["status"]) == 0
    out = capsys.readouterr().out
    fig2_row = next(line for line in out.splitlines() if line.startswith("fig2"))
    fig6_row = next(line for line in out.splitlines() if line.startswith("fig6"))
    assert DASH in fig2_row           # 2 samples: quantiles suppressed
    assert DASH not in fig6_row       # 3 samples: quantiles printed
    assert "2.000" in fig6_row        # p50 of 1.0/2.0/3.0


def test_measured_roofline_in_profile(capsys):
    args = ["profile", "transpose", "Naive", "mango_pi_d1", "--n", "64", "--json"]
    assert cli.main(args) == 0
    data = json.loads(capsys.readouterr().out)
    roofline = data["roofline"]
    assert roofline["measured_traffic_bytes"]["dram"] == data["counters"]["dram.bytes"]
    assert "measured_intensity" in roofline
    assert "measured_attainable_gflops" in roofline
    assert data["counters"]["pmu.L1.conflict"] >= 0


def test_no_skip_counter_in_any_export(monkeypatch, tmp_path):
    """No fast-engine skip counter is carried by a result, report or
    exposition; ``repro perf stat`` still names the engine that replayed."""
    import dataclasses

    from repro.observe.openmetrics import render_openmetrics
    from repro.observe.perf import render_stat, run_perf
    from repro.serve.executor import execute_job, reset_runners
    from repro.serve.metrics import ServeMetrics
    from repro.simulate import SimulationResult

    require_native()
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    cell = run_perf("transpose", "Naive", "mango_pi_d1", n=64)
    assert cell.engine == "fast"
    rendered = render_stat(cell)
    assert "fast engine" in rendered

    reset_runners()
    job = execute_job({
        "kernel": "transpose", "variant": "Naive", "device": "mango_pi_d1",
        "n": 64, "engine": "fast", "cache_path": str(tmp_path / "cache.json"),
    })
    assert job["outcome"] == "completed"

    exports = {
        "PerfCell.as_dict": json.dumps(cell.as_dict()),
        "render_stat": rendered,
        "render_openmetrics": render_openmetrics([cell]),
        "ServeMetrics.render": ServeMetrics().render(),
        "execute_job": json.dumps(job),
        "SimulationResult": " ".join(f.name for f in dataclasses.fields(SimulationResult)),
    }
    for where, text in exports.items():
        for word in ("skip", "resident", "streaming", "replayed"):
            assert word not in text, f"{word!r} in {where}"


def test_runner_pmu_on_resimulates_a_record_cached_with_the_pmu_off(tmp_path, monkeypatch):
    """A record cached without counters is a miss once the PMU is on, from
    the memory cache, the disk cache and the post-lock reload alike."""
    from repro.devices import get_device
    from repro.experiments.runner import Runner
    from repro.kernels import transpose
    from repro.runtime import canonical_key

    cache = str(tmp_path / "cache.json")
    key = ("fig2", "Naive", 64)
    device = get_device("mango_pi_d1")

    def run(runner):
        return runner.run_supervised(key, lambda: transpose.naive(64), device)

    monkeypatch.setenv("REPRO_PMU", "off")
    off = Runner(cache)
    assert run(off).value.counters == {}

    monkeypatch.setenv("REPRO_PMU", "on")
    on = Runner(cache)
    fresh = run(on)
    assert fresh.ok and fresh.attempts == 1
    assert fresh.value.counters["pmu.L1.compulsory"] > 0
    assert list(on.perf_counters()) == [canonical_key(key)]
    # The first runner still holds the counter-less record in memory.
    again = run(off)
    assert again.attempts == 1 and again.value.counters == fresh.value.counters

    served = run(Runner(cache))
    assert served.reason == "disk-cache hit"
    assert served.value.counters == fresh.value.counters
    # With the PMU off, a record that has counters is served as it is.
    monkeypatch.setenv("REPRO_PMU", "off")
    assert run(Runner(cache)).value.counters == fresh.value.counters
