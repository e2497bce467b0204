"""The performance regression observatory: statistics, harness, trend
store, gate and engine skip-path counters.

The statistical core is property-tested (the CI must contain the median,
outlier rejection must respect its cap, ``compare`` must be symmetric);
the harness/trend/gate layers get deterministic unit tests plus one
seeded end-to-end run→gate flow with an injected ``tracegen_slow`` fault
proving the regression verdict names the tracegen phase.
"""

import json
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.gate import (
    check_committed_speedup,
    compare_runs,
    default_ratio_gates,
    gate_runs,
)
from repro.bench.harness import (
    fingerprint_hash,
    fingerprints_comparable,
    host_fingerprint,
    measure,
    phase_span,
)
from repro.bench.run import append_trend, load_run, run_manifest, save_run
from repro.bench.stats import (
    Summary,
    bootstrap_ci,
    compare,
    mad,
    median,
    reject_outliers,
    summarize,
)
from repro.bench.trend import TrendStore, current_commit
from repro.runtime.faults import FaultPlan, clear_faults, install_faults

samples_st = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


# -- statistics: properties ---------------------------------------------------


@given(samples_st)
@settings(max_examples=60, deadline=None)
def test_bootstrap_ci_contains_median(xs):
    lo, hi = bootstrap_ci(xs)
    med = median(xs)
    assert lo <= med <= hi


@given(samples_st, st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=60, deadline=None)
def test_outlier_rejection_caps_drops(xs, max_frac):
    kept, rejected = reject_outliers(xs, max_frac=max_frac)
    assert len(rejected) <= int(max_frac * len(xs))
    assert sorted(kept + rejected) == sorted(xs)


@given(samples_st.filter(lambda xs: len(xs) >= 3), samples_st.filter(lambda xs: len(xs) >= 3))
@settings(max_examples=60, deadline=None)
def test_compare_is_symmetric(xs, ys):
    a, b = summarize(xs), summarize(ys)
    ab, ba = compare(a, b), compare(b, a)
    assert ab.significant == ba.significant
    flipped = {"regression": "improvement", "improvement": "regression"}
    assert ba.direction == flipped.get(ab.direction, ab.direction)


@given(samples_st)
@settings(max_examples=40, deadline=None)
def test_summarize_median_within_kept_range(xs):
    s = summarize(xs)
    assert s.min <= s.median <= s.max
    assert s.n == len(xs)
    assert s.ci_low <= s.median <= s.ci_high


def test_median_and_mad_basics():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert mad([1.0, 1.0, 1.0]) == 0.0
    assert mad([1.0, 2.0, 4.0]) == 1.0
    with pytest.raises(ValueError):
        median([])


def test_reject_outliers_drops_straggler_keeps_tight_cluster():
    xs = [1.0, 1.01, 0.99, 1.02, 0.98, 50.0]
    kept, rejected = reject_outliers(xs)
    assert rejected == [50.0]
    assert 50.0 not in kept


def test_compare_flags_real_regression_not_noise():
    base = summarize([1.0, 1.01, 0.99, 1.0, 1.02])
    slow = summarize([2.0, 2.02, 1.98, 2.0, 2.04])
    verdict = compare(base, slow)
    assert verdict.significant and verdict.direction == "regression"
    same = compare(base, summarize([1.0, 1.02, 0.98, 1.01, 0.99]))
    assert not same.significant and same.direction == "flat"


# -- harness ------------------------------------------------------------------


def test_measure_collects_phases_and_samples():
    def fn():
        with phase_span("alpha"):
            time.sleep(0.001)
        with phase_span("beta"):
            pass

    m = measure(fn, warmup=0, min_repeats=3, max_repeats=3)
    assert m.repeats == 3 and len(m.samples) == 3
    assert set(m.phases) == {"alpha", "beta"}
    assert m.phases["alpha"].median >= 0.001
    d = m.as_dict()
    assert d["summary"]["n"] == 3 and "alpha" in d["phases"]


def test_fingerprint_hash_stable_and_identity_keyed():
    fp = host_fingerprint()
    assert fingerprint_hash(fp) == fingerprint_hash()
    assert fingerprints_comparable(fp, dict(fp))
    other = dict(fp, cores=fp["cores"] + 1)
    assert not fingerprints_comparable(fp, other)
    assert fingerprint_hash(other) != fingerprint_hash(fp)


# -- trend store --------------------------------------------------------------


def test_trend_append_and_query(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_COMMIT", "abc123")
    assert current_commit() == "abc123"
    store = TrendStore(str(tmp_path / "trend"))
    for i in range(4):
        store.append({"workload": "w" if i % 2 else "v", "median": float(i)})
    points = store.points()
    assert [p["median"] for p in points] == [0.0, 1.0, 2.0, 3.0]
    assert all("ts" in p for p in points)
    assert [p["median"] for p in store.points(workload="w")] == [1.0, 3.0]
    assert [p["median"] for p in store.points(limit=2)] == [2.0, 3.0]


def test_trend_rotation_preserves_history_across_segments(tmp_path):
    store = TrendStore(str(tmp_path), max_bytes=120, max_segments=5)
    for i in range(12):
        store.append({"workload": "w", "median": float(i)})
    assert len(store.segments()) > 1
    assert [p["median"] for p in store.points()] == [float(i) for i in range(12)]


def test_trend_rotation_caps_segments_and_skips_torn_lines(tmp_path):
    store = TrendStore(str(tmp_path), max_bytes=60, max_segments=2)
    for i in range(30):
        store.append({"workload": "w", "median": float(i)})
    assert len(store.segments()) <= 3  # active + max_segments rotated
    with open(store.path, "a") as fh:
        fh.write('{"torn": \n')
    points = store.points()
    assert points and all("median" in p for p in points)


# -- run documents and the gate -----------------------------------------------


def _summary_dict(values):
    return summarize(values).as_dict()


def _doc(median_s, host_hash="h1", phases=None, commit="c1"):
    jitter = [median_s, median_s * 1.01, median_s * 0.99, median_s, median_s * 1.005]
    entry = {"summary": _summary_dict(jitter), "kind": "test", "phases": {}}
    for name, phase_median in (phases or {}).items():
        entry["phases"][name] = _summary_dict(
            [phase_median, phase_median * 1.01, phase_median * 0.99]
        )
    return {
        "schema": 1,
        "ts": 0.0,
        "commit": commit,
        "manifest": "quick",
        "fingerprint": {},
        "host_hash": host_hash,
        "workloads": {"w": entry},
        "derived": {},
    }


def test_gate_passes_flat_and_fails_regression_with_phase_attribution():
    base = _doc(1.0, phases={"tracegen": 0.3, "replay": 0.7})
    flat = _doc(1.005, phases={"tracegen": 0.3, "replay": 0.7})
    assert gate_runs(base, flat).ok

    slow = _doc(1.6, phases={"tracegen": 0.9, "replay": 0.7})
    result = gate_runs(base, slow)
    assert not result.ok
    verdict = result.verdicts[0]
    assert verdict.status == "regression"
    assert verdict.primary_phase == "tracegen"
    assert "tracegen +" in verdict.phase_verdict
    assert "tracegen" in result.failures[0]


def test_gate_default_floor_is_coarser_than_compare():
    # +40% between invocations is routine shared-host noise: the pass/fail
    # gate must tolerate it by default, while the informational compare
    # still surfaces it as a regression verdict.
    base = _doc(1.0)
    drifted = _doc(1.4)
    assert gate_runs(base, drifted).ok
    assert compare_runs(base, drifted)[0].status == "regression"
    assert not gate_runs(base, drifted, min_effect=0.02).ok


def test_gate_improvement_does_not_fail():
    base = _doc(1.0)
    fast = _doc(0.5)
    result = gate_runs(base, fast)
    assert result.ok and result.verdicts[0].status == "improvement"


def test_gate_skips_absolute_seconds_across_hosts_but_keeps_ratio_floors():
    base = _doc(1.0, host_hash="laptop")
    new = _doc(10.0, host_hash="ci-host")
    verdicts = compare_runs(base, new)
    assert verdicts[0].status == "skipped"
    assert "fingerprint differs" in verdicts[0].detail
    assert gate_runs(base, new).ok

    base["ratio_gates"] = {"engine_speedup": {"min": 8.0}}
    new["derived"] = {"engine_speedup": {"value": 9.0, "ci_low": 5.0, "ci_high": 13.0}}
    result = gate_runs(base, new)
    assert not result.ok
    assert "CI low 5.00 below floor 8" in result.failures[0]


def test_gate_fails_when_baseline_workload_not_measured():
    base = _doc(1.0)
    new = _doc(1.0)
    new["workloads"] = {}
    result = gate_runs(base, new)
    assert not result.ok and "not measured" in result.failures[0]


def test_default_ratio_gates_halve_ci_low():
    doc = {"derived": {
        "engine_speedup": {"value": 20.0, "ci_low": 16.0, "ci_high": 25.0},
        "tiny_ratio": {"value": 1.1, "ci_low": 1.0, "ci_high": 1.2},
    }}
    gates = default_ratio_gates(doc)
    assert gates == {"engine_speedup": {"min": 8.0}}


def test_check_committed_speedup_new_and_old_schema(tmp_path):
    new_schema = tmp_path / "new.json"
    new_schema.write_text(json.dumps(
        {"engine": {"exact": 30.0, "fast": 2.0, "speedup": 15.0,
                    "speedup_ci": [12.0, 18.0]}}
    ))
    assert check_committed_speedup(str(new_schema), min_speedup=10.0) == []
    assert check_committed_speedup(str(new_schema), min_speedup=13.0)

    old_schema = tmp_path / "old.json"
    old_schema.write_text(json.dumps({"engine": {"speedup": 15.0}}))
    assert check_committed_speedup(str(old_schema), min_speedup=10.0) == []
    assert check_committed_speedup(str(old_schema), min_speedup=16.0)

    assert check_committed_speedup(str(tmp_path / "absent.json"))


def test_run_document_io_rejects_wrong_schema(tmp_path):
    path = str(tmp_path / "run.json")
    save_run({"schema": 1, "workloads": {}}, path)
    assert load_run(path)["workloads"] == {}
    save_run({"schema": 99}, path)
    with pytest.raises(ValueError):
        load_run(path)


# -- end-to-end: run → trend → gate with an injected tracegen fault -----------


@pytest.fixture
def clean_faults():
    yield
    clear_faults()


def _quick_run(**kwargs):
    return run_manifest(
        "quick", only=["fig2_naive"], min_repeats=3, max_repeats=3,
        warmup=0, **kwargs,
    )


def test_bench_run_document_shape_and_trend(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_COMMIT", "e2e1234")
    doc = _quick_run()
    assert doc["schema"] == 1 and doc["commit"] == "e2e1234"
    assert doc["host_hash"] == fingerprint_hash(doc["fingerprint"])
    entry = doc["workloads"]["fig2_naive"]
    summary = entry["summary"]
    assert summary["n"] == 3
    assert summary["ci_low"] <= summary["median"] <= summary["ci_high"]
    assert {"tracegen", "replay", "timing", "cache_io"} <= set(entry["phases"])

    store = TrendStore(str(tmp_path / "trend"))
    appended = append_trend(doc, store)
    assert appended == 1
    point = store.points()[0]
    assert point["workload"] == "fig2_naive" and point["commit"] == "e2e1234"
    assert point["phases"]["tracegen"] == entry["phases"]["tracegen"]["median"]


def test_gate_flags_injected_tracegen_slowdown(clean_faults):
    base = _quick_run()
    install_faults("tracegen_slow:0.25")
    slow = _quick_run()
    clear_faults()
    # min_effect 1.0: only >2x total moves count, so background load on a
    # shared test host cannot fail the clean pass, while the injected
    # 0.25s sleep on a ~15ms workload is far above it.
    result = gate_runs(base, slow, min_effect=1.0)
    assert not result.ok
    verdict = result.verdicts[0]
    assert verdict.status == "regression"
    assert verdict.primary_phase == "tracegen"
    assert "tracegen +" in verdict.phase_verdict

    clean = _quick_run()
    assert gate_runs(base, clean, min_effect=1.0).ok


def test_bench_cli_run_compare_trend_gate(tmp_path, monkeypatch, capsys):
    from repro import cli

    monkeypatch.setenv("REPRO_COMMIT", "cli1234")
    out = str(tmp_path / "run.json")
    baseline = str(tmp_path / "baseline.json")
    trend_dir = str(tmp_path / "trend")
    args = ["bench", "run", "--workload", "tracegen_blocking",
            "--min-repeats", "2", "--max-repeats", "2", "--warmup", "0",
            "--output", out, "--save-baseline", baseline,
            "--trend-dir", trend_dir, "--quiet"]
    assert cli.main(args) == 0
    text = capsys.readouterr().out
    assert "tracegen_blocking" in text and "CI95" in text
    assert os.path.exists(out) and os.path.exists(baseline)

    assert cli.main(["bench", "compare", "--baseline", baseline, "--run", out,
                     "--min-effect", "1.0", "--quiet"]) == 0
    capsys.readouterr()
    assert cli.main(["bench", "trend", "--trend-dir", trend_dir, "--json",
                     "--quiet"]) == 0
    points = json.loads(capsys.readouterr().out)
    assert isinstance(points, list) and points
    assert points[-1]["workload"] == "tracegen_blocking"

    assert cli.main(["bench", "gate", "--baseline", baseline, "--run", out,
                     "--min-effect", "1.0", "--quiet"]) == 0


def test_trend_openmetrics_exports_latest_point_per_workload():
    from repro.observe.openmetrics import parse_exposition, render_trend_openmetrics

    points = [
        {"workload": "w", "commit": "c1", "host": "h", "median": 2.0,
         "rel_ci": 0.04, "phases": {"tracegen": 0.5}},
        {"workload": "w", "commit": "c2", "host": "h", "median": 1.5,
         "rel_ci": 0.02, "phases": {"tracegen": 0.4}},
        {"workload": "engine_speedup", "kind": "derived-ratio",
         "commit": "c2", "host": "h", "median": 15.0},
    ]
    text = render_trend_openmetrics(points)
    assert text.rstrip().endswith("# EOF")
    samples = {
        (s["name"], s["labels"].get("workload"), s["labels"].get("phase")): s
        for s in parse_exposition(text)
    }
    # Only the newest point per workload survives.
    assert samples[("repro_bench_seconds", "w", None)]["value"] == 1.5
    assert samples[("repro_bench_seconds", "w", None)]["labels"]["commit"] == "c2"
    assert samples[("repro_bench_phase_seconds", "w", "tracegen")]["value"] == 0.4
    assert samples[("repro_bench_ratio", "engine_speedup", None)]["value"] == 15.0


def test_bench_cli_trend_openmetrics(tmp_path, monkeypatch, capsys):
    from repro import cli

    monkeypatch.setenv("REPRO_COMMIT", "om1234")
    trend_dir = str(tmp_path / "trend")
    store = TrendStore(trend_dir)
    store.append({"workload": "w", "median": 1.0, "rel_ci": 0.01, "commit": "om1234"})
    exposition = str(tmp_path / "bench.om")
    assert cli.main(["bench", "trend", "--trend-dir", trend_dir,
                     "--openmetrics", exposition, "--quiet"]) == 0
    capsys.readouterr()
    text = open(exposition).read()
    assert 'repro_bench_seconds{workload="w",commit="om1234"' in text
    assert text.rstrip().endswith("# EOF")


def test_bench_cli_check_committed(tmp_path, capsys):
    from repro import cli

    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(
        {"engine": {"speedup": 20.0, "speedup_ci": [15.0, 25.0]}}
    ))
    assert cli.main(["bench", "gate", "--check-committed", str(path),
                     "--quiet"]) == 0
    assert cli.main(["bench", "gate", "--check-committed", str(path),
                     "--min-speedup", "16", "--quiet"]) == 1
    capsys.readouterr()


# -- fault plan ---------------------------------------------------------------


def test_fault_plan_parses_tracegen_slow():
    plan = FaultPlan.parse("tracegen_slow:0.01")
    assert plan.tracegen_slow == 0.01 and plan.any_active
    assert FaultPlan.parse("tracegen_slow").tracegen_slow == 0.05
    assert not FaultPlan().any_active


# -- engine skip-path counters ------------------------------------------------


def _require_native():
    from repro.memsim.native import native_available, native_status

    if not native_available():
        pytest.skip(f"native engine {native_status()}")


def test_simulate_reports_engine_skips_and_process_totals():
    from repro.devices.catalog import get_device
    from repro.kernels import transpose as tr
    from repro.memsim.columnar import process_skip_totals
    from repro.simulate import simulate

    _require_native()
    before = process_skip_totals()
    result = simulate(
        tr.build("Naive", 64), get_device("mango_pi_d1").scaled(16), engine="fast"
    )
    after = process_skip_totals()
    assert result.engine == "fast"
    assert sum(result.engine_skips.values()) > 0
    grown = {
        path: after[path] - before.get(path, 0) for path in after
    }
    for path, count in result.engine_skips.items():
        assert grown.get(path, 0) >= count

    exact = simulate(
        tr.build("Naive", 64), get_device("mango_pi_d1").scaled(16), engine="exact"
    )
    assert exact.engine == "exact" and exact.engine_skips == {}


def test_perf_stat_surfaces_skip_counters(monkeypatch):
    from repro.observe.perf import _stat_rows, render_stat, run_perf

    _require_native()
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    cell = run_perf("transpose", "Naive", "mango_pi_d1", n=64)
    assert cell.engine == "fast"
    assert sum(cell.engine_skips.values()) > 0
    names = [name for _value, name, _comment in _stat_rows(cell)]
    assert {"engine.resident", "engine.streaming", "engine.replayed"} <= set(names)
    rendered = render_stat(cell)
    assert "engine.replayed" in rendered and "% of line ops" in rendered

    from repro.observe.openmetrics import render_openmetrics

    exposition = render_openmetrics([cell])
    assert 'repro_engine_skip_ops_total' in exposition
    assert 'path="replayed"' in exposition


def test_serve_metrics_accumulate_engine_skips():
    from repro.serve.metrics import ServeMetrics

    metrics = ServeMetrics()
    metrics.record_engine_skips({"replayed": 10, "resident": 2})
    metrics.record_engine_skips({"replayed": 5})
    metrics.record_engine_skips(None)
    assert metrics.engine_skips == {"replayed": 15, "resident": 2}
    exposition = metrics.render()
    assert 'repro_serve_engine_skip_ops_total{path="replayed"} 15' in exposition


def test_executor_reports_engine_skip_deltas(tmp_path):
    from repro.serve.executor import execute_job, reset_runners

    _require_native()
    reset_runners()
    task = {
        "kernel": "transpose", "variant": "Naive", "device": "mango_pi_d1",
        "n": 64, "engine": "fast",
        "cache_path": str(tmp_path / "cache.json"),
    }
    result = execute_job(task)
    assert result["outcome"] == "completed"
    assert sum(result["engine_skips"].values()) > 0
    # A cache hit re-executes nothing, so the delta is empty.
    reset_runners()
    cached = execute_job(task)
    assert cached["outcome"] == "completed"
    assert cached["engine_skips"] == {}

