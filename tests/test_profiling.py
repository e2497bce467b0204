"""Profiling package: tracer, counter registry, attribution, baselines."""

import json

import pytest

from repro.devices import DEVICE_KEYS, get_device
from repro.kernels import transpose
from repro.profiling import Tracer, counter_set, diff_counters, per_core_counter_sets, tracer
from repro.kernels import KernelError
from repro.profiling.baseline import BASELINE_SCHEMA, check_entry, load_baselines, save_entry
from repro.profiling.profile import ProfileReport, profile_run, render_report
from repro.runtime.faults import clear_faults, install_faults
from repro.simulate import simulate

#: fig2 / fig6 kernel suites, at test-sized inputs (full figure sizes take
#: tens of seconds per cell; the attribution math is size-independent).
FIG_GRID = [("transpose", v) for v in transpose.VARIANT_ORDER] + [
    ("blur", v) for v in ("Naive", "Unit-stride", "1D_kernels", "Memory", "Parallel")
]

CHROME_REQUIRED_KEYS = {"name", "ph", "ts", "dur", "pid", "tid"}


def _small_result(device_key="mango_pi_d1", n=64):
    device = get_device(device_key)
    return simulate(transpose.build("Naive", n, block=16), device, check_capacity=False)


# -- tracer --------------------------------------------------------------------


class TestTracer:
    def test_disabled_by_default(self):
        assert tracer.current() is None
        # No tracer installed: span() is a shared no-op context manager.
        assert tracer.span("a") is tracer.span("b")
        with tracer.span("noop"):
            pass
        tracer.instant("nothing-happens")

    def test_install_and_restore(self):
        assert tracer.current() is None
        with tracer.install() as outer:
            assert tracer.current() is outer
            inner_tracer = Tracer()
            with tracer.install(inner_tracer):
                assert tracer.current() is inner_tracer
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_nested_spans_record_depth_and_args(self):
        t = Tracer()
        with t.span("outer", cat="test", key="v"):
            with t.span("inner"):
                pass
        by_name = {s.name: s for s in t.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["outer"].args == {"key": "v"}
        assert by_name["outer"].dur_us >= by_name["inner"].dur_us

    def test_chrome_events_schema(self, tmp_path):
        t = Tracer()
        with t.span("parent", cat="phase"):
            with t.span("child"):
                pass
        t.instant("marker", note="hi")
        events = t.chrome_events()
        assert len(events) == 3
        for event in events:
            assert CHROME_REQUIRED_KEYS <= set(event)
            assert event["ph"] == "X"
            assert event["pid"] == 1
            assert event["dur"] >= 0
        # Sorted by start timestamp.
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)

        path = tmp_path / "trace.json"
        t.write_chrome_trace(str(path))
        loaded = json.loads(path.read_text())
        assert isinstance(loaded, list)
        assert loaded == events

    def test_render_tree(self):
        t = Tracer()
        with t.span("root", cat="x", n=3):
            with t.span("leaf"):
                pass
        text = t.render_tree()
        assert "root" in text and "leaf" in text
        assert "n=3" in text
        assert t.render_tree(min_us=1e12) == "(no spans recorded)"
        assert Tracer().render_tree() == "(no spans recorded)"

    def test_module_span_records_on_installed_tracer(self):
        with tracer.install() as t:
            with tracer.span("via-module", cat="c"):
                pass
        assert [s.name for s in t.spans] == ["via-module"]

    def test_pipeline_emits_spans(self):
        with tracer.install() as t:
            _small_result(n=32)
        names = {s.name for s in t.spans}
        assert {"simulate", "build_hierarchies", "trace+memsim", "timing"} <= names


# -- counters ------------------------------------------------------------------


class TestCounters:
    def test_counter_set_names_and_consistency(self):
        result = _small_result()
        counters = counter_set(result)
        for name in (
            "L1.hits", "L1.misses", "L1.prefetch_hits", "L1.writebacks",
            "tlb.walks", "dram.read_lines", "dram.written_lines",
            "dram.read_bytes", "dram.written_bytes", "dram.bytes",
            "ops.loads", "ops.stores", "ops.flops", "trace.segments",
        ):
            assert name in counters, name
        assert all(isinstance(v, int) for v in counters.values())
        assert counters["dram.bytes"] == counters["dram.read_bytes"] + counters["dram.written_bytes"]
        assert counters["dram.bytes"] == result.dram_bytes
        assert counters["ops.loads"] == result.total_ops.loads

    def test_counter_set_sums_per_core(self):
        result = simulate(
            transpose.build("Parallel", 64, block=16),
            get_device("xeon_4310t"),
            check_capacity=False,
        )
        per_core = per_core_counter_sets(result)
        assert len(per_core) == result.active_cores > 1
        total = counter_set(result)
        for name, value in total.items():
            assert value == sum(core[name] for core in per_core), name

    def test_diff_counters(self):
        old = {"a": 1, "b": 2}
        new = {"a": 1, "b": 3, "c": 4}
        diff = diff_counters(old, new)
        assert diff == {"b": (2, 3), "c": (None, 4)}
        assert diff_counters(old, dict(old)) == {}


# -- time attribution ----------------------------------------------------------


class TestAttribution:
    @pytest.mark.parametrize("device_key", DEVICE_KEYS)
    @pytest.mark.parametrize("kernel,variant", FIG_GRID)
    def test_components_sum_to_wall_clock(self, kernel, variant, device_key):
        """Acceptance invariant: for every fig2/fig6 variant x device the
        attribution partition reproduces the reported wall-clock."""
        kwargs = {"n": 256} if kernel == "transpose" else {"n": 64, "filter_size": 9}
        report, result = profile_run(kernel, variant, device_key, **kwargs)
        seconds = result.timing.seconds
        assert seconds > 0
        for attribution in result.timing.attribution:
            assert attribution.total() == pytest.approx(seconds, rel=1e-9)
            # No component may be negative.
            assert attribution.compute >= 0
            assert attribution.transfer >= 0
            assert attribution.tlb >= 0
            assert attribution.dram_stream >= 0
            assert attribution.dram_contention >= 0
            assert attribution.idle >= 0
            assert all(v >= 0 for v in attribution.exposed_latency.values())
        summary = result.timing.attribution_summary()
        assert sum(summary.values()) == pytest.approx(seconds, rel=1e-9)
        assert sum(report.attribution.values()) == pytest.approx(report.seconds, rel=1e-9)

    def test_report_attribution_matches_timing(self):
        report, result = profile_run("transpose", "Naive", "mango_pi_d1", n=64)
        assert report.attribution == result.timing.attribution_summary()
        assert len(report.per_core_attribution) == result.active_cores
        assert report.seconds == result.seconds


# -- profile_run ---------------------------------------------------------------


class TestProfileRun:
    def test_unknown_names_raise(self):
        with pytest.raises(KernelError, match="kernel"):
            profile_run("fft", "Naive", "mango_pi_d1")
        with pytest.raises(KernelError, match="variant"):
            profile_run("transpose", "SuperFast", "mango_pi_d1")
        with pytest.raises(KernelError, match="device"):
            profile_run("transpose", "Naive", "cray_1")

    def test_case_insensitive_resolution(self):
        report, _ = profile_run("Transpose", "naive", "MANGO_PI_D1", n=64)
        assert report.kernel == "transpose"
        assert report.variant == "Naive"

    def test_as_dict_round_trips_through_json(self):
        report, _ = profile_run("transpose", "Blocking", "mango_pi_d1", n=64)
        data = json.loads(json.dumps(report.as_dict()))
        assert data["kernel"] == "transpose"
        assert data["counters"]["dram.bytes"] > 0
        assert data["roofline"]["memory_bound"] in (True, False)

    def test_host_stage_table_ranks_stages_and_stays_out_of_json(self):
        profile_run("transpose", "Naive", "mango_pi_d1", n=64)  # load the replay core
        install_faults("tracegen_slow:0.05")
        try:
            report, result = profile_run("transpose", "Naive", "mango_pi_d1", n=64)
        finally:
            clear_faults()
        text = render_report(report, result)
        table = text.split("host stages")[1].split("\n\n")[0].splitlines()
        assert [c.strip() for c in table[1].split("|")] == [
            "stage", "seconds", "share", "work", "rate"
        ]
        rows = {cells[0]: cells for cells in
                ([c.strip() for c in line.split("|")] for line in table[3:])}
        assert sorted(rows) == sorted(["build", "plan", "tracegen", "replay", "timing"])
        assert table[3].split("|")[0].strip() == "tracegen"
        # Work and rate: segments (CoreWork) from the emitter's rows, and
        # line ops summed from the per-level table below.
        segments = sum(work.segments for work in result.works)
        assert result.trace_segments == segments  # one repetition
        assert rows["tracegen"][3] == f"{segments} segments from {result.trace_rows} rows"
        assert 0 < result.trace_rows <= segments
        assert rows["tracegen"][4].endswith(" ns/segment")
        levels = text.split("replay line ops per level")[1].splitlines()[3:]
        ops = [[int(c) for c in line.split("|")[1:]] for line in levels]
        assert len(ops) == len(result.snapshots[0].levels)
        assert ops[0] == [sum(getattr(snap.levels[0], name) for snap in result.snapshots)
                          for name in ("accesses", "misses", "writebacks")]
        # Beside them the TLB's pages and walks and the prefetcher's
        # covered lines, from the counters replay already keeps.
        assert rows["replay"][3] == (
            f"{sum(p + w for p, _m, w in ops)} line ops; TLB {result.tlb_pages} pages, "
            f"{result.tlb_walks} walks; {result.prefetch_covered} prefetch-covered lines"
        )
        assert result.tlb_walks == sum(snap.tlb_walks for snap in result.snapshots) > 0
        assert result.tlb_pages > result.tlb_walks
        assert 0 < result.prefetch_covered <= ops[0][0]
        assert rows["replay"][4].endswith(" ns/line op")
        assert rows["build"][3:] == ["", ""]
        dumped = json.dumps(report.as_dict())
        assert "stage" not in dumped and "ns/" not in dumped and "rows" not in dumped
        assert "pages" not in dumped and "prefetch-covered" not in dumped


# -- baselines -----------------------------------------------------------------


def _fake_report(counters=None, seconds=1.0):
    return ProfileReport(
        kernel="transpose",
        variant="Naive",
        device_key="dev@1",
        scale=16,
        params={"n": 64, "block": 16},
        active_cores=1,
        seconds=seconds,
        bottleneck="dram bandwidth",
        counters=counters or {"L1.misses": 100, "dram.bytes": 6400},
    )


def save_baseline(path, report):
    save_entry(path, report.baseline_key, report.counters, report.seconds,
               report.active_cores)


def check_report(report, path):
    return check_entry(path, report.baseline_key, report.counters, report.seconds)


class TestBaseline:
    def test_save_then_check_clean(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        report = _fake_report()
        save_baseline(path, report)
        assert check_report(report, path) == []
        data = load_baselines(path)
        assert data["schema"] == BASELINE_SCHEMA
        assert len(data["entries"]) == 1

    def test_missing_entry_is_a_violation(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        violations = check_report(_fake_report(), path)
        assert len(violations) == 1
        assert "no baseline entry" in violations[0]

    def test_counter_drift_detected(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        save_baseline(path, _fake_report())
        drifted = _fake_report(counters={"L1.misses": 101, "dram.bytes": 6400})
        violations = check_report(drifted, path)
        assert any("L1.misses" in v for v in violations)

    def test_new_and_missing_counters_flagged(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        save_baseline(path, _fake_report())
        changed = _fake_report(counters={"L1.misses": 100, "L2.misses": 5})
        violations = check_report(changed, path)
        assert any("dram.bytes" in v and "missing from run" in v for v in violations)
        assert any("L2.misses" in v and "not in baseline" in v for v in violations)

    def test_seconds_drift_detected(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        save_baseline(path, _fake_report(seconds=1.0))
        violations = check_report(_fake_report(seconds=1.1), path)
        assert any("seconds" in v for v in violations)
        assert check_report(_fake_report(seconds=1.0 + 1e-9), path) == []

    def test_save_merges_entries(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        save_baseline(path, _fake_report())
        other = _fake_report()
        other.variant = "Blocking"
        save_baseline(path, other)
        assert len(load_baselines(path)["entries"]) == 2

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": 999, "entries": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_baselines(str(path))
        violations = check_report(_fake_report(), str(path))
        assert any("unusable" in v for v in violations)

    def test_committed_baseline_is_loadable(self):
        from repro.profiling.baseline import DEFAULT_BASELINE_PATH

        data = load_baselines(DEFAULT_BASELINE_PATH)
        assert data["entries"], "committed baseline must not be empty"
