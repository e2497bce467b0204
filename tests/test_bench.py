"""The committed benchmark files: their statistics, host identity and
the engine-speedup check on ``benchmarks/BENCH_simulator.json``.

The statistical core is property-tested (the CI must contain the
median, outlier rejection must respect its cap); the simulator
benchmark's check and cell measurement get deterministic tests.
"""

import importlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks import bench_simulator
from repro.bench import (
    bootstrap_ci,
    fingerprint_hash,
    host_fingerprint,
    mad,
    median,
    reject_outliers,
    summarize,
)
from repro.simulate import SimulationResult

from tests.conftest import require_native

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


# -- host identity ------------------------------------------------------------


def test_fingerprint_hash_stable_and_identity_keyed():
    fp = host_fingerprint()
    assert fingerprint_hash(fp) == fingerprint_hash()
    assert fingerprint_hash(dict(fp, implementation="other")) == fingerprint_hash(fp)
    other = dict(fp, cores=fp["cores"] + 1)
    assert fingerprint_hash(other) != fingerprint_hash(fp)


# -- the committed engine-speedup check ---------------------------------------


def test_check_committed_speedup_new_and_old_schema(tmp_path):
    assert bench_simulator.MIN_SPEEDUP == 10.0
    new_schema = tmp_path / "new.json"
    new_schema.write_text(json.dumps(
        {"engine": {"exact": 30.0, "fast": 2.0, "speedup": 15.0,
                    "speedup_ci": [12.0, 18.0]}}
    ))
    assert bench_simulator.check_committed_speedup(str(new_schema)) == []

    # A CI whose low end misses the floor fails, however high the point.
    low = tmp_path / "low.json"
    low.write_text(json.dumps(
        {"engine": {"speedup": 15.0, "speedup_ci": [9.5, 20.0]}}
    ))
    failures = bench_simulator.check_committed_speedup(str(low))
    assert failures and "9.50" in failures[0]

    # A point estimate without an interval does not pass, however high.
    old_schema = tmp_path / "old.json"
    old_schema.write_text(json.dumps({"engine": {"speedup": 15.0}}))
    failures = bench_simulator.check_committed_speedup(str(old_schema))
    assert failures and "speedup_ci" in failures[0]

    assert bench_simulator.check_committed_speedup(str(tmp_path / "absent.json"))


def test_committed_simulator_bench_clears_the_ci_floor():
    assert bench_simulator.check_committed_speedup() == []


def test_bench_cli_check_committed(tmp_path, capsys):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(
        {"engine": {"speedup": 20.0, "speedup_ci": [15.0, 25.0]}}
    ))
    assert bench_simulator.main(["--check", "--output", str(path)]) == 0
    path.write_text(json.dumps({"engine": {"speedup": 20.0}}))
    assert bench_simulator.main(["--check", "--output", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out
    # --check only reads: the file it was pointed at is not rewritten.
    assert json.loads(path.read_text()) == {"engine": {"speedup": 20.0}}


# -- the simulator benchmark's cell measurement --------------------------------


CELL = (8192, 64, "visionfive_jh7100", "Naive", 16, 16)


def test_bench_simulator_measure_cell_smoke(monkeypatch):
    require_native()
    # Raises when the engines disagree on seconds or counters.
    cell = bench_simulator._measure_cell(*CELL)
    assert set(cell) == {
        "panel", "device", "variant",
        "end_to_end_exact_s", "end_to_end_fast_s",
        "engine_exact_s", "engine_fast_s", "replay_busy_fast_s",
    }
    for engine in ("exact", "fast"):
        assert 0 < cell[f"engine_{engine}_s"] <= cell[f"end_to_end_{engine}_s"]
    assert 0 < cell["replay_busy_fast_s"] <= cell["end_to_end_fast_s"]

    # ``repro.simulate`` the attribute is the function; patch the module.
    simulate_module = importlib.import_module("repro.simulate")
    real_simulate = simulate_module.simulate

    def tampered(transform):
        def simulate(*args, **kwargs):
            result = real_simulate(*args, **kwargs)
            return transform(result) if kwargs.get("engine") == "fast" else result
        return simulate

    # A fast run with one snapshot fewer must fail the cross-check, not
    # pass on the common prefix.
    def drop_snapshot(result: SimulationResult) -> SimulationResult:
        result.snapshots = result.snapshots[:-1]
        return result

    monkeypatch.setattr(simulate_module, "simulate", tampered(drop_snapshot))
    with pytest.raises(AssertionError, match="counters"):
        bench_simulator._measure_cell(*CELL)

    # A fast run that fell back to the exact engine must not report a
    # speedup.
    def fall_back(result: SimulationResult) -> SimulationResult:
        result.engine = "exact"
        return result

    monkeypatch.setattr(simulate_module, "simulate", tampered(fall_back))
    with pytest.raises(AssertionError, match="native core not loaded"):
        bench_simulator._measure_cell(*CELL)
