"""Chaos suite for the fault-tolerant experiment runtime.

Proves every recovery path in :mod:`repro.runtime` under deterministic
fault injection: corrupted-cache quarantine, stale-schema invalidation,
retry-until-success, deadline expiry, OOM-skip rendering in the figure
harnesses, and CLI error isolation.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.devices import get_device
from repro.errors import BudgetExceededError, SimulationError, TransientSimulationError
from repro.experiments import fig1, fig2, fig3, fig6, fig7
from repro.experiments.runner import RECORD_FIELDS, Runner, RunRecord
from repro.metrics.speedup import speedup_row
from repro.runtime import (
    CACHE_SCHEMA_VERSION,
    FaultPlan,
    Outcome,
    OutcomeStatus,
    RetryPolicy,
    RunCache,
    canonical_key,
    clear_faults,
    install_faults,
    read_journal,
    record_digest,
    summarize,
    supervise,
)
from repro.runtime.journal import default_journal_path

from tests.conftest import triad_program

DEVICE = "mango_pi_d1"
FAST = RetryPolicy(max_attempts=4, base_delay_s=0.0005, deadline_s=None)


@pytest.fixture(autouse=True)
def _no_leaked_faults(monkeypatch):
    """Each test starts and ends fault-free regardless of REPRO_FAULTS."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    clear_faults()
    yield
    clear_faults()


@pytest.fixture
def runner(tmp_path):
    return Runner(str(tmp_path / "cache.json"), policy=FAST)


def _run(runner, key=("chaos", 1), n=64):
    return runner.run_supervised(key, lambda: triad_program(n), get_device(DEVICE))


# -- cache corruption & schema staleness -------------------------------------


class TestCacheRecovery:
    def test_corrupt_cache_quarantined_and_rebuilt(self, tmp_path):
        path = str(tmp_path / "cache.json")
        good = Runner(path, policy=FAST)
        record = good.run(("k", 1), lambda: triad_program(64), get_device(DEVICE))

        with open(path, "w") as fh:
            fh.write('{"schema": 2, "records": {{{ not json')

        recovered = Runner(path, policy=FAST)
        assert recovered.cache.quarantined is not None
        assert os.path.exists(recovered.cache.quarantined)
        assert ".corrupt-" in recovered.cache.quarantined
        # the run completes with correct (re-simulated) results
        again = recovered.run(("k", 1), lambda: triad_program(64), get_device(DEVICE))
        assert again == record
        # and the rebuilt cache file is valid versioned JSON again
        with open(path) as fh:
            data = json.load(fh)
        assert data["schema"] == CACHE_SCHEMA_VERSION
        assert len(data["records"]) == 1

    def test_cache_corrupt_fault_injection_round_trip(self, tmp_path):
        """REPRO_FAULTS=cache_corrupt corrupts every write; the next load
        quarantines and the run still completes correctly."""
        path = str(tmp_path / "cache.json")
        install_faults("cache_corrupt")
        first = Runner(path, policy=FAST)
        record = first.run(("k", 1), lambda: triad_program(64), get_device(DEVICE))
        # the fault hook garbled the file after the write
        with pytest.raises(ValueError):
            json.load(open(path))

        second = Runner(path, policy=FAST)
        assert second.cache.quarantined is not None
        again = second.run(("k", 1), lambda: triad_program(64), get_device(DEVICE))
        assert again == record

    def test_legacy_flat_cache_invalidated_not_crashed(self, tmp_path):
        """The pre-runtime flat {repr(key): record} format is parseable
        JSON with no schema field: records drop, nothing raises."""
        path = str(tmp_path / "cache.json")
        legacy = {"('k', 1)": {"program_name": "x", "bogus_field": 1}}
        with open(path, "w") as fh:
            json.dump(legacy, fh)
        runner = Runner(path, policy=FAST)
        assert runner.cache.quarantined is None
        assert len(runner.cache) == 0
        assert runner.cache.dropped == 1
        outcome = _run(runner, key=("k", 1))
        assert outcome.status is OutcomeStatus.COMPLETED

    def test_stale_record_fields_dropped_without_typeerror(self, tmp_path):
        """A v2 record whose fields no longer match RunRecord must be
        dropped at load, never exploded via RunRecord(**dict)."""
        path = str(tmp_path / "cache.json")
        key = canonical_key(("k", 1))
        stale = {"program_name": "x", "seconds": 1.0, "renamed_field": 3}
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "records": {key: {"digest": record_digest(stale), "record": stale}},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
        runner = Runner(path, policy=FAST)
        assert runner.cache.dropped == 1
        outcome = _run(runner, key=("k", 1))
        assert outcome.status is OutcomeStatus.COMPLETED
        assert isinstance(outcome.value, RunRecord)

    def test_tampered_digest_dropped(self, tmp_path):
        path = str(tmp_path / "cache.json")
        key = canonical_key(("k", 1))
        record = {name: 1 for name in RECORD_FIELDS}
        record["seconds"] = 99.0  # tampered after digesting
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "records": {key: {"digest": "0" * 16, "record": record}},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
        cache = RunCache(path, expected_fields=RECORD_FIELDS)
        assert cache.dropped == 1
        assert cache.get(key) is None

    def test_save_failure_warns_instead_of_silent_pass(self, tmp_path, caplog):
        missing_dir = str(tmp_path / "no" / "such" / "dir" / "cache.json")
        cache = RunCache(missing_dir, expected_fields=RECORD_FIELDS)
        with caplog.at_level("WARNING", logger="repro.runtime"):
            cache.put(canonical_key(("k",)), {name: 1 for name in RECORD_FIELDS})
        assert any("not saved" in message for message in caplog.messages)

    def test_canonical_key_is_stable_and_versioned(self):
        key = canonical_key(("fig2", "Naive", 512, 16, "xeon_4310t", 16))
        assert key.startswith(f"v{CACHE_SCHEMA_VERSION}:")
        assert key == canonical_key(("fig2", "Naive", 512, 16, "xeon_4310t", 16))
        assert key != canonical_key(("fig2", "Naive", 1024, 16, "xeon_4310t", 16))


# -- supervised execution -----------------------------------------------------


class TestSupervision:
    def test_transient_error_retried_until_success(self, runner, tmp_path):
        install_faults("sim_flaky:2")
        outcome = _run(runner)
        assert outcome.status is OutcomeStatus.COMPLETED
        assert outcome.attempts == 3
        entries = read_journal(default_journal_path(str(tmp_path / "cache.json")))
        assert entries[-1].outcome == "completed"
        assert entries[-1].attempts == 3

    def test_transient_error_exhausts_retry_budget(self, runner):
        install_faults("sim_flaky:100")  # never recovers within 4 attempts
        outcome = _run(runner)
        assert outcome.status is OutcomeStatus.FAILED
        assert outcome.attempts == FAST.max_attempts
        assert isinstance(outcome.error, TransientSimulationError)
        with pytest.raises(TransientSimulationError):
            runner.run(("other", 2), lambda: triad_program(64), get_device(DEVICE))

    def test_probabilistic_flaky_is_seeded_and_deterministic(self):
        from repro.runtime import faults

        def sequence():
            install_faults("sim_flaky:0.5,seed:7")
            outcomes = []
            for i in range(20):
                try:
                    faults.before_simulate(f"key-{i}")
                    outcomes.append("ok")
                except TransientSimulationError:
                    outcomes.append("fault")
            return outcomes

        first, second = sequence(), sequence()
        assert first == second
        assert "fault" in first and "ok" in first

    def test_deadline_expiry_times_out(self, tmp_path):
        install_faults("sim_hang:0.4")
        runner = Runner(
            str(tmp_path / "cache.json"),
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.0005, deadline_s=0.05),
        )
        outcome = _run(runner)
        assert outcome.status is OutcomeStatus.TIMED_OUT
        assert isinstance(outcome.error, BudgetExceededError)
        with pytest.raises(BudgetExceededError):
            runner.run(("again", 1), lambda: triad_program(64), get_device(DEVICE))

    def test_oom_becomes_skipped_outcome(self, runner):
        from repro.errors import OutOfMemoryError

        def boom():
            raise OutOfMemoryError("2 GiB matrix exceeds 1 GiB DRAM")

        outcome = runner.run_supervised(("oom", 1), boom, get_device(DEVICE))
        assert outcome.status is OutcomeStatus.SKIPPED
        assert "out of memory" in outcome.reason

    def test_run_raises_simulation_error_without_cause(self, runner):
        outcome = Outcome(OutcomeStatus.FAILED, reason="synthetic")
        runner.run_supervised = lambda *a, **k: outcome
        with pytest.raises(SimulationError):
            runner.run(("x",), lambda: triad_program(8), get_device(DEVICE))

    def test_retry_backoff_grows_and_jitters(self):
        import random

        policy = RetryPolicy(max_attempts=5, base_delay_s=0.1, max_delay_s=1.0, jitter=0.5)
        rng = random.Random(0)
        delays = [policy.backoff(attempt, rng) for attempt in (1, 2, 3)]
        assert delays[0] >= 0.1 and delays[1] >= 0.2 and delays[2] >= 0.4
        assert all(d <= 1.5 for d in delays)

    def test_policy_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "7")
        monkeypatch.setenv("REPRO_DEADLINE", "12.5")
        monkeypatch.setenv("REPRO_RETRY_BASE", "not-a-number")
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 7
        assert policy.deadline_s == 12.5
        assert policy.base_delay_s == RetryPolicy.base_delay_s

    def test_negative_retry_base_is_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BASE", "-1")
        monkeypatch.setenv("REPRO_DEADLINE", "-5")
        policy = RetryPolicy.from_env()
        assert policy.base_delay_s == 0.0
        assert policy.deadline_s is None

    def test_supervise_never_raises_on_broken_sleep(self):
        """Even a sleep that raises (the old negative-REPRO_RETRY_BASE
        path) must classify as a failed outcome, not escape."""
        def flappy():
            raise TransientSimulationError("flap")

        def bad_sleep(_delay):
            raise ValueError("sleep length must be non-negative")

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.001)
        outcome = supervise(flappy, policy, sleep=bad_sleep)
        assert outcome.status is OutcomeStatus.FAILED
        assert "retry backoff failed" in outcome.reason

    def test_deadline_is_whole_call_budget(self):
        """A transient-flapping call must not burn max_attempts × deadline:
        elapsed time is deducted and retries stop once the leftover budget
        cannot cover the base backoff."""
        calls = []

        def flappy():
            calls.append(time.monotonic())
            time.sleep(0.04)
            raise TransientSimulationError("flap")

        policy = RetryPolicy(
            max_attempts=50, base_delay_s=0.005, max_delay_s=0.005, deadline_s=0.1
        )
        start = time.monotonic()
        outcome = supervise(flappy, policy)
        elapsed = time.monotonic() - start
        assert outcome.status in (OutcomeStatus.FAILED, OutcomeStatus.TIMED_OUT)
        # Bounded by ~one deadline, not 50 × 0.1 s of per-attempt budgets.
        assert elapsed < 1.0
        assert len(calls) < 10

    def test_budget_leftover_too_small_for_retry_fails_fast(self):
        def flappy():
            time.sleep(0.03)
            raise TransientSimulationError("flap")

        policy = RetryPolicy(
            max_attempts=10, base_delay_s=10.0, deadline_s=0.5
        )
        outcome = supervise(flappy, policy)
        assert outcome.status is OutcomeStatus.FAILED
        assert "cannot cover a retry" in outcome.reason
        assert outcome.attempts == 1

    def test_fault_plan_parsing(self):
        plan = FaultPlan.parse("cache_corrupt,sim_flaky:0.3,sim_hang,seed:3")
        assert plan.cache_corrupt and plan.sim_flaky == 0.3
        assert plan.sim_hang > 0 and plan.seed == 3
        with pytest.raises(ValueError):
            FaultPlan.parse("rm_rf_slash")
        assert not FaultPlan.parse("").any_active

    def test_fault_plan_parses_tracegen_slow(self):
        plan = FaultPlan.parse("tracegen_slow:0.01")
        assert plan.tracegen_slow == 0.01 and plan.any_active
        assert FaultPlan.parse("tracegen_slow").tracegen_slow == 0.05
        assert not FaultPlan().any_active


# -- journal ------------------------------------------------------------------


class TestJournal:
    def test_journal_records_every_attempt(self, tmp_path, runner):
        install_faults("sim_flaky:1")
        _run(runner, key=("a", 1))
        clear_faults()
        _run(runner, key=("b", 1), n=32)
        _run(runner, key=("b", 1), n=32)  # memory hit: no new journal line
        entries = read_journal(default_journal_path(str(tmp_path / "cache.json")))
        assert len(entries) == 2
        stats = summarize(entries)
        assert stats["by_outcome"]["completed"] == 2
        assert stats["retries"] == 1

    def test_journal_skips_torn_lines(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w") as fh:
            fh.write('{"ts": 1.0, "key": "k", "outcome": "completed", "duration_s": 0.1, "attempts": 1}\n')
            fh.write("{torn line\n")
        entries = read_journal(path)
        assert len(entries) == 1 and entries[0].outcome == "completed"


# -- figure-level graceful degradation ----------------------------------------


def _fake_panel(paper_n=16384, sim_n=1024):
    panel = fig2.Fig2Panel(paper_n=paper_n, sim_n=sim_n)
    panel.rows.append(
        speedup_row(
            "xeon_4310t",
            {"Naive": 1.0, "Parallel": 0.5, "Blocking": 0.25, "Manual_blocking": 0.2, "Dynamic": 0.1},
        )
    )
    panel.excluded.append("mango_pi_d1")
    return panel


class TestFigureDegradation:
    def test_fig2_renders_oom_exclusion_with_footnote(self):
        text = fig2.render([_fake_panel()])
        assert "does not fit" in text
        assert "† mango_pi_d1" in text
        assert "as in the paper" in text

    def test_fig2_partial_variant_failure_renders_dash(self):
        from repro.experiments.report import CellFailure

        panel = _fake_panel()
        del panel.rows[0].speedups["Dynamic"]
        del panel.rows[0].seconds["Dynamic"]
        panel.failures.append(
            CellFailure("xeon_4310t", "Dynamic", "failed", "injected chaos"))
        text = fig2.render([panel])
        assert "—" in text.splitlines()[3]  # the xeon data row
        assert "xeon_4310t/Dynamic failed: injected chaos" in text

    def test_fig3_mango_pi_16384_skipped_cell_with_oom_footnote(self, monkeypatch):
        """The acceptance case: the 16384^2 Mango Pi transpose renders as
        a skipped row with an OOM footnote instead of raising."""
        monkeypatch.setattr(
            fig2, "run_panel", lambda paper_n, scale, pool=None: _fake_panel(paper_n)
        )
        monkeypatch.setattr(fig1, "dram_bandwidth", lambda key, scale: 10.0)
        rows = fig3.run()
        mango = [r for r in rows if r.device_key == "mango_pi_d1"]
        assert len(mango) == 2 and all(r.status == "skipped" for r in mango)
        text = fig3.render(rows)
        assert "—" in text
        assert "does not fit in DRAM (out of memory)" in text
        # completed rows still carry data
        assert any(r.status == "completed" and r.best_utilization for r in rows)

    def test_fig6_device_failure_renders_dash_row(self):
        from repro.experiments.report import CellFailure

        result = fig6.Fig6Result(width=192, height=160, filter_size=19)
        result.failures.append(
            CellFailure("visionfive_jh7100", "Naive", "timed_out", "deadline 0.05s"))
        text = fig6.render(result)
        assert "visionfive_jh7100" in text
        assert "† visionfive_jh7100/Naive timed_out" in text

    def test_fig7_missing_baseline_degrades(self):
        row = speedup_row("dev", {"Naive": 1.0, "Unit-stride": 0.9, "Memory": 0.1, "Parallel": 0.05})
        result = fig6.Fig6Result(width=192, height=160, filter_size=19, rows=[row])
        import repro.experiments.fig7 as f7

        rows = [
            f7.Fig7Row(r.device_key, {}, {}, status="skipped", note="baseline missing")
            if "1D_kernels" not in r.seconds else r
            for r in result.rows
        ]
        text = f7.render(rows)
        assert "—" in text and "baseline missing" in text

    def test_fig1_failed_level_renders_dash(self):
        rows = [
            fig1.Fig1Row("dev", "L1", 1.0, 2.0, 3.0, 4.0),
            fig1.Fig1Row("dev", "DRAM", 0, 0, 0, 0, status="failed", note="dev/DRAM: failed — boom"),
        ]
        text = fig1.render(rows)
        assert "† dev/DRAM" in text
        assert text.count("—") >= 4


# -- CLI isolation and status --------------------------------------------------


class TestCliIsolation:
    @pytest.fixture
    def stub_figures(self, monkeypatch):
        from repro import cli

        for name in cli.FIGURES:
            mod = getattr(cli, name)
            monkeypatch.setattr(mod, "run", lambda pool=None: [], raising=True)
            monkeypatch.setattr(
                mod, "render", lambda rows, _n=name: f"{_n.upper()}OUT", raising=True
            )
        return cli

    def test_all_continues_past_failing_figure(self, stub_figures, monkeypatch, capsys):
        def explode(rows):
            raise RuntimeError("injected fig3 failure")

        monkeypatch.setattr(stub_figures.fig3, "render", explode)
        rc = stub_figures.main(["all"])
        out, err = capsys.readouterr()
        assert rc == 1
        for name in ("FIG1OUT", "FIG2OUT", "FIG6OUT", "FIG7OUT"):
            assert name in out
        assert "FAILURE SUMMARY" in err
        assert "injected fig3 failure" in err

    def test_all_green_exits_zero(self, stub_figures, capsys):
        rc = stub_figures.main(["all"])
        out, _err = capsys.readouterr()
        assert rc == 0
        assert "FIG1OUT" in out and "FIG7OUT" in out

    def test_csv_dir_output_survives_later_failure(self, stub_figures, monkeypatch, tmp_path, capsys):
        from repro.experiments import export

        written = []

        def fake_writer(name):
            def _write(result, directory):
                if name == "fig2":
                    raise OSError("disk full")
                written.append(name)
                return f"{directory}/{name}.csv"

            return _write

        monkeypatch.setattr(
            export,
            "EXPORTERS",
            {name: (lambda pool=None: [], fake_writer(name)) for name in ("fig1", "fig2", "fig3")},
        )
        rc = stub_figures.main(["fig1", "fig2", "fig3", "--csv-dir", str(tmp_path)])
        _out, err = capsys.readouterr()
        assert rc == 1
        assert written == ["fig1", "fig3"]
        assert "fig2 (csv export)" in err

    def test_status_subcommand_summarizes_journal(self, tmp_path, monkeypatch, capsys):
        from repro import cli
        from repro.experiments import runner as runner_mod

        cache_path = str(tmp_path / "cache.json")
        monkeypatch.setenv("REPRO_CACHE", cache_path)
        runner = Runner(cache_path, policy=FAST)
        install_faults("sim_flaky:1")
        _run(runner, key=("s", 1))
        clear_faults()

        rc = cli.main(["status"])
        out, _err = capsys.readouterr()
        assert rc == 0
        assert "Run journal" in out
        assert "completed" in out
        assert "retries: 1" in out

    def test_status_with_cache_off(self, monkeypatch, capsys):
        from repro import cli

        monkeypatch.setenv("REPRO_CACHE", "off")
        rc = cli.main(["status"])
        out, _err = capsys.readouterr()
        assert rc == 0
        assert "disabled" in out
