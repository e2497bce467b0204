"""Chaos under concurrency: faults injected into multiprocess fan-out.

The batch chaos suite (``test_runtime_faults``) proves each recovery
path serially; this suite proves the same degradations hold when cells
run across a spawn :class:`~repro.runtime.WorkPool` — workers inherit
``REPRO_FAULTS`` from the parent environment at spawn, every cell still
terminates in a structured outcome, and the rendered figure output is
byte-identical to the serial degraded run (collection order is fixed by
the task list, and deterministic fault plans fail the same attempts in
any process placement).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import fig2, grid
from repro.runtime import WorkPool, clear_faults, read_journal
from repro.runtime.journal import default_journal_path


@pytest.fixture(autouse=True)
def _chaos_env(monkeypatch):
    """Fast, quiet, isolated chaos runs; cleared afterwards."""
    monkeypatch.setenv("REPRO_PMU", "off")
    monkeypatch.setenv("REPRO_RETRY_BASE", "0.001")
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_DEADLINE", raising=False)
    clear_faults()
    yield
    clear_faults()


def _degraded_panel(monkeypatch, tmp_path, tag, pool=None):
    """One fig2 panel slice under a fault plan that fails every attempt."""
    from repro.experiments.runner import reset_default_runner

    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / f"cache_{tag}.json"))
    monkeypatch.setenv("REPRO_FAULTS", "sim_flaky:5")
    monkeypatch.setenv("REPRO_RETRIES", "2")
    clear_faults()
    reset_default_runner()
    try:
        panel = fig2.run_panel(
            8192, variants=["Naive", "Blocking"], pool=pool or WorkPool.serial()
        )
        return fig2.render([panel])
    finally:
        reset_default_runner()


class TestDegradedRenderParity:
    def test_parallel_degraded_render_is_byte_identical_to_serial(
        self, monkeypatch, tmp_path
    ):
        """With every cell failing deterministically (sim_flaky:5 beats
        2 retries), a 2-worker fig2 slice renders byte-for-byte what the
        serial run renders: same dashes, same footnotes, same order."""
        serial = _degraded_panel(monkeypatch, tmp_path, "serial")
        with WorkPool(jobs=2) as pool:
            parallel = _degraded_panel(monkeypatch, tmp_path, "parallel", pool=pool)
        assert parallel == serial
        assert "—" in serial  # the cells really did degrade

    def test_degraded_cells_are_journalled_per_worker(self, monkeypatch, tmp_path):
        with WorkPool(jobs=2) as pool:
            _degraded_panel(monkeypatch, tmp_path, "journalled", pool=pool)
        journal = default_journal_path(str(tmp_path / "cache_journalled.json"))
        entries = read_journal(journal)
        assert entries, "workers must journal their failed cells"
        assert all(e.outcome == "failed" for e in entries)
        # Cells ran in the spawned workers, not the parent.
        workers = {e.worker for e in entries}
        assert workers and "" not in workers
        assert all(w != str(os.getpid()) for w in workers)


class TestQuarantineUnderConcurrency:
    def test_cache_corrupt_does_not_deadlock_parallel_cells(
        self, monkeypatch, tmp_path
    ):
        """``cache_corrupt`` garbles the shared cache after every write;
        parallel workers hitting the quarantined entry must rebuild and
        complete rather than deadlock on the per-key file locks."""
        from repro.experiments.runner import reset_default_runner

        cache = str(tmp_path / "corrupt_cache.json")
        monkeypatch.setenv("REPRO_CACHE", cache)
        monkeypatch.setenv("REPRO_FAULTS", "cache_corrupt")
        monkeypatch.setenv("REPRO_RETRIES", "2")
        clear_faults()
        reset_default_runner()
        tasks = [
            (fig2._build, ("fig2", variant, 64, 16, "mango_pi_d1", 16))
            for variant in ("Naive", "Blocking", "Parallel")
        ] * 2  # duplicate keys force cache (re)reads of corrupted entries
        try:
            with WorkPool(jobs=2) as pool:
                results = pool.map(grid._cell, tasks)
        finally:
            reset_default_runner()
        assert len(results) == len(tasks)
        for result in results:
            assert result.ok, result.reason
            assert result.record.seconds > 0
        # The fault really fired: the shared cache file ends up garbled.
        with open(cache) as fh:
            assert "corrupted-by-fault-injection" in fh.read()
