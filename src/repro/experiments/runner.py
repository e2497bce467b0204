"""Cached, supervised simulation runner shared by all figure harnesses.

Fig. 3 re-uses Fig. 2's transpose timings and Fig. 7 re-uses Fig. 6's blur
timings (exactly as the paper computes its utilization metric from the
same runs), so results are memoised per (family, variant, device) within
the process and persisted to a versioned, checksummed on-disk cache
(:class:`repro.runtime.RunCache`) so separate invocations do not
re-simulate identical configurations.

Every uncached simulate call executes under the runtime supervisor
(:func:`repro.runtime.supervise`): transient failures are retried with
backoff, out-of-memory workloads become ``skipped`` outcomes (the paper's
missing bars), deadline overruns become ``timed_out`` — and every attempt
is appended to the JSONL run journal surfaced by
``repro-experiments status``.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, Optional, Tuple

from repro.analysis.footprint import essential_traffic_bytes
from repro.devices.spec import DeviceSpec
from repro.errors import SimulationError
from repro.ir.program import Program
from repro.runtime import (
    Journal,
    Outcome,
    OutcomeStatus,
    RetryPolicy,
    RunCache,
    canonical_key,
    default_journal_path,
    supervise,
)
from repro.runtime import faults
from repro.runtime.journal import SOURCE_DISK_CACHE
from repro.profiling import tracer
from repro.profiling.counters import counter_set
from repro.simulate import SimulationResult, simulate
from repro.transforms import for_device


def pmu_enabled() -> bool:
    """``REPRO_PMU`` gate for figure-cell simulations (default: on).

    Figure cells attach the PMU in counters mode (``pmu="counters"``),
    whose replay takes 1.3× the PMU-off replay over the fig2 cells at
    512² (1.31–1.36×) and 1.25–1.31× over the fig6 cells at 40×192
    (sums of the best of 3 per cell, three runs, 2-core x86 host; the
    attributing PMU takes 1.4–1.5×).  ``REPRO_PMU=off`` (or ``0``/``no``)
    turns it off for quick local figure runs; the per-figure
    ``perf.json`` is then empty.
    """
    return os.environ.get("REPRO_PMU", "").strip().lower() not in ("off", "0", "no")


@dataclass(frozen=True)
class RunRecord:
    """The durable facts of one simulated run."""

    program_name: str
    device_key: str
    seconds: float
    dram_bytes: int
    essential_bytes: int
    active_cores: int
    flops: int
    # Flat perf-counter set of the run (counter registry names, summed
    # over cores); empty when the run was simulated with the PMU off.
    counters: Dict[str, int] = field(default_factory=dict)


RECORD_FIELDS = frozenset(f.name for f in fields(RunRecord))


@dataclass(frozen=True)
class CellResult:
    """A picklable reduction of one figure cell's :class:`Outcome`.

    Work-pool workers ship this back to the parent instead of the raw
    :class:`~repro.runtime.Outcome`, whose ``error`` may hold an
    arbitrary (possibly unpicklable) exception object.
    """

    status: str                      # an OutcomeStatus value
    reason: str
    record: Optional[RunRecord] = None

    @property
    def ok(self) -> bool:
        return self.status == "completed"


def cell_result(outcome) -> CellResult:
    """Reduce a supervised outcome to its picklable cell form."""
    return CellResult(
        status=outcome.status.value,
        reason=outcome.reason,
        record=outcome.value if outcome.ok else None,
    )


class Runner:
    """Builds, vectorizes (per device) and simulates kernels with caching
    and supervised, journalled execution."""

    def __init__(
        self,
        cache_path: Optional[str] = None,
        journal_path: Optional[str] = None,
        policy: Optional[RetryPolicy] = None,
    ):
        self._memory: Dict[Tuple, RunRecord] = {}
        self.cache = RunCache(cache_path, expected_fields=RECORD_FIELDS)
        if journal_path is None and cache_path:
            journal_path = default_journal_path(cache_path)
        self.journal = Journal(journal_path)
        self._policy = policy

    # -- public ------------------------------------------------------------

    def run(
        self,
        key: Tuple,
        build: Callable[[], Program],
        device: DeviceSpec,
        policy: Optional[RetryPolicy] = None,
        **simulate_kwargs,
    ) -> RunRecord:
        """Simulate ``build()`` on ``device`` unless already cached.

        ``key`` must uniquely identify (kernel family, variant, sizes,
        device, simulation options).  Raises on any non-completed outcome
        — figure harnesses that want graceful degradation use
        :meth:`run_supervised` instead.
        """
        outcome = self.run_supervised(key, build, device, policy=policy, **simulate_kwargs)
        if outcome.ok:
            return outcome.value
        if outcome.error is not None:
            raise outcome.error
        raise SimulationError(outcome.reason or f"supervised run of {key!r} failed")

    def run_supervised(
        self,
        key: Tuple,
        build: Callable[[], Program],
        device: DeviceSpec,
        policy: Optional[RetryPolicy] = None,
        **simulate_kwargs,
    ) -> Outcome:
        """Like :meth:`run` but never raises: returns a structured
        :class:`~repro.runtime.Outcome` whose ``value`` is the
        :class:`RunRecord` on completion.

        ``policy`` overrides the runner-level retry/deadline policy for
        this one call — the serve tier maps per-job deadlines onto
        supervision budgets this way.
        """
        disk_key = canonical_key(key)
        if key in self._memory:
            return Outcome(
                OutcomeStatus.COMPLETED,
                value=self._memory[key],
                attempts=0,
                reason="memory-cache hit",
                label=disk_key,
            )
        cached = self.cache.get(disk_key)
        if cached is not None:
            return self._disk_hit(key, disk_key, cached)

        def execute() -> RunRecord:
            faults.before_simulate(disk_key)
            with tracer.span("build_program", cat="runner", key=disk_key):
                program = for_device(build(), device)
            with_pmu = pmu_enabled()
            result: SimulationResult = simulate(
                program, device, pmu="counters" if with_pmu else False,
                **simulate_kwargs
            )
            return RunRecord(
                program_name=program.name,
                device_key=device.key,
                seconds=result.seconds,
                dram_bytes=result.dram_bytes,
                essential_bytes=essential_traffic_bytes(program),
                active_cores=result.active_cores,
                flops=result.total_ops.flops,
                counters=dict(counter_set(result)) if with_pmu else {},
            )

        policy = policy or self._policy or RetryPolicy.from_env()

        # Cross-process dogpile protection: take the per-key lockfile so
        # a sibling worker computing the same key finishes first, then
        # serve its freshly persisted record instead of recomputing.
        lock = self.cache.key_lock(disk_key)
        locked = lock.acquire() if lock is not None else False
        try:
            if locked:
                fresh = self.cache.reload(disk_key)
                if fresh is not None:
                    return self._disk_hit(key, disk_key, fresh)
            with tracer.span("runner.supervise", cat="runner", key=disk_key):
                outcome = supervise(
                    execute, policy, label=disk_key,
                    on_attempt=self._attempt_observer(disk_key),
                )
            self.journal.record(disk_key, outcome)
            if outcome.ok:
                self._memory[key] = outcome.value
                self.cache.put(disk_key, asdict(outcome.value))
        finally:
            if locked:
                lock.release()
        return outcome

    def _attempt_observer(self, disk_key: str):
        """Per-attempt progress callback for supervised runs.

        Only traced runs (serve jobs, which activate a
        :class:`~repro.profiling.tracer.TraceContext`) journal attempt
        events — batch figure sweeps would otherwise double their journal
        traffic for progress nobody is streaming.
        """
        ctx = tracer.active_context()
        if ctx is None:
            return None
        from repro.runtime.workpool import current_worker_id

        def observe(attempt: int) -> None:
            self.journal.event({
                "event": "attempt",
                "trace": ctx.trace_id,
                "key": disk_key,
                "attempt": attempt,
                "worker": current_worker_id(),
            })

        return observe

    def perf_counters(self) -> Dict[str, Dict[str, int]]:
        """``disk key -> flat counter set`` for every known record that
        carries one (runs simulated with the PMU on).  Feeds the per-figure
        ``perf.json`` export and the OpenMetrics renderer."""
        out: Dict[str, Dict[str, int]] = {}
        for disk_key, entry in self.cache.records.items():
            counters = entry["record"].get("counters") or {}
            if counters:
                out[disk_key] = dict(counters)
        return out

    def adopt(self, key: Tuple, record: RunRecord) -> None:
        """Install a record a worker process computed (and already
        journalled/persisted) into this process's memory cache."""
        self._memory[key] = record
        self.cache.put(canonical_key(key), asdict(record), save=False)

    def _disk_hit(self, key: Tuple, disk_key: str, cached: Dict) -> Outcome:
        # Field sets were validated at cache load, so this cannot raise
        # the historical RunRecord(**dict) TypeError.
        record = RunRecord(**cached)
        self._memory[key] = record
        outcome = Outcome(
            OutcomeStatus.COMPLETED,
            value=record,
            attempts=0,
            reason="disk-cache hit",
            label=disk_key,
        )
        self.journal.record(disk_key, outcome, source=SOURCE_DISK_CACHE)
        return outcome


_DEFAULT: Optional[Runner] = None


def default_cache_path() -> Optional[str]:
    """Resolve ``REPRO_CACHE``: ``off`` disables persistence, a path
    relocates it, empty means ``.repro_cache.json`` under the repo root."""
    env = os.environ.get("REPRO_CACHE", "")
    if env == "off":
        return None
    if env:
        return env
    path = os.path.join(os.path.dirname(__file__), "..", "..", "..", ".repro_cache.json")
    return os.path.abspath(path)


def default_runner() -> Runner:
    """Process-wide runner with an on-disk cache under the repo root.

    Set ``REPRO_CACHE=off`` to disable persistence, or ``REPRO_CACHE=path``
    to relocate it.  The run journal lives next to the cache file.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Runner(default_cache_path())
    return _DEFAULT


def reset_default_runner() -> None:
    """Drop the process-wide runner (tests repoint ``REPRO_CACHE``)."""
    global _DEFAULT
    _DEFAULT = None
