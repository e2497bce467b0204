"""Job execution: one picklable task function plus a dispatch shim.

:func:`execute_job` is the module-level function the serve tier runs for
every admitted job — inline when ``--jobs 1``, on a
:class:`~repro.runtime.WorkPool` spawn worker when ``--jobs`` > 1 (the
same pool the figure harnesses use, so ``REPRO_FAULTS`` chaos and
journalling behave identically in both tiers).  It goes through the
cached, supervised :class:`~repro.experiments.runner.Runner`, so:

* duplicate keys hit the memory/disk caches and the cross-process
  per-key file locks (dogpile protection);
* a per-job ``deadline_s`` becomes the supervisor's whole-call budget
  via ``dataclasses.replace`` on the env-derived
  :class:`~repro.runtime.RetryPolicy`;
* the result is always a plain dict with a terminal ``outcome`` —
  :func:`execute_job` **never raises**.  Any exception that escapes the
  runner (which itself never raises from ``run_supervised``) is folded
  into a ``failed`` outcome, because a crashed worker must degrade into
  a structured answer, not a 500.

Worker-local :class:`Runner` instances are cached per cache path so a
long-lived worker keeps its in-memory memoisation across jobs.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
from typing import Any, Dict, Optional

from repro.profiling import tracer
from repro.runtime import RetryPolicy, WorkPool

#: Per-process runner cache: workers stay warm across jobs.
_RUNNERS: Dict[Optional[str], Any] = {}


def _runner_for(cache_path: Optional[str]):
    from repro.experiments.runner import Runner

    runner = _RUNNERS.get(cache_path)
    if runner is None:
        runner = _RUNNERS[cache_path] = Runner(cache_path)
    return runner


def reset_runners() -> None:
    """Drop warm runners (tests repoint caches between servers)."""
    _RUNNERS.clear()


def execute_job(task: Dict[str, Any]) -> Dict[str, Any]:
    """Run one serve task to a terminal outcome dict.  Never raises."""
    try:
        return _execute(task)
    except BaseException as exc:  # noqa: B036 - the contract is "never raises"
        return {
            "outcome": "failed",
            "reason": f"executor crash: {exc!r}",
            "attempts": 0,
            "duration_s": 0.0,
            "record": None,
            "source": "",
        }


def _execute(task: Dict[str, Any]) -> Dict[str, Any]:
    from repro.devices.catalog import get_device
    from repro.kernels import build

    runner = _runner_for(task.get("cache_path"))
    device = get_device(task["device"]).scaled(task.get("scale", 1))
    program, _params, sim_kwargs = build(
        task["kernel"],
        task["variant"],
        device,
        n=task.get("n"),
        block=task.get("block"),
        filter_size=task.get("filter_size"),
    )

    if task.get("engine"):
        # Per-job replay-engine override; absent, simulate() resolves
        # REPRO_ENGINE itself.  The run key stays engine-free because
        # both engines produce bit-identical records.
        sim_kwargs = dict(sim_kwargs, engine=task["engine"])

    policy = RetryPolicy.from_env()
    deadline = task.get("deadline_s")
    if deadline is not None:
        policy = dataclasses.replace(policy, deadline_s=float(deadline))

    key = (
        "serve", task["kernel"], task["variant"], task["device"],
        task.get("scale", 1), task.get("n"), task.get("block"),
        task.get("filter_size"),
    )
    outcome = runner.run_supervised(
        key, lambda: program, device, policy=policy, **sim_kwargs
    )
    source = "simulated"
    if "memory-cache hit" in outcome.reason:
        source = "memory-cache"
    elif "disk-cache hit" in outcome.reason:
        source = "disk-cache"
    return {
        "outcome": outcome.status.value,
        "reason": "" if outcome.ok else outcome.reason,
        "attempts": outcome.attempts,
        "duration_s": outcome.duration_s,
        "record": dataclasses.asdict(outcome.value) if outcome.ok else None,
        "source": source,
    }


class JobExecutor:
    """Blocking dispatch of serve tasks, fanned across the work pool.

    The asyncio server calls :meth:`submit` via ``run_in_executor``; the
    thread pool sized to the worker count provides the blocking seats,
    and the :class:`WorkPool` provides process isolation when parallel.
    """

    def __init__(self, jobs: int = 1, pool: Optional[WorkPool] = None):
        self.jobs = max(1, int(jobs))
        self.pool = pool if pool is not None else WorkPool(jobs=self.jobs)
        self.threads = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-serve"
        )

    def run(self, task: Dict[str, Any]) -> Dict[str, Any]:
        """Execute ``task`` (blocking).  Never raises.

        ``task["traceparent"]`` (set by the server at dispatch) is
        re-activated here so spans connect across the dispatch boundary:
        inline (``jobs=1``) execution records its spans directly under
        the job's execute span, and the parallel path forwards the same
        context to the pool worker via :class:`WorkPool.apply`.
        """
        try:
            ctx = tracer.TraceContext.parse(task.get("traceparent"))
            with tracer.activate(ctx):
                return self.pool.apply(execute_job, task)
        except BaseException as exc:  # noqa: B036 - pool infrastructure failure
            return {
                "outcome": "failed",
                "reason": f"work pool dispatch failed: {exc!r}",
                "attempts": 0,
                "duration_s": 0.0,
                "record": None,
                "source": "",
            }

    def close(self) -> None:
        self.threads.shutdown(wait=True)
        self.pool.close()
